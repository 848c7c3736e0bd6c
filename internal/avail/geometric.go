package avail

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// Geometric is the dynamic random geometric graph scenario: n points start
// uniform on the unit torus [0,1)² and do independent random walks (per-slot
// displacement uniform in [-step, step]², wrapped); the edge {u,v} is live
// at label t exactly when the torus distance between u and v is at most the
// radius. Because the uniform law is stationary for the wrapped walk, the
// per-slot live probability of any fixed pair is the disc area π·radius²
// at every t — the quantity the conformance suite tests — while successive
// slots are strongly correlated through the motion, the regime of the
// Díaz–Mitsche–Pérez dynamic random geometric graphs.
//
// As a Scenario its Generate builds the support graph of every pair that is
// ever live; Assign labels an explicit substrate instead, gating each of
// its edges by the same mobility. As an IncrementalScenario it also hands
// batch engines a reusable per-worker trial state (NewScenarioState) that
// redraws whole trials into retained buffers — persistent grid buckets,
// packed time-edge events, canonical edge list — bit-identical to Generate.
type Geometric struct {
	a      int
	radius float64 // 0 = auto: 1.5·sqrt(ln n/(π·n)) at build time
	step   float64
}

// NewGeometric builds the scenario. radius 0 selects the automatic value
// 1.5·sqrt(ln n/(π·n)) — 1.5× the static connectivity threshold — once n is
// known; explicit radii must lie in (0, 0.5) so the torus disc area formula
// π·r² holds. step is the per-coordinate half-range of one displacement.
func NewGeometric(a int, radius, step float64) (Geometric, error) {
	if a < 1 {
		return Geometric{}, fmt.Errorf("geometric needs lifetime >= 1, got %d", a)
	}
	if radius != 0 && !(radius > 0 && radius < 0.5) {
		return Geometric{}, fmt.Errorf("geometric needs radius in (0,0.5) or 0=auto, got %v", radius)
	}
	if !(step > 0 && step <= 0.5) {
		return Geometric{}, fmt.Errorf("geometric needs step in (0,0.5], got %v", step)
	}
	return Geometric{a: a, radius: radius, step: step}, nil
}

func (m Geometric) Name() string {
	r := "auto"
	if m.radius > 0 {
		r = fmt.Sprintf("%.3g", m.radius)
	}
	return fmt.Sprintf("geometric(r=%s,step=%.3g)", r, m.step)
}

func (m Geometric) Lifetime() int { return m.a }

// Radius resolves the live radius for an n-point instance.
func (m Geometric) Radius(n int) float64 {
	if m.radius > 0 {
		return m.radius
	}
	if n < 2 {
		return 0.25
	}
	r := 1.5 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
	return math.Min(r, 0.49)
}

// walk holds the evolving point positions.
type walk struct {
	xs, ys []float64
	step   float64
}

func newWalk(n int, step float64, stream *rng.Stream) *walk {
	w := &walk{xs: make([]float64, n), ys: make([]float64, n), step: step}
	for i := 0; i < n; i++ {
		w.xs[i] = stream.Float64()
		w.ys[i] = stream.Float64()
	}
	return w
}

// advance moves every point one slot, drawing 2n uniforms in vertex order.
func (w *walk) advance(stream *rng.Stream) {
	for i := range w.xs {
		w.xs[i] = wrap01(w.xs[i] + (2*stream.Float64()-1)*w.step)
		w.ys[i] = wrap01(w.ys[i] + (2*stream.Float64()-1)*w.step)
	}
}

func wrap01(x float64) float64 {
	x = math.Mod(x, 1)
	if x < 0 {
		x++
	}
	return x
}

// dist2 is the squared torus distance between points i and j.
func (w *walk) dist2(i, j int) float64 { return torusDist2(w.xs, w.ys, i, j) }

func torusDist2(xs, ys []float64, i, j int) float64 {
	dx := math.Abs(xs[i] - xs[j])
	if dx > 0.5 {
		dx = 1 - dx
	}
	dy := math.Abs(ys[i] - ys[j])
	if dy > 0.5 {
		dy = 1 - dy
	}
	return dx*dx + dy*dy
}

// Assign gates the edges of an explicit substrate by the mobility: edge e
// carries label t iff its endpoints are within the radius at slot t. Edges
// whose endpoints never meet receive empty label sets.
func (m Geometric) Assign(g *graph.Graph, stream *rng.Stream) temporal.Labeling {
	n := g.N()
	r := m.Radius(n)
	r2 := r * r
	w := newWalk(n, m.step, stream)
	sets := make([][]int, g.M())
	for t := 1; t <= m.a; t++ {
		for e := 0; e < g.M(); e++ {
			u, v := g.Endpoints(e)
			if w.dist2(u, v) <= r2 {
				sets[e] = append(sets[e], t)
			}
		}
		if t < m.a {
			w.advance(stream)
		}
	}
	return temporal.LabelingFromSets(sets)
}

// Generate runs the walk and returns the support graph of every pair that
// is ever live, labeled with its live slots. Edges come out in canonical
// order (from < to, lexicographically ascending). This is the simple
// map-accumulating reference implementation, kept deliberately independent
// of the packed-event engine batched trials run on (NewScenarioState): the
// differential tests pin the engine bit-identical to this path, which only
// works as evidence while the two stay separate implementations.
func (m Geometric) Generate(n int, stream *rng.Stream) (*graph.Graph, temporal.Labeling) {
	if n < 0 {
		panic("avail: geometric Generate with negative n")
	}
	return m.generateMap(n, stream)
}

// NewScenarioState returns the reusable per-worker trial state for n
// points, or nil when the packed-event representation cannot cover n×n
// pair keys times the lifetime (engines then fall back to Generate per
// trial). This is the avail.IncrementalScenario entry point.
func (m Geometric) NewScenarioState(n int) ScenarioState {
	st := m.newState(n)
	if st == nil {
		return nil
	}
	return st
}

// geomState is the incremental trial engine. Everything a trial needs is
// retained: the point coordinates, the torus grid buckets (kept consistent
// across steps by delta cell moves instead of being rebuilt), the packed
// time-edge event buffer, and the output edge list + labeling. After the
// first trial at a stable size, Resample allocates nothing.
//
// The per-trial work is branch-light by construction: the walk wraps with
// two compares instead of math.Mod (wrapStep), the pair scans fold the
// torus distance with min and write every candidate into room reserved
// before the scan, advancing the length by the comparison result, and
// events pack the slot into the low tb bits so grouping unpacks them with
// a shift and a mask. Each is bit-identical to the branchy reference
// arithmetic of walk and torusDist2 that generateMap still runs.
type geomState struct {
	geo   Geometric
	n     int
	r2    float64
	cells int  // grid side; 0 = brute-force pair scan per step
	tb    uint // bits.Len(lifetime): width of the packed event's slot field

	xs, ys []float64

	// Grid state (cells > 0): cell[i] is point i's current cell, buckets
	// the members of each cell. advance moves points between buckets only
	// when their cell actually changes — most steps move only a fraction of
	// points across cell borders, and no per-step allocation or O(cells²)
	// reset happens either way. nbr lists each cell's four halfOffsets
	// neighbors; maxB is the longest any bucket has been this trial, which
	// bounds the candidate pairs of one scan (scanGrid).
	cell    []int32
	buckets [][]int32
	nbr     []int32
	maxB    int

	// events collects one packed word per (pair, slot) liveness:
	// (u·n+v)<<tb | t with u < v. The scan emits them t-major, so a stable
	// counting sort keyed by pair (groupCounting, when counts is non-nil)
	// puts them in canonical edge order with ascending labels inside each
	// edge without comparison-sorting the whole buffer; states too large
	// for a per-pair cursor array sort the events instead (group).
	events []uint64

	// counts/touched are the counting-sort cursors: counts is indexed by
	// pair key u·n+v (zero outside a trial), touched lists the keys hit
	// this trial so resetting is O(edges), not O(n²).
	counts  []int32
	touched []int32

	from, to []int32
	lab      temporal.Labeling
}

// countingMaxKeys bounds the pair-key space (n²) the counting-sort path
// allocates a cursor array for — 2²⁰ int32 cursors is 4 MiB per state,
// i.e. per batch worker. Larger states comparison-sort the events.
const countingMaxKeys = 1 << 20

// newState builds the engine, or returns nil when the packed-event word
// would need more than 62 bits: n² pair keys shifted past the tb =
// bits.Len(lifetime) slot bits, i.e. n²·2^tb > 2⁶².
func (m Geometric) newState(n int) *geomState {
	if n < 0 {
		panic("avail: geometric state with negative n")
	}
	tb := uint(bits.Len(uint(m.a)))
	if float64(n)*float64(n)*float64(uint64(1)<<tb) > float64(uint64(1)<<62) {
		return nil
	}
	r := m.Radius(n)
	s := &geomState{
		geo: m, n: n, r2: r * r, tb: tb,
		xs: make([]float64, n), ys: make([]float64, n),
	}
	// Same guard as the original generator: a grid pays off only when it
	// is at least 4×4 and there are enough points to spread over it. The
	// side stays floor(1/r), the finest grid whose cells are at least a
	// radius wide; coarser grids measured slower at every mobility radius.
	if cells := int(math.Floor(1 / r)); cells >= 4 && n >= 16 {
		s.cells = cells
		s.cell = make([]int32, n)
		s.buckets = make([][]int32, cells*cells)
		s.nbr = halfNeighbors(cells)
	}
	if nk := n * n; nk > 0 && nk <= countingMaxKeys {
		s.counts = make([]int32, nk)
	}
	return s
}

// Resample redraws one full trial: identical stream consumption to the
// walk in Generate/Assign (init draws x,y per point, each advance draws
// x,y per point, a−1 advances), identical pair set, identical canonical
// output order. Implements avail.ScenarioState.
func (s *geomState) Resample(stream *rng.Stream) ([]int32, []int32, temporal.Labeling) {
	n := s.n
	for i := 0; i < n; i++ {
		s.xs[i] = stream.Float64()
		s.ys[i] = stream.Float64()
	}
	if s.cells > 0 {
		for i := range s.buckets {
			s.buckets[i] = s.buckets[i][:0]
		}
		s.maxB = 0
		for i := 0; i < n; i++ {
			c := s.cellIndex(i)
			s.cell[i] = c
			s.buckets[c] = append(s.buckets[c], int32(i))
			s.maxB = max(s.maxB, len(s.buckets[c]))
		}
	}
	s.events = s.events[:0]
	a := s.geo.a
	for t := 1; t <= a; t++ {
		if s.cells > 0 {
			s.scanGrid(t)
		} else {
			s.scanBrute(t)
		}
		if t < a {
			s.advance(stream)
		}
	}
	if s.counts != nil {
		return s.groupCounting()
	}
	slices.Sort(s.events)
	return s.group()
}

// advance moves every point one slot (drawing uniforms in exactly the
// walk.advance order) and migrates the points whose grid cell changed.
// Bucket removal is a swap-remove after a linear scan — buckets hold a few
// points each by construction (cell side ≥ radius).
func (s *geomState) advance(stream *rng.Stream) {
	step := s.geo.step
	for i := range s.xs {
		s.xs[i] = wrapStep(s.xs[i] + (2*stream.Float64()-1)*step)
		s.ys[i] = wrapStep(s.ys[i] + (2*stream.Float64()-1)*step)
		if s.cells == 0 {
			continue
		}
		c := s.cellIndex(i)
		if old := s.cell[i]; c != old {
			b := s.buckets[old]
			for k, p := range b {
				if p == int32(i) {
					b[k] = b[len(b)-1]
					s.buckets[old] = b[:len(b)-1]
					break
				}
			}
			s.cell[i] = c
			s.buckets[c] = append(s.buckets[c], int32(i))
			s.maxB = max(s.maxB, len(s.buckets[c]))
		}
	}
}

// wrapStep is wrap01 for a coordinate moved by one step. A point sits in
// [0, 1) (or exactly 1, when a tiny negative sum rounds up on wrapping)
// and a step is at most 0.5, so the sum lies in [−0.5, 1.5]: one
// subtraction or addition wraps it, and x−1 is exact on [1, 2)
// (Sterbenz), so the result is bit-identical to math.Mod's.
func wrapStep(x float64) float64 {
	if x >= 1 {
		return x - 1
	}
	if x < 0 {
		return x + 1
	}
	return x
}

func (s *geomState) cellIndex(i int) int32 {
	cells := s.cells
	cx := int(s.xs[i] * float64(cells))
	if cx >= cells {
		cx = cells - 1
	}
	cy := int(s.ys[i] * float64(cells))
	if cy >= cells {
		cy = cells - 1
	}
	return int32(cy*cells + cx)
}

// within is torusDist2(i, j) <= r2 without branches: min(d, 1−d) folds
// each coordinate distance d ∈ [0, 1] exactly like torusDist2's d > 0.5
// test, because 1−d is exact above 0.5 and cannot round below 0.5
// under it.
func within(xi, yi, xj, yj, r2 float64) bool {
	dx := math.Abs(xi - xj)
	dx = min(dx, 1-dx)
	dy := math.Abs(yi - yj)
	dy = min(dy, 1-dy)
	return dx*dx+dy*dy <= r2
}

// halfOffsets is one representative of each ± class of the eight grid
// neighbor offsets. Scanning only these (plus same-cell pairs with j > i)
// visits every unordered pair of adjacent cells exactly once, so no pair
// can be emitted twice — distinct offsets here never alias the same
// neighbor for a grid of side ≥ 4, which newState guarantees.
var halfOffsets = [4][2]int{{1, 0}, {1, 1}, {0, 1}, {-1, 1}}

// halfNeighbors lists, for each cell of a cells×cells torus grid, the
// indices of its halfOffsets neighbors, four per cell.
func halfNeighbors(cells int) []int32 {
	nbr := make([]int32, 0, len(halfOffsets)*cells*cells)
	for cy := 0; cy < cells; cy++ {
		for cx := 0; cx < cells; cx++ {
			for _, d := range halfOffsets {
				bx := (cx + d[0] + cells) % cells
				by := (cy + d[1]) % cells
				nbr = append(nbr, int32(by*cells+bx))
			}
		}
	}
	return nbr
}

// scanGrid emits a packed event for every pair within the radius at slot
// t, cell by cell (cell-major measured faster than point-major). It
// reserves room for every candidate first — a point meets at most its own
// bucket and four neighbor buckets, so n·5·maxB bounds the slot — then
// writes each candidate and keeps it only if it is live, so the ~1-in-4
// live rate costs no mispredicted branches. Buckets are unordered, so the
// pair key is min(i·n+j, j·n+i), the key with the smaller point first.
// (tb&63 tells the compiler the shift is in range.)
func (s *geomState) scanGrid(t int) {
	n, tb, ut, r2 := s.n, s.tb&63, uint64(t), s.r2
	xs, ys := s.xs, s.ys
	ev := slices.Grow(s.events, n*5*s.maxB)
	k := len(ev)
	ev = ev[:cap(ev)]
	for c, b := range s.buckets {
		if len(b) == 0 {
			continue
		}
		nbr := s.nbr[4*c : 4*c+4]
		for ai, i := range b {
			xi, yi, ki := xs[i], ys[i], uint64(int(i)*n)
			for _, j := range b[ai+1:] {
				ev[k] = min(ki+uint64(j), uint64(int(j)*n)+uint64(i))<<tb | ut
				if within(xi, yi, xs[j], ys[j], r2) {
					k++
				}
			}
		}
		for _, o := range nbr {
			nb := s.buckets[o]
			for _, i := range b {
				xi, yi, ki := xs[i], ys[i], uint64(int(i)*n)
				for _, j := range nb {
					ev[k] = min(ki+uint64(j), uint64(int(j)*n)+uint64(i))<<tb | ut
					if within(xi, yi, xs[j], ys[j], r2) {
						k++
					}
				}
			}
		}
	}
	s.events = ev[:k]
}

// scanBrute is the dense-radius / tiny-n pair scan, branch-free like
// scanGrid's; one slot's candidates are the n(n−1)/2 pairs.
func (s *geomState) scanBrute(t int) {
	n, tb, ut, r2 := s.n, s.tb&63, uint64(t), s.r2
	xs, ys := s.xs, s.ys
	ev := slices.Grow(s.events, n*(n-1)/2)
	k := len(ev)
	ev = ev[:cap(ev)]
	for u := 0; u < n; u++ {
		xu, yu, ku := xs[u], ys[u], uint64(u*n)
		for v := u + 1; v < n; v++ {
			ev[k] = (ku+uint64(v))<<tb | ut
			if within(xu, yu, xs[v], ys[v], r2) {
				k++
			}
		}
	}
	s.events = ev[:k]
}

// group converts the sorted event buffer into the canonical edge list and
// CSR labeling, all in state-owned reused buffers.
func (s *geomState) group() ([]int32, []int32, temporal.Labeling) {
	s.from, s.to = s.from[:0], s.to[:0]
	s.lab.Labels = s.lab.Labels[:0]
	s.lab.Off = append(s.lab.Off[:0], 0)
	const none = ^uint64(0)
	last := none
	un := uint64(s.n)
	mask := uint64(1)<<s.tb - 1
	for _, ev := range s.events {
		key := ev >> s.tb
		if key != last {
			if last != none {
				s.lab.Off = append(s.lab.Off, int32(len(s.lab.Labels)))
			}
			s.from = append(s.from, int32(key/un))
			s.to = append(s.to, int32(key%un))
			last = key
		}
		s.lab.Labels = append(s.lab.Labels, int32(ev&mask))
	}
	if last != none {
		s.lab.Off = append(s.lab.Off, int32(len(s.lab.Labels)))
	}
	return s.from, s.to, s.lab
}

// groupCounting converts the t-major event buffer into the canonical edge
// list and CSR labeling without touching the events' order: a stable
// two-pass counting sort keyed by pair. The scan's outer loop is t, so
// each pair's events are already ascending in t and stability alone keeps
// every label run sorted. The distinct pair keys — one per support edge —
// come in order from a sort, or, once there are at least as many events as
// cursors, from one pass over the cursor array.
func (s *geomState) groupCounting() ([]int32, []int32, temporal.Labeling) {
	tb := s.tb
	if len(s.counts) <= len(s.events) {
		// Dense trial: reading the n² cursors in key order costs no more
		// than the counting pass, and less than sorting the touched keys.
		for _, ev := range s.events {
			s.counts[ev>>tb]++
		}
		for k, c := range s.counts {
			if c != 0 {
				s.touched = append(s.touched, int32(k))
			}
		}
	} else {
		for _, ev := range s.events {
			k := int32(ev >> tb)
			if s.counts[k] == 0 {
				s.touched = append(s.touched, k)
			}
			s.counts[k]++
		}
		slices.Sort(s.touched)
	}
	s.from, s.to = s.from[:0], s.to[:0]
	s.lab.Off = append(s.lab.Off[:0], 0)
	un := int32(s.n)
	total := int32(0)
	for _, k := range s.touched {
		s.from = append(s.from, k/un)
		s.to = append(s.to, k%un)
		c := s.counts[k]
		s.counts[k] = total // becomes this pair's write cursor
		total += c
		s.lab.Off = append(s.lab.Off, total)
	}
	if cap(s.lab.Labels) < len(s.events) {
		s.lab.Labels = make([]int32, len(s.events))
	}
	s.lab.Labels = s.lab.Labels[:len(s.events)]
	mask := uint64(1)<<tb - 1
	for _, ev := range s.events {
		k := int32(ev >> tb)
		s.lab.Labels[s.counts[k]] = int32(ev & mask)
		s.counts[k]++
	}
	for _, k := range s.touched {
		s.counts[k] = 0
	}
	s.touched = s.touched[:0]
	return s.from, s.to, s.lab
}

// generateMap is the original map-accumulating generator, kept as the
// overflow fallback and as the differential oracle for the packed-event
// engine.
func (m Geometric) generateMap(n int, stream *rng.Stream) (*graph.Graph, temporal.Labeling) {
	r := m.Radius(n)
	r2 := r * r
	w := newWalk(n, m.step, stream)
	pairs := make(map[int64][]int)
	cells := int(math.Floor(1 / r))
	for t := 1; t <= m.a; t++ {
		if cells < 4 || n < 16 {
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if w.dist2(u, v) <= r2 {
						key := int64(u)*int64(n) + int64(v)
						pairs[key] = append(pairs[key], t)
					}
				}
			}
		} else {
			m.closePairsGrid(n, cells, r2, w, t, pairs)
		}
		if t < m.a {
			w.advance(stream)
		}
	}

	keys := make([]int64, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b := graph.NewBuilder(n, false)
	sets := make([][]int, 0, len(keys))
	for _, k := range keys {
		b.AddEdge(int(k/int64(n)), int(k%int64(n)))
		sets = append(sets, pairs[k])
	}
	return b.Build(), temporal.LabelingFromSets(sets)
}

// closePairsGrid appends slot t to every pair within the radius, bucketing
// points into a cells×cells torus grid and scanning 3×3 neighborhoods.
func (m Geometric) closePairsGrid(n, cells int, r2 float64, w *walk, t int, pairs map[int64][]int) {
	buckets := make([][]int32, cells*cells)
	cellOf := func(i int) (int, int) {
		cx := int(w.xs[i] * float64(cells))
		cy := int(w.ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		buckets[cy*cells+cx] = append(buckets[cy*cells+cx], int32(i))
	}
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				bx := (cx + dx + cells) % cells
				by := (cy + dy + cells) % cells
				for _, j32 := range buckets[by*cells+bx] {
					j := int(j32)
					if j <= i {
						continue
					}
					if w.dist2(i, j) <= r2 {
						key := int64(i)*int64(n) + int64(j)
						pairs[key] = append(pairs[key], t)
					}
				}
			}
		}
	}
}

func init() {
	Register(Builder{
		Name:     "geometric",
		Doc:      "dynamic random geometric graph: torus random walks, edge live at t iff within radius",
		Scenario: true,
		Knobs: []Knob{
			{Name: "radius", Default: 0, Doc: "live radius in (0,0.5); 0 means 1.5·sqrt(ln n/(π·n))"},
			{Name: "step", Default: 0.05, Doc: "per-slot displacement half-range in (0,0.5]"},
		},
		New: func(p Params) (Model, error) {
			return NewGeometric(p.lifetime(), p.get("radius", 0), p.get("step", 0.05))
		},
	})
}
