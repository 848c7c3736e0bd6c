package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	obslib "repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/table"
)

// Axis is one dimension of a parameter grid: a named knob (an
// availability-model parameter, "n", "lifetime", …) and the values it
// takes. Axis order in a Grid is significant — it fixes cell indexing.
type Axis struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Linspace returns an axis of k evenly spaced values from lo to hi
// inclusive; k = 1 yields just lo.
func Linspace(name string, lo, hi float64, k int) Axis {
	if k < 1 {
		panic("sweep: linspace needs at least one value")
	}
	vs := make([]float64, k)
	for i := range vs {
		if k == 1 {
			vs[i] = lo
			break
		}
		vs[i] = lo + (hi-lo)*float64(i)/float64(k-1)
	}
	return Axis{Name: name, Values: vs}
}

// Grid is the cartesian product of its axes. Cells are indexed in
// mixed-radix order with the last axis fastest; an axis-free grid has one
// cell with no values.
type Grid struct {
	Axes []Axis `json:"axes"`
}

// Size returns the number of cells.
func (g Grid) Size() int {
	size := 1
	for _, a := range g.Axes {
		size *= len(a.Values)
	}
	return size
}

// Values decodes cell idx into its axis-name → value assignment.
func (g Grid) Values(idx int) map[string]float64 {
	if idx < 0 || idx >= g.Size() {
		panic(fmt.Sprintf("sweep: cell index %d outside grid of %d", idx, g.Size()))
	}
	out := make(map[string]float64, len(g.Axes))
	for i := len(g.Axes) - 1; i >= 0; i-- {
		a := g.Axes[i]
		out[a.Name] = a.Values[idx%len(a.Values)]
		idx /= len(a.Values)
	}
	return out
}

// MaxGridCells bounds a grid's cell count (2^22 ≈ 4M — far beyond any
// real sweep). The bound keeps Size() away from int overflow, where a
// wrapped product would make Run silently iterate zero cells.
const MaxGridCells = 1 << 22

// Validate rejects empty, unnamed, and duplicate axes, and grids larger
// than MaxGridCells.
func (g Grid) Validate() error {
	seen := map[string]bool{}
	size := 1
	for _, a := range g.Axes {
		if strings.TrimSpace(a.Name) == "" {
			return fmt.Errorf("sweep: axis with empty name")
		}
		if len(a.Values) == 0 {
			return fmt.Errorf("sweep: axis %q has no values", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("sweep: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		if size > MaxGridCells/len(a.Values) {
			return fmt.Errorf("sweep: grid exceeds %d cells", MaxGridCells)
		}
		size *= len(a.Values)
	}
	return nil
}

// key renders the grid canonically for spec fingerprints.
func (g Grid) key() string {
	var b strings.Builder
	for i, a := range g.Axes {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(a.Name)
		b.WriteByte('=')
		for j, v := range a.Values {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", v)
		}
	}
	return b.String()
}

// CellSeed derives the base seed of grid cell idx from the sweep seed,
// mirroring rng.NewStream's index mixing so neighboring cells land far
// apart in seed space. Trial i of the cell then draws from
// rng.NewStream(CellSeed(seed, idx), i).
func CellSeed(seed uint64, idx int) uint64 {
	mix := seed ^ 0xa076_1d64_78bd_642f // distinguish cell from trial derivation
	_ = rng.SplitMix64(&mix)
	mix ^= 0x6a09e667f3bcc909 * (uint64(idx) + 1)
	return rng.SplitMix64(&mix)
}

// Cell is one completed grid cell.
type Cell struct {
	// Index is the cell's position in the grid's mixed-radix order.
	Index int `json:"index"`
	// Values is the axis assignment the cell ran under.
	Values map[string]float64 `json:"values,omitempty"`
	// Est is the adaptive estimate for the cell.
	Est Estimate `json:"estimate"`
}

// Checkpoint is the JSON-serializable progress of a sweep: the spec
// fingerprint and the cells completed so far, in index order. An
// interrupted sweep resumed from its checkpoint recomputes only the
// missing cells.
type Checkpoint struct {
	Spec  string `json:"spec"`
	Cells []Cell `json:"cells"`
}

// Encode writes the checkpoint as indented JSON.
func (c *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// DecodeCheckpoint reads a checkpoint written by Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("sweep: decoding checkpoint: %w", err)
	}
	return &c, nil
}

// CellObservable produces the per-trial observation for one grid cell,
// drawing randomness only from the provided stream. The values map must be
// treated as read-only.
type CellObservable func(values map[string]float64, trial int, r *rng.Stream) float64

// CellSource builds the trial source for one grid cell: values is the
// cell's axis assignment, seed its CellSeed-derived base seed, and workers
// and onTrial the sweep's parallelism bound and per-trial progress hook,
// which the source must honor in place of the Adaptive's own (see
// Adaptive.EstimateSource). This is the batched-execution hook: a factory
// typically builds the cell's model and substrate once and returns a
// sim.BatchRunner-backed source, so every trial of the cell relabels one
// per-worker network in place (experiments.SweepTarget.Source does exactly
// that). Conforming sources never change a cell's numbers, only its speed.
type CellSource func(values map[string]float64, seed uint64, workers int, onTrial func()) Source

// Sweep runs an adaptive estimate per grid cell.
type Sweep struct {
	// Grid enumerates the cells.
	Grid Grid
	// Kind selects the per-cell estimator; empty means Proportion.
	Kind Kind
	// Prec is the per-cell stopping rule.
	Prec Precision
	// Seed is the sweep seed; cell c uses CellSeed(Seed, c).
	Seed uint64
	// Target fingerprints what the cells measure — for registry sweeps
	// experiments.SweepTarget.Key: model, substrate, metric and stream
	// layout. The engine treats it as opaque, but it is part of SpecKey,
	// so a checkpoint never resumes under a different target.
	Target string
	// Workers bounds per-batch parallelism (0: GOMAXPROCS); results are
	// bit-identical for every value.
	Workers int
	// OnCell, when non-nil, observes each newly completed cell — the
	// checkpointing hook: persisting the checkpoint here makes the sweep
	// resumable at cell granularity.
	OnCell func(Cell)
	// OnTrial, when non-nil, fires per completed trial from worker
	// goroutines; it must be safe for concurrent use.
	OnTrial func()
	// Source, when non-nil, supplies a per-cell trial source and takes
	// precedence over the observable passed to Run (which may then be
	// nil). Sources only change execution speed, never results, so Source
	// is deliberately absent from SpecKey — a checkpoint written by the
	// observable path resumes bit-identically under a conforming Source
	// and vice versa.
	Source CellSource
}

// SpecKey is the canonical fingerprint of everything that determines the
// sweep's numbers: target, grid, estimator kind, precision (with defaults
// applied), and seed — but not Workers, which never changes results.
// Checkpoints from a different fingerprint are rejected at Run.
func (s Sweep) SpecKey() string {
	kind := s.Kind
	if kind == "" {
		kind = Proportion
	}
	p := s.Prec.withDefaults()
	return fmt.Sprintf("target=%s|kind=%s|conf=%g|abs=%g|rel=%g|min=%d|max=%d|batch=%d|seed=%d|grid=%s",
		s.Target, kind, p.Confidence, p.Abs, p.Rel, p.MinTrials, p.MaxTrials, p.Batch, s.Seed, s.Grid.key())
}

// Run estimates every grid cell not already present in prior, in index
// order, and returns the completed checkpoint with cells sorted by index.
// prior may be nil (fresh run); a prior from a different SpecKey is an
// error. On cancellation the checkpoint holds the cells completed so far
// and is valid to resume from; the in-progress cell is discarded (cells
// are the resume granularity). When s.Source is set it supplies each
// cell's trials and obs may be nil.
func (s Sweep) Run(ctx context.Context, prior *Checkpoint, obs CellObservable) (*Checkpoint, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := s.Grid.Validate(); err != nil {
		return nil, err
	}
	if err := s.Prec.Validate(); err != nil {
		return nil, err
	}
	if s.Kind != "" && !s.Kind.valid() {
		return nil, fmt.Errorf("sweep: unknown estimator kind %q", s.Kind)
	}
	spec := s.SpecKey()
	cp := &Checkpoint{Spec: spec}
	if prior != nil {
		if err := prior.Validate(spec, s.Grid); err != nil {
			return nil, err
		}
		cp.Cells = append(cp.Cells, prior.Cells...)
	}
	done := make(map[int]bool, len(cp.Cells))
	for _, cell := range cp.Cells {
		done[cell.Index] = true
	}
	for idx := 0; idx < s.Grid.Size(); idx++ {
		if done[idx] {
			continue
		}
		if err := ctx.Err(); err != nil {
			sortCells(cp.Cells)
			return cp, err
		}
		values := s.Grid.Values(idx)
		seed := CellSeed(s.Seed, idx)
		a := Adaptive{
			Seed:    seed,
			Workers: s.Workers,
			Kind:    s.Kind,
			Prec:    s.Prec,
			OnTrial: s.OnTrial,
		}
		span := obslib.StartSpan("sweep.cell")
		var est Estimate
		var err error
		if s.Source != nil {
			est, err = a.EstimateSource(ctx, s.Source(values, seed, s.Workers, s.OnTrial))
		} else {
			est, err = a.Estimate(ctx, func(trial int, r *rng.Stream) float64 {
				return obs(values, trial, r)
			})
		}
		span.End()
		if err != nil {
			sortCells(cp.Cells)
			return cp, err
		}
		obsCellsDone.Inc()
		cell := Cell{Index: idx, Values: values, Est: est}
		cp.Cells = append(cp.Cells, cell)
		if s.OnCell != nil {
			s.OnCell(cell)
		}
	}
	sortCells(cp.Cells)
	return cp, nil
}

func sortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool { return cells[i].Index < cells[j].Index })
}

// CellTable renders completed cells as one table — the shared shape behind
// cmd/sweep's output and the service's sweep payloads, so the two surfaces
// cannot drift apart. Columns: cell index, one per grid axis, then the
// estimate with its interval and trial spend.
func CellTable(title string, grid Grid, cells []Cell) *table.Table {
	cols := []string{"cell"}
	for _, a := range grid.Axes {
		cols = append(cols, a.Name)
	}
	cols = append(cols, "estimate", "lo", "hi", "±", "trials", "met precision")
	tb := table.New(title, cols...)
	for _, cell := range cells {
		row := []string{table.I(cell.Index)}
		for _, a := range grid.Axes {
			row = append(row, table.F(cell.Values[a.Name], 4))
		}
		row = append(row,
			table.F(cell.Est.Point, 4), table.F(cell.Est.Lo, 4), table.F(cell.Est.Hi, 4),
			table.F(cell.Est.Half, 4), table.I(cell.Est.N),
			fmt.Sprintf("%t", cell.Est.Converged),
		)
		tb.AddRow(row...)
	}
	return tb
}
