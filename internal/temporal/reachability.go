package temporal

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// ReachedCount returns how many vertices (including s) are reachable from s
// by a journey.
func (n *Network) ReachedCount(s int) int {
	sc := getScratch()
	reached := n.earliestArrivalsFrontier(s, 1, sc.arrival(n.g.N()), nil, sc)
	putScratch(sc)
	return reached
}

// Treach is the reachability-preservation property of Definition 6: for
// every ordered pair (u,v), a static u→v path exists if and only if a
// (u,v)-journey exists. SatisfiesTreach evaluates it with the bit-parallel
// kernel — ⌈n/64⌉ word passes instead of n scalar ones — parallelizing
// across batches and returning early on the first violated batch.
func SatisfiesTreach(n *Network) bool {
	nv := n.g.N()
	if nv == 0 {
		return true
	}
	nb := (nv + batchSize - 1) / batchSize
	workers := runtime.GOMAXPROCS(0)
	if workers > nb {
		workers = nb
	}
	if workers <= 1 {
		return SatisfiesTreachSerial(n, nil)
	}
	var next int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := reachPool.Get().(*reachScratch)
			defer reachPool.Put(sc)
			for !failed.Load() {
				b := int(atomic.AddInt64(&next, 1) - 1)
				if b >= nb {
					return
				}
				lo := b * batchSize
				hi := lo + batchSize
				if hi > nv {
					hi = nv
				}
				if n.treachBatch(sc.batch(lo, hi), sc, false) != 0 {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return !failed.Load()
}

// SatisfiesTreachSerial is SatisfiesTreach without internal parallelism.
// Monte-Carlo trials that already run on a worker pool use it to avoid
// nested goroutine fan-out; scratch may be nil (pooled scratch is used) or
// a *TreachScratch reused across calls.
func SatisfiesTreachSerial(n *Network, scratch *TreachScratch) bool {
	nv := n.g.N()
	if nv == 0 {
		return true
	}
	sc := scratch.reach()
	if scratch == nil {
		defer reachPool.Put(sc)
	}
	for lo := 0; lo < nv; lo += batchSize {
		hi := lo + batchSize
		if hi > nv {
			hi = nv
		}
		if n.treachBatch(sc.batch(lo, hi), sc, false) != 0 {
			return false
		}
	}
	return true
}

// TreachScratch holds the per-batch work arrays for
// SatisfiesTreachSerial.
type TreachScratch struct {
	rs reachScratch
}

// NewTreachScratch allocates scratch for graphs of up to n vertices.
func NewTreachScratch(n int) *TreachScratch {
	s := &TreachScratch{}
	s.rs.ensure(n)
	return s
}

// reach returns the wrapped word scratch, drawing a pooled one for a nil
// receiver (the caller returns that one to the pool).
func (s *TreachScratch) reach() *reachScratch {
	if s == nil {
		return reachPool.Get().(*reachScratch)
	}
	return &s.rs
}

// StaticReach caches the substrate-only half of the Treach decision: the
// per-batch static-reachability words of a fixed graph. The static closure
// never changes when only the labels move, so the batched trial engine
// computes it once per substrate and asks each relabeled trial only the
// temporal question — on label-sparse instances the static BFS is a large
// share of a Treach check, and this removes it from the per-trial cost
// without changing any answer.
type StaticReach struct {
	g *graph.Graph
	// words[b][v] has bit j set exactly when source b·64+j statically
	// reaches v.
	words [][]uint64
}

// NewStaticReach precomputes the static words for every source batch of g.
func NewStaticReach(g *graph.Graph) *StaticReach {
	nv := g.N()
	sr := &StaticReach{g: g}
	sc := reachPool.Get().(*reachScratch)
	defer reachPool.Put(sc)
	for lo := 0; lo < nv; lo += batchSize {
		hi := lo + batchSize
		if hi > nv {
			hi = nv
		}
		staticReachWords(g, sc.batch(lo, hi), sc)
		sr.words = append(sr.words, append([]uint64(nil), sc.stat[:nv]...))
	}
	return sr
}

// SatisfiesTreachStatic is SatisfiesTreachSerial with the static half
// supplied by a StaticReach built for the network's substrate (it panics
// on a substrate mismatch — silently wrong answers would be worse). The
// answer is identical to SatisfiesTreachSerial; only the per-call cost
// changes.
func SatisfiesTreachStatic(n *Network, sr *StaticReach, scratch *TreachScratch) bool {
	if sr.g != n.g {
		panic("temporal: StaticReach built for a different substrate")
	}
	nv := n.g.N()
	if nv == 0 {
		return true
	}
	sc := scratch.reach()
	if scratch == nil {
		defer reachPool.Put(sc)
	}
	for b, lo := 0, 0; lo < nv; b, lo = b+1, lo+batchSize {
		hi := lo + batchSize
		if hi > nv {
			hi = nv
		}
		n.temporalReachWords(sc.batch(lo, hi), sc)
		stat := sr.words[b]
		for v := 0; v < nv; v++ {
			if stat[v]&^sc.cur[v] != 0 {
				return false
			}
		}
	}
	return true
}

// TreachViolations counts the ordered pairs (u,v) that have a static path
// but no journey — the "damage" a labeling leaves. It is the quantitative
// companion to SatisfiesTreach for experiment tables, and runs on the same
// bit-parallel batches.
func TreachViolations(n *Network) int {
	nv := n.g.N()
	if nv == 0 {
		return 0
	}
	nb := (nv + batchSize - 1) / batchSize
	workers := runtime.GOMAXPROCS(0)
	if workers > nb {
		workers = nb
	}
	var next int64
	var total int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := reachPool.Get().(*reachScratch)
			defer reachPool.Put(sc)
			local := 0
			for {
				b := int(atomic.AddInt64(&next, 1) - 1)
				if b >= nb {
					break
				}
				lo := b * batchSize
				hi := lo + batchSize
				if hi > nv {
					hi = nv
				}
				local += n.treachBatch(sc.batch(lo, hi), sc, true)
			}
			atomic.AddInt64(&total, int64(local))
		}()
	}
	wg.Wait()
	return int(total)
}

// DiameterResult is the outcome of a temporal-diameter computation on one
// network instance.
type DiameterResult struct {
	// Max is the maximum finite temporal distance over the evaluated
	// source/target pairs (0 when no pair is reachable).
	Max int32
	// AllReachable reports whether every evaluated ordered pair (s,t) with
	// s != t has a journey. When false, the instance's temporal diameter is
	// effectively infinite and Max covers only the reachable pairs.
	AllReachable bool
	// MeanFinite is the mean temporal distance over reachable pairs.
	MeanFinite float64
	// Pairs is the number of ordered pairs evaluated (excluding s == t).
	Pairs int64
}

// diamAccum accumulates per-source arrival vectors into a DiameterResult.
type diamAccum struct {
	max       int32
	reachable bool
	sum       int64
	finite    int64
	pairs     int64
}

func (p *diamAccum) add(s int, arr []int32) {
	for v, a := range arr {
		if v == s {
			continue
		}
		p.pairs++
		if a == Unreachable {
			p.reachable = false
			continue
		}
		p.finite++
		p.sum += int64(a)
		if a > p.max {
			p.max = a
		}
	}
}

func (p *diamAccum) merge(q diamAccum) {
	if q.max > p.max {
		p.max = q.max
	}
	p.reachable = p.reachable && q.reachable
	p.sum += q.sum
	p.finite += q.finite
	p.pairs += q.pairs
}

func (p *diamAccum) result() DiameterResult {
	res := DiameterResult{Max: p.max, AllReachable: p.reachable, Pairs: p.pairs}
	if p.finite > 0 {
		res.MeanFinite = float64(p.sum) / float64(p.finite)
	}
	return res
}

// Diameter computes max_{s,t} δ(s,t) exactly over every source, in
// parallel.
func Diameter(n *Network) DiameterResult {
	sources := make([]int, n.g.N())
	for i := range sources {
		sources[i] = i
	}
	return DiameterFrom(n, sources)
}

// DiameterFrom computes the diameter restricted to the given source
// vertices (targets still range over all vertices). Sampling sources gives
// an unbiased lower estimate of the full temporal diameter at a fraction of
// the cost; experiments use it for the largest n. The sources are split
// into chunks of 64, each answered by one pass of the batch arrival kernel
// (ArrivalRowsBatch); workers take chunks from a shared counter, and the
// result does not depend on how the chunks were shared out.
func DiameterFrom(n *Network, sources []int) DiameterResult {
	if n.g.N() == 0 || len(sources) == 0 {
		return DiameterResult{AllReachable: true}
	}
	chunks := (len(sources) + batchSize - 1) / batchSize
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if workers <= 1 {
		return DiameterFromSerial(n, sources)
	}
	obsKernelDiameter.Inc()
	results := make(chan diamAccum, workers)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			sc := reachPool.Get().(*reachScratch)
			defer reachPool.Put(sc)
			p := diamAccum{reachable: true}
			for {
				lo := int(next.Add(1)-1) * batchSize
				if lo >= len(sources) {
					break
				}
				n.diameterChunk(sources[lo:min(lo+batchSize, len(sources))], sc, &p)
			}
			results <- p
		}()
	}
	agg := diamAccum{reachable: true}
	for w := 0; w < workers; w++ {
		agg.merge(<-results)
	}
	return agg.result()
}

// DiameterFromSerial is DiameterFrom without internal parallelism — the
// right shape inside already-parallel Monte-Carlo trials. It runs the same
// 64-source chunks on one goroutine, draws its work arrays (the 64 arrival
// rows included) from the pooled scratch layer, and allocates nothing in
// steady state.
func DiameterFromSerial(n *Network, sources []int) DiameterResult {
	if n.g.N() == 0 || len(sources) == 0 {
		return DiameterResult{AllReachable: true}
	}
	obsKernelDiameter.Inc()
	sc := reachPool.Get().(*reachScratch)
	defer reachPool.Put(sc)
	p := diamAccum{reachable: true}
	for lo := 0; lo < len(sources); lo += batchSize {
		n.diameterChunk(sources[lo:min(lo+batchSize, len(sources))], sc, &p)
	}
	return p.result()
}

// diameterChunk folds the arrival rows of up to 64 sources into p: one
// batch-kernel pass fills the rows, then each row joins the accumulator.
func (n *Network) diameterChunk(sources []int, sc *reachScratch, p *diamAccum) {
	rows := sc.arrivalRows(len(sources), n.g.N())
	n.arrivalRowsBatch(sc.sourcesOf(sources), rows, sc)
	for j, s := range sources {
		p.add(s, rows[j])
	}
}

// Eccentricity returns max_t δ(s,t) from a single source and whether all
// vertices were reached.
func Eccentricity(n *Network, s int) (int32, bool) {
	sc := getScratch()
	defer putScratch(sc)
	arr := sc.arrival(n.g.N())
	n.earliestArrivalsFrontier(s, 1, arr, nil, sc)
	var ecc int32
	all := true
	for v, a := range arr {
		if v == s {
			continue
		}
		if a == Unreachable {
			all = false
			continue
		}
		if a > ecc {
			ecc = a
		}
	}
	return ecc, all
}
