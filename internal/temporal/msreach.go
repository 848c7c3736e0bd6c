package temporal

// The bit-parallel multi-source reachability kernel (MS-BFS style): up to
// 64 sources share one pass, each vertex carrying one uint64 of source
// bits. Two word kernels cooperate:
//
//   - temporalReachWords answers "which sources have a journey to v" with
//     one scan of the label-sorted time-edge list. Within one label group
//     the strictly-increasing-label rule forbids chaining, so new arrivals
//     are staged in a pending word and merged only at group boundaries.
//     The pass stops early once every vertex holds every source bit — on
//     dense cliques that happens after a small label prefix.
//   - staticReachWords answers "which sources have a static path to v"
//     with a chaotic-order worklist closure: each source bit crosses each
//     arc at most once, so a batch costs at most what 64 separate BFS
//     passes would, and typically far less.
//
// SatisfiesTreach, TreachViolations and ReachableSets run on batches of
// these words: ⌈n/64⌉ passes over the time edges instead of n.

import (
	"math/bits"
	"sync"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// batchSize is the number of sources one word pass answers.
const batchSize = 64

// reachScratch holds the per-batch work arrays of the word kernels.
type reachScratch struct {
	cur   []uint64 // temporal: bits arrived strictly before the current label
	pend  []uint64 // temporal: bits arriving at the current label
	stat  []uint64 // static closure bits
	sPend []uint64 // static: bits not yet propagated
	dirty []int32  // temporal: vertices with pending bits
	front []int32  // static: current BFS frontier
	next  []int32  // static: next BFS frontier
	srcs  []int32  // batch source buffer

	rowBuf []int32   // diameter: arrival rows of one batch, back to back
	rows   [][]int32 // diameter: per-source views into rowBuf
}

var reachPool = sync.Pool{New: func() any { return new(reachScratch) }}

func (sc *reachScratch) ensure(n int) {
	if cap(sc.cur) < n {
		sc.cur = make([]uint64, n)
		sc.pend = make([]uint64, n)
		sc.stat = make([]uint64, n)
		sc.sPend = make([]uint64, n)
	}
}

// fullMask returns the word with one bit per batch source.
func fullMask(k int) uint64 { return ^uint64(0) >> (64 - uint(k)) }

// temporalReachWords fills sc.cur[v] with a bit per source whose journeys
// reach v. sources must hold between 1 and 64 vertices.
func (n *Network) temporalReachWords(sources []int32, sc *reachScratch) {
	n.ensureTimeEdges()
	nv := n.g.N()
	sc.ensure(nv)
	cur, pend := sc.cur[:nv], sc.pend[:nv]
	clear(cur)
	clear(pend)
	full := fullMask(len(sources))
	for j, s := range sources {
		cur[s] |= 1 << uint(j)
	}
	fullCount := 0
	for _, w := range cur {
		if w == full {
			fullCount++
		}
	}
	if fullCount == nv {
		return
	}
	from, to := n.g.FromArray(), n.g.ToArray()
	directed := n.g.Directed()
	dirty := sc.dirty[:0]
	group := int32(0)
	for i, e := range n.teEdge {
		if l := n.teLabel[i]; l != group {
			// Label-group boundary: arrivals at the previous label become
			// usable for departures from here on.
			for _, v := range dirty {
				w := cur[v] | pend[v]
				if w == full && cur[v] != full {
					fullCount++
				}
				cur[v] = w
				pend[v] = 0
			}
			dirty = dirty[:0]
			if fullCount == nv {
				break
			}
			group = l
		}
		u, v := from[e], to[e]
		if add := cur[u] &^ (cur[v] | pend[v]); add != 0 {
			if pend[v] == 0 {
				dirty = append(dirty, v)
			}
			pend[v] |= add
		}
		if !directed {
			if add := cur[v] &^ (cur[u] | pend[u]); add != 0 {
				if pend[u] == 0 {
					dirty = append(dirty, u)
				}
				pend[u] |= add
			}
		}
	}
	for _, v := range dirty {
		cur[v] |= pend[v]
		pend[v] = 0
	}
	sc.dirty = dirty[:0]
}

// staticReachWords fills sc.stat[v] with a bit per source that has a
// static path to v: level-synchronized MS-BFS, so each vertex propagates
// one merged word per wave instead of dribbling bits one arrival at a
// time, and the pass stops as soon as every vertex holds every source bit
// (one wave on a clique).
func staticReachWords(g *graph.Graph, sources []int32, sc *reachScratch) {
	nv := g.N()
	sc.ensure(nv)
	stat, pend := sc.stat[:nv], sc.sPend[:nv]
	clear(stat)
	clear(pend)
	full := fullMask(len(sources))
	frontier, next := sc.front[:0], sc.next[:0]
	for j, s := range sources {
		if pend[s] == 0 {
			frontier = append(frontier, s)
		}
		b := uint64(1) << uint(j)
		stat[s] |= b
		pend[s] |= b
	}
	fullCount := 0
	for _, v := range frontier {
		if stat[v] == full {
			fullCount++
		}
	}
	for len(frontier) > 0 && fullCount < nv {
		next = next[:0]
		for _, u := range frontier {
			bitsU := pend[u]
			pend[u] = 0
			for _, v := range g.OutNeighbors(int(u)) {
				if add := bitsU &^ stat[v]; add != 0 {
					w := stat[v] | add
					stat[v] = w
					if w == full {
						fullCount++
					}
					if pend[v] == 0 {
						next = append(next, v)
					}
					pend[v] |= add
				}
			}
		}
		frontier, next = next, frontier
	}
	sc.front, sc.next = frontier[:0], next[:0]
}

// batch fills sc.srcs with the consecutive sources [lo, hi).
func (sc *reachScratch) batch(lo, hi int) []int32 {
	sc.srcs = sc.srcs[:0]
	for s := lo; s < hi; s++ {
		sc.srcs = append(sc.srcs, int32(s))
	}
	return sc.srcs
}

// sourcesOf fills sc.srcs with the given sources.
func (sc *reachScratch) sourcesOf(sources []int) []int32 {
	sc.srcs = sc.srcs[:0]
	for _, s := range sources {
		sc.srcs = append(sc.srcs, int32(s))
	}
	return sc.srcs
}

// arrivalRows returns k rows of length n carved out of the retained row
// buffer, so a steady-state diameter call allocates nothing.
func (sc *reachScratch) arrivalRows(k, n int) [][]int32 {
	if cap(sc.rowBuf) < k*n {
		sc.rowBuf = make([]int32, k*n)
	}
	sc.rows = sc.rows[:0]
	for j := 0; j < k; j++ {
		sc.rows = append(sc.rows, sc.rowBuf[j*n:(j+1)*n:(j+1)*n])
	}
	return sc.rows
}

// treachBatch runs both word kernels for one source batch and returns the
// number of (source, target) pairs with a static path but no journey.
// With countAll false it stops at the first violated word and returns 1.
func (n *Network) treachBatch(sources []int32, sc *reachScratch, countAll bool) int {
	n.temporalReachWords(sources, sc)
	staticReachWords(n.g, sources, sc)
	nv := n.g.N()
	bad := 0
	for v := 0; v < nv; v++ {
		if d := sc.stat[v] &^ sc.cur[v]; d != 0 {
			if !countAll {
				return 1
			}
			bad += bits.OnesCount64(d)
		}
	}
	return bad
}

// ReachableSets returns, for each source, the set of vertices a journey
// from it reaches (including the source), computed 64 sources per pass
// with the bit-parallel kernel.
func ReachableSets(n *Network, sources []int) []*bitset.Set {
	nv := n.g.N()
	out := make([]*bitset.Set, len(sources))
	sc := reachPool.Get().(*reachScratch)
	defer reachPool.Put(sc)
	for lo := 0; lo < len(sources); lo += batchSize {
		hi := lo + batchSize
		if hi > len(sources) {
			hi = len(sources)
		}
		n.temporalReachWords(sc.sourcesOf(sources[lo:hi]), sc)
		for j := range sources[lo:hi] {
			set := bitset.New(nv)
			bit := uint64(1) << uint(j)
			for v := 0; v < nv; v++ {
				if sc.cur[v]&bit != 0 {
					set.Add(v)
				}
			}
			out[lo+j] = set
		}
	}
	return out
}
