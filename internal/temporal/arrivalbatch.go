package temporal

// The batch earliest-arrival kernel: the bit-parallel reachability pass
// (msreach.go) extended to record, for every vertex, the label at which
// each source's bit first lands there — which is exactly that source's
// earliest arrival time. One scan of the label-sorted time-edge list fills
// up to 64 arrival rows, so an all-pairs arrival table costs ⌈n/64⌉ passes
// instead of n frontier runs. internal/qindex builds its precomputed
// per-source index on this kernel, and the diameter entry points
// (reachability.go) fold its rows into their statistics.
//
// Correctness mirrors temporalReachWords: within one label group the
// strictly-increasing-label rule forbids chaining, so new arrivals are
// staged in a pending word and merged — and stamped with the group's label
// — only at group boundaries. The kernel is pinned bit-identical to the
// frontier and linear kernels by differential tests.

import "math/bits"

// ArrivalRowsBatch fills rows[j] with δ(sources[j], ·) for up to 64
// sources in one bit-parallel pass: rows[j][v] is the earliest arrival
// time of a journey from sources[j] to v, 0 at the source itself and
// Unreachable where no journey lands. Each rows[j] must have length N().
// The call allocates nothing beyond pooled scratch and is safe to run
// concurrently with other queries.
func (n *Network) ArrivalRowsBatch(sources []int32, rows [][]int32) {
	if len(sources) == 0 {
		return
	}
	if len(sources) > batchSize {
		panic("temporal: ArrivalRowsBatch wants at most 64 sources")
	}
	if len(rows) < len(sources) {
		panic("temporal: ArrivalRowsBatch needs one row per source")
	}
	sc := reachPool.Get().(*reachScratch)
	defer reachPool.Put(sc)
	n.arrivalRowsBatch(sources, rows, sc)
}

// arrivalRowsBatch is ArrivalRowsBatch on caller-held scratch; sources
// must hold between 1 and 64 vertices.
func (n *Network) arrivalRowsBatch(sources []int32, rows [][]int32, sc *reachScratch) {
	n.ensureTimeEdges()
	nv := n.g.N()
	sc.ensure(nv)
	cur, pend := sc.cur[:nv], sc.pend[:nv]
	clear(cur)
	clear(pend)
	full := fullMask(len(sources))
	for j, s := range sources {
		row := rows[j]
		_ = row[nv-1]
		for i := range row {
			row[i] = Unreachable
		}
		row[s] = 0
		cur[s] |= 1 << uint(j)
	}
	fullCount := 0
	for _, w := range cur {
		if w == full {
			fullCount++
		}
	}
	from, to := n.g.FromArray(), n.g.ToArray()
	directed := n.g.Directed()
	dirty := sc.dirty[:0]
	group := int32(0)
	if fullCount != nv {
		for i, e := range n.teEdge {
			if l := n.teLabel[i]; l != group {
				// Label-group boundary: bits staged during the previous
				// group arrived at exactly that label — stamp the rows and
				// make the arrivals usable for departures from here on.
				for _, v := range dirty {
					add := pend[v]
					w := cur[v] | add
					if w == full && cur[v] != full {
						fullCount++
					}
					cur[v] = w
					pend[v] = 0
					for b := add; b != 0; b &= b - 1 {
						rows[bits.TrailingZeros64(b)][v] = group
					}
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
		// Arrivals staged during the final label group.
		for _, v := range dirty {
			add := pend[v]
			cur[v] |= add
			pend[v] = 0
			for b := add; b != 0; b &= b - 1 {
				rows[bits.TrailingZeros64(b)][v] = group
			}
		}
	}
	sc.dirty = dirty[:0]
}
