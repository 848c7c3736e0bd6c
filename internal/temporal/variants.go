package temporal

import "slices"

// Journey-variant algorithms beyond the foremost journey: latest-departure,
// minimum-hop ("shortest") and minimum-duration ("fastest") journeys — the
// classical triad of Bui-Xuan, Ferreira and Jarry that the paper's related
// work cites ([6]). The paper's results need only foremost journeys, but a
// temporal-network library without the other semantics would not be
// adoptable; they also provide strong cross-checks (duality tests tie
// LatestDepartures to Reverse()+EarliestArrivals).

// NoDeparture is the LatestDepartures sentinel for vertices that cannot
// reach the target at all. Valid departures are labels ≥ 1.
const NoDeparture int32 = 0

// LatestDepartures returns, for every vertex v, the latest time one can
// leave v and still complete a journey to t: the largest first-hop label
// over all (v,t)-journeys, NoDeparture if none exists, and Lifetime()+1
// for t itself (being at the target needs no departure).
//
// The kernel mirrors the earliest-arrival scan under time reversal: time
// edges are processed in decreasing label order, and an edge (u,v,l) lets
// u depart at l whenever v can still depart strictly after l.
func (n *Network) LatestDepartures(t int) []int32 {
	dep := make([]int32, n.g.N())
	n.LatestDeparturesInto(t, dep)
	return dep
}

// LatestDeparturesInto is the allocation-free kernel behind
// LatestDepartures; dep must have length N(). It returns the number of
// vertices that can reach t, counting t itself.
func (n *Network) LatestDeparturesInto(t int, dep []int32) int {
	n.ensureTimeEdges()
	for i := range dep {
		dep[i] = NoDeparture
	}
	dep[t] = n.lifetime + 1
	count := 1
	directed := n.g.Directed()
	from, to := n.g.FromArray(), n.g.ToArray()
	for i := len(n.teEdge) - 1; i >= 0; i-- {
		e := n.teEdge[i]
		l := n.teLabel[i]
		u, v := from[e], to[e]
		if dep[v] > l && l > dep[u] {
			if dep[u] == NoDeparture {
				count++
			}
			dep[u] = l
		} else if !directed && dep[u] > l && l > dep[v] {
			if dep[v] == NoDeparture {
				count++
			}
			dep[v] = l
		}
	}
	return count
}

// ShortestHops returns the minimum number of hops of any journey from s to
// each vertex (0 for s, -1 for unreachable) — "shortest" in the temporal
// sense: fewest edges subject to strictly increasing labels. The layered
// dynamic program costs O(H·M) where H is the largest finite hop count.
func (n *Network) ShortestHops(s int) []int32 {
	hops, _ := n.shortestLayers(s)
	return hops
}

// shortestLayers runs the hop-layered DP and returns the hop counts plus
// the per-layer earliest-arrival arrays (layers[h][v] = earliest arrival
// at v over journeys with at most h hops), which ShortestJourney uses for
// reconstruction.
func (n *Network) shortestLayers(s int) ([]int32, [][]int32) {
	n.ensureTimeEdges()
	nv := n.g.N()
	hops := make([]int32, nv)
	for i := range hops {
		hops[i] = -1
	}
	hops[s] = 0

	prev := make([]int32, nv)
	for i := range prev {
		prev[i] = Unreachable
	}
	prev[s] = 0
	layers := [][]int32{append([]int32(nil), prev...)}

	directed := n.g.Directed()
	from, to := n.g.FromArray(), n.g.ToArray()
	for h := int32(1); ; h++ {
		cur := append([]int32(nil), prev...)
		changed := false
		relax := func(uArr int32, v int32, l int32) {
			if uArr < l && l < cur[v] {
				cur[v] = l
				if hops[v] < 0 {
					hops[v] = h
				}
				changed = true
			}
		}
		for i, e := range n.teEdge {
			l := n.teLabel[i]
			u, v := from[e], to[e]
			relax(prev[u], v, l)
			if !directed {
				relax(prev[v], u, l)
			}
		}
		if !changed {
			return hops, layers
		}
		layers = append(layers, cur)
		prev = cur
	}
}

// ShortestJourney returns a journey from s to t with the minimum number of
// hops (ties broken toward earlier arrivals), or ok=false when t is
// unreachable. For s == t it returns the empty journey.
func (n *Network) ShortestJourney(s, t int) (Journey, bool) {
	if s == t {
		return Journey{}, true
	}
	hops, layers := n.shortestLayers(s)
	if hops[t] < 0 {
		return nil, false
	}
	// Walk backwards: at layer h the arrival at cur is layers[h][cur];
	// find a time edge (u, cur, l) with l = layers[h][cur] and
	// layers[h-1][u] < l. Minimality of hops[t] guarantees the walk takes
	// exactly hops[t] steps (an early arrival at s would exhibit a shorter
	// journey).
	j := make(Journey, hops[t])
	cur := int32(t)
	g := n.g
	for h := int(hops[t]); h >= 1; h-- {
		arr := layers[h][cur]
		found := false
		adj := g.InNeighbors(int(cur))
		eids := g.InEdges(int(cur))
		for k := range adj {
			u := adj[k]
			e := int(eids[k])
			if layers[h-1][u] >= arr {
				continue
			}
			if !hasLabel(n.EdgeLabels(e), arr) {
				continue
			}
			j[h-1] = Hop{From: int(u), To: int(cur), Edge: e, Label: arr}
			cur = u
			found = true
			break
		}
		if !found {
			panic("temporal: shortest journey reconstruction lost its way")
		}
	}
	if int(cur) != s {
		panic("temporal: shortest journey did not reach the source")
	}
	return j, true
}

func hasLabel(labels []int32, l int32) bool {
	// Labels are sorted; linear scan is fine for the small per-edge sets.
	for _, x := range labels {
		if x == l {
			return true
		}
		if x > l {
			return false
		}
	}
	return false
}

// FastestDurations returns, for each vertex v, the minimum duration
// (arrival − departure + 1 time steps, so a single hop has duration 1) of
// any journey from s to v, with 0 for s itself and -1 for unreachable
// vertices.
//
// The algorithm runs one earliest-arrival pass per distinct departure
// label of s (restricted to labels ≥ that departure), costing
// O(|L_out(s)|·M); the paper's networks have O(1) labels per edge, so this
// is O(deg(s)·M) at worst.
func (n *Network) FastestDurations(s int) []int32 {
	nv := n.g.N()
	best := make([]int32, nv)
	for i := range best {
		best[i] = -1
	}
	best[s] = 0
	starts := n.departureLabels(s)
	arr := make([]int32, nv)
	for _, t0 := range starts {
		n.EarliestArrivalsFromInto(s, t0, arr)
		for v := 0; v < nv; v++ {
			if v == s || arr[v] == Unreachable {
				continue
			}
			d := arr[v] - t0 + 1
			if best[v] < 0 || d < best[v] {
				best[v] = d
			}
		}
	}
	return best
}

// departureLabels collects the distinct labels of edges leaving s in
// increasing order.
func (n *Network) departureLabels(s int) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, e := range n.g.OutEdges(s) {
		for _, l := range n.EdgeLabels(int(e)) {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	slices.Sort(out)
	return out
}

// FastestJourney returns a journey from s to t of minimum duration, or
// ok=false when t is unreachable. For s == t it returns the empty journey.
func (n *Network) FastestJourney(s, t int) (Journey, bool) {
	if s == t {
		return Journey{}, true
	}
	nv := n.g.N()
	arr := make([]int32, nv)
	bestDur := int32(-1)
	bestStart := int32(-1)
	for _, t0 := range n.departureLabels(s) {
		n.EarliestArrivalsFromInto(s, t0, arr)
		if arr[t] == Unreachable {
			continue
		}
		d := arr[t] - t0 + 1
		if bestDur < 0 || d < bestDur {
			bestDur = d
			bestStart = t0
		}
	}
	if bestDur < 0 {
		return nil, false
	}
	// Reconstruct within the winning window by a foremost trace restricted
	// to labels ≥ bestStart.
	return n.foremostRestricted(s, t, bestStart)
}
