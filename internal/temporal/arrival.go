package temporal

// Single-source earliest-arrival entry points. The production path is the
// frontier kernel (engine.go); the original linear-scan kernel is kept
// below as a differential-testing oracle next to earliestArrivalsFixpoint.

// EarliestArrivals returns δ(s,·): the earliest arrival time from s to each
// vertex, with arr[s] = 0 and Unreachable for vertices no journey reaches.
func (n *Network) EarliestArrivals(s int) []int32 {
	arr := make([]int32, n.g.N())
	n.EarliestArrivalsInto(s, arr)
	return arr
}

// EarliestArrivalsInto is the allocation-free kernel behind
// EarliestArrivals: arr must have length N() and is overwritten. It returns
// the number of reached vertices, counting s itself.
func (n *Network) EarliestArrivalsInto(s int, arr []int32) int {
	sc := getScratch()
	reached := n.earliestArrivalsFrontier(s, 1, arr, nil, sc)
	putScratch(sc)
	return reached
}

// EarliestArrivalsFromInto is EarliestArrivalsInto restricted to journeys
// whose first hop departs no earlier than start (start ≤ 1 is the
// unrestricted query): arr must have length N() and is overwritten, with
// arr[s] = 0. It returns the number of reached vertices counting s. This
// is the on-miss recompute path of the query index (internal/qindex).
func (n *Network) EarliestArrivalsFromInto(s int, start int32, arr []int32) int {
	if start < 1 {
		start = 1
	}
	sc := getScratch()
	reached := n.earliestArrivalsFrontier(s, start, arr, nil, sc)
	putScratch(sc)
	return reached
}

// EarliestArrivalsLinearInto computes the same arrival vector with the
// original single-pass kernel: one scan of the label-sorted time-edge list
// applying "arr[u] < l ⇒ arr[v] ← min(arr[v], l)". Processing labels in
// non-decreasing order makes every arrival < l final when the scan reaches
// l, so the strict comparison applies exactly the increasing-label rule,
// and the scan may stop as soon as every vertex is reached (a set arrival
// can never improve). No other entry point calls it: it is the
// differential-testing oracle for the frontier and batch kernels.
func (n *Network) EarliestArrivalsLinearInto(s int, arr []int32) int {
	n.ensureTimeEdges()
	for i := range arr {
		arr[i] = Unreachable
	}
	arr[s] = 0
	nv := len(arr)
	reached := 1
	directed := n.g.Directed()
	from, to := n.g.FromArray(), n.g.ToArray()
	for i, e := range n.teEdge {
		l := n.teLabel[i]
		u, v := from[e], to[e]
		if arr[u] < l && l < arr[v] {
			if arr[v] == Unreachable {
				reached++
			}
			arr[v] = l
		} else if !directed && arr[v] < l && l < arr[u] {
			if arr[u] == Unreachable {
				reached++
			}
			arr[u] = l
		}
		if reached == nv {
			break
		}
	}
	return reached
}

// ForemostJourney returns a foremost (s,t)-journey — one whose arrival time
// equals δ(s,t) — or ok=false when t is unreachable from s. For s == t it
// returns the empty journey.
func (n *Network) ForemostJourney(s, t int) (Journey, bool) {
	return n.foremostRestricted(s, t, 1)
}

// ForemostJourneyFrom is ForemostJourney restricted to journeys whose
// first hop departs no earlier than start: the journey arrives at exactly
// EarliestArrivalsFromInto's δ_start(s,t), or ok=false when no such
// journey exists. start ≤ 1 is the unrestricted query.
func (n *Network) ForemostJourneyFrom(s, t int, start int32) (Journey, bool) {
	if start < 1 {
		start = 1
	}
	return n.foremostRestricted(s, t, start)
}

// foremostRestricted is ForemostJourney over journeys departing no earlier
// than start: one frontier pass with predecessor recording, then a
// backwards trace over the recorded time edges. FastestJourney reuses it
// for the winning departure window.
func (n *Network) foremostRestricted(s, t int, start int32) (Journey, bool) {
	if s == t {
		return Journey{}, true
	}
	sc := getScratch()
	defer putScratch(sc)
	nv := n.g.N()
	arr := sc.arrival(nv)
	pred := sc.predecessors(nv)
	n.earliestArrivalsFrontier(s, start, arr, pred, sc)
	if arr[t] == Unreachable {
		return nil, false
	}
	var rev Journey
	for cur := int32(t); cur != int32(s); {
		pi := pred[cur]
		u := n.vteOwner(pi)
		rev = append(rev, Hop{
			From:  int(u),
			To:    int(cur),
			Edge:  int(n.vteEdge[pi]),
			Label: n.vteLabelAt(pi),
		})
		cur = u
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// earliestArrivalsFixpoint is an independent O(rounds·M) reference
// implementation used by tests: Bellman–Ford-style relaxation of all time
// edges (in arbitrary order) until no arrival time improves. It must agree
// with the production kernels on every network.
func (n *Network) earliestArrivalsFixpoint(s int) []int32 {
	nv := n.g.N()
	arr := make([]int32, nv)
	for i := range arr {
		arr[i] = Unreachable
	}
	arr[s] = 0
	directed := n.g.Directed()
	for {
		changed := false
		// Deliberately iterate edges in id order (not label order) so the
		// reference differs structurally from the production kernels.
		for e := 0; e < n.g.M(); e++ {
			u, v := n.g.Endpoints(e)
			for _, l := range n.EdgeLabels(e) {
				if arr[u] < l && l < arr[v] {
					arr[v] = l
					changed = true
				}
				if !directed && arr[v] < l && l < arr[u] {
					arr[u] = l
					changed = true
				}
			}
		}
		if !changed {
			return arr
		}
	}
}
