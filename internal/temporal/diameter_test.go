package temporal

// Differential tests for the batched diameter entry points and for lazy
// index construction. DiameterFromSerial and DiameterFrom run the 64-way
// batch kernel over chunks of sources; they must equal a statistic
// accumulated independently over the Bellman–Ford fixpoint oracle for
// every source count around the chunk boundaries. A network from New
// builds nothing until a query needs it, and must answer every entry point
// exactly like a network whose indexes were all forced up front.

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// diameterNetworks spans the regimes the batch kernel meets: subcritical
// and near-threshold G(n,p) (partial reachability) and the normalized URT
// clique (full reachability), each directed and undirected, plus the
// degenerate sizes.
func diameterNetworks(seed uint64) []testNetwork {
	r := rng.New(seed)
	var out []testNetwork
	for _, directed := range []bool{true, false} {
		add := func(name string, g *graph.Graph, lifetime, perEdge int) {
			name = fmt.Sprintf("%s-dir=%v", name, directed)
			out = append(out, testNetwork{name, MustNew(g, lifetime, uniformSets(g, lifetime, perEdge, r))})
		}
		add("subcritical-gnp-150", graph.Gnp(150, 0.5/150, directed, r), 150, 2)
		add("near-threshold-gnp-150", graph.Gnp(150, 3.0/150, directed, r), 150, 2)
		add("urt-clique-135", graph.Clique(135, directed), 135, 1)
	}
	out = append(out,
		testNetwork{"empty", MustNew(graph.NewBuilder(0, false).Build(), 5, LabelingFromSets(nil))},
		testNetwork{"singleton", MustNew(graph.Clique(1, true), 5, LabelingFromSets(nil))})
	return out
}

// fixpointDiameter accumulates the diameter statistics of the given
// sources from precomputed fixpoint arrival rows, without diamAccum.
func fixpointDiameter(rows [][]int32, sources []int) DiameterResult {
	res := DiameterResult{AllReachable: true}
	var sum, finite int64
	for _, s := range sources {
		for v, a := range rows[s] {
			if v == s {
				continue
			}
			res.Pairs++
			if a == Unreachable {
				res.AllReachable = false
				continue
			}
			finite++
			sum += int64(a)
			res.Max = max(res.Max, a)
		}
	}
	if finite > 0 {
		res.MeanFinite = float64(sum) / float64(finite)
	}
	return res
}

func TestBatchedDiameterMatchesFixpoint(t *testing.T) {
	r := rng.New(5)
	for _, tn := range diameterNetworks(3) {
		nv := tn.net.Graph().N()
		rows := make([][]int32, nv)
		for s := range rows {
			rows[s] = tn.net.earliestArrivalsFixpoint(s)
		}
		var lists [][]int
		for _, k := range []int{1, 63, 64, 65, 130} {
			if k <= nv {
				lists = append(lists, r.Sample(nv, k), firstN(k))
			}
		}
		if nv > 0 {
			lists = append(lists, r.Sample(nv, nv/3+1), firstN(nv))
		}
		lists = append(lists, nil)
		for _, sources := range lists {
			want := fixpointDiameter(rows, sources)
			if got := DiameterFromSerial(tn.net, sources); got != want {
				t.Fatalf("%s, %d sources: DiameterFromSerial = %+v, fixpoint %+v", tn.name, len(sources), got, want)
			}
			if got := DiameterFrom(tn.net, sources); got != want {
				t.Fatalf("%s, %d sources: DiameterFrom = %+v, fixpoint %+v", tn.name, len(sources), got, want)
			}
		}
		if got, want := Diameter(tn.net), fixpointDiameter(rows, firstN(nv)); got != want {
			t.Fatalf("%s: Diameter = %+v, fixpoint %+v", tn.name, got, want)
		}
	}
}

func firstN(k int) []int {
	s := make([]int, k)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestDiameterCountsKernelChoice pins the observability contract: one
// temporal_kernel_choice_total{kernel="batch64",entry="diameter"} per
// diameter call that runs a kernel, serial or parallel.
func TestDiameterCountsKernelChoice(t *testing.T) {
	net := diameterNetworks(1)[2].net
	before := obsKernelDiameter.Value()
	DiameterFromSerial(net, firstN(130))
	DiameterFrom(net, firstN(130))
	DiameterFrom(net, firstN(3))
	DiameterFromSerial(net, nil)
	if got := obsKernelDiameter.Value() - before; got != 3 {
		t.Fatalf("kernel choice counter moved by %d over three diameter calls, want 3", got)
	}
}

// forceIndexes builds every lazy index, as New did before it went lazy.
func (n *Network) forceIndexes() {
	n.ensureSortedLabels()
	n.ensureVertexTimeEdges()
}

// lazyProbes are the network's query entry points, each rendering its
// answers on one instance to a string.
var lazyProbes = map[string]func(n *Network) string{
	"EdgeLabels": func(n *Network) string {
		var b bytes.Buffer
		for e := 0; e < n.Graph().M(); e++ {
			l, ok := n.FirstLabelAfter(e, 3)
			fmt.Fprint(&b, n.EdgeLabels(e), n.HasLabelIn(e, 2, 9), l, ok)
		}
		return b.String()
	},
	"TimeEdges": func(n *Network) string {
		var b bytes.Buffer
		n.TimeEdges(func(e, u, v int, l int32) { fmt.Fprint(&b, e, u, v, l, ";") })
		return b.String()
	},
	"EarliestArrivals": func(n *Network) string {
		return eachSource(n, func(s int) any { return [2]any{n.EarliestArrivals(s), n.ReachedCount(s)} })
	},
	"EarliestArrivalsFromInto": func(n *Network) string {
		return eachSource(n, func(s int) any {
			arr := make([]int32, n.Graph().N())
			return [2]any{n.EarliestArrivalsFromInto(s, 4, arr), arr}
		})
	},
	"EarliestArrivalsLinearInto": func(n *Network) string {
		return eachSource(n, func(s int) any {
			arr := make([]int32, n.Graph().N())
			return [2]any{n.EarliestArrivalsLinearInto(s, arr), arr}
		})
	},
	"ArrivalRowsBatch": func(n *Network) string {
		nv := n.Graph().N()
		k := min(nv, batchSize)
		srcs, rows := make([]int32, k), make([][]int32, k)
		for j := range srcs {
			srcs[j], rows[j] = int32(j), make([]int32, nv)
		}
		n.ArrivalRowsBatch(srcs, rows)
		return fmt.Sprint(rows)
	},
	"Eccentricity": func(n *Network) string {
		return eachSource(n, func(s int) any { e, all := Eccentricity(n, s); return [2]any{e, all} })
	},
	"ForemostJourney": func(n *Network) string {
		return eachSource(n, func(s int) any {
			j, ok := n.ForemostJourney(s, n.Graph().N()-1)
			jf, okf := n.ForemostJourneyFrom(s, 0, 3)
			return [4]any{j, ok, jf, okf}
		})
	},
	"Variants": func(n *Network) string {
		return eachSource(n, func(s int) any {
			j, ok := n.ShortestJourney(s, 0)
			jf, okf := n.FastestJourney(0, s)
			return [6]any{n.LatestDepartures(s), n.ShortestHops(s), n.FastestDurations(s), j, ok, [2]any{jf, okf}}
		})
	},
	"Treach": func(n *Network) string {
		return fmt.Sprint(SatisfiesTreach(n), SatisfiesTreachSerial(n, nil),
			SatisfiesTreachStatic(n, NewStaticReach(n.Graph()), nil), TreachViolations(n))
	},
	"ReachableSets": func(n *Network) string {
		var b bytes.Buffer
		for _, set := range ReachableSets(n, firstN(n.Graph().N())) {
			set.ForEach(func(v int) { fmt.Fprint(&b, v, " ") })
			b.WriteString(";")
		}
		return b.String()
	},
	"Diameter": func(n *Network) string {
		return fmt.Sprint(Diameter(n), DiameterFrom(n, firstN(n.Graph().N()/2)), DiameterFromSerial(n, firstN(n.Graph().N())))
	},
	"Reverse": func(n *Network) string {
		rev := n.Reverse()
		return eachSource(rev, func(s int) any { return rev.EarliestArrivals(s) })
	},
	"Encode": func(n *Network) string {
		var b bytes.Buffer
		if err := n.Encode(&b); err != nil {
			return err.Error()
		}
		return b.String()
	},
}

func eachSource(n *Network, f func(s int) any) string {
	var b bytes.Buffer
	for s := 0; s < n.Graph().N(); s++ {
		fmt.Fprint(&b, f(s), ";")
	}
	return b.String()
}

// TestLazyNetworkMatchesForcedIndexes runs every entry point as the very
// first query on a fresh network from New, and compares its answers with
// those of a twin whose indexes were all built up front.
func TestLazyNetworkMatchesForcedIndexes(t *testing.T) {
	r := rng.New(17)
	type instance struct {
		name     string
		g        *graph.Graph
		lifetime int
		lab      Labeling
	}
	var cases []instance
	for _, directed := range []bool{true, false} {
		g, c := graph.Gnp(70, 3.0/70, directed, r), graph.Clique(12, directed)
		cases = append(cases,
			instance{fmt.Sprintf("gnp70-dir=%v", directed), g, 40, uniformSets(g, 40, 2, r)},
			instance{fmt.Sprintf("clique12-dir=%v", directed), c, 12, uniformSets(c, 12, 3, r)})
	}
	path := graph.Path(9)
	cases = append(cases,
		instance{"huge-lifetime-path9", path, 1 << 30, uniformSets(path, 1<<30, 2, r)},
		instance{"singleton", graph.Clique(1, false), 4, LabelingFromSets(nil)})
	clone := func(lab Labeling) Labeling {
		return Labeling{Off: slices.Clone(lab.Off), Labels: slices.Clone(lab.Labels)}
	}
	for _, tc := range cases {
		forced := MustNew(tc.g, tc.lifetime, clone(tc.lab))
		forced.forceIndexes()
		for name, probe := range lazyProbes {
			lazy := MustNew(tc.g, tc.lifetime, clone(tc.lab))
			if lazy.labSorted.Load() || lazy.teClean.Load() || lazy.vteClean.Load() {
				t.Fatalf("%s: New built an index eagerly", tc.name)
			}
			if got, want := probe(lazy), probe(forced); got != want {
				t.Fatalf("%s: %s on a lazy network differs from the forced one:\n%s\nwant\n%s", tc.name, name, got, want)
			}
		}
	}
}

// TestLazyNetworkConcurrentFirstUse runs every entry point at once on one
// fresh network, so the first builds of all indexes race each other (the
// race detector checks the double-checked locking), and compares each
// answer with the forced twin's.
func TestLazyNetworkConcurrentFirstUse(t *testing.T) {
	r := rng.New(19)
	g := graph.Gnp(60, 4.0/60, false, r)
	lab := uniformSets(g, 60, 2, r)
	forced := MustNew(g, 60, Labeling{Off: slices.Clone(lab.Off), Labels: slices.Clone(lab.Labels)})
	forced.forceIndexes()
	lazy := MustNew(g, 60, lab)
	got := map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name, probe := range lazyProbes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := probe(lazy)
			mu.Lock()
			got[name] = out
			mu.Unlock()
		}()
	}
	wg.Wait()
	for name, probe := range lazyProbes {
		if want := probe(forced); got[name] != want {
			t.Fatalf("%s under concurrent first use differs from the forced network", name)
		}
	}
}

// TestDiameterAndTreachSkipVertexIndex pins what laziness buys: a
// diameter-only or Treach-only network never builds the per-vertex CSR.
func TestDiameterAndTreachSkipVertexIndex(t *testing.T) {
	r := rng.New(23)
	g := graph.Gnp(90, 4.0/90, false, r)
	lab := uniformSets(g, 90, 2, r)
	before := obsBuildVertex.Value()
	for _, use := range []func(n *Network){
		func(n *Network) { DiameterFromSerial(n, firstN(90)) },
		func(n *Network) { Diameter(n) },
		func(n *Network) { SatisfiesTreachSerial(n, nil) },
		func(n *Network) { SatisfiesTreach(n) },
		func(n *Network) { TreachViolations(n) },
	} {
		net := MustNew(g, 90, Labeling{Off: slices.Clone(lab.Off), Labels: slices.Clone(lab.Labels)})
		use(net)
		if net.vteClean.Load() || net.labSorted.Load() {
			t.Fatal("a diameter or Treach query built the per-vertex CSR or sorted the per-edge labels")
		}
	}
	if got := obsBuildVertex.Value(); got != before {
		t.Fatalf(`temporal_index_builds_total{index="vertex"} moved by %d`, got-before)
	}
}

// TestTimeEdgeSortRouteMatchesCounting pins buildTimeEdges' two routes to
// the same order: the comparison sort taken when the lifetime dwarfs the
// label count, and the counting sort, forced on the same labels by a
// histogram as Relabel leaves it.
func TestTimeEdgeSortRouteMatchesCounting(t *testing.T) {
	r := rng.New(31)
	for _, tc := range []struct {
		g        *graph.Graph
		lifetime int
		perEdge  int
	}{
		{graph.Path(40), 100_000, 1},
		{graph.Clique(9, true), 1 << 20, 3},
		{graph.Gnp(60, 0.05, false, r), 50_000, 2},
		{graph.Clique(5, false), 10_000, 0},
	} {
		lab := uniformSets(tc.g, tc.lifetime, tc.perEdge, r)
		// Repeat some labels so ties across and within edges occur.
		for i := range lab.Labels {
			if i%3 == 1 {
				lab.Labels[i] = lab.Labels[i-1]
			}
		}
		counted := MustNew(tc.g, tc.lifetime, Labeling{Off: slices.Clone(lab.Off), Labels: slices.Clone(lab.Labels)})
		if err := counted.Relabel(lab); err != nil {
			t.Fatal(err)
		}
		counted.ensureTimeEdges()
		sorted := MustNew(tc.g, tc.lifetime, lab)
		sorted.ensureTimeEdges()
		if int64(tc.lifetime) <= sortRouteFactor*int64(len(lab.Labels)) || sorted.teCounts != nil {
			t.Fatalf("%v: lifetime %d did not take the sort route", tc.g, tc.lifetime)
		}
		if !slices.Equal(sorted.teEdge, counted.teEdge) || !slices.Equal(sorted.teLabel, counted.teLabel) {
			t.Fatalf("%v: sort route %v/%v, counting route %v/%v", tc.g,
				sorted.teEdge, sorted.teLabel, counted.teEdge, counted.teLabel)
		}
	}
}
