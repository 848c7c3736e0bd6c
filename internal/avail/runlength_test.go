package avail

// Differential and distributional tests of the run-length samplers
// (Markov, TimeVarying) against independent per-slot oracles: the chain
// and the Bernoulli sweep the samplers replaced, kept here as test code
// only.
//
// Where both of a model's rates sit in rng.Geom's compare regime the
// samplers consume the stream exactly like the oracles, so those cases are
// pinned bit for bit. Elsewhere (the inverse-CDF regime) they are
// chi-square-tested as two samples from independent streams, on four
// per-edge histograms: labels per edge, length of the first on-run, slot
// of the first label, and occupancy of one test-drawn slot per edge. Each
// histogram has one observation per edge, so counts are multinomial and
// the two-sample statistic is χ²(df) under the null.
//
// False-failure rate: every statistic is compared against its 0.999
// quantile. Seeds are pinned, so each statistic is one fixed number and
// the tests cannot flake; re-seeded, a correct sampler would fail a given
// comparison with probability 0.001 — about 3% across the ~30 comparisons
// below. A failure at the pinned seeds therefore means the sampler and
// the oracle disagree in distribution.

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/temporal"
)

// markovChainOracle is the per-slot reference chain: the initial state is
// Bernoulli(pi), then one uniform per slot boundary decides the next
// state (leave "on" with probability beta, enter it with alpha).
func markovChainOracle(m Markov, g *graph.Graph, stream *rng.Stream) temporal.Labeling {
	me, a := g.M(), m.Lifetime()
	lab := temporal.Labeling{Off: make([]int32, me+1)}
	for e := 0; e < me; e++ {
		on := stream.Bernoulli(m.Pi())
		for t := 1; t <= a; t++ {
			if on {
				lab.Labels = append(lab.Labels, int32(t))
			}
			if t < a {
				if on {
					on = !stream.Bernoulli(m.Beta())
				} else {
					on = stream.Bernoulli(m.Alpha())
				}
			}
		}
		lab.Off[e+1] = int32(len(lab.Labels))
	}
	return lab
}

// ptSlotOracle is the per-slot reference p(t) sweep: one Bernoulli(p(t))
// per slot per edge.
func ptSlotOracle(m TimeVarying, g *graph.Graph, stream *rng.Stream) temporal.Labeling {
	me, a := g.M(), m.Lifetime()
	lab := temporal.Labeling{Off: make([]int32, me+1)}
	for e := 0; e < me; e++ {
		for t := 1; t <= a; t++ {
			if stream.Bernoulli(m.ProbAt(t)) {
				lab.Labels = append(lab.Labels, int32(t))
			}
		}
		lab.Off[e+1] = int32(len(lab.Labels))
	}
	return lab
}

// edgeHists are the four per-edge histograms the two-sample tests
// compare; each edge contributes exactly one observation to each.
type edgeHists struct {
	count, firstRun, firstSlot, occupancy []float64
}

// histogramEdges tallies lab's edges. occupancy bin t−1 counts edges on at
// their probe slot t, bin a counts edges off there; probe slots come from
// probe, a stream the labels never see.
func histogramEdges(lab temporal.Labeling, a int, probe *rng.Stream) edgeHists {
	h := edgeHists{
		count:     make([]float64, a+1),
		firstRun:  make([]float64, a+1),
		firstSlot: make([]float64, a+1),
		occupancy: make([]float64, a+1),
	}
	for e := 0; e+1 < len(lab.Off); e++ {
		ls := lab.Labels[lab.Off[e]:lab.Off[e+1]]
		h.count[len(ls)]++
		run := 0
		if len(ls) > 0 {
			h.firstSlot[ls[0]]++
			for run = 1; run < len(ls) && ls[run] == ls[0]+int32(run); run++ {
			}
		} else {
			h.firstSlot[0]++
		}
		h.firstRun[run]++
		slot := int32(probe.IntRange(1, a))
		on := false
		for _, l := range ls {
			on = on || l == slot
		}
		if on {
			h.occupancy[slot-1]++
		} else {
			h.occupancy[a]++
		}
	}
	return h
}

// mergeSparse merges adjacent bins, left to right, until every merged bin
// holds at least `least` observations over both samples (a short remainder
// folds into the last bin), keeping the chi-square approximation sound.
func mergeSparse(x, y []float64, least float64) (mx, my []float64) {
	var cx, cy float64
	for i := range x {
		cx += x[i]
		cy += y[i]
		if cx+cy >= least {
			mx, my = append(mx, cx), append(my, cy)
			cx, cy = 0, 0
		}
	}
	if cx+cy > 0 {
		if len(mx) == 0 {
			return []float64{cx}, []float64{cy}
		}
		mx[len(mx)-1] += cx
		my[len(my)-1] += cy
	}
	return mx, my
}

// assertSameDistribution two-sample-tests every histogram of got against
// want at the 0.999 level.
func assertSameDistribution(t *testing.T, name string, got, want edgeHists) {
	t.Helper()
	for _, h := range []struct {
		what   string
		gx, wx []float64
	}{
		{"labels per edge", got.count, want.count},
		{"first on-run length", got.firstRun, want.firstRun},
		{"first label slot", got.firstSlot, want.firstSlot},
		{"slot occupancy", got.occupancy, want.occupancy},
	} {
		gx, wx := mergeSparse(h.gx, h.wx, 20)
		stat, df := stats.ChiSquareTwoSample(gx, wx)
		if df == 0 {
			continue // one merged bin: nothing to compare
		}
		if crit := stats.ChiSquareQuantile(0.999, float64(df)); stat > crit {
			t.Errorf("%s: %s: two-sample chi-square %.2f > %.2f (df %d)\n sampler %v\n oracle  %v",
				name, h.what, stat, crit, df, gx, wx)
		}
	}
}

// TestMarkovRunLengthMatchesChainOracle covers the sampler's corners:
// i.i.d. on-runs (runlen 1, beta = 1), alpha = 1, lifetime 1, and pi from
// 1e-4 to 0.5.
func TestMarkovRunLengthMatchesChainOracle(t *testing.T) {
	const edges = 20000
	g := manyEdges(edges)
	cases := []struct {
		a          int
		pi, runlen float64
	}{
		{256, 1e-4, 4},
		{96, 0.01, 4},
		{64, 0.25, 4},
		{32, 0.5, 2},
		{64, 0.05, 1},  // beta = 1, alpha in the inverse-CDF regime
		{16, 0.75, 3},  // alpha = 1
		{1, 0.3, 4},    // a = 1: the initial state alone
		{48, 0.02, 12}, // long runs, both rates small
	}
	for i, tc := range cases {
		m, err := NewMarkov(tc.a, tc.pi, tc.runlen)
		if err != nil {
			t.Fatal(err)
		}
		got := histogramEdges(m.Assign(g, rng.NewStream(0x5a1, uint64(i))), tc.a, rng.NewStream(0x9b0, uint64(i)))
		want := histogramEdges(markovChainOracle(m, g, rng.NewStream(0x0c1, uint64(i))), tc.a, rng.NewStream(0x9b1, uint64(i)))
		assertSameDistribution(t, m.Name(), got, want)
	}
}

// TestMarkovCompareRegimeBitIdentical: with alpha and beta both ≥ 1/8 the
// run-length sampler draws exactly the chain's uniforms, so the labelings
// and the stream positions coincide.
func TestMarkovCompareRegimeBitIdentical(t *testing.T) {
	g := graph.Clique(9, true)
	for _, tc := range []struct {
		a          int
		pi, runlen float64
	}{{40, 0.5, 2}, {40, 0.5, 1}, {25, 0.3, 3}, {1, 0.5, 2}, {2, 0.6, 4}} {
		m, err := NewMarkov(tc.a, tc.pi, tc.runlen)
		if err != nil {
			t.Fatal(err)
		}
		if m.Alpha() < 0.125 || m.Beta() < 0.125 {
			t.Fatalf("%s: case outside the compare regime", m.Name())
		}
		s1, s2 := rng.New(17), rng.New(17)
		if got, want := m.Assign(g, s1), markovChainOracle(m, g, s2); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: labeling differs from the chain oracle", m.Name())
		}
		if *s1 != *s2 {
			t.Fatalf("%s: stream consumption differs from the chain oracle", m.Name())
		}
	}
}

// TestTimeVaryingMatchesSlotOracle: schedules whose adjacent slots all
// differ (ramp, periodic) are one-slot runs and stay bit-identical to the
// per-slot sweep; constant stretches (the iid p(t) = p family, burst
// windows) draw geometric gaps and are tested in distribution.
func TestTimeVaryingMatchesSlotOracle(t *testing.T) {
	g := graph.Clique(9, true)
	ramp, err := NewRamp(50, 0.02, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	periodic, err := NewPeriodic(50, 0.5, 1.5, 2) // clamped stretches at 0 and 1
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []TimeVarying{ramp, periodic} {
		s1, s2 := rng.New(23), rng.New(23)
		if got, want := m.Assign(g, s1), ptSlotOracle(m, g, s2); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: labeling differs from the per-slot oracle", m.Name())
		}
		if *s1 != *s2 {
			t.Fatalf("%s: stream consumption differs from the per-slot oracle", m.Name())
		}
	}

	const edges = 20000
	star := manyEdges(edges)
	var dist []TimeVarying
	for _, p := range []float64{1e-3, 0.01, 0.2} {
		m, err := NewRamp(96, p, p)
		if err != nil {
			t.Fatal(err)
		}
		dist = append(dist, m)
	}
	burst, err := NewBurst(64, 0.01, 0.5, 0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	dist = append(dist, burst)
	for i, m := range dist {
		a := m.Lifetime()
		got := histogramEdges(m.Assign(star, rng.NewStream(0x7a1, uint64(i))), a, rng.NewStream(0x9c0, uint64(i)))
		want := histogramEdges(ptSlotOracle(m, star, rng.NewStream(0x7c1, uint64(i))), a, rng.NewStream(0x9c1, uint64(i)))
		assertSameDistribution(t, m.Name(), got, want)
	}
}

// TestRunLengthResampleZeroAllocs pins the steady state of both samplers:
// once the labeling buffers have grown, a redraw allocates nothing.
func TestRunLengthResampleZeroAllocs(t *testing.T) {
	markov, err := NewMarkov(96, 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	iid, err := NewRamp(96, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Clique(32, true)
	for _, rs := range []Resampler{markov, iid} {
		var lab temporal.Labeling
		stream := rng.New(3)
		for i := 0; i < 20; i++ {
			rs.Resample(g, &lab, stream)
		}
		if avg := testing.AllocsPerRun(50, func() { rs.Resample(g, &lab, stream) }); avg != 0 {
			t.Fatalf("%T: %v allocs per steady-state Resample, want 0", rs, avg)
		}
	}
}

// FuzzMarkovResample checks the sampler's invariants over arbitrary
// (a, pi, runlen, seed): labels strictly ascending in [1, a] and Off
// monotone; Assign ≡ Resample bit for bit with identical stream
// consumption; rates so small that a gap overflows int clamp at the
// lifetime instead; and a Resample into a buffer already big enough
// allocates nothing.
func FuzzMarkovResample(f *testing.F) {
	f.Add(uint16(64), 0.25, 4.0, uint64(1))
	f.Add(uint16(1), 0.5, 1.0, uint64(2))
	f.Add(uint16(200), 1e-12, 4.0, uint64(3))
	f.Add(uint16(97), 0.01, 1.0, uint64(4))
	f.Add(uint16(30), 0.75, 3.0, uint64(5))
	f.Add(uint16(500), 0.999, 1e6, uint64(6))
	g := graph.Clique(4, true)
	f.Fuzz(func(t *testing.T, a16 uint16, pi, runlen float64, seed uint64) {
		a := int(a16%1024) + 1
		if math.IsNaN(runlen) || math.IsInf(runlen, 0) {
			return
		}
		m, err := NewMarkov(a, pi, runlen)
		if err != nil {
			return
		}
		s1, s2 := rng.New(seed), rng.New(seed)
		got := m.Assign(g, s1)
		var lab temporal.Labeling
		lab.Labels = make([]int32, 0, 3) // a dirty, too-small buffer
		lab.Labels = append(lab.Labels, 9, 9, 9)
		m.Resample(g, &lab, s2)
		if !slices.Equal(got.Off, lab.Off) || !slices.Equal(got.Labels, lab.Labels) || *s1 != *s2 {
			t.Fatalf("%s a=%d: Assign and Resample disagree", m.Name(), a)
		}
		if len(lab.Off) != g.M()+1 || lab.Off[0] != 0 || int(lab.Off[g.M()]) != len(lab.Labels) {
			t.Fatalf("%s a=%d: malformed offsets %v for %d labels", m.Name(), a, lab.Off, len(lab.Labels))
		}
		for e := 0; e < g.M(); e++ {
			if lab.Off[e+1] < lab.Off[e] {
				t.Fatalf("%s a=%d: offsets not monotone: %v", m.Name(), a, lab.Off)
			}
			prev := int32(0)
			for _, l := range lab.Labels[lab.Off[e]:lab.Off[e+1]] {
				if l <= prev || l > int32(a) {
					t.Fatalf("%s a=%d: edge %d labels %v not strictly ascending in [1, a]",
						m.Name(), a, e, lab.Labels[lab.Off[e]:lab.Off[e+1]])
				}
				prev = l
			}
		}
		lab.Labels = make([]int32, 0, g.M()*a)
		if allocs := testing.AllocsPerRun(2, func() { m.Resample(g, &lab, s2) }); allocs != 0 {
			t.Fatalf("%s a=%d: %v allocs per steady-state Resample", m.Name(), a, allocs)
		}
	})
}
