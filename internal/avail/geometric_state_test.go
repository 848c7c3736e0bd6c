package avail

// Differential coverage for the incremental geometric engine: a reused
// geomState must reproduce, bit for bit, trial after trial, what the
// original map-accumulating generator (generateMap, kept as the oracle)
// produces from the same stream state — same canonical edge list, same
// labeling, same RNG consumption. This is the contract that lets
// sim.BatchRunner route mobility trials through ScenarioState +
// temporal.RelabelEdges instead of rebuilding networks.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/temporal"
)

// assertTrialEqual compares a state trial to the oracle generator's output.
func assertTrialEqual(t *testing.T, name string, from, to []int32, lab temporal.Labeling, m Geometric, n int, seed, trial uint64) {
	t.Helper()
	og, olab := m.generateMap(n, rng.NewStream(seed, trial))
	if len(from) != og.M() {
		t.Fatalf("%s: %d edges, oracle %d", name, len(from), og.M())
	}
	if !slices.Equal(from, og.FromArray()) || !slices.Equal(to, og.ToArray()) {
		t.Fatalf("%s: edge arrays differ from oracle", name)
	}
	if !slices.Equal(lab.Off, olab.Off) || !slices.Equal(lab.Labels, olab.Labels) {
		t.Fatalf("%s: labeling differs from oracle", name)
	}
	// Canonical order is part of the ScenarioState contract.
	prev := int64(-1)
	for i := range from {
		if from[i] >= to[i] {
			t.Fatalf("%s: edge %d (%d,%d) not canonical", name, i, from[i], to[i])
		}
		k := int64(from[i])*int64(n) + int64(to[i])
		if k <= prev {
			t.Fatalf("%s: edge order breaks at %d", name, i)
		}
		prev = k
	}
}

// TestGeometricStateMatchesGenerate reuses one state across many trials —
// grid mode, brute-force mode, degenerate sizes, auto and explicit radii,
// and the mobility size (n = 100, lifetime 64) on its finest grid, its
// coarsest grid and its brute-force radius — and pins every trial against
// a fresh oracle run. cells is the grid side the state must pick (0 =
// brute force), so each case is known to exercise the scan it names.
func TestGeometricStateMatchesGenerate(t *testing.T) {
	cases := []struct {
		name         string
		a            int
		radius, step float64
		n            int
		cells        int
	}{
		{"grid-auto", 12, 0, 0.05, 64, 4}, // auto radius, grid path
		{"grid-explicit", 9, 0.11, 0.07, 60, 9},
		{"brute-dense", 7, 0.3, 0.1, 40, 0},      // cells=3 < 4 → brute force
		{"brute-small-n", 10, 0.11, 0.05, 12, 0}, // n < 16 → brute force
		{"n0", 6, 0.2, 0.05, 0, 0},
		{"n1", 6, 0.2, 0.05, 1, 0},
		{"a1", 1, 0.15, 0.05, 48, 6}, // single slot, no advances
		{"mobility-r0.05", 64, 0.05, 0.05, 100, 20},
		{"mobility-r0.218", 64, 0.218, 0.05, 100, 4},
		{"mobility-r0.303", 64, 0.303, 0.05, 100, 0},
		{"mobility-step0.5", 64, 0.121, 0.5, 100, 8}, // widest step: sums span [−0.5, 1.5)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewGeometric(tc.a, tc.radius, tc.step)
			if err != nil {
				t.Fatal(err)
			}
			st := m.NewScenarioState(tc.n)
			if st == nil {
				t.Fatalf("NewScenarioState(%d) = nil", tc.n)
			}
			if got := st.(*geomState).cells; got != tc.cells {
				t.Fatalf("grid side %d, want %d", got, tc.cells)
			}
			const seed = 99
			for trial := uint64(0); trial < 6; trial++ {
				from, to, lab := st.Resample(rng.NewStream(seed, trial))
				assertTrialEqual(t, tc.name, from, to, lab, m, tc.n, seed, trial)
			}
		})
	}
}

// TestWrapStepMatchesMod pins the engine's two-compare wrap to wrap01's
// math.Mod on the edges of its input range: sums that round to 1.0 from
// either side, signed zeros, the smallest negative value (whose +1 rounds
// to 1.0), ±0.5 and the ends of [−0.5, 1.5], plus random sums of a point
// and a step of every allowed size.
func TestWrapStepMatchesMod(t *testing.T) {
	below1 := math.Nextafter(1, 0)
	inputs := []float64{
		0, math.Copysign(0, -1), 1, below1, math.Nextafter(1, 2),
		below1 + 0x1p-54, // a sum that rounds to 1.0
		-math.SmallestNonzeroFloat64, -0x1p-60, -0x1p-54, math.Nextafter(0, 1),
		0.5, -0.5, 1.5, math.Nextafter(1.5, 0), math.Nextafter(-0.5, 0),
		below1 + below1*0.5, 0.25 - 0.75,
	}
	r := rng.New(5)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if i%7 == 0 {
			x = 1 // the value a rounded-up wrap leaves behind
		}
		step := 0.5 * (1 - r.Float64())
		inputs = append(inputs, x+(2*r.Float64()-1)*step)
	}
	for _, x := range inputs {
		if got, want := wrapStep(x), wrap01(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("wrapStep(%v) = %v (%#x), wrap01 = %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// FuzzGeometricState checks the engine against the oracle over arbitrary
// (seed, trial, n ≤ 64, lifetime ≤ 16, radius, step): one state redraws
// two consecutive trials, and each must equal generateMap bit for bit and
// leave its stream where the oracle leaves it. Radii below 0.01 (other
// than 0 = auto) are skipped: their grids have more than 10⁴ cells, which
// the oracle rebuilds every slot.
func FuzzGeometricState(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint8(64), uint8(15), 0.0, 0.05)  // auto radius, grid
	f.Add(uint64(2), uint64(3), uint8(60), uint8(8), 0.11, 0.07)  // 9-cell grid
	f.Add(uint64(3), uint64(1), uint8(40), uint8(6), 0.3, 0.1)    // brute force
	f.Add(uint64(4), uint64(2), uint8(64), uint8(15), 0.05, 0.5)  // widest step
	f.Add(uint64(5), uint64(9), uint8(12), uint8(9), 0.49, 0.5)   // small n, dense
	f.Add(uint64(6), uint64(4), uint8(64), uint8(0), 0.01, 0.001) // one slot, 100-cell grid
	f.Add(uint64(7), uint64(5), uint8(1), uint8(3), 0.2, 0.05)    // one point
	f.Fuzz(func(t *testing.T, seed, trial uint64, n8, a8 uint8, radius, step float64) {
		n := int(n8 % 65)
		a := int(a8%16) + 1
		if radius != 0 && !(radius >= 0.01) {
			return
		}
		m, err := NewGeometric(a, radius, step)
		if err != nil {
			return
		}
		st := m.NewScenarioState(n)
		if st == nil {
			t.Fatalf("%s n=%d a=%d: nil state", m.Name(), n, a)
		}
		for tr := trial; tr < trial+2; tr++ {
			s1, s2 := rng.NewStream(seed, tr), rng.NewStream(seed, tr)
			from, to, lab := st.Resample(s1)
			og, olab := m.generateMap(n, s2)
			if !slices.Equal(from, og.FromArray()) || !slices.Equal(to, og.ToArray()) {
				t.Fatalf("%s n=%d a=%d trial %d: edge lists differ from oracle", m.Name(), n, a, tr)
			}
			if !slices.Equal(lab.Off, olab.Off) || !slices.Equal(lab.Labels, olab.Labels) {
				t.Fatalf("%s n=%d a=%d trial %d: labeling differs from oracle", m.Name(), n, a, tr)
			}
			if *s1 != *s2 {
				t.Fatalf("%s n=%d a=%d trial %d: stream position differs from oracle", m.Name(), n, a, tr)
			}
		}
	})
}

// TestGeometricStateSortPathMatchesOracle pins the comparison-sort variant
// of the engine: above countingMaxKeys pair keys the state carries no
// counting cursors and groups via a full event sort instead. n = 1100 is
// the smallest grid size past the gate that keeps the oracle cheap.
func TestGeometricStateSortPathMatchesOracle(t *testing.T) {
	const n = 1100
	if n*n <= countingMaxKeys {
		t.Fatal("test size no longer exceeds countingMaxKeys; raise n")
	}
	m, err := NewGeometric(2, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewScenarioState(n)
	if st == nil {
		t.Fatalf("NewScenarioState(%d) = nil", n)
	}
	if st.(*geomState).counts != nil {
		t.Fatal("state past the gate still carries counting cursors")
	}
	const seed = 31
	for trial := uint64(0); trial < 3; trial++ {
		from, to, lab := st.Resample(rng.NewStream(seed, trial))
		assertTrialEqual(t, "sort-path", from, to, lab, m, n, seed, trial)
	}
}

// TestGeometricStateStreamConsumption: after a Resample the stream must sit
// exactly where the oracle leaves it, so trial i+1 sees identical draws no
// matter which engine ran trial i. (Each walk consumes 2n·a uniforms.)
func TestGeometricStateStreamConsumption(t *testing.T) {
	m, err := NewGeometric(8, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	st := m.NewScenarioState(n)
	s1 := rng.NewStream(7, 1)
	s2 := rng.NewStream(7, 1)
	st.Resample(s1)
	m.generateMap(n, s2)
	for i := 0; i < 8; i++ {
		if a, b := s1.Float64(), s2.Float64(); a != b {
			t.Fatalf("draw %d after trial: state stream %v, oracle stream %v", i, a, b)
		}
	}
}

// TestGeometricStateSteadyStateAllocs pins the zero-allocation contract of
// the reused trial state.
func TestGeometricStateSteadyStateAllocs(t *testing.T) {
	m, err := NewGeometric(10, 0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewScenarioState(96)
	for i := uint64(0); i < 8; i++ { // warm buffers on every seed measured below
		st.Resample(rng.NewStream(3, i))
	}
	i := uint64(0)
	avg := testing.AllocsPerRun(30, func() {
		st.Resample(rng.NewStream(3, i%8))
		i++
	})
	// rng.NewStream itself may allocate its stream object; tolerate only
	// that by measuring it separately and subtracting.
	base := testing.AllocsPerRun(30, func() {
		rng.NewStream(3, i%8)
		i++
	})
	if avg-base > 0 {
		t.Fatalf("steady-state Resample allocates %.1f objects/op beyond stream creation, want 0", avg-base)
	}
}

// TestGeometricStateOverflowFallback: sizes the packed-event word cannot
// cover must yield a nil state (and Generate must still work through the
// map path). The word holds the pair key u·n+v shifted past tb =
// bits.Len(lifetime) slot bits, so the limit is n²·2^tb ≤ 2⁶²: at
// n = 2¹⁶ a lifetime of 2³⁰−1 (tb = 30) fits exactly and 2³⁰ (tb = 31)
// does not. Exercised with absurd lifetimes rather than an absurd n so the
// test stays cheap.
func TestGeometricStateOverflowFallback(t *testing.T) {
	const n = 1 << 16
	for _, tc := range []struct {
		a    int
		fits bool
	}{
		{1<<30 - 1, true},
		{1 << 30, false},
		{1 << 40, false},
	} {
		m, err := NewGeometric(tc.a, 0.2, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if st := m.NewScenarioState(n); (st != nil) != tc.fits {
			t.Fatalf("a=%d: NewScenarioState(%d) returned a state: %v, want %v", tc.a, n, st != nil, tc.fits)
		}
	}
}
