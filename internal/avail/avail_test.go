package avail

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/temporal"
)

// allModels builds one representative instance of every registered model at
// a common lifetime.
func allModels(t *testing.T, lifetime int) []Model {
	t.Helper()
	var out []Model
	for _, name := range Names() {
		m, err := Build(name, Params{Lifetime: lifetime})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		out = append(out, m)
	}
	return out
}

func TestRegistryHasAllModels(t *testing.T) {
	for _, name := range []string{"uniform", "binom", "geom", "zipf", "markov",
		"pt", "pt-ramp", "pt-periodic", "pt-burst", "geometric"} {
		b, ok := Lookup(name)
		if !ok {
			t.Fatalf("model %q not registered", name)
		}
		if b.Name == "" || b.Doc == "" {
			t.Fatalf("model %q has empty metadata", name)
		}
	}
	if _, ok := Lookup(" MARKOV "); !ok {
		t.Fatal("lookup should be case- and space-insensitive")
	}
	if b, _ := Lookup("geometric"); !b.Scenario {
		t.Fatal("geometric must be flagged as a scenario")
	}
	if b, _ := Lookup("markov"); b.Scenario {
		t.Fatal("markov must not be flagged as a scenario")
	}
}

func TestBuildRejectsUnknown(t *testing.T) {
	if _, err := Build("no-such-model", Params{}); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := Build("markov", Params{P: map[string]float64{"alpha": 0.1}}); err == nil {
		t.Fatal("unknown knob must error")
	}
	if _, err := Build("markov", Params{P: map[string]float64{"pi": 1.5}}); err == nil {
		t.Fatal("out-of-range pi must error")
	}
	if _, err := Build("markov", Params{P: map[string]float64{"pi": 0.9, "runlen": 1}}); err == nil {
		t.Fatal("infeasible alpha > 1 must error")
	}
	if _, err := Build("geometric", Params{P: map[string]float64{"radius": 0.7}}); err == nil {
		t.Fatal("radius >= 0.5 must error")
	}
	if _, err := Build("pt-burst", Params{P: map[string]float64{"width": 0}}); err == nil {
		t.Fatal("zero burst width must error")
	}
}

// TestAssignValidAndDeterministic checks, for every model, that the
// labeling passes temporal.New's validation on several substrates and that
// two assignments from identical streams are bit-identical.
func TestAssignValidAndDeterministic(t *testing.T) {
	substrates := []*graph.Graph{
		graph.Clique(12, false),
		graph.Clique(8, true),
		graph.Grid(4, 5),
		graph.Star(9),
		graph.Path(2),
		graph.Clique(1, false),
		graph.NewBuilder(0, false).Build(),
	}
	for _, m := range allModels(t, 20) {
		for gi, g := range substrates {
			lab1 := m.Assign(g, rng.NewStream(99, uint64(gi)))
			lab2 := m.Assign(g, rng.NewStream(99, uint64(gi)))
			if !reflect.DeepEqual(lab1, lab2) {
				t.Fatalf("%s: substrate %d: assignment not deterministic", m.Name(), gi)
			}
			net, err := temporal.New(g, m.Lifetime(), lab1)
			if err != nil {
				t.Fatalf("%s: substrate %d: invalid labeling: %v", m.Name(), gi, err)
			}
			if net.Lifetime() != m.Lifetime() {
				t.Fatalf("%s: lifetime mismatch", m.Name())
			}
		}
	}
}

// TestNetworkBuildsEveryModel is the Network helper counterpart, covering
// the scenario dispatch.
func TestNetworkBuildsEveryModel(t *testing.T) {
	g := graph.Clique(10, false)
	for _, m := range allModels(t, 16) {
		net1 := Network(m, g, rng.NewStream(5, 0))
		net2 := Network(m, g, rng.NewStream(5, 0))
		if net1.String() != net2.String() || net1.LabelCount() != net2.LabelCount() {
			t.Fatalf("%s: Network not deterministic", m.Name())
		}
		if net1.Graph().N() != 10 {
			t.Fatalf("%s: Network lost the vertex count: n=%d", m.Name(), net1.Graph().N())
		}
	}
}

func TestGeometricGenerateDegenerates(t *testing.T) {
	m, err := NewGeometric(8, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1} {
		g, lab := m.Generate(n, rng.NewStream(1, 0))
		if g.N() != n || g.M() != 0 || len(lab.Labels) != 0 {
			t.Fatalf("Generate(%d): n=%d m=%d labels=%d", n, g.N(), g.M(), len(lab.Labels))
		}
		if _, err := temporal.New(g, m.Lifetime(), lab); err != nil {
			t.Fatalf("Generate(%d): invalid network: %v", n, err)
		}
	}
}

// TestGeometricGridMatchesBruteForce pins the grid close-pair search to the
// quadratic scan: the same seed at a size that takes the grid path must
// produce the exact same support graph and labels as brute force.
func TestGeometricGridMatchesBruteForce(t *testing.T) {
	m, err := NewGeometric(12, 0.11, 0.07) // cells = 9 ≥ 4, n ≥ 16 → grid path
	if err != nil {
		t.Fatal(err)
	}
	n := 60
	g, lab := m.Generate(n, rng.NewStream(31, 7))

	// Brute-force reference: replay the identical walk via Assign on the
	// complete graph, then drop empty edges.
	full := graph.Clique(n, false)
	ref := m.Assign(full, rng.NewStream(31, 7))
	type pair struct{ u, v int }
	want := map[pair][]int32{}
	for e := 0; e < full.M(); e++ {
		seg := ref.Labels[ref.Off[e]:ref.Off[e+1]]
		if len(seg) == 0 {
			continue
		}
		u, v := full.Endpoints(e)
		if u > v {
			u, v = v, u
		}
		want[pair{u, v}] = seg
	}
	if g.M() != len(want) {
		t.Fatalf("grid found %d edges, brute force %d", g.M(), len(want))
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if u > v {
			u, v = v, u
		}
		got := lab.Labels[lab.Off[e]:lab.Off[e+1]]
		if !reflect.DeepEqual(got, want[pair{u, v}]) {
			t.Fatalf("edge {%d,%d}: grid labels %v, brute force %v", u, v, got, want[pair{u, v}])
		}
	}
}

func TestMarkovDerivedRates(t *testing.T) {
	m, err := NewMarkov(10, 0.25, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Beta() != 0.25 {
		t.Fatalf("beta = %v, want 1/runlen = 0.25", m.Beta())
	}
	// alpha/(alpha+beta) must recover pi.
	pi := m.Alpha() / (m.Alpha() + m.Beta())
	if diff := pi - 0.25; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("stationary availability %v, want 0.25", pi)
	}
}

func TestTimeVaryingSchedules(t *testing.T) {
	ramp, err := NewRamp(10, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ramp.ProbAt(1) != 0.1 || ramp.ProbAt(10) != 0.5 {
		t.Fatalf("ramp endpoints %v, %v", ramp.ProbAt(1), ramp.ProbAt(10))
	}
	burst, err := NewBurst(10, 0.01, 0.9, 0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	inside := 0
	for t1 := 1; t1 <= 10; t1++ {
		switch burst.ProbAt(t1) {
		case 0.9:
			inside++
		case 0.01:
		default:
			t.Fatalf("burst ProbAt(%d) = %v", t1, burst.ProbAt(t1))
		}
	}
	if inside != 2 {
		t.Fatalf("burst covers %d slots, want 2 (width 0.2 of 10)", inside)
	}
	per, err := NewPeriodic(12, 0.5, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for t1 := 1; t1 <= 12; t1++ {
		if p := per.ProbAt(t1); p < 0 || p > 1 {
			t.Fatalf("periodic ProbAt(%d) = %v outside [0,1]", t1, p)
		}
	}
	if !strings.HasPrefix(ramp.Name(), "pt-ramp") {
		t.Fatalf("ramp name %q", ramp.Name())
	}
}

func TestBuildersMetadataComplete(t *testing.T) {
	bs := Builders()
	if len(bs) != len(Names()) {
		t.Fatalf("Builders() returned %d entries, Names() %d", len(bs), len(Names()))
	}
	for _, b := range bs {
		for _, k := range b.Knobs {
			if k.Name == "" || k.Doc == "" {
				t.Fatalf("model %q knob with empty metadata", b.Name)
			}
		}
		// Defaults must build.
		if _, err := Build(b.Name, Params{Lifetime: 8}); err != nil {
			t.Fatalf("model %q fails to build with defaults: %v", b.Name, err)
		}
	}
}

// TestFormatKnobsRoundTrip: FormatKnobs is the canonical (name-sorted)
// inverse of ParseKnobs that cache keys and sweep fingerprints embed.
func TestFormatKnobsRoundTrip(t *testing.T) {
	knobs := map[string]float64{"runlen": 4, "pi": 0.05}
	s := FormatKnobs(knobs)
	if s != "pi=0.05,runlen=4" {
		t.Fatalf("FormatKnobs = %q, want sorted %q", s, "pi=0.05,runlen=4")
	}
	back, err := ParseKnobs(s)
	if err != nil || !reflect.DeepEqual(back, knobs) {
		t.Fatalf("ParseKnobs(%q) = %v, %v; want %v", s, back, err, knobs)
	}
	if FormatKnobs(nil) != "" {
		t.Fatal("empty knob map must render as \"\"")
	}
}
