package main

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/obs"
)

func TestQuantileTailRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, beyond := quantile(xs, 0.99)
	if v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := quantile(xs, 0.5); v != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", v)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {0, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

const expoBefore = `# TYPE sim_trials_completed_total counter
sim_trials_completed_total 10
# TYPE temporal_relabel_edges_total counter
temporal_relabel_edges_total{route="patch"} 1
temporal_relabel_edges_total{route="rebuild"} 4
# TYPE lat histogram
lat_bucket{path="GET /query",le="1"} 2
lat_bucket{path="GET /query",le="2"} 3
lat_bucket{path="GET /query",le="+Inf"} 3
lat_sum{path="GET /query"} 4
lat_count{path="GET /query"} 3
`

const expoAfter = `# TYPE sim_trials_completed_total counter
sim_trials_completed_total 25
# TYPE temporal_relabel_edges_total counter
temporal_relabel_edges_total{route="patch"} 1
temporal_relabel_edges_total{route="rebuild"} 10
# TYPE lat histogram
lat_bucket{path="GET /query",le="1"} 2
lat_bucket{path="GET /query",le="2"} 3
lat_bucket{path="GET /query",le="4"} 7
lat_bucket{path="GET /query",le="8"} 13
lat_bucket{path="GET /query",le="+Inf"} 13
lat_sum{path="GET /query"} 70
lat_count{path="GET /query"} 13
`

func TestExpoDiff(t *testing.T) {
	b, err := parseExpo(expoBefore)
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseExpo(expoAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := diff(b, a)
	if got := d.sum("sim_trials_completed_total"); got != 15 {
		t.Errorf("counter diff = %v, want 15", got)
	}
	if got := d.sum("temporal_relabel_edges_total"); got != 6 {
		t.Errorf("family diff = %v, want 6", got)
	}
	if got := d.sum("temporal_relabel_edges_total", `route="rebuild"`); got != 6 {
		t.Errorf("labeled diff = %v, want 6", got)
	}
	// The le="4" and le="8" buckets are new: before, everything sat at or
	// below le="2", so their cumulative base is the old _count (3).
	if got := d[`lat_bucket{path="GET /query",le="4"}`]; got != 4 {
		t.Errorf("new bucket diff = %v, want 4", got)
	}
	if got := d[`lat_bucket{path="GET /query",le="8"}`]; got != 10 {
		t.Errorf("new bucket diff = %v, want 10", got)
	}
	// Ten new observations: 4 in (2,4], 6 in (4,8]. The median (rank 5)
	// is the first in (4,8], interpolated a sixth of the way in.
	if got := d.histQuantile("lat", 0.5, `path="GET /query"`); math.Abs(got-(4+4.0/6)) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, 4+4.0/6)
	}
	if got := d.histQuantile("lat", 0.5, `path="POST /query"`); got != 0 {
		t.Errorf("p50 of an empty series = %v, want 0", got)
	}
	acc := expo{}
	acc.add(d)
	acc.add(d)
	if got := acc.sum("sim_trials_completed_total"); got != 30 {
		t.Errorf("accumulated = %v, want 30", got)
	}
	if _, err := parseExpo("no_value_here"); err == nil {
		t.Error("a sample line without a value parsed")
	}
}

func TestScrapeParsesTheRegistry(t *testing.T) {
	e := scrape()
	if _, ok := e["sim_trials_completed_total"]; !ok {
		t.Fatal("scrape is missing sim_trials_completed_total")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.SpanRecord{
		{ID: 1, Name: "bench.pass", StartNS: 0, DurNS: 100},
		{ID: 2, Parent: 1, Name: "sweep.cell", StartNS: 10, DurNS: 20},  // [10,30)
		{ID: 3, Parent: 1, Name: "sweep.cell", StartNS: 20, DurNS: 30},  // [20,50), overlaps 2
		{ID: 4, Parent: 1, Name: "sweep.probe", StartNS: 90, DurNS: 30}, // [90,120), clipped to 100
		{ID: 5, Parent: 2, Name: "sim.source", StartNS: 12, DurNS: 8},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 12, 3: 30, 4: 30, 5: 8}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelf(spans, spanLayer)
	if layers["sweep"] != 12+30+30 || layers["sim"] != 8 || layers[""] != 0 {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := result{Workload: "query", Fingerprint: fingerprint{CPU: "x", NumCPU: 2, GOMAXPROCS: 2, Workers: 2, Seed: 1}}
	if err := mismatch(a, a); err != nil {
		t.Fatalf("identical fingerprints refused: %v", err)
	}
	b := a
	b.Fingerprint.GOMAXPROCS = 4
	if mismatch(a, b) == nil {
		t.Error("different GOMAXPROCS compared")
	}
	c := a
	c.Workload = "paper"
	if mismatch(a, c) == nil {
		t.Error("different workloads compared")
	}
}

func TestSeedPlumbingQuery(t *testing.T) {
	if !slices.Equal(genQueries(7, queryN, 200), genQueries(7, queryN, 200)) {
		t.Error("same seed, different query streams")
	}
	if slices.Equal(genQueries(7, queryN, 200), genQueries(8, queryN, 200)) {
		t.Error("different seeds, same query stream")
	}
	enc := func(seed uint64) []byte {
		n, err := genNetwork(seed)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := n.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(enc(7), enc(7)) {
		t.Error("same seed, different networks")
	}
	if bytes.Equal(enc(7), enc(8)) {
		t.Error("different seeds, same network")
	}
}

func TestLinearOracleMatchesKernel(t *testing.T) {
	n, err := genNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int32, queryN)
	want := make([]int32, queryN)
	for _, src := range []int{0, 5, 511} {
		for _, start := range []int32{1, 2, 40, 900} {
			linearFrom(n, src, start, got)
			n.EarliestArrivalsFromInto(src, start, want)
			if !slices.Equal(got, want) {
				t.Fatalf("src %d start %d: linear oracle disagrees with the frontier kernel", src, start)
			}
		}
	}
}

// tinyThreshold is the threshold workload shrunk to test size.
func tinyThreshold(seed uint64) *sweepLoad {
	s := newThreshold(seed, 2)
	s.grid.Axes[0].Values = []float64{12}
	s.grid.Axes[1].Values = []float64{0.2, 0.4}
	s.bisect = []bisection{{fixed: map[string]float64{"n": 12}, lo: 0.05, hi: 0.6, tol: 0.05}}
	return s
}

func TestSeedPlumbingSweep(t *testing.T) {
	digest := func(seed uint64) string {
		s := tinyThreshold(seed)
		if err := s.setup(); err != nil {
			t.Fatal(err)
		}
		out, err := s.pass(obs.Span{})
		if err != nil {
			t.Fatal(err)
		}
		if att, failed, notes := s.check(); att == 0 || failed != 0 {
			t.Fatalf("oracle: %d of %d failed: %v", failed, att, notes)
		}
		return out.digest
	}
	if digest(5) != digest(5) {
		t.Error("same seed, different outputs")
	}
	if digest(5) == digest(6) {
		t.Error("different seeds, same outputs")
	}
}

func TestTracedPassMatchesUntraced(t *testing.T) {
	s := tinyThreshold(9)
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	plain, err := s.pass(obs.Span{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1024)
	root := tr.Start("bench.pass")
	traced, err := s.pass(root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest != traced.digest {
		t.Error("tracing changed the outputs")
	}
	names := map[string]int{}
	for _, sp := range tr.Snapshot() {
		names[sp.Name]++
	}
	if names["sweep.cell"] != 2 || names["sweep.threshold"] != 1 || names["sweep.probe"] == 0 || names["sim.source"] == 0 {
		t.Errorf("span counts = %v", names)
	}
}

func TestMobilityReplayMatchesCellSource(t *testing.T) {
	s := newMobility(4, 2)
	s.grid.Axes[0].Values = []float64{24}
	s.grid.Axes[1].Values = []float64{0.15, 0.25}
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.pass(obs.Span{}); err != nil {
		t.Fatal(err)
	}
	att, failed, notes := s.check()
	if att != 2*2*replaySample || failed != 0 {
		t.Fatalf("oracle: %d of %d failed: %v", failed, att, notes)
	}
	m := map[string]float64{}
	s.rp.metrics(m)
	if m["graph.support_edges_per_trial"] == 0 || m["temporal.relabel_edges_ns_per_trial"] == 0 {
		t.Errorf("replay recorded no topology work: %v", m)
	}
}
