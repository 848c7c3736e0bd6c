package main

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
)

// workload is one named benchmark workload. A run sets it up several
// times, then repeats passes over the same inputs until the measurement
// time is spent, then checks outputs against the workload's oracles.
type workload interface {
	name() string
	// conns is the number of client connections the workload drives, 0
	// when it drives none.
	conns() int
	// setup builds the inputs from the seed and warms per-worker state;
	// the last setup's inputs serve every pass.
	setup() error
	// pass runs the workload once. root is a no-op span on untraced
	// passes; traced passes record their layer spans under it.
	pass(root obs.Span) (passOut, error)
	// check runs the oracles over what the passes produced.
	check() (attempted, failed int, notes []string)
	// premise reports why a run whose registry activity breaks the
	// workload's premise (e.g. trials on the wrong engine route) is
	// invalid, or nil.
	premise(reg expo) error
	// layers adds the workload's own per-layer metrics.
	layers(l *layerRun, m map[string]float64)
	// close stops what setup started; run calls it between setups, and
	// the caller once the run is over.
	close()
}

// passOut is what one pass produced.
type passOut struct {
	ops     int       // operations completed: trials or queries
	failed  int       // operations that failed: errors, non-200 answers
	samples []float64 // per-operation latency samples, µs
	digest  string    // canonical rendering of the pass's outputs
}

// layerRun is the traced passes' raw material for per-layer metrics.
type layerRun struct {
	spans  []obs.SpanRecord
	reg    expo  // registry activity across traced passes
	use    usage // process resources across traced passes
	passes int   // traced passes
	ops    int   // operations across traced passes
}

type runConfig struct {
	seconds time.Duration
	traced  bool
}

// minUntraced is the fewest untraced passes a run makes, so wall_s is a
// median of at least that many.
const minUntraced = 2

func run(w workload, cfg runConfig) (*result, error) {
	setups := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			w.close() // tear the previous round down outside the timing
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name(), err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var tracer *obs.Tracer
	if cfg.traced {
		tracer = obs.NewTracer(1 << 15)
	}
	res := &result{Workload: w.name(), Metrics: map[string]metric{}}
	var (
		untracedWall, tracedWall []float64
		rss                      []float64 // per untraced pass peak, MiB
		untracedOps, opsFailed   int
		samples                  []float64
		digests                  []string
		allReg                   = expo{}
		lr                       = &layerRun{reg: expo{}}
	)
	begin := time.Now()
	for i := 0; ; i++ {
		doTrace := cfg.traced && i%2 == 1
		enough := time.Since(begin) >= cfg.seconds && len(untracedWall) >= minUntraced &&
			(!cfg.traced || len(tracedWall) >= 1)
		if enough {
			break
		}
		// Collect and return freed memory first, so every pass starts from
		// the same heap and its resident-memory peak is its own.
		debug.FreeOSMemory()
		before, u0 := scrape(), readUsage()
		var root obs.Span
		if doTrace {
			root = tracer.Start("bench.pass")
		}
		sampler, err := startRSS()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		out, err := w.pass(root)
		wall := time.Since(t0).Seconds()
		root.End()
		peak := sampler.end()
		u := readUsage().sub(u0)
		d := diff(before, scrape())
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name(), i, err)
		}
		allReg.add(d)
		digests = append(digests, out.digest)
		opsFailed += out.failed
		if doTrace {
			tracedWall = append(tracedWall, wall)
			lr.reg.add(d)
			lr.use.add(u)
			lr.passes++
			lr.ops += out.ops
			continue
		}
		untracedWall = append(untracedWall, wall)
		rss = append(rss, peak)
		untracedOps += out.ops
		samples = append(samples, out.samples...)
	}
	res.Passes = len(untracedWall) + len(tracedWall)
	res.Notes = append(res.Notes, fmt.Sprintf("setup rounds: %.4g s", setups))

	attempted, failed, notes := w.check()
	res.Notes = append(res.Notes, notes...)
	for i := 1; i < len(digests); i++ {
		attempted++
		if digests[i] != digests[0] {
			failed++
			res.Notes = append(res.Notes, fmt.Sprintf("pass %d output differs from pass 0 on the same seed", i))
		}
	}
	res.Attempted = attempted + untracedOps + lr.ops
	res.Failed = failed + opsFailed
	res.Correct = res.Failed == 0
	if err := w.premise(allReg); err != nil {
		res.Correct = false
		res.Notes = append(res.Notes, "invalid run: "+err.Error())
	}

	if !cfg.traced {
		slices.Sort(samples)
		if !tailOK(len(samples), 0.99) {
			return nil, fmt.Errorf("%s: %d latency samples leave fewer than %d beyond p99", w.name(), len(samples), minBeyond)
		}
		p50, _ := quantile(samples, 0.50)
		p99, beyond := quantile(samples, 0.99)
		res.Notes = append(res.Notes, fmt.Sprintf("op latency: %d samples, %d beyond p99", len(samples), beyond))
		sumWall := 0.0
		for _, x := range untracedWall {
			sumWall += x
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["wall_s"] = metric{median(untracedWall), "s"}
		res.Metrics["ops_per_s"] = metric{float64(untracedOps) / sumWall, "1/s"}
		res.Metrics["op_p50_us"] = metric{p50, "us"}
		res.Metrics["op_p99_us"] = metric{p99, "us"}
		res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
		return res, nil
	}

	lr.spans = tracer.Snapshot()
	if tracer.Total() > uint64(len(lr.spans)) {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("trace ring overflowed: %d spans recorded, %d kept", tracer.Total(), len(lr.spans)))
	}
	m := genericLayers(lr, untracedWall, tracedWall)
	w.layers(lr, m)
	for name, unit := range perLayerUnits {
		res.Metrics[name] = metric{m[name], unit}
	}
	if err := dumpTrace(tracer, w.name()); err != nil {
		return nil, err
	}
	return res, nil
}

// genericLayers computes the per-layer metrics every workload shares:
// the engine-route shares, kernel counters, query-index and HTTP
// histograms from the registry, runtime health, and the trace's own
// overhead and coverage. Workloads overwrite or add the rest.
func genericLayers(l *layerRun, untracedWall, tracedWall []float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerUnits))
	for name := range perLayerUnits {
		m[name] = 0
	}
	r := l.reg
	passes := float64(l.passes)
	trials := r.sum("sim_trials_completed_total")
	m["sim.route_resample_frac"] = safeDiv(r.sum("sim_batch_resample_trials_total"), trials)
	m["sim.route_scenario_frac"] = safeDiv(r.sum("sim_batch_scenario_trials_total"), trials)
	m["sim.route_rebuild_frac"] = safeDiv(r.sum("sim_batch_rebuild_trials_total"), trials)
	m["sim.alloc_bytes_per_trial"] = safeDiv(float64(l.use.allocBytes), trials)
	m["temporal.index_builds_per_trial"] = safeDiv(r.sum("temporal_index_builds_total"), trials)
	m["temporal.diameter_race_linear_frac"] = safeDiv(
		r.sum("temporal_diameter_race_total", `winner="linear"`), r.sum("temporal_diameter_race_total"))
	m["temporal.churn_rebuild_frac"] = safeDiv(
		r.sum("temporal_relabel_edges_total", `route="rebuild"`), r.sum("temporal_relabel_edges_total"))

	hits, misses := r.sum("qindex_hits_total"), r.sum("qindex_misses_total")
	m["qindex.hit_frac"] = safeDiv(hits, hits+misses)
	m["qindex.coalesced_frac"] = safeDiv(r.sum("qindex_coalesced_total"), misses)
	m["qindex.rows_computed"] = safeDiv(r.sum("qindex_rows_computed_total"), passes)
	m["qindex.evictions"] = safeDiv(r.sum("qindex_evictions_total"), passes)
	m["qindex.row_compute_us_p50"] = r.histQuantile("qindex_row_compute_ns", 0.50) / 1e3
	m["qindex.row_compute_us_p99"] = r.histQuantile("qindex_row_compute_ns", 0.99) / 1e3
	m["service.server_us_p50"] = r.histQuantile("service_http_request_duration_ns", 0.50, `path="GET /query"`) / 1e3
	m["service.server_us_p99"] = r.histQuantile("service_http_request_duration_ns", 0.99, `path="GET /query"`) / 1e3

	m["runtime.gc_cycles"] = safeDiv(float64(l.use.gcCycles), passes)
	m["runtime.gc_pause_ms"] = safeDiv(float64(l.use.gcPause)/1e6, passes)
	m["runtime.gc_cpu_frac"] = safeDiv(l.use.gcCPU, l.use.cpu.Seconds())

	m["trace.overhead_frac"] = median(tracedWall)/median(untracedWall) - 1
	self := layerSelf(l.spans, spanLayer)
	var rootNS, layerNS int64
	for _, s := range l.spans {
		if s.Name == "bench.pass" {
			rootNS += s.DurNS
		}
	}
	for _, ns := range self {
		layerNS += ns
	}
	m["trace.coverage_frac"] = safeDiv(float64(layerNS), float64(rootNS))
	m["sweep.self_s"] = float64(self["sweep"]) / 1e9 / passes
	return m
}

// spanLayer maps a span name ("sweep.cell", "sim.source", …) to its
// layer; the benchmark's own root span belongs to none.
func spanLayer(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	if layer == "bench" {
		return ""
	}
	return layer
}

// perLayerUnits lists every per-layer metric with its unit; a traced run
// reports all of them, 0 where the workload leaves the layer idle.
var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"sweep.self_s":          "s",
		"sweep.source_calls":    "count",
		"sweep.trials":          "count",
		"sweep.bisection_evals": "count",
		"sweep.cells_met_frac":  "ratio",

		"sim.busy_s":                "s",
		"sim.cpu_util":              "ratio",
		"sim.alloc_bytes_per_trial": "B",
		"sim.route_resample_frac":   "ratio",
		"sim.route_scenario_frac":   "ratio",
		"sim.route_rebuild_frac":    "ratio",

		"avail.draw_ns_per_trial":     "ns",
		"avail.labels_per_trial":      "count",
		"avail.slot_draws_per_label":  "ratio",
		"avail.scenario_ns_per_trial": "ns",

		"temporal.relabel_ns_per_trial":       "ns",
		"temporal.relabel_edges_ns_per_trial": "ns",
		"temporal.churn_rebuild_frac":         "ratio",
		"temporal.measure_ns_per_trial":       "ns",
		"temporal.index_builds_per_trial":     "count",
		"temporal.diameter_race_linear_frac":  "ratio",

		"graph.support_edges_per_trial": "count",
		"graph.delta_edges_per_trial":   "count",

		"experiments.trials":              "count",
		"experiments.rebuild_trials_frac": "ratio",

		"qindex.hit_frac":           "ratio",
		"qindex.coalesced_frac":     "ratio",
		"qindex.rows_computed":      "count",
		"qindex.evictions":          "count",
		"qindex.row_compute_us_p50": "us",
		"qindex.row_compute_us_p99": "us",

		"service.server_us_p50":    "us",
		"service.server_us_p99":    "us",
		"service.transport_us_p50": "us",

		"runtime.gc_cycles":   "count",
		"runtime.gc_pause_ms": "ms",
		"runtime.gc_cpu_frac": "ratio",

		"trace.overhead_frac": "ratio",
		"trace.coverage_frac": "ratio",
	}
	for _, id := range paperIDs {
		m["experiments."+id+"_s"] = "s"
	}
	return m
}()
