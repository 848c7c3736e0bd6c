package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/avail"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// The threshold workload: temporal connectivity of the directed clique
// under correlated Markov on/off links (lifetime = n), mapped over an
// n × pi grid that spans the transition at each n, then a pi bisection to
// P = 1/2 per n — cmd/sweep -target 0.5 -knob pi, and POST /sweeps.
var (
	thresholdNs = []float64{48, 64, 96}
	thresholdPi = []float64{0.003, 0.004, 0.005, 0.006, 0.008, 0.01, 0.012, 0.015, 0.018, 0.022, 0.03}
)

func newThreshold(seed uint64, workers int) *sweepLoad {
	s := &sweepLoad{
		wname:   "threshold",
		seed:    seed,
		workers: workers,
		tgt:     experiments.SweepTarget{Model: "markov", Metric: "treach"},
		grid: sweep.Grid{Axes: []sweep.Axis{
			{Name: "n", Values: thresholdNs},
			{Name: "pi", Values: thresholdPi},
		}},
		prec: sweep.Precision{Abs: 0.05, MinTrials: 16, MaxTrials: 400, Batch: 32},
		knob: "pi",
		rp:   &markovReplay{cliques: map[int]*graph.Graph{}, static: map[int]*temporal.StaticReach{}},
	}
	for _, n := range thresholdNs {
		s.bisect = append(s.bisect, bisection{
			fixed: map[string]float64{"n": n},
			lo:    thresholdPi[0], hi: thresholdPi[len(thresholdPi)-1], tol: 0.0005,
		})
	}
	return s
}

// markovReplay replays threshold trials through Resample → Relabel →
// SatisfiesTreachStatic, the route sim.BatchRunner takes for them.
type markovReplay struct {
	cliques map[int]*graph.Graph
	static  map[int]*temporal.StaticReach

	trials                    int
	drawNS, relabelNS, measNS int64
	labels, slots             float64
}

func (r *markovReplay) replay(values map[string]float64, seed uint64, trials []int) (fast, rebuild []float64, err error) {
	n := int(math.Round(values["n"]))
	m, err := avail.Build("markov", avail.Params{Lifetime: n, P: map[string]float64{"pi": values["pi"]}})
	if err != nil {
		return nil, nil, err
	}
	rs, ok := m.(avail.Resampler)
	if !ok || !avail.CanResample(m) {
		return nil, nil, fmt.Errorf("model %s cannot resample", m.Name())
	}
	g := r.cliques[n]
	if g == nil {
		g = graph.Clique(n, true)
		r.cliques[n] = g
		r.static[n] = temporal.NewStaticReach(g)
	}
	sr := r.static[n]
	net := temporal.MustNew(g, m.Lifetime(), temporal.Labeling{Off: make([]int32, g.M()+1)})
	var lab temporal.Labeling
	scratch := temporal.NewTreachScratch(n)
	for _, tr := range trials {
		t0 := time.Now()
		rs.Resample(g, &lab, rng.NewStream(seed, uint64(tr)))
		t1 := time.Now()
		if err := net.Relabel(lab); err != nil {
			return nil, nil, err
		}
		t2 := time.Now()
		ok := temporal.SatisfiesTreachStatic(net, sr, scratch)
		t3 := time.Now()
		r.drawNS += t1.Sub(t0).Nanoseconds()
		r.relabelNS += t2.Sub(t1).Nanoseconds()
		r.measNS += t3.Sub(t2).Nanoseconds()
		r.trials++
		r.labels += float64(len(lab.Labels))
		r.slots += float64(g.M() * m.Lifetime())
		fast = append(fast, b2f(ok))

		oracle := avail.Network(m, g, rng.NewStream(seed, uint64(tr)))
		rebuild = append(rebuild, b2f(temporal.SatisfiesTreachSerial(oracle, nil)))
	}
	return fast, rebuild, nil
}

func (r *markovReplay) metrics(m map[string]float64) {
	t := float64(r.trials)
	m["avail.draw_ns_per_trial"] = safeDiv(float64(r.drawNS), t)
	m["avail.labels_per_trial"] = safeDiv(r.labels, t)
	m["avail.slot_draws_per_label"] = safeDiv(r.slots, r.labels)
	m["temporal.relabel_ns_per_trial"] = safeDiv(float64(r.relabelNS), t)
	m["temporal.measure_ns_per_trial"] = safeDiv(float64(r.measNS), t)
}

func (r *markovReplay) premise(reg expo) error { return routePremise(reg, "resample") }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
