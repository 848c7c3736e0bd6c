package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/avail"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/sweep"
	"repro/internal/temporal"
)

// The mobility workload: temporal connectivity of E17's dynamic random
// geometric graph at full size (n = 100, lifetime 64) over a radius axis
// holding E17's 0.7–2.5 × r_c multiples plus the sub-r_c radii where the
// connectivity probability is strictly between 0 and 1.
const (
	mobilityN        = 100
	mobilityLifetime = 64
)

func mobilityRadii() []float64 {
	rc := math.Sqrt(math.Log(mobilityN) / (math.Pi * mobilityN))
	radii := []float64{0.05, 0.055, 0.06, 0.065}
	for _, mult := range []float64{0.7, 1.0, 1.3, 1.8, 2.5} {
		radii = append(radii, mult*rc)
	}
	return radii
}

func newMobility(seed uint64, workers int) *sweepLoad {
	return &sweepLoad{
		wname:   "mobility",
		seed:    seed,
		workers: workers,
		tgt:     experiments.SweepTarget{Model: "geometric", Metric: "treach", Lifetime: mobilityLifetime},
		grid: sweep.Grid{Axes: []sweep.Axis{
			{Name: "n", Values: []float64{mobilityN}},
			{Name: "radius", Values: mobilityRadii()},
		}},
		prec: sweep.Precision{Abs: 0.05, MinTrials: 16, MaxTrials: 400, Batch: 32},
		knob: "radius",
		rp:   &geometricReplay{},
	}
}

// geometricReplay replays mobility trials through ScenarioState.Resample
// → an edge diff against the previous trial's support graph →
// RelabelEdges → SatisfiesTreachSerial, the route sim.BatchRunner takes
// for them.
type geometricReplay struct {
	trials, relabeled                int
	scenarioNS, relabelNS, measureNS int64
	support, delta                   float64

	remove, insFrom, insTo []int32
}

func (r *geometricReplay) replay(values map[string]float64, seed uint64, trials []int) (fast, rebuild []float64, err error) {
	n := int(math.Round(values["n"]))
	m, err := avail.Build("geometric", avail.Params{Lifetime: mobilityLifetime, P: map[string]float64{"radius": values["radius"]}})
	if err != nil {
		return nil, nil, err
	}
	inc, ok := m.(avail.IncrementalScenario)
	if !ok {
		return nil, nil, fmt.Errorf("model %s is not an incremental scenario", m.Name())
	}
	ss := inc.NewScenarioState(n)
	if ss == nil {
		return nil, nil, fmt.Errorf("model %s has no incremental state at n=%d", m.Name(), n)
	}
	substrate := graph.NewBuilder(n, false).Build()
	scratch := temporal.NewTreachScratch(n)
	var net *temporal.Network
	for _, tr := range trials {
		t0 := time.Now()
		from, to, lab := ss.Resample(rng.NewStream(seed, uint64(tr)))
		t1 := time.Now()
		r.scenarioNS += t1.Sub(t0).Nanoseconds()
		r.support += float64(len(from))
		if net == nil {
			gb := graph.NewBuilder(n, false)
			for i := range from {
				gb.AddEdge(int(from[i]), int(to[i]))
			}
			owned := temporal.Labeling{Off: slices.Clone(lab.Off), Labels: slices.Clone(lab.Labels)}
			net = temporal.MustNew(gb.Build(), m.Lifetime(), owned)
		} else {
			r.diffEdges(net.Graph(), from, to)
			t2 := time.Now()
			err := net.RelabelEdges(temporal.EdgeDelta{Remove: r.remove, InsertFrom: r.insFrom, InsertTo: r.insTo, Labels: lab})
			r.relabelNS += time.Since(t2).Nanoseconds()
			if err != nil {
				return nil, nil, err
			}
			r.relabeled++
			r.delta += float64(len(r.remove) + len(r.insFrom))
		}
		t3 := time.Now()
		ok := temporal.SatisfiesTreachSerial(net, scratch)
		r.measureNS += time.Since(t3).Nanoseconds()
		r.trials++
		fast = append(fast, b2f(ok))

		oracle := avail.Network(m, substrate, rng.NewStream(seed, uint64(tr)))
		rebuild = append(rebuild, b2f(temporal.SatisfiesTreachSerial(oracle, nil)))
	}
	return fast, rebuild, nil
}

// diffEdges computes the removals (current edge ids) and insertions that
// turn g's canonical edge list into (from, to), by one merge.
func (r *geometricReplay) diffEdges(g *graph.Graph, from, to []int32) {
	oldF, oldT := g.FromArray(), g.ToArray()
	nv := int64(g.N())
	r.remove, r.insFrom, r.insTo = r.remove[:0], r.insFrom[:0], r.insTo[:0]
	i, j := 0, 0
	for i < len(oldF) || j < len(from) {
		switch {
		case j == len(from):
			r.remove = append(r.remove, int32(i))
			i++
		case i == len(oldF):
			r.insFrom, r.insTo = append(r.insFrom, from[j]), append(r.insTo, to[j])
			j++
		default:
			ko, kn := int64(oldF[i])*nv+int64(oldT[i]), int64(from[j])*nv+int64(to[j])
			switch {
			case ko == kn:
				i++
				j++
			case ko < kn:
				r.remove = append(r.remove, int32(i))
				i++
			default:
				r.insFrom, r.insTo = append(r.insFrom, from[j]), append(r.insTo, to[j])
				j++
			}
		}
	}
}

func (r *geometricReplay) metrics(m map[string]float64) {
	t := float64(r.trials)
	m["avail.scenario_ns_per_trial"] = safeDiv(float64(r.scenarioNS), t)
	m["temporal.relabel_edges_ns_per_trial"] = safeDiv(float64(r.relabelNS), float64(r.relabeled))
	m["temporal.measure_ns_per_trial"] = safeDiv(float64(r.measureNS), t)
	m["graph.support_edges_per_trial"] = safeDiv(r.support, t)
	m["graph.delta_edges_per_trial"] = safeDiv(r.delta, float64(r.relabeled))
}

func (r *geometricReplay) premise(reg expo) error { return routePremise(reg, "scenario") }
