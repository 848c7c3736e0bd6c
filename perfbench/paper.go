package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// paperIDs are the drivers the paper workload regenerates. E18 is left
// out: the threshold workload already measures sweep + bisection.
var paperIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
	"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17"}

// paperLoad regenerates the paper's E1–E17 tables at full scale through
// experiments.Run.
type paperLoad struct {
	seed    uint64
	workers int
	trials  int // trials completed in the last pass
}

func newPaper(seed uint64, workers int) *paperLoad { return &paperLoad{seed: seed, workers: workers} }

func (p *paperLoad) name() string { return "paper" }
func (p *paperLoad) conns() int   { return 0 }
func (p *paperLoad) close()       {}

// setup has no inputs to build; it warms every driver's code paths with
// one quick-scale pass.
func (p *paperLoad) setup() error {
	_, _, _, err := p.runAll(obs.Span{}, true)
	return err
}

// runAll runs every driver once and returns the rendered output, the
// number of completed trials, and the gaps between consecutive completed
// trials in µs.
func (p *paperLoad) runAll(root obs.Span, quick bool) (rendered string, trials int, gaps []float64, err error) {
	clock := newGapClock()
	var b strings.Builder
	for _, id := range paperIDs {
		e, ok := experiments.ByID(id)
		if !ok {
			return "", 0, nil, fmt.Errorf("no experiment %s", id)
		}
		sp := root.Child("experiments." + id)
		res, meta, err := experiments.Run(context.Background(), e,
			experiments.Config{Seed: p.seed, Quick: quick, Workers: p.workers, Progress: clock.tick})
		sp.End()
		if err != nil {
			return "", 0, nil, fmt.Errorf("%s: %w", id, err)
		}
		trials += meta.Trials
		fmt.Fprintf(&b, "== %s trials=%d\n", id, meta.Trials)
		for _, t := range res.Tables {
			b.WriteString(t.Render())
		}
		for _, f := range res.Figures {
			b.WriteString(f)
		}
	}
	return b.String(), trials, clock.gaps, nil
}

func (p *paperLoad) pass(root obs.Span) (passOut, error) {
	rendered, trials, gaps, err := p.runAll(root, false)
	if err != nil {
		return passOut{}, err
	}
	p.trials = trials
	return passOut{ops: trials, samples: gaps, digest: rendered}, nil
}

// check has nothing beyond the runner's checks: a driver error fails the
// pass, and every pass must render byte-identical tables.
func (p *paperLoad) check() (int, int, []string) { return 0, 0, nil }

func (p *paperLoad) premise(expo) error { return nil }

func (p *paperLoad) layers(l *layerRun, m map[string]float64) {
	for _, s := range l.spans {
		if id, ok := strings.CutPrefix(s.Name, "experiments."); ok {
			m["experiments."+id+"_s"] += float64(s.DurNS) / 1e9 / float64(l.passes)
		}
	}
	m["experiments.trials"] = float64(p.trials)
	trials := l.reg.sum("sim_trials_completed_total")
	fast := l.reg.sum("sim_batch_resample_trials_total") + l.reg.sum("sim_batch_scenario_trials_total")
	m["experiments.rebuild_trials_frac"] = safeDiv(trials-fast, trials)
}
