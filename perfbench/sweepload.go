package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// replaySample is how many leading trials of every cell and probe the
// oracle replays serially after the timed passes.
const replaySample = 6

// warmTrials is the trials per cell a setup runs to warm the engine.
const warmTrials = 24

// sweepLoad is the shape the threshold and mobility workloads share: a
// SweepTarget grid estimated cell by cell through the batched CellSource,
// then (threshold only) one bisection of the knob per fixed point.
type sweepLoad struct {
	wname   string
	seed    uint64
	workers int
	tgt     experiments.SweepTarget
	grid    sweep.Grid
	prec    sweep.Precision
	knob    string
	bisect  []bisection
	rp      replayer

	src  sweep.CellSource
	last *passState // the most recent pass: counts and sampled observations
}

// bisection is one threshold search: the knob crosses P = 1/2 inside
// [lo, hi] with the other axes held at fixed.
type bisection struct {
	fixed       map[string]float64
	lo, hi, tol float64
}

// replayer re-runs single trials of a cell serially through the layers'
// public functions, timing each call, and through the rebuild oracle.
type replayer interface {
	// replay returns the batched-route and rebuild-route observations of
	// the given trials of the cell with these values and seed.
	replay(values map[string]float64, seed uint64, trials []int) (fast, rebuild []float64, err error)
	// metrics adds the replay's per-trial layer costs.
	metrics(m map[string]float64)
	// premise checks that the passes' trials took the route replay
	// re-runs.
	premise(reg expo) error
}

// passState is one pass's bookkeeping, shared with the instrumented
// CellSource. Cells and probes run one at a time; only the progress clock
// is touched from the sim worker goroutines.
type passState struct {
	parent   obs.Span // enclosing span for new units: the pass root or a bisection
	unit     obs.Span // open cell or probe
	open     bool
	calls    int
	trials   int
	cells    int
	cellsMet int
	evals    int
	units    map[string]*unit // by keyOf(values, seed)
	clock    *gapClock        // the per-trial progress hook
}

// unit is one cell or probe as the replay needs it: its axis values,
// its seed, and the observations of its sampled trials.
type unit struct {
	values map[string]float64
	seed   uint64
	obs    map[int]float64 // trial → observation
}

func keyOf(values map[string]float64, seed uint64) string {
	ks := slices.Sorted(maps.Keys(values))
	var b strings.Builder
	for _, k := range ks {
		fmt.Fprintf(&b, "%s=%v,", k, values[k])
	}
	fmt.Fprintf(&b, "seed=%d", seed)
	return b.String()
}

func (st *passState) begin(name string) {
	st.unit = st.parent.Child(name)
	st.open = true
}

func (st *passState) end() {
	if st.open {
		st.unit.End()
		st.open = false
	}
}

// instrument wraps the program's CellSource: a span per cell or probe
// (opened when Sweep or Threshold asks for the unit's source), a span per
// Source call, and a record of the sampled trials' observations.
func (s *sweepLoad) instrument(st *passState) sweep.CellSource {
	return func(values map[string]float64, seed uint64, workers int, onTrial func()) sweep.Source {
		if !st.open {
			st.begin("sweep.cell")
		}
		key := keyOf(values, seed)
		u := st.units[key]
		if u == nil {
			u = &unit{values: maps.Clone(values), seed: seed, obs: map[int]float64{}}
			st.units[key] = u
		}
		span := st.unit
		inner := s.src(values, seed, workers, onTrial)
		return func(ctx context.Context, start, count int) ([]float64, error) {
			sp := span.Child("sim.source")
			vals, err := inner(ctx, start, count)
			sp.End()
			st.calls++
			st.trials += len(vals)
			for i, v := range vals {
				if start+i < replaySample {
					u.obs[start+i] = v
				}
			}
			return vals, err
		}
	}
}

func (s *sweepLoad) name() string { return s.wname }
func (s *sweepLoad) conns() int   { return 0 }
func (s *sweepLoad) close()       {}

func (s *sweepLoad) setup() error {
	if err := s.tgt.Validate(s.grid); err != nil {
		return err
	}
	src, err := s.tgt.Source()
	if err != nil {
		return err
	}
	s.src = src
	// Warm-up: a batch of trials in every cell faults in the code paths
	// and the per-size buffers before anything is timed.
	for idx := 0; idx < s.grid.Size(); idx++ {
		vals, err := src(s.grid.Values(idx), 1, s.workers, nil)(context.Background(), 0, warmTrials)
		if err != nil {
			return err
		}
		if len(vals) != warmTrials {
			return fmt.Errorf("warm-up returned %d of %d observations", len(vals), warmTrials)
		}
	}
	return nil
}

// passResult is the canonical output of one pass: every cell estimate and
// every located crossing.
type passResult struct {
	Cells     []sweep.Cell `json:"cells"`
	Crossings []crossing   `json:"crossings,omitempty"`
}

type crossing struct {
	Fixed  map[string]float64 `json:"fixed"`
	Cross  sweep.Crossing     `json:"crossing"`
	At     sweep.Estimate     `json:"at"`
	Trials int                `json:"trials"`
}

func (s *sweepLoad) pass(root obs.Span) (passOut, error) {
	ctx := context.Background()
	st := &passState{parent: root, units: map[string]*unit{}, clock: newGapClock()}
	src := s.instrument(st)
	sw := sweep.Sweep{
		Grid: s.grid, Kind: s.tgt.Kind(), Prec: s.prec, Seed: s.seed,
		Workers: s.workers, OnTrial: st.clock.tick, Source: src,
		OnCell: func(c sweep.Cell) {
			st.end()
			st.cells++
			if c.Est.Converged {
				st.cellsMet++
			}
		},
	}
	cp, err := sw.Run(ctx, nil, nil)
	if err != nil {
		return passOut{}, fmt.Errorf("sweep: %w", err)
	}
	out := passResult{Cells: cp.Cells}
	for i, b := range s.bisect {
		a := sweep.Adaptive{
			Seed: sweep.CellSeed(s.seed, 1<<20+i), Workers: s.workers,
			Kind: s.tgt.Kind(), Prec: s.prec, OnTrial: st.clock.tick,
		}
		th := root.Child("sweep.threshold")
		st.parent = th
		cr, at, trials, err := sweep.Threshold{Target: 0.5, Lo: b.lo, Hi: b.hi, Tol: b.tol, MaxEvals: 24}.
			FindAdaptiveSource(ctx, a, func(x float64) sweep.Source {
				st.end()
				st.begin("sweep.probe")
				vals := maps.Clone(b.fixed)
				vals[s.knob] = x
				return src(vals, a.Seed, a.Workers, a.OnTrial)
			})
		st.end()
		th.End()
		st.parent = root
		if err != nil {
			return passOut{}, fmt.Errorf("bisection %v: %w", b.fixed, err)
		}
		st.evals += cr.Evals
		out.Crossings = append(out.Crossings, crossing{b.fixed, cr, at, trials})
	}
	digest, err := json.Marshal(out)
	if err != nil {
		return passOut{}, err
	}
	s.last = st
	fails := 0
	if len(st.clock.gaps) != st.trials {
		fails = 1 // progress hook and returned observations disagree
	}
	return passOut{ops: st.trials, failed: fails, samples: st.clock.gaps, digest: string(digest)}, nil
}

// check replays the sampled trials of every cell and probe of the last
// pass and compares them with what the batched CellSource observed.
func (s *sweepLoad) check() (attempted, failed int, notes []string) {
	st := s.last
	for _, key := range slices.Sorted(maps.Keys(st.units)) {
		u := st.units[key]
		trials := slices.Sorted(maps.Keys(u.obs))
		fast, rebuild, err := s.rp.replay(u.values, u.seed, trials)
		attempted += 2 * len(trials)
		if err != nil {
			failed += 2 * len(trials)
			notes = append(notes, fmt.Sprintf("replay %s: %v", key, err))
			continue
		}
		for i, tr := range trials {
			if fast[i] != u.obs[tr] {
				failed++
				notes = append(notes, fmt.Sprintf("%s trial %d: replay %v, CellSource %v", key, tr, fast[i], u.obs[tr]))
			}
			if rebuild[i] != u.obs[tr] {
				failed++
				notes = append(notes, fmt.Sprintf("%s trial %d: rebuild oracle %v, CellSource %v", key, tr, rebuild[i], u.obs[tr]))
			}
		}
	}
	return attempted, failed, notes
}

func (s *sweepLoad) premise(reg expo) error { return s.rp.premise(reg) }

func (s *sweepLoad) layers(l *layerRun, m map[string]float64) {
	st := s.last
	m["sweep.source_calls"] = float64(st.calls)
	m["sweep.trials"] = float64(st.trials)
	m["sweep.bisection_evals"] = float64(st.evals)
	m["sweep.cells_met_frac"] = safeDiv(float64(st.cellsMet), float64(st.cells))
	var busy int64
	for _, sp := range l.spans {
		if sp.Name == "sim.source" {
			busy += sp.DurNS
		}
	}
	m["sim.busy_s"] = float64(busy) / 1e9 / float64(l.passes)
	m["sim.cpu_util"] = safeDiv(l.use.cpu.Seconds(), float64(busy)/1e9*float64(s.workers))
	s.rp.metrics(m)
}

// routePremise checks that every completed trial took the named batched
// route ("resample" or "scenario").
func routePremise(reg expo, route string) error {
	total := reg.sum("sim_trials_completed_total")
	on := reg.sum("sim_batch_" + route + "_trials_total")
	if total == 0 || on != total {
		return fmt.Errorf("%v of %v trials took the %s route; the workload measures that route only", on, total, route)
	}
	return nil
}
