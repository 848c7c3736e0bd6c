// Command sweep runs adaptive parameter-grid sweeps and threshold
// searches over the availability models (see internal/sweep): every cell
// is a CI-driven Monte-Carlo estimate that stops at a requested precision,
// and grid runs checkpoint to disk so an interrupted sweep resumes without
// rerunning completed cells.
//
// Usage:
//
//	sweep -model markov -grid "n=64,128;pi=0.02:0.3:8" -metric treach
//	sweep -model uniform -grid "n=64;lifetime=8,16,32,64" -metric meandelta
//	sweep -model markov -mp runlen=4 -grid "n=96" \
//	      -target 0.5 -knob pi -bracket 0.01:0.5 -tol 0.005
//	sweep -model geometric -grid "n=128" -target 0.5 -knob radius \
//	      -bracket 0.05:0.5 -tol 0.01 -precision "abs=0.03,max=2000"
//	sweep -model markov -grid "n=64,96,128;pi=0.05:0.25:9" \
//	      -resume sweep.ckpt.json     # Ctrl-C, then rerun to resume
//
// Grid axes are "name=v1,v2,…" or "name=lo:hi:steps", separated by ";".
// Axis names: "n" (substrate size), "lifetime" (label range, default n),
// or any knob of the chosen model. -precision takes
// "abs=…,rel=…,conf=…,min=…,max=…,batch=…" (see sweep.Precision).
//
// With -target the command bisects -knob over -bracket to locate where
// the metric crosses the target, once per cell of the remaining grid
// axes; without it the whole grid is estimated. Results are a rendered
// table (default) or JSON (-format json).
//
// Determinism: output depends only on the spec and -seed — never on
// -workers or on where a resumed run was interrupted. -metrics-dump
// writes the process metrics (Prometheus text, internal/obs) to stderr
// when the run ends; it never affects results.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/avail"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sweep"
	"repro/internal/table"
)

func main() {
	var (
		model    = flag.String("model", "", "availability model (required; see -list-models of cmd/gen)")
		mp       = flag.String("mp", "", "base model-parameter overrides, name=value[,name=value…]")
		graphFam = flag.String("graph", "dclique", "substrate family (graph.Family)")
		lifetime = flag.Int("lifetime", 0, "label range; 0 means lifetime = n")
		metric   = flag.String("metric", "treach", "response metric: treach, reach or meandelta")
		gridSpec = flag.String("grid", "", "grid axes: name=v1,v2,… or name=lo:hi:steps, ';'-separated")
		precSpec = flag.String("precision", "", "stopping rule: abs=…,rel=…,conf=…,min=…,max=…,batch=…")
		seed     = flag.Uint64("seed", 2014, "base seed; cell c runs under sweep.CellSeed(seed, c)")
		workers  = flag.Int("workers", 0, "trial parallelism; 0 means GOMAXPROCS (results identical)")
		resume   = flag.String("resume", "", "checkpoint file: loaded when present, saved after every cell")
		format   = flag.String("format", "table", "output format: table or json")

		target     = flag.Float64("target", -1, "threshold mode: metric level to locate (e.g. 0.5)")
		knob       = flag.String("knob", "", "threshold mode: knob to bisect (a model knob, n or lifetime)")
		bracket    = flag.String("bracket", "", "threshold mode: initial knob bracket lo:hi")
		tol        = flag.Float64("tol", 0.01, "threshold mode: knob tolerance")
		maxEvals   = flag.Int("max-evals", 32, "threshold mode: response evaluation cap")
		expand     = flag.Int("expand", 0, "threshold mode: allowed bracket expansions")
		decreasing = flag.Bool("decreasing", false, "threshold mode: metric decreases in the knob")

		metricsDump = flag.Bool("metrics-dump", false, "dump process metrics (Prometheus text) to stderr at exit")
	)
	flag.Parse()
	err := run(cfg{
		model: *model, mp: *mp, graph: *graphFam, lifetime: *lifetime, metric: *metric,
		grid: *gridSpec, prec: *precSpec, seed: *seed, workers: *workers,
		resume: *resume, format: *format,
		target: *target, knob: *knob, bracket: *bracket, tol: *tol,
		maxEvals: *maxEvals, expand: *expand, decreasing: *decreasing,
	})
	if *metricsDump {
		obs.Default().WritePrometheus(os.Stderr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

type cfg struct {
	model, mp, graph, metric, grid, prec, resume, format, knob, bracket string
	lifetime, workers, maxEvals, expand                                 int
	seed                                                                uint64
	target, tol                                                         float64
	decreasing                                                          bool
}

func run(c cfg) error {
	if c.model == "" {
		return errors.New("-model is required (see GET /models or cmd/gen -list-models)")
	}
	knobs, err := avail.ParseKnobs(c.mp)
	if err != nil {
		return err
	}
	axes, err := parseGrid(c.grid)
	if err != nil {
		return err
	}
	prec, err := parsePrecision(c.prec)
	if err != nil {
		return err
	}
	tgt := experiments.SweepTarget{
		Model: c.model, MP: knobs, Graph: c.graph,
		Lifetime: c.lifetime, Metric: c.metric,
	}
	grid := sweep.Grid{Axes: axes}
	if err := tgt.Validate(grid); err != nil {
		return err
	}
	// The batched per-cell source: deterministic substrates relabel one
	// per-worker network in place per trial; randomized substrates fall
	// back to per-trial rebuilds. Results are bit-identical either way.
	src, err := tgt.Source()
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if c.target >= 0 {
		return runThreshold(ctx, c, grid, prec, tgt, src)
	}
	return runGrid(ctx, c, grid, prec, tgt, src)
}

// runGrid estimates every grid cell, checkpointing to -resume when set.
func runGrid(ctx context.Context, c cfg, grid sweep.Grid, prec sweep.Precision,
	tgt experiments.SweepTarget, src sweep.CellSource) error {
	if len(grid.Axes) == 0 {
		return errors.New("grid mode needs -grid (or use -target for threshold mode)")
	}
	s := sweep.Sweep{Grid: grid, Kind: tgt.Kind(), Prec: prec, Seed: c.seed, Target: tgt.Key(),
		Workers: c.workers, Source: src}

	var prior *sweep.Checkpoint
	if c.resume != "" {
		var err error
		prior, err = sweep.ReadCheckpointFile(c.resume)
		switch {
		case errors.Is(err, os.ErrNotExist):
			prior = nil // fresh run; the file appears after the first cell
		case err != nil:
			return err
		default:
			// Validate before running anything: a checkpoint from a
			// different spec or a reshaped grid must fail here with a clear
			// message, not poison cells or panic mid-run.
			if err := prior.Validate(s.SpecKey(), grid); err != nil {
				return fmt.Errorf("-resume %s: %w", c.resume, err)
			}
			fmt.Fprintf(os.Stderr, "sweep: resuming %d/%d cells from %s\n",
				len(prior.Cells), grid.Size(), c.resume)
		}
	}

	// Accumulate the checkpoint live so every completed cell is durable
	// the moment it finishes.
	acc := &sweep.Checkpoint{Spec: s.SpecKey()}
	if prior != nil {
		acc.Cells = append(acc.Cells, prior.Cells...)
	}
	s.OnCell = func(cell sweep.Cell) {
		acc.Cells = append(acc.Cells, cell)
		fmt.Fprintf(os.Stderr, "sweep: cell %d/%d done (%d trials, ±%.4g)\n",
			len(acc.Cells), grid.Size(), cell.Est.N, cell.Est.Half)
		if c.resume != "" {
			if err := acc.WriteFile(c.resume); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: checkpoint save failed: %v\n", err)
			}
		}
	}

	cp, runErr := s.Run(ctx, prior, nil)
	if cp != nil && c.resume != "" {
		if err := cp.WriteFile(c.resume); err != nil {
			return err
		}
	}
	if runErr != nil && cp != nil && ctx.Err() != nil {
		if c.resume != "" {
			fmt.Fprintf(os.Stderr, "sweep: interrupted with %d/%d cells done; rerun with -resume %s to continue\n",
				len(cp.Cells), grid.Size(), c.resume)
		} else {
			fmt.Fprintf(os.Stderr, "sweep: interrupted with %d/%d cells done; no checkpoint was kept (pass -resume FILE to make runs resumable)\n",
				len(cp.Cells), grid.Size())
		}
	}
	if cp == nil {
		return runErr
	}
	if err := printGrid(c, grid, cp); err != nil {
		return err
	}
	return runErr
}

func printGrid(c cfg, grid sweep.Grid, cp *sweep.Checkpoint) error {
	if c.format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cp)
	}
	tb := sweep.CellTable(
		fmt.Sprintf("Adaptive sweep: %s of %s on %s", c.metric, c.model, c.graph),
		grid, cp.Cells)
	tb.AddNote("seed=%d; deterministic for any -workers; spec %s", c.seed, cp.Spec)
	fmt.Println(tb.Render())
	return nil
}

// crossingRow is the JSON record of one located threshold.
type crossingRow struct {
	Context  map[string]float64 `json:"context,omitempty"`
	Crossing sweep.Crossing     `json:"crossing"`
	Estimate sweep.Estimate     `json:"estimate_at_crossing"`
	Trials   int                `json:"trials_total"`
}

// runThreshold bisects the knob once per cell of the remaining grid axes.
func runThreshold(ctx context.Context, c cfg, grid sweep.Grid, prec sweep.Precision,
	tgt experiments.SweepTarget, src sweep.CellSource) error {
	if c.knob == "" || c.bracket == "" {
		return errors.New("threshold mode needs -knob and -bracket lo:hi")
	}
	if c.resume != "" {
		// Fail loudly rather than let grid mode train users to expect a
		// checkpoint that threshold mode never writes.
		return errors.New("-resume applies to grid sweeps only; threshold searches are not checkpointed")
	}
	for _, a := range grid.Axes {
		if a.Name == c.knob {
			return fmt.Errorf("knob %q cannot also be a grid axis", c.knob)
		}
	}
	// The knob rides through the observable as a synthetic axis; validate
	// it like one so a typo fails loudly instead of yielding a flat 0.
	// (Value 1 — not 0 — so a knob of n/lifetime passes the positivity
	// check; the bracket itself is the range actually probed.)
	knobGrid := sweep.Grid{Axes: append(append([]sweep.Axis{}, grid.Axes...),
		sweep.Axis{Name: c.knob, Values: []float64{1}})}
	if err := tgt.Validate(knobGrid); err != nil {
		return err
	}
	lo, hi, err := parseRange(c.bracket)
	if err != nil {
		return fmt.Errorf("bad -bracket: %v", err)
	}

	rows := make([]crossingRow, 0, grid.Size())
	tb := buildThresholdTable(c, grid)
	var firstErr error
	for idx := 0; idx < grid.Size(); idx++ {
		if ctx.Err() != nil {
			break
		}
		cellValues := grid.Values(idx)
		a := sweep.Adaptive{
			Seed:    sweep.CellSeed(c.seed, 1<<20+idx),
			Workers: c.workers, Kind: tgt.Kind(), Prec: prec,
		}
		cr, last, trials, err := sweep.Threshold{
			Target: c.target, Lo: lo, Hi: hi, Tol: c.tol,
			MaxEvals: c.maxEvals, Expand: c.expand, Decreasing: c.decreasing,
			OnEval: func(x, y float64) {
				fmt.Fprintf(os.Stderr, "sweep: %s=%.5g → %.4f\n", c.knob, x, y)
			},
		}.FindAdaptiveSource(ctx, a, func(x float64) sweep.Source {
			// One batched source per probe; every probe shares a.Seed —
			// common random numbers across the bisection, as before.
			vals := make(map[string]float64, len(cellValues)+1)
			for k, v := range cellValues {
				vals[k] = v
			}
			vals[c.knob] = x
			return src(vals, a.Seed, a.Workers, nil)
		})
		if err != nil {
			// A failure drops only this cell's row — crossings already
			// located still print below, as in grid mode — but the run
			// must still exit nonzero so scripts cannot mistake partial
			// (or empty) output for success.
			fmt.Fprintf(os.Stderr, "sweep: cell %v: %v\n", cellValues, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rows = append(rows, crossingRow{Context: cellValues, Crossing: cr, Estimate: last, Trials: trials})
		cells := []string{}
		for _, a := range grid.Axes {
			cells = append(cells, table.F(cellValues[a.Name], 4))
		}
		cells = append(cells,
			table.F(cr.X, 5), table.F(cr.Lo, 5), table.F(cr.Hi, 5),
			table.F(last.Point, 3), table.F(last.Half, 3),
			table.I(trials), table.I(cr.Evals), fmt.Sprintf("%t", cr.Converged),
		)
		tb.AddRow(cells...)
	}

	if err := ctx.Err(); err != nil && firstErr == nil {
		firstErr = err
	}
	if c.format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
		return firstErr
	}
	tb.AddNote("target %s(%s) = %g, knob tolerance %g, seed %d", c.metric, c.knob, c.target, c.tol, c.seed)
	fmt.Println(tb.Render())
	return firstErr
}

func buildThresholdTable(c cfg, grid sweep.Grid) *table.Table {
	cols := []string{}
	for _, a := range grid.Axes {
		cols = append(cols, a.Name)
	}
	cols = append(cols, c.knob+"*", "bracket lo", "bracket hi",
		"metric at *", "±CI", "trials", "evals", "converged")
	return table.New(
		fmt.Sprintf("Threshold: %s of %s crosses %g in %s", c.metric, c.model, c.target, c.knob),
		cols...)
}

// parseGrid parses "name=1,2,3;other=lo:hi:k" into axes.
func parseGrid(s string) ([]sweep.Axis, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var axes []sweep.Axis
	for _, part := range strings.Split(s, ";") {
		name, spec, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("bad grid axis %q, want name=values", part)
		}
		spec = strings.TrimSpace(spec)
		if strings.Contains(spec, ":") {
			fields := strings.Split(spec, ":")
			if len(fields) != 3 {
				return nil, fmt.Errorf("bad axis range %q, want lo:hi:steps", spec)
			}
			lo, err1 := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
			hi, err2 := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
			k, err3 := strconv.Atoi(strings.TrimSpace(fields[2]))
			if err1 != nil || err2 != nil || err3 != nil || k < 1 {
				return nil, fmt.Errorf("bad axis range %q", spec)
			}
			axes = append(axes, sweep.Linspace(name, lo, hi, k))
			continue
		}
		ax := sweep.Axis{Name: name}
		for _, f := range strings.Split(spec, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("axis %q: %v", name, err)
			}
			ax.Values = append(ax.Values, v)
		}
		axes = append(axes, ax)
	}
	return axes, nil
}

// parsePrecision parses "abs=0.05,conf=0.95,min=16,max=2000,batch=32".
func parsePrecision(s string) (sweep.Precision, error) {
	var p sweep.Precision
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return p, fmt.Errorf("bad precision field %q, want name=value", kv)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return p, fmt.Errorf("precision %q: %v", name, err)
		}
		switch strings.TrimSpace(name) {
		case "abs":
			p.Abs = v
		case "rel":
			p.Rel = v
		case "conf":
			p.Confidence = v
		case "min":
			p.MinTrials = int(v)
		case "max":
			p.MaxTrials = int(v)
		case "batch":
			p.Batch = int(v)
		default:
			return p, fmt.Errorf("unknown precision field %q (want abs, rel, conf, min, max, batch)", name)
		}
	}
	return p, p.Validate()
}

// parseRange parses "lo:hi".
func parseRange(s string) (lo, hi float64, err error) {
	a, b, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("%q is not lo:hi", s)
	}
	if lo, err = strconv.ParseFloat(strings.TrimSpace(a), 64); err != nil {
		return 0, 0, err
	}
	if hi, err = strconv.ParseFloat(strings.TrimSpace(b), 64); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}
