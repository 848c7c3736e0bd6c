package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/avail"
	"repro/internal/sweep"
)

func TestParseGrid(t *testing.T) {
	axes, err := parseGrid("n=32,64; pi=0.1:0.3:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(axes) != 2 || axes[0].Name != "n" || axes[1].Name != "pi" {
		t.Fatalf("axes = %+v", axes)
	}
	if len(axes[0].Values) != 2 || axes[0].Values[1] != 64 {
		t.Fatalf("n axis = %v", axes[0].Values)
	}
	want := []float64{0.1, 0.2, 0.3}
	for i, v := range want {
		if math.Abs(axes[1].Values[i]-v) > 1e-12 {
			t.Fatalf("pi axis = %v, want %v", axes[1].Values, want)
		}
	}
	if axes, err := parseGrid(""); err != nil || axes != nil {
		t.Fatalf("empty grid: %v %v", axes, err)
	}
	for _, bad := range []string{"novalue", "x=", "x=a,b", "x=1:2", "x=1:2:0"} {
		if _, err := parseGrid(bad); err == nil {
			t.Errorf("grid %q accepted", bad)
		}
	}
}

func TestParsePrecision(t *testing.T) {
	p, err := parsePrecision("abs=0.03,rel=0.1,conf=0.9,min=4,max=100,batch=10")
	if err != nil {
		t.Fatal(err)
	}
	want := sweep.Precision{Abs: 0.03, Rel: 0.1, Confidence: 0.9, MinTrials: 4, MaxTrials: 100, Batch: 10}
	if p != want {
		t.Fatalf("precision = %+v, want %+v", p, want)
	}
	for _, bad := range []string{"abs", "abs=x", "frobs=1", "conf=2"} {
		if _, err := parsePrecision(bad); err == nil {
			t.Errorf("precision %q accepted", bad)
		}
	}
}

func TestParseRange(t *testing.T) {
	lo, hi, err := parseRange("0.01 : 0.5")
	if err != nil || lo != 0.01 || hi != 0.5 {
		t.Fatalf("parseRange: %v %v %v", lo, hi, err)
	}
	for _, bad := range []string{"1", "a:2", "1:b"} {
		if _, _, err := parseRange(bad); err == nil {
			t.Errorf("range %q accepted", bad)
		}
	}
}

func baseCfg() cfg {
	return cfg{
		model: "uniform", graph: "dclique", metric: "treach",
		seed: 7, format: "json", target: -1, tol: 0.01, maxEvals: 16,
		prec: "abs=0.2,min=4,max=32,batch=8",
	}
}

func TestRunGridModeWithResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	c := baseCfg()
	c.grid = "n=8,12;lifetime=4,16"
	c.resume = ck
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	// The checkpoint is complete; a rerun resumes every cell from it.
	f, err := os.Open(ck)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sweep.DecodeCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Cells) != 4 {
		t.Fatalf("checkpoint has %d cells, want 4", len(cp.Cells))
	}
	c.format = "table"
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	// A spec change must reject the stale checkpoint instead of mixing.
	c.seed++
	if err := run(c); err == nil {
		t.Fatal("stale checkpoint accepted after spec change")
	}
}

// TestRunGridResumeRejectsOtherTarget: the checkpoint spec carries the
// canonical target, so a checkpoint written under one model must not
// resume under another with the same grid, precision and seed.
func TestRunGridResumeRejectsOtherTarget(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	c := baseCfg()
	c.grid = "n=8;lifetime=4,8"
	c.resume = ck
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	c.model = "markov"
	err := run(c)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("uniform checkpoint resumed under -model markov: err = %v", err)
	}
}

// TestRunGridResumeRejectsOldStreamRevision: a checkpoint from a build
// whose models consumed their streams differently (an older
// avail.StreamRevision) must be refused, not mixed with fresh cells.
func TestRunGridResumeRejectsOldStreamRevision(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	c := baseCfg()
	c.model = "markov"
	c.grid = "n=8;lifetime=4,8"
	c.resume = ck
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	cp, err := sweep.ReadCheckpointFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	cur := fmt.Sprintf("|stream=%d|", avail.StreamRevision)
	if !strings.Contains(cp.Spec, cur) {
		t.Fatalf("checkpoint spec %q does not carry %q", cp.Spec, cur)
	}
	cp.Spec = strings.Replace(cp.Spec, cur, fmt.Sprintf("|stream=%d|", avail.StreamRevision-1), 1)
	if err := cp.WriteFile(ck); err != nil {
		t.Fatal(err)
	}
	err = run(c)
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("checkpoint from stream revision %d accepted: err = %v", avail.StreamRevision-1, err)
	}
}

func TestRunThresholdMode(t *testing.T) {
	c := baseCfg()
	c.model = "markov"
	c.grid = "n=12"
	c.target = 0.5
	c.knob = "pi"
	// Keep the bracket inside markov feasibility: pi=0.5 at the default
	// runlen=4 is the largest alpha ≤ 1 corner.
	c.bracket = "0.01:0.5"
	c.tol = 0.05
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	mutations := map[string]func(*cfg){
		"missing model":  func(c *cfg) { c.model = "" },
		"unknown model":  func(c *cfg) { c.model = "nope" },
		"unknown metric": func(c *cfg) { c.metric = "latency" },
		"unknown axis":   func(c *cfg) { c.grid = "warp=1,2" },
		"no grid":        func(c *cfg) { c.grid = "" },
		"bad precision":  func(c *cfg) { c.prec = "conf=7" },
		"bad mp":         func(c *cfg) { c.mp = "pi=oops" },
	}
	for name, mutate := range mutations {
		c := baseCfg()
		c.grid = "n=8"
		mutate(&c)
		if err := run(c); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Threshold-mode specific failures.
	c := baseCfg()
	c.grid = "n=8"
	c.target = 0.5
	if err := run(c); err == nil {
		t.Error("threshold mode without -knob accepted")
	}
	c.knob = "warp"
	c.bracket = "0:1"
	if err := run(c); err == nil {
		t.Error("unknown threshold knob accepted")
	}
	c.knob = "pi" // not a knob of uniform
	if err := run(c); err == nil {
		t.Error("knob foreign to the model accepted")
	}
	// -resume is a grid-mode feature; threshold mode must reject it
	// rather than silently never checkpoint.
	c = baseCfg()
	c.model = "markov"
	c.grid = "n=8"
	c.target = 0.5
	c.knob = "pi"
	c.bracket = "0.01:0.5"
	c.resume = "t.ckpt"
	if err := run(c); err == nil {
		t.Error("threshold mode with -resume accepted")
	}
}
