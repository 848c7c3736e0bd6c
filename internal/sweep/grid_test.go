package sweep

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

func TestLinspace(t *testing.T) {
	a := Linspace("p", 0.1, 0.5, 5)
	want := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	for i, v := range want {
		if math.Abs(a.Values[i]-v) > 1e-12 {
			t.Fatalf("linspace = %v, want %v", a.Values, want)
		}
	}
	if one := Linspace("p", 2, 9, 1); len(one.Values) != 1 || one.Values[0] != 2 {
		t.Fatalf("k=1 linspace = %v", one.Values)
	}
}

func TestGridIndexing(t *testing.T) {
	g := Grid{Axes: []Axis{
		{Name: "n", Values: []float64{32, 64}},
		{Name: "p", Values: []float64{0.1, 0.2, 0.3}},
	}}
	if g.Size() != 6 {
		t.Fatalf("size = %d", g.Size())
	}
	// Last axis fastest: cell 4 is n=64, p=0.2.
	v := g.Values(4)
	if v["n"] != 64 || v["p"] != 0.2 {
		t.Fatalf("cell 4 = %v", v)
	}
	// Every cell distinct, all enumerated.
	seen := map[[2]float64]bool{}
	for i := 0; i < g.Size(); i++ {
		v := g.Values(i)
		seen[[2]float64{v["n"], v["p"]}] = true
	}
	if len(seen) != 6 {
		t.Fatalf("enumerated %d distinct cells", len(seen))
	}
	// Empty grid: one cell, no values.
	if (Grid{}).Size() != 1 || len((Grid{}).Values(0)) != 0 {
		t.Fatal("empty grid should have a single empty cell")
	}
}

func TestGridValidate(t *testing.T) {
	bad := []Grid{
		{Axes: []Axis{{Name: "", Values: []float64{1}}}},
		{Axes: []Axis{{Name: "p"}}},
		{Axes: []Axis{{Name: "p", Values: []float64{1}}, {Name: "p", Values: []float64{2}}}},
	}
	for i, g := range bad {
		if _, err := (Sweep{Grid: g}).Run(context.Background(), nil, zeroObs); err == nil {
			t.Errorf("bad grid %d accepted", i)
		}
	}
}

func zeroObs(values map[string]float64, trial int, r *rng.Stream) float64 { return 0 }

// gridObs is a deterministic Bernoulli whose rate depends on the cell.
func gridObs(values map[string]float64, trial int, r *rng.Stream) float64 {
	p := values["p"]
	if r.Bernoulli(p) {
		return 1
	}
	return 0
}

func testSweep(workers int) Sweep {
	return Sweep{
		Grid: Grid{Axes: []Axis{
			{Name: "n", Values: []float64{32, 64}},
			{Name: "p", Values: []float64{0.2, 0.5, 0.8}},
		}},
		Kind:    Proportion,
		Prec:    Precision{Abs: 0.06, MaxTrials: 8000},
		Seed:    2014,
		Workers: workers,
	}
}

func TestSweepRunEstimatesEveryCell(t *testing.T) {
	cp, err := testSweep(0).Run(context.Background(), nil, gridObs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Cells) != 6 {
		t.Fatalf("%d cells, want 6", len(cp.Cells))
	}
	for i, cell := range cp.Cells {
		if cell.Index != i {
			t.Fatalf("cells out of order: %v at position %d", cell.Index, i)
		}
		if !cell.Est.Converged {
			t.Fatalf("cell %d did not converge: %+v", i, cell.Est)
		}
		if math.Abs(cell.Est.Point-cell.Values["p"]) > 3*cell.Est.Half {
			t.Fatalf("cell %d estimate %v far from true %v", i, cell.Est.Point, cell.Values["p"])
		}
	}
}

// TestSweepBitIdenticalAcrossWorkers: the whole checkpoint — every cell
// estimate, interval and trial count — must not see the worker count.
func TestSweepBitIdenticalAcrossWorkers(t *testing.T) {
	base, err := testSweep(1).Run(context.Background(), nil, gridObs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		got, err := testSweep(workers).Run(context.Background(), nil, gridObs)
		if err != nil {
			t.Fatal(err)
		}
		assertSameCheckpoint(t, got, base)
	}
}

// TestSweepResumeSplitBitIdentical is the resume contract: run the first
// half, checkpoint through JSON, resume the rest — the union must equal
// the uninterrupted sweep bit-for-bit.
func TestSweepResumeSplitBitIdentical(t *testing.T) {
	full, err := testSweep(2).Run(context.Background(), nil, gridObs)
	if err != nil {
		t.Fatal(err)
	}

	// First leg: cancel via OnCell-counted context after 3 cells.
	ctx, cancel := context.WithCancel(context.Background())
	s := testSweep(3)
	cells := 0
	s.OnCell = func(Cell) {
		cells++
		if cells == 3 {
			cancel()
		}
	}
	half, err := s.Run(ctx, nil, gridObs)
	if err == nil {
		t.Fatal("expected cancellation error on the first leg")
	}
	if len(half.Cells) != 3 {
		t.Fatalf("first leg completed %d cells, want 3", len(half.Cells))
	}

	// Round-trip the checkpoint through its JSON encoding, as cmd/sweep
	// -resume does.
	var buf bytes.Buffer
	if err := half.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := testSweep(1).Run(context.Background(), loaded, gridObs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCheckpoint(t, resumed, full)
}

func TestSweepRejectsForeignCheckpoint(t *testing.T) {
	cp := &Checkpoint{Spec: "kind=proportion|something-else"}
	if _, err := testSweep(1).Run(context.Background(), cp, gridObs); err == nil {
		t.Fatal("foreign checkpoint accepted")
	}
}

func TestSpecKeyIgnoresWorkersOnly(t *testing.T) {
	a, b := testSweep(1), testSweep(8)
	if a.SpecKey() != b.SpecKey() {
		t.Fatal("Workers must not enter the spec key")
	}
	c := testSweep(1)
	c.Seed++
	if a.SpecKey() == c.SpecKey() {
		t.Fatal("seed must enter the spec key")
	}
	d := testSweep(1)
	d.Prec.Abs = 0.01
	if a.SpecKey() == d.SpecKey() {
		t.Fatal("precision must enter the spec key")
	}
	e := testSweep(1)
	e.Grid.Axes[1].Values = []float64{0.2, 0.5}
	if a.SpecKey() == e.SpecKey() {
		t.Fatal("grid must enter the spec key")
	}
	f := testSweep(1)
	f.Target = "model=markov"
	if a.SpecKey() == f.SpecKey() {
		t.Fatal("target must enter the spec key")
	}
}

func TestCellSeedsDiffer(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := CellSeed(42, i)
		if seen[s] {
			t.Fatalf("cell seed collision at %d", i)
		}
		seen[s] = true
	}
	if CellSeed(42, 0) == CellSeed(43, 0) {
		t.Fatal("cell seed ignores sweep seed")
	}
	// Cell derivation must not collide with rng.NewStream's trial space
	// for small indices (the usual ones).
	if CellSeed(42, 1) == 42 {
		t.Fatal("degenerate cell seed")
	}
}

func TestCellTable(t *testing.T) {
	g := Grid{Axes: []Axis{{Name: "n", Values: []float64{8, 16}}}}
	cells := []Cell{
		{Index: 0, Values: map[string]float64{"n": 8},
			Est: Estimate{Kind: Proportion, N: 32, Point: 0.25, Lo: 0.1, Hi: 0.4, Half: 0.15, Converged: true}},
		{Index: 1, Values: map[string]float64{"n": 16},
			Est: Estimate{Kind: Proportion, N: 64, Point: 0.75, Lo: 0.6, Hi: 0.9, Half: 0.15}},
	}
	tb := CellTable("title", g, cells)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Columns: cell, n, estimate, lo, hi, ±, trials, met precision.
	want := []string{"0", "8.0000", "0.2500", "0.1000", "0.4000", "0.1500", "32", "true"}
	for i, w := range want {
		if tb.Rows[0][i] != w {
			t.Fatalf("row 0 = %v, want %v", tb.Rows[0], want)
		}
	}
	if tb.Rows[1][7] != "false" {
		t.Fatalf("row 1 converged cell = %q", tb.Rows[1][7])
	}
}

func assertSameCheckpoint(t *testing.T, got, want *Checkpoint) {
	t.Helper()
	if got.Spec != want.Spec {
		t.Fatalf("spec %q != %q", got.Spec, want.Spec)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%d cells != %d", len(got.Cells), len(want.Cells))
	}
	for i := range want.Cells {
		g, w := got.Cells[i], want.Cells[i]
		if g.Index != w.Index || g.Est != w.Est {
			t.Fatalf("cell %d differs:\n got %+v\nwant %+v", i, g, w)
		}
		for k, v := range w.Values {
			if g.Values[k] != v {
				t.Fatalf("cell %d values differ: %v vs %v", i, g.Values, w.Values)
			}
		}
	}
}
