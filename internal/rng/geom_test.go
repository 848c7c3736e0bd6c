package rng

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// geomBinnedPMF tallies n draws of g.Draw(r, cap) into the bins
// [edges[i], edges[i+1]) and returns observed and expected counts under
// min(Geometric(p), cap). The last edge must be cap+1, so the final bin
// holds the clamped mass P(G ≥ cap) = (1−p)^(cap−1).
func geomBinnedPMF(g Geom, p float64, cap int, edges []int, n int, r *Stream) (obs, exp []float64) {
	obs = make([]float64, len(edges)-1)
	exp = make([]float64, len(edges)-1)
	// surv(k) = P(min(G,cap) ≥ k) = (1−p)^(k−1) for k ≤ cap, 0 beyond.
	surv := func(k int) float64 {
		if k > cap {
			return 0
		}
		return math.Pow(1-p, float64(k-1))
	}
	for i := range exp {
		exp[i] = float64(n) * (surv(edges[i]) - surv(edges[i+1]))
	}
	for i := 0; i < n; i++ {
		k := g.Draw(r, cap)
		if k < 1 || k > cap {
			panic("draw outside [1, cap]")
		}
		for b := range obs {
			if k < edges[b+1] {
				obs[b]++
				break
			}
		}
	}
	return obs, exp
}

// TestGeomPMF chi-square-tests Draw against the clamped geometric law in
// both regimes: compares (p ≥ 1/8) and the inverse CDF (small p). Seeds
// are pinned, so each statistic is one deterministic number; at the 0.999
// critical value a correct sampler would fail about one seed in a
// thousand, per case.
func TestGeomPMF(t *testing.T) {
	cases := []struct {
		name  string
		p     float64
		cap   int
		edges []int
	}{
		{"compare-p0.5", 0.5, 9, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		{"compare-p0.125", 0.125, 30, []int{1, 2, 3, 4, 6, 8, 11, 15, 20, 30, 31}},
		{"inverse-p0.05", 0.05, 40, []int{1, 2, 3, 5, 8, 12, 17, 23, 30, 40, 41}},
		{"inverse-p0.001", 0.001, 1500, []int{1, 2, 10, 50, 150, 300, 500, 800, 1200, 1500, 1501}},
		{"inverse-p1e-6", 1e-6, 1 << 22, []int{1, 1e4, 1e5, 3e5, 6e5, 1e6, 2e6, 3e6, 1 << 22, 1<<22 + 1}},
	}
	for i, tc := range cases {
		obs, exp := geomBinnedPMF(NewGeom(tc.p), tc.p, tc.cap, tc.edges, 100000, NewStream(0x6e0, uint64(i)))
		stat := stats.ChiSquare(obs, exp)
		if crit := stats.ChiSquareQuantile(0.999, float64(len(obs)-1)); stat > crit {
			t.Errorf("%s: chi-square %.2f > %.2f (obs %v, exp %v)", tc.name, stat, crit, obs, exp)
		}
	}
}

// TestGeomCompareMatchesBernoulli pins the compare regime to the per-slot
// Bernoulli sweep it replaces: the same outcome and the same stream
// consumption, bit for bit. Small p at cap 2 is a single compare too.
func TestGeomCompareMatchesBernoulli(t *testing.T) {
	for _, tc := range []struct {
		p   float64
		cap int
	}{{0.125, 20}, {0.3, 7}, {0.9, 3}, {0.01, 2}, {1e-20, 2}} {
		g := NewGeom(tc.p)
		r, ref := New(11), New(11)
		for i := 0; i < 5000; i++ {
			want := tc.cap
			for k := 1; k < tc.cap; k++ {
				if ref.Bernoulli(tc.p) {
					want = k
					break
				}
			}
			if got := g.Draw(r, tc.cap); got != want {
				t.Fatalf("p=%v cap=%d draw %d: got %d, per-slot Bernoulli %d", tc.p, tc.cap, i, got, want)
			}
			if *r != *ref {
				t.Fatalf("p=%v cap=%d draw %d: stream consumption differs from per-slot Bernoulli", tc.p, tc.cap, i)
			}
			if g.Hit(r) != ref.Bernoulli(tc.p) || *r != *ref {
				t.Fatalf("p=%v draw %d: Hit differs from Bernoulli", tc.p, i)
			}
		}
	}
}

// TestGeomDegenerate covers the draws whose answer is fixed: p = 1 is
// always 1, p = 0 always cap, and cap = 1 always 1 — none consumes the
// stream, and neither does Hit at p ∈ {0, 1}. The inverse CDF uses exactly one uniform otherwise.
func TestGeomDegenerate(t *testing.T) {
	r := New(5)
	before := *r
	for _, tc := range []struct {
		g        Geom
		cap, out int
	}{
		{NewGeom(1), 50, 1}, {NewGeom(2), 50, 1},
		{NewGeom(0), 50, 50}, {NewGeom(-1), 7, 7}, {Geom{}, 3, 3},
		{NewGeom(0.01), 1, 1}, {NewGeom(0.5), 1, 1},
	} {
		if got := tc.g.Draw(r, tc.cap); got != tc.out {
			t.Fatalf("%+v cap=%d: got %d, want %d", tc.g, tc.cap, got, tc.out)
		}
	}
	if !NewGeom(1).Hit(r) || NewGeom(0).Hit(r) {
		t.Fatal("Hit(p=1) must succeed and Hit(p=0) fail")
	}
	if *r != before {
		t.Fatal("fixed-answer draws consumed the stream")
	}
	NewGeom(0.01).Draw(r, 100)
	before.Uint64()
	if *r != before {
		t.Fatal("inverse-CDF draw did not consume exactly one output")
	}
}

// TestGeomTinyPClamps: a success probability so small that the gap
// exceeds any int must clamp at cap in floating point, not overflow.
func TestGeomTinyPClamps(t *testing.T) {
	r := New(9)
	for _, p := range []float64{2.5e-13, 1e-300, 5e-324} {
		g := NewGeom(p)
		for _, cap := range []int{3, 1 << 20, math.MaxInt} {
			for i := 0; i < 200; i++ {
				if got := g.Draw(r, cap); got < 1 || got > cap {
					t.Fatalf("p=%v cap=%d: draw %d outside [1, cap]", p, cap, got)
				}
			}
		}
	}
}

var geomSink int

func BenchmarkGeomDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    float64
	}{{"compare", 0.25}, {"inverse", 0.01}} {
		g, r := NewGeom(bc.p), New(1)
		b.Run(bc.name, func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += g.Draw(r, 1<<20)
			}
			geomSink = sum
		})
	}
}
