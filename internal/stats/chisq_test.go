package stats

import (
	"math"
	"testing"
)

func TestChiSquareStatistic(t *testing.T) {
	obs := []float64{50, 30, 20}
	exp := []float64{40, 40, 20}
	// (10²/40) + (10²/40) + 0 = 5.
	if got := ChiSquare(obs, exp); math.Abs(got-5) > 1e-12 {
		t.Fatalf("ChiSquare = %v, want 5", got)
	}
	if got := ChiSquare([]float64{0, 10}, []float64{0, 10}); got != 0 {
		t.Fatalf("zero-expectation empty cell should contribute nothing, got %v", got)
	}
	if got := ChiSquare([]float64{1, 9}, []float64{0, 10}); !math.IsInf(got, 1) {
		t.Fatalf("observation in impossible cell should be +Inf, got %v", got)
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// Reference values from standard χ² tables.
	cases := []struct {
		x, k, p float64
	}{
		{3.841, 1, 0.95},
		{5.991, 2, 0.95},
		{18.307, 10, 0.95},
		{15.086, 5, 0.99},
		{29.588, 10, 0.999},
		{1.386, 2, 0.50},
	}
	for _, c := range cases {
		if got := ChiSquareCDF(c.x, c.k); math.Abs(got-c.p) > 5e-4 {
			t.Errorf("ChiSquareCDF(%v, %v) = %v, want ≈%v", c.x, c.k, got, c.p)
		}
	}
	if got := ChiSquareCDF(-1, 3); got != 0 {
		t.Errorf("CDF at negative x = %v, want 0", got)
	}
}

func TestChiSquareQuantileInvertsCDF(t *testing.T) {
	for _, k := range []float64{1, 2, 5, 10, 31, 100} {
		for _, p := range []float64{0.05, 0.5, 0.95, 0.99, 0.999} {
			x := ChiSquareQuantile(p, k)
			if got := ChiSquareCDF(x, k); math.Abs(got-p) > 1e-9 {
				t.Errorf("CDF(Quantile(%v, k=%v)) = %v", p, k, got)
			}
		}
	}
	// Spot checks against tables.
	if x := ChiSquareQuantile(0.95, 1); math.Abs(x-3.841) > 5e-3 {
		t.Errorf("Quantile(0.95, 1) = %v, want ≈3.841", x)
	}
	if x := ChiSquareQuantile(0.999, 15); math.Abs(x-37.697) > 5e-2 {
		t.Errorf("Quantile(0.999, 15) = %v, want ≈37.697", x)
	}
}

func TestChiSquareTwoSample(t *testing.T) {
	// Equal totals: Σ (a−b)²/(a+b) = 100/30 + 100/30.
	stat, df := ChiSquareTwoSample([]float64{10, 20, 0}, []float64{20, 10, 0})
	if math.Abs(stat-200.0/30) > 1e-12 || df != 1 {
		t.Fatalf("stat, df = %v, %d, want %v, 1", stat, df, 200.0/30)
	}
	// Proportional histograms are perfectly homogeneous at any totals.
	if stat, df := ChiSquareTwoSample([]float64{30, 60, 10}, []float64{3, 6, 1}); math.Abs(stat) > 1e-12 || df != 2 {
		t.Fatalf("proportional samples: stat, df = %v, %d, want 0, 2", stat, df)
	}
	if stat, df := ChiSquareTwoSample([]float64{0, 0}, []float64{1, 2}); stat != 0 || df != 0 {
		t.Fatalf("empty sample: stat, df = %v, %d, want 0, 0", stat, df)
	}
}
