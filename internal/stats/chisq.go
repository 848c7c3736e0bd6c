package stats

import (
	"fmt"
	"math"
)

// ChiSquare returns Pearson's goodness-of-fit statistic
// Σ (obs−exp)²/exp over cells with exp > 0. Observed and expected must have
// equal length; zero-expectation cells with zero observations contribute
// nothing, while a zero-expectation cell with observations returns +Inf
// (the model says the cell is impossible).
func ChiSquare(obs, exp []float64) float64 {
	if len(obs) != len(exp) {
		panic(fmt.Sprintf("stats: chi-square needs equal lengths, got %d and %d", len(obs), len(exp)))
	}
	stat := 0.0
	for i := range obs {
		switch {
		case exp[i] > 0:
			d := obs[i] - exp[i]
			stat += d * d / exp[i]
		case obs[i] != 0:
			return math.Inf(1)
		}
	}
	return stat
}

// ChiSquareTwoSample returns the two-sample (homogeneity) Pearson
// statistic for histograms a and b over the same bins, and its degrees of
// freedom: the bins either sample occupies, minus one. The totals may
// differ. Under the null that both samples come from one distribution the
// statistic is asymptotically χ²(df); an empty sample gives (0, 0).
func ChiSquareTwoSample(a, b []float64) (stat float64, df int) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: two-sample chi-square needs equal lengths, got %d and %d", len(a), len(b)))
	}
	na, nb := 0.0, 0.0
	for i := range a {
		na += a[i]
		nb += b[i]
	}
	if na == 0 || nb == 0 {
		return 0, 0
	}
	ka, kb := math.Sqrt(nb/na), math.Sqrt(na/nb)
	for i := range a {
		if a[i]+b[i] == 0 {
			continue
		}
		d := ka*a[i] - kb*b[i]
		stat += d * d / (a[i] + b[i])
		df++
	}
	return stat, df - 1
}

// ChiSquareCDF returns P(X ≤ x) for X ~ χ²(k), the regularized lower
// incomplete gamma P(k/2, x/2). k may be fractional but must be positive.
func ChiSquareCDF(x float64, k float64) float64 {
	if k <= 0 {
		panic("stats: chi-square needs positive degrees of freedom")
	}
	if x <= 0 {
		return 0
	}
	return regIncGammaP(k/2, x/2)
}

// ChiSquareQuantile returns the x with ChiSquareCDF(x, k) = p for
// p ∈ (0, 1) — the critical value tables give for significance 1−p.
// Bisection on the CDF keeps it simple and exact to ~1e-10, plenty for
// test thresholds.
func ChiSquareQuantile(p float64, k float64) float64 {
	if !(p > 0 && p < 1) {
		panic("stats: chi-square quantile needs p in (0,1)")
	}
	// Bracket: the mean is k and the tail decays exponentially, so
	// k + 40·sqrt(2k) + 40 covers any p representable below 1.
	lo, hi := 0.0, k+40*math.Sqrt(2*k)+40
	for ChiSquareCDF(hi, k) < p {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if ChiSquareCDF(mid, k) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// regIncGammaP is the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a), via the series expansion for x < a+1 and the
// Lentz continued fraction for the complement otherwise (Numerical
// Recipes §6.2).
func regIncGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		panic("stats: incomplete gamma out of domain")
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		// Series: P(a,x) = e^{-x} x^a / Γ(a) · Σ_{n≥0} x^n / (a(a+1)…(a+n)).
		ap := a
		sum := 1.0 / a
		del := sum
		for n := 0; n < 500; n++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-16 {
				break
			}
		}
		lg, _ := math.Lgamma(a)
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for Q(a,x) = 1 − P(a,x).
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q
}
