package rng

import "math"

// geomCompareMin is the smallest success probability Geom samples by
// repeated compares: at p ≥ 1/8 a gap costs at most 8 expected integer
// compares, cheaper than one logarithm.
const geomCompareMin = 1.0 / 8

// Geom is a precomputed Geometric(p) gap sampler on {1, 2, …}:
// P(G = k) = (1−p)^(k−1)·p, the index of the first success in a sequence
// of independent Bernoulli(p) trials. It is how the availability models
// jump from one run boundary to the next instead of drawing every slot.
//
// The sampling method is a pure function of (p, cap), so stream
// consumption is deterministic:
//
//   - p ≤ 0, p ≥ 1 or cap ≤ 1: the answer is fixed; no draw.
//   - p ≥ 1/8, or cap = 2 (a single trial): one Uint64 per trial,
//     success iff its top 53 bits fall below ceil(p·2^53) — exactly the
//     outcome of Stream.Bernoulli(p) on the same output.
//   - otherwise: one inverse-CDF uniform, G = 1 + ⌊log U / log(1−p)⌋
//     with U ∈ (0, 1] and 1/log1p(−p) precomputed.
//
// The zero value never succeeds (p = 0).
type Geom struct {
	thresh uint64  // ceil(p·2^53): a trial succeeds iff Uint64()>>11 < thresh
	invLog float64 // 1/log1p(−p) when p < 1/8; 0 selects compares
}

// NewGeom precomputes the sampler for success probability p, clamped to
// [0, 1].
func NewGeom(p float64) Geom {
	switch {
	case !(p > 0):
		return Geom{}
	case p >= 1:
		return Geom{thresh: 1 << 53}
	}
	g := Geom{thresh: uint64(math.Ceil(p * (1 << 53)))}
	if p < geomCompareMin {
		g.invLog = 1 / math.Log1p(-p)
	}
	return g
}

// Draw returns min(G, cap) for G ~ Geometric(p). A result of cap
// therefore means "no success among the first cap−1 trials"; the compare
// method makes at most cap−1 draws. The inverse-CDF clamp happens in
// floating point, so a tiny p cannot overflow int.
func (g Geom) Draw(r *Stream, cap int) int {
	switch {
	case cap <= 1:
		return cap
	case g.thresh >= 1<<53:
		return 1
	case g.thresh == 0:
		return cap
	case g.invLog != 0 && cap > 2:
		u := float64(r.Uint64()>>11+1) / (1 << 53)
		x := math.Log(u) * g.invLog
		if !(x < float64(cap-1)) {
			return cap
		}
		return 1 + int(x)
	}
	return r.firstBelow(g.thresh, cap-1)
}

// Hit runs a single Bernoulli(p) trial: the outcome and the stream
// consumption of Stream.Bernoulli(p), and of Draw(r, 2) == 1. Unlike
// Draw it inlines, which is what one-slot p(t) runs need (see
// TimeVarying.Resample).
func (g Geom) Hit(r *Stream) bool {
	if g.thresh == 0 || g.thresh >= 1<<53 {
		return g.thresh != 0
	}
	return r.Uint64()>>11 < g.thresh
}

// firstBelow runs up to n trials — one generator output each, a success
// when its top 53 bits are below thresh — and returns the 1-based index
// of the first success, or n+1 when all n fail. The state stays in locals
// for the loop. A loop over r.Uint64, which does not inline, pays a call
// and a state store per trial and made BenchmarkKernelResample
// markov-0.5-2 about 12% slower.
func (r *Stream) firstBelow(thresh uint64, n int) int {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	k := 1
	for ; k <= n; k++ {
		var out uint64
		out, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		if out>>11 < thresh {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return k
}
