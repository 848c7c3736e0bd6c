package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances the SplitMix64 state and returns the next output.
// It is used to seed and to derive independent streams; it is also a fine
// tiny generator in its own right for hashing-style uses.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a xoshiro256** generator. The zero value is not a valid
// generator; obtain streams from New or NewStream.
type Stream struct {
	s [4]uint64
}

// New returns a Stream seeded from the given seed. Distinct seeds give
// (for all practical purposes) independent streams.
func New(seed uint64) *Stream {
	st := &Stream{}
	st.Reseed(seed)
	return st
}

// NewStream returns the stream for sub-experiment (e.g. Monte-Carlo trial)
// index idx under the given base seed. Streams for different (seed, idx)
// pairs are independent, which makes parallel trial execution deterministic:
// the work scheduler cannot affect which numbers a trial sees.
func NewStream(seed uint64, idx uint64) *Stream {
	// Mix the index through SplitMix64 twice so that consecutive indices
	// land far apart in seed space.
	mix := seed
	_ = SplitMix64(&mix)
	mix ^= 0x6a09e667f3bcc909 * (idx + 1)
	st := &Stream{}
	st.Reseed(SplitMix64(&mix))
	return st
}

// Reseed resets the stream state from a single seed value.
func (r *Stream) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// xoshiro256** is ill-defined on the all-zero state; SplitMix64 cannot
	// produce four zero outputs in a row, but keep the guard for clarity.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Stream) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// step is one xoshiro256** step: the output for state (s0, s1, s2, s3)
// and the successor state. It is the generator's only definition; taking
// and returning the state as scalars lets a caller's loop keep it in
// registers (see firstBelow).
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
// The implementation is Lemire's multiply-shift with rejection, which is
// unbiased and branch-cheap.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly random uint64 in [0, n). It panics if n == 0.
func (r *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// IntRange returns a uniformly random int in [lo, hi] inclusive.
// It panics if lo > hi.
func (r *Stream) IntRange(lo, hi int) int {
	if lo > hi {
		panic("rng: IntRange with lo > hi")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniformly random float64 in [0, 1) with 53 bits of
// precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) as a fresh slice.
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct uniformly random values from [0, n) in
// selection order. It panics if k > n or k < 0. For small k relative to n it
// uses rejection against a set; otherwise a partial Fisher–Yates.
func (r *Stream) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	if k == 0 {
		return nil
	}
	if k*3 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := r.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k:k]
}

// NormFloat64 returns a standard normal variate via the polar
// (Marsaglia) method. Used only for statistical test helpers.
func (r *Stream) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
