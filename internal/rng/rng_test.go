package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Properties(t *testing.T) {
	// The sequence must be deterministic, the state must advance by the
	// golden-gamma constant, and consecutive outputs must differ.
	state := uint64(1234567)
	s2 := uint64(1234567)
	a := SplitMix64(&state)
	b := SplitMix64(&s2)
	if a != b {
		t.Fatal("SplitMix64 not deterministic")
	}
	if state != 1234567+0x9e3779b97f4a7c15 {
		t.Fatal("SplitMix64 state does not advance by golden gamma")
	}
	if SplitMix64(&state) == a {
		t.Fatal("SplitMix64 consecutive outputs identical")
	}
}

// TestStreamKnownAnswer pins the xoshiro256** output sequence: every
// stored result and stream-layout contract depends on these exact bits.
func TestStreamKnownAnswer(t *testing.T) {
	r := New(2014)
	for i, want := range []uint64{0x1c7cd45821c6a3b6, 0x7d00d37d82cef61b, 0x5f406e6047924fef, 0x4ff5bab2f60a0607} {
		if got := r.Uint64(); got != want {
			t.Fatalf("output %d: got %#x, want %#x", i, got, want)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at step %d", i)
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/100 times", same)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	// Consecutive trial streams must not be shifted copies of each other.
	a := NewStream(7, 0)
	b := NewStream(7, 1)
	window := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		window[a.Uint64()] = true
	}
	for i := 0; i < 200; i++ {
		if window[b.Uint64()] {
			t.Fatal("stream 1 output appeared in stream 0 window")
		}
	}
}

func TestNewStreamDeterministicPerIndex(t *testing.T) {
	for idx := uint64(0); idx < 8; idx++ {
		a, b := NewStream(99, idx), NewStream(99, idx)
		if a.Uint64() != b.Uint64() {
			t.Fatalf("NewStream(99,%d) not deterministic", idx)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnOneIsZero(t *testing.T) {
	r := New(5)
	for i := 0; i < 50; i++ {
		if r.Intn(1) != 0 {
			t.Fatal("Intn(1) must be 0")
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) should panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared test on Intn(10); 9 dof, 99.9% critical value ~27.88.
	r := New(123)
	const buckets, samples = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	expect := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	if chi2 > 27.88 {
		t.Fatalf("Intn(10) chi2 = %.2f > 27.88; counts=%v", chi2, counts)
	}
}

func TestIntRange(t *testing.T) {
	r := New(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange(5,9) = %d", v)
		}
		seen[v] = true
	}
	for v := 5; v <= 9; v++ {
		if !seen[v] {
			t.Fatalf("IntRange never produced %d", v)
		}
	}
	if r.IntRange(3, 3) != 3 {
		t.Fatal("IntRange(3,3) must be 3")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(2,1) should panic")
		}
	}()
	r.IntRange(2, 1)
}

func TestFloat64Range(t *testing.T) {
	r := New(77)
	sum := 0.0
	const nSamples = 100000
	for i := 0; i < nSamples; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / nSamples
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %.4f, want ~0.5", mean)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(31)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const nSamples = 100000
	for i := 0; i < nSamples; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / nSamples
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %.4f", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	// The first element of Perm(4) should be ~uniform over 0..3.
	r := New(2024)
	counts := make([]int, 4)
	const nSamples = 40000
	for i := 0; i < nSamples; i++ {
		counts[r.Perm(4)[0]]++
	}
	for v, c := range counts {
		f := float64(c) / nSamples
		if math.Abs(f-0.25) > 0.02 {
			t.Fatalf("Perm(4)[0]=%d frequency %.3f, want ~0.25", v, f)
		}
	}
}

func TestSample(t *testing.T) {
	r := New(50)
	for _, tc := range []struct{ n, k int }{
		{10, 0}, {10, 1}, {10, 3}, {10, 9}, {10, 10}, {1000, 5}, {1000, 900},
	} {
		s := r.Sample(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("Sample(%d,%d) length %d", tc.n, tc.k, len(s))
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= tc.n {
				t.Fatalf("Sample(%d,%d) value %d out of range", tc.n, tc.k, v)
			}
			if seen[v] {
				t.Fatalf("Sample(%d,%d) duplicate %d", tc.n, tc.k, v)
			}
			seen[v] = true
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3,4) should panic")
		}
	}()
	r.Sample(3, 4)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(314)
	const nSamples = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < nSamples; i++ {
		v := r.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / nSamples
	variance := sum2/nSamples - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("NormFloat64 mean = %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("NormFloat64 variance = %.4f, want ~1", variance)
	}
}

func TestReseedResets(t *testing.T) {
	r := New(8)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(8)
	for i := range first {
		if r.Uint64() != first[i] {
			t.Fatalf("Reseed did not reset stream at step %d", i)
		}
	}
}

// Property: Uint64n(n) < n for all n > 0.
func TestQuickUint64nBound(t *testing.T) {
	r := New(404)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Shuffle preserves the multiset of elements.
func TestQuickShufflePreservesMultiset(t *testing.T) {
	r := New(505)
	f := func(xs []int) bool {
		orig := make(map[int]int)
		for _, x := range xs {
			orig[x]++
		}
		ys := make([]int, len(xs))
		copy(ys, xs)
		r.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
		got := make(map[int]int)
		for _, y := range ys {
			got[y]++
		}
		if len(orig) != len(got) {
			return false
		}
		for k, v := range orig {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000003)
	}
	_ = sink
}
