package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile for it to be reported at all: a p99 over 200 samples is the
// second-largest value, not a percentile.
const minBeyond = 10

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted and
// the number of samples strictly beyond that rank. sorted must be in
// ascending order and non-empty.
func quantile(sorted []float64, q float64) (v float64, beyond int) {
	r := rank(len(sorted), q)
	return sorted[r-1], len(sorted) - r
}

// tailOK reports whether a q-quantile over n samples leaves at least
// minBeyond samples beyond it.
func tailOK(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); xs is not modified. It returns 0 for no data.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// safeDiv returns a/b, or 0 when b is 0 — the value a layer that did no
// work reports for its ratios.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gapClock records the interval between consecutive completed operations
// — the tick a progress watcher sees — starting from its creation. tick
// is safe for concurrent use.
type gapClock struct {
	mu   sync.Mutex
	last time.Time
	gaps []float64 // µs
}

func newGapClock() *gapClock { return &gapClock{last: time.Now()} }

func (g *gapClock) tick() {
	now := time.Now()
	g.mu.Lock()
	g.gaps = append(g.gaps, float64(now.Sub(g.last).Nanoseconds())/1e3)
	g.last = now
	g.mu.Unlock()
}
