package service

import (
	"fmt"
	"strings"

	"repro/internal/avail"
)

// Request identifies one experiment computation. It is the cache key
// domain: two requests with equal canonical forms always produce identical
// results.
type Request struct {
	// Experiment is the registry id, e.g. "E1" (case-insensitive).
	Experiment string `json:"experiment"`
	// Seed is the Monte-Carlo base seed.
	Seed uint64 `json:"seed"`
	// Quick selects bench/CI scale instead of the full paper scale.
	Quick bool `json:"quick"`
	// Model optionally names an availability model (see GET /models) for
	// the model-aware drivers; empty means the driver's default sweep.
	Model string `json:"model,omitempty"`
	// MP optionally overrides availability-model parameters by name.
	// Unknown names are rejected at submit.
	MP map[string]float64 `json:"mp,omitempty"`
}

// Canonical returns the request with the experiment id trimmed and
// upper-cased and the model name trimmed and lower-cased, so "e1 " and
// "E1" (and " Markov") share a cache entry. An empty MP map canonicalizes
// to nil.
func (r Request) Canonical() Request {
	r.Experiment = strings.ToUpper(strings.TrimSpace(r.Experiment))
	r.Model = strings.ToLower(strings.TrimSpace(r.Model))
	if len(r.MP) == 0 {
		r.MP = nil
	}
	return r
}

// Key is the canonical cache key of the request. Requests without model
// fields keep their pre-model key shape, so existing cache entries remain
// addressable; model fields append deterministically (MP in sorted name
// order).
func (r Request) Key() string {
	c := r.Canonical()
	key := fmt.Sprintf("%s|seed=%d|quick=%t", c.Experiment, c.Seed, c.Quick)
	if c.Model != "" {
		key += "|model=" + c.Model
	}
	key += mpKey(c.MP)
	return key
}

// mpKey renders model-parameter overrides canonically for cache keys, or
// "" when empty. It shares avail.FormatKnobs with SweepRequest.Key (via
// experiments.SweepTarget.Key), so the two key families cannot drift in
// MP canonicalization.
func mpKey(mp map[string]float64) string {
	if len(mp) == 0 {
		return ""
	}
	return "|mp=" + avail.FormatKnobs(mp)
}

// validateModel rejects model names absent from the avail registry and
// parameter names no model declares: with a named model MP must match its
// knobs; without one MP targets the drivers' default models, so names are
// checked against the union of all registered knobs. Rejecting unknown
// names at submit keeps silent-default runs and junk out of cache keys.
func (r Request) validateModel() error {
	if r.Model != "" {
		if _, ok := avail.Lookup(r.Model); !ok {
			return fmt.Errorf("unknown model %q (see GET /models)", r.Model)
		}
	}
	if err := avail.ValidateKnobs(r.Model, r.MP); err != nil {
		return fmt.Errorf("%v (see GET /models)", err)
	}
	return nil
}
