// Package avail is the availability-model registry: it abstracts *how time
// labels are assigned to the edges of a static graph*, making the paper's
// i.i.d. F-CASE label laws (package dist, threaded through
// assign.FromDistribution) one model among several.
//
// A Model deterministically maps (graph, rng.Stream) to a temporal.Labeling;
// a Scenario additionally owns its adjacency and generates graph and
// labeling together (the dynamic geometric model, where which links exist at
// all is an outcome of mobility). Every model draws randomness only from the
// stream it is handed, in a fixed order, so networks built from
// rng.NewStream(seed, trial) are bit-identical for any worker count or
// scheduling — the same determinism contract internal/sim and
// internal/service cache on.
//
// # Stream layout
//
// The markov and pt models sample run lengths, not slots. A markov edge draws its initial state as Bernoulli(pi), then
// alternates off-runs of Geometric(alpha) and on-runs of Geometric(beta)
// slots, each clamped at the lifetime. A pt schedule is split at
// construction into maximal runs of equal p(t); each run draws
// Geometric(p) gaps from one label to the next. Both use rng.Geom, which
// picks its method from (p, cap) alone: repeated compares for p ≥ 1/8 —
// one uniform per slot, exactly the per-slot Bernoulli draws — and a
// single inverse-CDF uniform per run boundary for smaller p. So a schedule without equal
// adjacent values (pt-ramp, pt-periodic) draws exactly as a per-slot
// sweep would, and markov with alpha, beta ≥ 1/8 exactly as the per-slot
// chain. StreamRevision numbers this layout; sweep spec fingerprints carry
// it, so checkpoints from an older layout are refused.
//
// Registered models:
//
//   - uniform, binom, geom, zipf — the i.i.d. F-CASE laws: R independent
//     labels per edge from the named dist law (uniform is the paper's
//     UNI-CASE).
//   - markov — correlated on/off link dynamics: each edge runs an
//     independent two-state Markov chain started from its stationary
//     distribution; the edge carries label t iff the chain is "on" at t.
//     The chain is sampled run by run (see Stream layout).
//     The chain is parameterized by the stationary availability pi and the
//     mean on-run length runlen, so labels arrive in bursts whose
//     persistence is tunable at a fixed expected label budget (the
//     Díaz–Mitsche–Pérez correlated-dynamics gap named in PAPERS.md).
//   - pt, pt-ramp, pt-periodic, pt-burst — time-varying availability: slot
//     t is a label independently with probability p(t), where p is a ramp,
//     a sinusoid, or a burst window. pt is an alias for pt-ramp.
//   - geometric — a dynamic random geometric graph scenario: n points do
//     seeded random walks on the unit torus and the edge {u,v} is live at
//     label t iff the torus distance between u and v is at most radius.
//
// Use Build(name, Params) to construct a registered model, Network to
// assemble a temporal.Network from a model and substrate, and Builders for
// the registry metadata served by the experiment service's GET /models.
//
// Models that can redraw labels for a fixed substrate without
// reallocating implement Resampler — Resample writes into a reused
// buffer with stream consumption bit-identical to Assign — which is the
// fast path the batched trial engine (sim.BatchRunner, temporal.Relabel)
// drives; CanResample reports whether a model qualifies (scenarios, which
// redraw their support graph every trial, never do).
//
// # Incremental scenarios
//
// Scenario models get their own batched fast path. A scenario that
// implements IncrementalScenario hands the engine a reusable per-worker
// ScenarioState whose Resample returns the trial's support-edge list (in
// canonical order: from < to, ascending lexicographically) plus its CSR
// labeling, all in state-owned buffers that the next call overwrites —
// stream consumption and output bit-identical to Generate. sim.BatchRunner
// diffs consecutive trials' edge lists and patches one worker-owned
// network in place through temporal.RelabelEdges (topology delta + full
// relabel) instead of rebuilding graph, labels and time-edge indexes from
// scratch. The geometric model's state keeps its torus grid buckets
// consistent across walk steps by delta cell moves, wraps the walk with
// two compares instead of math.Mod, tests candidate pairs without
// branches (each is written, and kept by the comparison result), packs
// each (pair, slot) event as pair<<bits.Len(lifetime) | slot, and groups
// the events with a stable per-pair counting sort, so a steady-state
// trial allocates nothing. Generate itself stays the simple
// map-accumulating reference implementation — the differential oracle the
// engine is pinned against — and NewScenarioState may return nil for
// sizes the packed representation cannot cover, which drops that worker
// back to Generate per trial.
package avail
