// Package temporal implements the temporal-network model of the paper
// (following Kempe–Kleinberg–Kumar and Mertzios et al.): a static (di)graph
// whose every edge carries a sorted set of integer time labels in
// {1, …, lifetime}, together with the journey machinery built on top —
// foremost (earliest-arrival) journeys, temporal reachability, and the
// temporal diameter.
//
// A label l on edge e={u,v} means e may be crossed exactly at time l (in
// either direction when the graph is undirected). A journey is a path whose
// consecutive hop labels strictly increase; its arrival time is its last
// label. The temporal distance δ(u,v) is the minimum arrival time over all
// (u,v)-journeys.
//
// The hot path is the earliest-arrival engine (engine.go, msreach.go,
// arrivalbatch.go). It runs on two indexes over the M time edges (an
// (edge, label) pair is one time edge): the global list sorted by label,
// and a per-vertex CSR of outgoing time edges sorted by label. New only
// validates the labeling; each index, like the per-edge label sort, is
// built on first use — after New exactly as after Relabel — so a network
// that only answers Treach or diameter questions never builds the
// per-vertex CSR. Three kernels run on those indexes:
//
//   - the frontier kernel (per-vertex CSR): a Dial-style bucket queue
//     settles vertices in arrival order and relaxes only the time edges
//     leaving settled vertices with labels above their arrival, so a
//     single-source query costs O(n + reached time edges) rather than
//     O(M), with early termination once every vertex is settled or the
//     queue drains;
//   - the bit-parallel kernels (global list): 64 sources share one pass,
//     one uint64 of source bits per vertex. They answer all-pairs
//     reachability questions (Treach, violation counts) and, stamping the
//     label at which each bit lands, 64 arrival rows per pass
//     (ArrivalRowsBatch) — the kernel the diameter entry points (Diameter,
//     DiameterFrom, DiameterFromSerial) and the query index's full build
//     run on, ⌈sources/64⌉ passes instead of one run per source;
//   - the linear kernel (EarliestArrivalsLinearInto): the original
//     single-pass scan. No other entry point calls it; it is kept only as
//     the differential-testing oracle.
//
// All public entry points draw their work arrays from a sync.Pool-backed
// scratch layer, so steady-state queries allocate nothing. For Monte-Carlo
// workloads that hold the substrate fixed and only resample availability,
// Relabel rebuilds all indexes in place over the existing buffers, so a
// steady-state trial allocates nothing either (see sim.BatchRunner).
//
// # Topology deltas: RelabelEdges
//
// Scenario models (package avail) redraw not just the labels but the edge
// set itself every trial. RelabelEdges extends the in-place machinery to
// that workload: it takes an EdgeDelta — edges to remove (ascending
// current edge ids), edges to insert (canonical order: from < to,
// ascending by (from, to)), and the FULL post-delta labeling in post-delta
// edge-id order — and patches the network's graph and label CSR without
// reallocating, deferring the time-edge index rebuilds to the same lazy
// double-checked machinery Relabel uses. Its invariants:
//
//   - The network must exclusively own its graph. RelabelEdges mutates the
//     *graph.Graph in place (graph.ApplyEdgeDelta / graph.ReplaceEdges),
//     so anything built against the old topology — a StaticReach, cached
//     adjacency, a shared substrate — is silently invalidated even though
//     the pointer is unchanged. sim.BatchRunner satisfies this by cloning
//     a private graph per worker.
//   - Edge ids after the delta equal the ids a fresh graph.Builder would
//     assign for the same edge set, because both orders are canonical.
//     That is what lets a state engine and the from-scratch oracle agree
//     bit for bit (the conformance tests in avail rely on it).
//   - Churn routing: when removed+inserted exceeds ChurnRebuildThreshold
//     (a fraction of the current edge count), patching degenerates to
//     moving most of the CSR anyway, so RelabelEdges falls back to a full
//     in-place rebuild (graph.ReplaceEdges) over the same buffers. Both
//     routes produce identical networks; the obs counter
//     temporal_relabel_edges_total{route} records which one ran.
//
// Validation happens before any mutation, so a malformed delta (unsorted
// inserts, duplicate edges, out-of-range ids) errors out with the network
// untouched.
package temporal
