package temporal

// Process-wide counters for the temporal index and kernel layers, exposed
// through internal/obs. Index rebuilds happen under idxMu and kernel
// choices once per diameter call, so every record here is a cold-path
// atomic — the kernels themselves stay untouched.

import "repro/internal/obs"

var obsIndexBuilds = obs.NewCounterVec("temporal_index_builds_total",
	"Lazy index rebuilds by index kind (labelsort, timeedges, vertex).", "index")

var (
	obsBuildLabelSort = obsIndexBuilds.With("labelsort")
	obsBuildTimeEdges = obsIndexBuilds.With("timeedges")
	obsBuildVertex    = obsIndexBuilds.With("vertex")
)

var obsKernelChoice = obs.NewCounterVec("temporal_kernel_choice_total",
	"Arrival-kernel choices by kernel and entry point, one per entry-point call.",
	"kernel", "entry")

var obsKernelDiameter = obsKernelChoice.With("batch64", "diameter")
