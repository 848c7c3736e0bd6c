package main

import (
	"cmp"
	"slices"

	"repro/internal/obs"
)

// selfTimes returns every span's self time in nanoseconds: its duration
// minus the part of its interval covered by its child spans. Overlapping
// children (parallel work under one parent) count once.
func selfTimes(spans []obs.SpanRecord) map[uint64]int64 {
	type iv struct{ lo, hi int64 }
	kids := map[uint64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNS, s.StartNS + s.DurNS})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		lo, hi := s.StartNS, s.StartNS+s.DurNS
		cs := kids[s.ID]
		slices.SortFunc(cs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered, end := int64(0), lo
		for _, c := range cs {
			clo, chi := max(c.lo, end), min(c.hi, hi)
			if chi > clo {
				covered += chi - clo
				end = chi
			}
		}
		self[s.ID] = s.DurNS - covered
	}
	return self
}

// layerSelf sums self times by layer; layerOf maps a span name to its
// layer, "" for spans that belong to no layer (the benchmark's own root).
func layerSelf(spans []obs.SpanRecord, layerOf func(name string) string) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		if l := layerOf(s.Name); l != "" {
			out[l] += self[s.ID]
		}
	}
	return out
}
