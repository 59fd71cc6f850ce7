package experiments

import (
	"profam/internal/align"
	"profam/internal/bipartite"
	"profam/internal/seq"
	"profam/internal/shingle"
	"profam/internal/workload"
)

// ShingleBenchGraphs builds the inputs of the phase-4 kernels from two
// fixed corpora, each taken whole as one component: the B_d reduction of
// a 120-member family with subfamilies (dense neighbourhoods that differ
// from vertex to vertex) and the B_m reduction of eight domain families
// of twelve (a few hundred words per family, most sharing the adjacency
// list of their conserved domain).
func ShingleBenchGraphs() (bd, bm *bipartite.Graph, err error) {
	whole := func(set *seq.Set) []int {
		members := make([]int, set.Len())
		for i := range members {
			members[i] = i
		}
		return members
	}
	cfg := PipelineConfig()
	bcfg := bipartite.Config{Psi: cfg.Psi, Edge: align.DefaultOverlapParams()}
	bcfg.Edge.MinSimilarity = cfg.EdgeSimilarity
	set, _ := workload.Generate(workload.Params{
		Families: 1, MeanFamilySize: 120, MeanLength: 130, Divergence: 0.10,
		ContainedFrac: 0.01, Singletons: 1, UniformSizes: true, Subfamilies: 3, Seed: 61,
	})
	if bd, _, err = bipartite.BuildBd(set, whole(set), bcfg); err != nil {
		return nil, nil, err
	}
	set, _ = workload.Generate(workload.Params{
		Families: 1, MeanFamilySize: 2, DomainFamilies: 8, DomainSize: 12,
		MeanLength: 130, UniformSizes: true, Seed: 62,
	})
	if bm, _, err = bipartite.BuildBm(set, whole(set), bcfg); err != nil {
		return nil, nil, err
	}
	return bd, bm, nil
}

// ShingleDetectKernel is phase 4 in isolation: the two-pass Shingle
// detector over one bipartite graph with the experiments' (s, c). It
// returns the detector's counters (a work checksum).
func ShingleDetectKernel(g *bipartite.Graph) shingle.Stats {
	cfg := PipelineConfig()
	_, st := shingle.Detect(g, shingle.Params{S1: cfg.S1, C1: cfg.C1, MinSize: cfg.MinFamilySize})
	return st
}
