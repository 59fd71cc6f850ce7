package experiments

import (
	"profam"
	"profam/internal/seq"
	"profam/internal/workload"
)

// ShardCorpus is the master-bound input: many short, highly redundant
// sequences, so pair filtering and verdict traffic serialize on the
// single master while the per-pair DP stays cheap. Fixed-seed, so the
// simulated makespans are exactly reproducible.
func ShardCorpus() *seq.Set {
	set, _ := workload.Generate(workload.Params{
		Families: 120, MeanFamilySize: 70, MeanLength: 32,
		Divergence: 0.004, IndelRate: 0.001, Subfamilies: 1,
		ContainedFrac: 0.5, Singletons: 40, Seed: 4242,
	})
	return set
}

// ShardConfig is the pipeline configuration paired with ShardCorpus:
// small batches keep the master's per-pair handling on the critical
// path, and high thread counts keep worker DP off it.
func ShardConfig() profam.Config {
	return profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3,
		BatchPairs: 128, BatchTasks: 32, ThreadsPerRank: 16}
}
