package profam_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"profam"
	"profam/internal/workload"
)

// TestPipelineInvariantsProperty runs the full pipeline on random small
// workloads and checks the structural invariants that must hold for any
// input:
//
//  1. keep ⊆ input; components and families contain only kept sequences;
//  2. families are pairwise disjoint and each lies inside one component;
//  3. family sizes respect MinFamilySize and are sorted descending;
//  4. densities are in [0, 1] (+ epsilon) for the B_d reduction;
//  5. serial and 3-rank parallel runs agree on the keep mask and the
//     families.
func TestPipelineInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set, _ := workload.Generate(workload.Params{
			Families:       1 + rng.Intn(4),
			MeanFamilySize: 3 + rng.Intn(8),
			MeanLength:     50 + rng.Intn(80),
			Divergence:     0.05 + rng.Float64()*0.10,
			IndelRate:      rng.Float64() * 0.01,
			ContainedFrac:  rng.Float64() * 0.3,
			Subfamilies:    1 + rng.Intn(3),
			Singletons:     1 + rng.Intn(4),
			Seed:           seed,
		})
		cfg := profam.Config{
			Psi:              6,
			MinComponentSize: 2,
			MinFamilySize:    2 + rng.Intn(3),
			BatchPairs:       64 + rng.Intn(512),
			BatchTasks:       16 + rng.Intn(128),
		}
		res, _, err := profam.RunSet(set, 1, false, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}

		if len(res.Keep) != set.Len() || res.NumInput != set.Len() {
			return false
		}
		kept := 0
		for _, k := range res.Keep {
			if k {
				kept++
			}
		}
		if kept != res.NumNonRedundant {
			return false
		}

		compOf := map[int]int{}
		for ci, comp := range res.Components {
			for _, id := range comp {
				if id < 0 || id >= set.Len() || !res.Keep[id] {
					return false
				}
				compOf[id] = ci
			}
		}

		seen := map[int]bool{}
		lastSize := 1 << 30
		for _, fam := range res.Families {
			if fam.Size() < cfg.MinFamilySize || fam.Size() > lastSize {
				return false
			}
			lastSize = fam.Size()
			if fam.Density < 0 || fam.Density > 1.0001 {
				return false
			}
			famComp := -1
			for _, id := range fam.Members {
				if seen[id] || !res.Keep[id] {
					return false
				}
				seen[id] = true
				ci, ok := compOf[id]
				if !ok {
					return false
				}
				if famComp < 0 {
					famComp = ci
				} else if famComp != ci {
					return false
				}
			}
		}

		// Redundancy is a per-pair rule, so a 3-rank run keeps exactly the
		// serial run's sequences and finds the same families.
		par, _, err := profam.RunSet(set, 3, false, cfg)
		if err != nil {
			return false
		}
		if fmt.Sprint(par.Keep) != fmt.Sprint(res.Keep) {
			t.Logf("seed %d: serial and parallel keep masks differ", seed)
			return false
		}
		if got, want := familiesText(t, set, par), familiesText(t, set, res); got != want {
			t.Logf("seed %d: serial and parallel families differ", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
