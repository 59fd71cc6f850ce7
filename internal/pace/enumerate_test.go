package pace

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"profam/internal/mpi"
	"profam/internal/seq"
	"profam/internal/workload"
)

// enumerateOn runs Enumerate on p simulated ranks and returns every
// rank's list, concatenated in rank order.
func enumerateOn(t *testing.T, p int, set *seq.Set, newFrom int, cfg Config) []PairItem {
	t.Helper()
	lists := make([][]PairItem, p)
	_, err := mpi.RunSim(p, mpi.BlueGeneLike(), func(c *mpi.Comm) {
		pairs, err := Enumerate(c, set, newFrom, cfg, "rr")
		if err != nil {
			panic(err)
		}
		lists[c.Rank()] = pairs
	})
	if err != nil {
		t.Fatal(err)
	}
	return slices.Concat(lists...)
}

func sortedPairs(ps []PairItem) []PairItem {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b PairItem) int {
		return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B), cmp.Compare(a.Len, b.Len))
	})
	return out
}

// TestKeptFilterEqualsKeptSubsetEnumeration is the proof behind CCD
// replaying RR's pair list: whether two sequences are a promising pair,
// and the length of their longest maximal match, depend on those two
// sequences alone. So over random corpora × keep masks × newFrom, the
// pairs of Enumerate(set, newFrom) with both sides kept equal, as a
// multiset of (A, B, Len), the enumeration of the kept subset itself
// under the same newFrom cut, in original IDs. Checked at p = 1 and at
// p = 2, where the single worker owns every bucket; the filtered list
// stays longest-first.
func TestKeptFilterEqualsKeptSubsetEnumeration(t *testing.T) {
	cfg := Config{Psi: 6}
	total := 0
	check := func(seed int64, keepPct, newFromPct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		set, _ := workload.Generate(workload.Params{
			Families: 1 + rng.Intn(4), MeanFamilySize: 3 + rng.Intn(6),
			MeanLength: 40 + rng.Intn(80), Divergence: 0.05 + 0.15*rng.Float64(),
			ContainedFrac: 0.3, Singletons: rng.Intn(4), Seed: seed,
		})
		newFrom := int(newFromPct) * (set.Len() + 1) / 256
		keep := make([]bool, set.Len())
		var ids []int
		subNew := 0
		for i := range keep {
			if keep[i] = rng.Intn(256) <= int(keepPct); keep[i] {
				ids = append(ids, i)
				if i < newFrom {
					subNew++
				}
			}
		}
		sub, orig := set.Subset(ids)
		for _, p := range []int{1, 2} {
			var filtered []PairItem
			for _, pr := range enumerateOn(t, p, set, newFrom, cfg) {
				if keep[pr.A] && keep[pr.B] {
					filtered = append(filtered, pr)
				}
			}
			if !slices.IsSortedFunc(filtered, func(a, b PairItem) int { return cmp.Compare(b.Len, a.Len) }) {
				t.Errorf("seed %d, p=%d: filtered list is not longest-first", seed, p)
				return false
			}
			want := enumerateOn(t, p, sub, subNew, cfg)
			for i, pr := range want {
				want[i].A, want[i].B = int32(orig[pr.A]), int32(orig[pr.B])
			}
			if got, want := sortedPairs(filtered), sortedPairs(want); !slices.Equal(got, want) {
				t.Errorf("seed %d, p=%d, newFrom %d of %d: kept×kept filter has %d pairs, kept-subset enumeration %d",
					seed, p, newFrom, set.Len(), len(got), len(want))
				return false
			}
			total += len(filtered)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no corpus kept a promising pair; the check compared empty lists")
	}
	t.Logf("compared %d kept pairs", total)
}
