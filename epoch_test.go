package profam_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"profam"
	"profam/internal/align"
	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/report"
	"profam/internal/seq"
	"profam/internal/workload"
)

// setStrings flattens a workload set into the parallel name/residue
// slices RunEpoch takes.
func setStrings(set *seq.Set) (names, seqs []string) {
	for _, s := range set.Seqs {
		names = append(names, s.Name)
		seqs = append(seqs, string(s.Res))
	}
	return
}

// familiesText is the canonical byte-level rendering the determinism
// contract is stated over.
func familiesText(t *testing.T, set *seq.Set, res *profam.Result) string {
	t.Helper()
	var b strings.Builder
	if err := report.Families(&b, set, res); err != nil {
		t.Fatalf("render families: %v", err)
	}
	return b.String()
}

// splitWaves cuts the corpus into n contiguous ingest waves.
func splitWaves(names, seqs []string, n int) [][2][]string {
	per := (len(seqs) + n - 1) / n
	var waves [][2][]string
	for i := 0; i < len(seqs); i += per {
		end := min(i+per, len(seqs))
		waves = append(waves, [2][]string{names[i:end], seqs[i:end]})
	}
	return waves
}

// TestIncrementalMatchesCold is the determinism contract behind profamd:
// ingesting a corpus in waves of incremental epochs yields byte-identical
// families to one cold run over the union, across rank and thread counts
// and regardless of how many waves the corpus arrives in. The "chains"
// corpus plants containment chains a ⊂ b ⊂ c (a ⊄ c) that the waves cut
// in three ways, so a sequence's container arrives in a later epoch
// than it. Every epoch's B_d aligns only pairs with a member new to its
// component: the rest are decided by counts committed in earlier epochs
// or by this epoch's CCD.
func TestIncrementalMatchesCold(t *testing.T) {
	corpora := []struct {
		name   string
		p      workload.Params
		waves  int
		chains bool
	}{
		{"basic", workload.Params{
			Families: 4, MeanFamilySize: 10, MeanLength: 100,
			Divergence: 0.08, ContainedFrac: 0.15, Singletons: 4, Seed: 4242,
		}, 3, false},
		{"contained", workload.Params{
			Families: 3, MeanFamilySize: 8, MeanLength: 90,
			Divergence: 0.06, IndelRate: 0.004, ContainedFrac: 0.35, Singletons: 2, Seed: 99,
		}, 2, false},
		{"subfamilies", workload.Params{
			Families: 2, MeanFamilySize: 12, MeanLength: 110,
			Divergence: 0.09, Subfamilies: 2, ContainedFrac: 0.1, Singletons: 5, Seed: 7,
		}, 4, false},
		{"chains", workload.Params{
			Families: 3, MeanFamilySize: 8, MeanLength: 100,
			Divergence: 0.06, ContainedFrac: 0.3, Singletons: 2, Seed: 61,
		}, 2, true},
	}
	for _, tc := range corpora {
		set, _ := workload.Generate(tc.p)
		var chains []chainIDs
		if tc.chains {
			set, chains = withChains(t, set, rand.New(rand.NewSource(tc.p.Seed)))
		}
		names, seqs := setStrings(set)
		for _, p := range []int{1, 2} {
			for _, threads := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/p=%d/threads=%d", tc.name, p, threads), func(t *testing.T) {
					cfg := profam.Config{ThreadsPerRank: threads}

					cold, err := profam.RunParallel(p, names, seqs, cfg)
					if err != nil {
						t.Fatalf("cold run: %v", err)
					}
					want := familiesText(t, set, cold)
					requireChainsResolved(t, cold.Keep, chains)

					st := profam.NewEpochState()
					var res *profam.Result
					var prev [][]int
					for wi, w := range splitWaves(names, seqs, tc.waves) {
						res, st, err = profam.RunEpoch(context.Background(), st, w[0], w[1], p, cfg)
						if err != nil {
							t.Fatalf("wave %d: %v", wi, err)
						}
						requireOnlyNewPairsAligned(t, st.Set(), prev, res, 8)
						prev = res.Components
					}
					if st.NumSequences() != set.Len() {
						t.Fatalf("state holds %d sequences, want %d", st.NumSequences(), set.Len())
					}
					got := familiesText(t, st.Set(), res)
					if got != want {
						t.Errorf("incremental families differ from cold rebuild:\n--- cold ---\n%s--- incremental ---\n%s", want, got)
					}
					if fmt.Sprint(res.Keep) != fmt.Sprint(cold.Keep) {
						t.Error("incremental keep mask differs from cold rebuild")
					}
				})
			}
		}
	}
}

// fragmentsFirst orders a generated corpus for a demotion: every
// contained fragment first, then everything else. A first wave of nFrag
// sequences keeps the fragments (their containers are absent); a later
// wave introduces the containers, demoting the fragments.
func fragmentsFirst(t *testing.T, set *seq.Set, truth *workload.Truth) (names, seqs []string, nFrag int) {
	t.Helper()
	for _, red := range []bool{true, false} {
		for id := 0; id < set.Len(); id++ {
			if truth.Redundant[id] == red {
				names = append(names, set.Get(id).Name)
				seqs = append(seqs, string(set.Get(id).Res))
				if red {
					nFrag++
				}
			}
		}
	}
	if nFrag == 0 {
		t.Fatal("corpus generated no contained fragments")
	}
	return names, seqs, nFrag
}

// demotionSet is a corpus with many contained fragments.
func demotionSet() (*seq.Set, *workload.Truth) {
	return workload.Generate(workload.Params{
		Families: 3, MeanFamilySize: 8, MeanLength: 100,
		Divergence: 0.07, ContainedFrac: 0.4, Singletons: 2, Seed: 1234,
	})
}

// TestIncrementalDemotionFallback arrives fragments before the sequences
// that contain them: the containing full-length sequences land in a later
// wave and demote previously-kept fragments. The demoted fragments' table
// pairs go, so the stored positives left seed CCD and rank 0 replays the
// count-less table pairs they leave apart (its own list at p = 1, the
// master's ingest at p ≥ 2). The contract must hold regardless, at every
// rank and thread count, and committed pair counts stay valid across the
// demotion: they depend on residues alone.
func TestIncrementalDemotionFallback(t *testing.T) {
	set, truth := demotionSet()
	rn, rs, nFrag := fragmentsFirst(t, set, truth)

	cold, err := profam.Run(rn, rs, profam.Config{})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	coldSet := seq.NewSet()
	for i := range rn {
		coldSet.MustAdd(rn[i], rs[i])
	}
	want := familiesText(t, coldSet, cold)

	waves := [][2][]string{{rn[:nFrag], rs[:nFrag]}, {rn[nFrag:], rs[nFrag:]}}
	for _, p := range []int{1, 2, 3} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("p=%d/threads=%d", p, threads), func(t *testing.T) {
				cfg := profam.Config{ThreadsPerRank: threads}
				st := profam.NewEpochState()
				var res *profam.Result
				var demotions int64
				var prev [][]int
				for wi, w := range waves {
					res, st, err = profam.RunEpoch(context.Background(), st, w[0], w[1], p, cfg)
					if err != nil {
						t.Fatalf("wave %d: %v", wi, err)
					}
					demotions += metricValue(res.Metrics, "pipeline_epoch_demotions")
					requireOnlyNewPairsAligned(t, st.Set(), prev, res, 8)
					prev = res.Components
				}
				got := familiesText(t, st.Set(), res)
				if got != want {
					t.Errorf("incremental families differ from cold rebuild under demotion:\n--- cold ---\n%s--- incremental ---\n%s", want, got)
				}
				if demotions == 0 {
					t.Error("no demotion recorded in any wave; the fallback path was not exercised")
				}
			})
		}
	}
}

// TestEpochCCDAlignsOnlyOpenPairs bounds every epoch's CCD work on the
// random-arrival session, demotion epochs included: CCD aligns only
// pairs whose verdict the committed pair table does not hold, that is
// the kept–kept table pairs without counts and the kept–kept pairs with
// a new side. A pair the table holds counts for is decided by them.
func TestEpochCCDAlignsOnlyOpenPairs(t *testing.T) {
	waves := randomArrivalWaves()
	for _, p := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			st := profam.NewEpochState()
			var demotions int64
			for wi, w := range waves {
				prior := profam.PairTable(st)
				newFrom := st.NumSequences()
				res, next, err := profam.RunEpoch(context.Background(), st, w[0], w[1], p, profam.Config{})
				if err != nil {
					t.Fatalf("wave %d: %v", wi, err)
				}
				st = next
				demotions += metricValue(res.Metrics, "pipeline_epoch_demotions")
				var open int64
				for k, oc := range prior {
					if res.Keep[k[0]] && res.Keep[k[1]] && oc == (align.OverlapCounts{}) {
						open++
					}
				}
				var fresh []pace.PairItem
				if _, err := mpi.RunSim(1, mpi.BlueGeneLike(), func(c *mpi.Comm) {
					if fresh, err = pace.Enumerate(c, st.Set(), newFrom, pace.Config{Psi: 8}, "rr"); err != nil {
						panic(err)
					}
				}); err != nil {
					t.Fatal(err)
				}
				for _, pr := range fresh {
					if res.Keep[pr.A] && res.Keep[pr.B] {
						open++
					}
				}
				if res.CCD.PairsAligned > open {
					t.Errorf("wave %d: CCD aligned %d pairs, only %d lack a stored verdict", wi, res.CCD.PairsAligned, open)
				}
			}
			if demotions == 0 {
				t.Error("no wave demoted a sequence")
			}
		})
	}
}

// TestEpochFamilyCacheHits checks that a wave touching none of the
// existing components reuses their cached families rather than
// recomputing phases 3+4, and that the hits are counted once per job:
// every rank finds them, but p = 3 must report what p = 1 does.
func TestEpochFamilyCacheHits(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 4, MeanFamilySize: 10, MeanLength: 100,
		Divergence: 0.08, Singletons: 2, Seed: 31,
	})
	names, seqs := setStrings(set)
	hits := map[int]int64{}
	for _, p := range []int{1, 3} {
		_, st, err := profam.RunEpoch(context.Background(), nil, names, seqs, p, profam.Config{})
		if err != nil {
			t.Fatal(err)
		}
		// A second wave of unrelated singletons (random-ish distinct
		// residues) cannot join any existing component.
		res, _, err := profam.RunEpoch(context.Background(), st, nil, []string{
			"MKVLWAALLGAGARQWEDD", "GHIKNNPQRSTVWYACDEF", "WWYYAACCDDEEFFGGHHKK",
		}, p, profam.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cached := metricValue(res.Metrics, "pipeline_components_cached")
		if cached == 0 {
			t.Errorf("p=%d: second epoch recomputed every component; expected family-cache hits", p)
		}
		if cached > int64(len(res.Components)) {
			t.Errorf("p=%d: cache hits %d exceed component count %d", p, cached, len(res.Components))
		}
		hits[p] = cached
	}
	if hits[1] != hits[3] {
		t.Errorf("cache hits differ by rank count: p=1 %d, p=3 %d", hits[1], hits[3])
	}
}

// TestOneEnumerationPerRun: a cold run, an epoch without demotions and
// an epoch with them each build one pair index, RR's. CCD replays the
// kept pairs of RR's list, and in a demotion epoch also the committed
// table's open pairs, so no {phase=ccd} index series appears. The
// standalone CCD phase still enumerates its own kept subset.
func TestOneEnumerationPerRun(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 4, MeanFamilySize: 10, MeanLength: 100,
		Divergence: 0.08, Singletons: 2, Seed: 31,
	})
	oneIndex := func(run string, rep *metrics.Report) {
		t.Helper()
		if rep.Counters["pace_index_chars{phase=rr}"] <= 0 {
			t.Errorf("%s: no pace_index_chars{phase=rr}", run)
		}
		var series []string
		for k := range rep.Counters {
			series = append(series, k)
		}
		for k := range rep.Gauges {
			series = append(series, k)
		}
		for _, k := range series {
			if strings.HasPrefix(k, "pace_index_") && strings.Contains(k, "phase=ccd") {
				t.Errorf("%s: CCD built its own index (%s)", run, k)
			}
		}
	}
	cold, _, err := profam.RunSet(set, 2, true, profam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	oneIndex("cold RunSet", cold.Metrics)

	names, seqs := setStrings(set)
	_, st, err := profam.RunEpoch(context.Background(), nil, names, seqs, 2, profam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := profam.RunEpoch(context.Background(), st, nil, []string{"MKVLWAALLGAGARQWEDD", "GHIKNNPQRSTVWYACDEF"}, 2, profam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := metricValue(res.Metrics, "pipeline_epoch_demotions"); n != 0 {
		t.Fatalf("the second epoch demoted %d sequences; it was meant not to", n)
	}
	oneIndex("incremental RunEpoch", res.Metrics)

	dset, truth := demotionSet()
	dn, ds, nFrag := fragmentsFirst(t, dset, truth)
	_, st, err = profam.RunEpoch(context.Background(), nil, dn[:nFrag], ds[:nFrag], 2, profam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = profam.RunEpoch(context.Background(), st, dn[nFrag:], ds[nFrag:], 2, profam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := metricValue(res.Metrics, "pipeline_epoch_demotions"); n == 0 {
		t.Fatal("the fragments-first epoch demoted nothing; it was meant to")
	}
	oneIndex("demotion RunEpoch", res.Metrics)

	var chars int64
	_, err = mpi.RunSim(2, mpi.BlueGeneLike(), func(c *mpi.Comm) {
		reg := metrics.New(c.Rank(), c.Time)
		if _, _, err := pace.ConnectedComponents(c, set, nil, pace.Config{Metrics: reg}); err != nil {
			panic(err)
		}
		if c.Rank() == 1 {
			chars = reg.Counter("pace_index_chars{phase=ccd}").Value()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if chars <= 0 {
		t.Error("standalone ConnectedComponents reported no {phase=ccd} index")
	}
}

// metricValue reads a merged counter from the report (0 when absent).
func metricValue(rep *metrics.Report, name string) int64 {
	return rep.Counters[name]
}

// TestEpochAbort cancels the context before the run: the pipeline must
// return profam.ErrAborted wrapping the context's cause, as a
// *profam.RunError carrying its observability state, and leave the prior
// epoch state untouched.
func TestEpochAbort(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 2, MeanFamilySize: 6, MeanLength: 80, Seed: 5,
	})
	names, seqs := setStrings(set)
	_, st, err := profam.RunEpoch(context.Background(), nil, names[:4], seqs[:4], 1, profam.Config{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, next, err := profam.RunEpoch(ctx, st, names[4:], seqs[4:], 2, profam.Config{})
	if !errors.Is(err, profam.ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want profam.ErrAborted wrapping context.Canceled", err)
	}
	if res != nil {
		t.Error("aborted epoch returned a result")
	}
	if next != st {
		t.Error("aborted epoch did not return the prior state unchanged")
	}
	var re *profam.RunError
	if !errors.As(err, &re) || len(re.Snapshots) == 0 {
		t.Error("aborted epoch returned no failed-run metrics snapshots")
	}
}

// TestEpochConfigChange rejects extending committed state under a
// different family-affecting config.
func TestEpochConfigChange(t *testing.T) {
	_, st, err := profam.RunEpoch(context.Background(), nil, nil, []string{"MKVLWAALLGAGARQWEDD", "GHIKNNPQRSTVWYACDEF"}, 1, profam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, next, err := profam.RunEpoch(context.Background(), st, nil, []string{"WWYYAACCDDEEFFGGHHKK"}, 1, profam.Config{MinFamilySize: 3})
	if !errors.Is(err, profam.ErrConfigChanged) {
		t.Fatalf("err = %v, want profam.ErrConfigChanged", err)
	}
	if next != st {
		t.Error("rejected epoch did not return the prior state unchanged")
	}
}
