package profam_test

import (
	"errors"
	"fmt"
	"testing"

	"profam"
	"profam/internal/metrics"
	"profam/internal/seq"
	"profam/internal/workload"
)

// TestSparseBackendMatchesGST is the backend determinism contract: the
// sparse-matrix pair backend must produce byte-identical families, keep
// masks and components to the GST and ESA backends on the integration
// corpus, across rank and thread counts. The candidate pair *sets* are
// identical across backends and every downstream result is an
// order-invariant closure of per-pair verdicts, so nothing may differ.
func TestSparseBackendMatchesGST(t *testing.T) {
	set, _ := integrationSet()
	base := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3}
	ref, _, err := profam.RunSet(set, 1, true, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("ranks=%d/threads=%d", p, threads), func(t *testing.T) {
				results := map[profam.PairBackend]*profam.Result{}
				for _, b := range []profam.PairBackend{profam.PairsGST, profam.PairsESA, profam.PairsSparse} {
					cfg := base
					cfg.Pairs = b
					cfg.ThreadsPerRank = threads
					res, _, err := profam.RunSet(set, p, true, cfg)
					if err != nil {
						t.Fatalf("%s: %v", b, err)
					}
					results[b] = res
					if fmt.Sprint(res.Families) != fmt.Sprint(ref.Families) {
						t.Fatalf("%s backend changed the families", b)
					}
					if fmt.Sprint(res.Keep) != fmt.Sprint(ref.Keep) {
						t.Fatalf("%s backend changed the keep mask", b)
					}
					if fmt.Sprint(res.Components) != fmt.Sprint(ref.Components) {
						t.Fatalf("%s backend changed the components", b)
					}
				}
				// The sparse run must export its per-backend index
				// footprint and the phase-boundary heap probe.
				sp := results[profam.PairsSparse].Metrics
				if sp.GaugeValue("pace_index_bytes{backend=sparse,phase=rr}") <= 0 {
					t.Error("sparse run exported no pace_index_bytes for rr")
				}
				if sp.CounterValue("pace_pairs_raw{backend=sparse,phase=rr}") <= 0 {
					t.Error("sparse run exported no backend-labeled raw pair counter")
				}
				if sp.GaugeValue(metrics.HeapPeakGauge) <= 0 {
					t.Error("no pipeline_heap_peak_bytes probe recorded")
				}
				if sp.Canonical().GaugeValue(metrics.HeapPeakGauge) != 0 {
					t.Error("canonical report kept the machine-derived heap gauge")
				}
			})
		}
	}
}

// TestBackendEquivalenceProperty sweeps planted and datagen-style
// corpora × backends × p∈{1,2} × threads∈{1,4}, asserting byte-identical
// families and keep masks against the GST reference on each corpus.
func TestBackendEquivalenceProperty(t *testing.T) {
	corpora := []struct {
		name string
		set  *seq.Set
	}{
		{"planted", plantedSet(t)},
		{"datagen", func() *seq.Set {
			// The ci.sh e2e corpus parameters.
			s, _ := workload.Generate(workload.Params{
				Families: 6, MeanFamilySize: 10, MeanLength: 110,
				ContainedFrac: 0.2, Singletons: 4, Seed: 7,
			})
			return s
		}()},
	}
	base := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3}
	for _, corpus := range corpora {
		ref, _, err := profam.RunSet(corpus.set, 1, true, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []profam.PairBackend{profam.PairsESA, profam.PairsSparse} {
			for _, p := range []int{1, 2} {
				for _, threads := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/ranks=%d/threads=%d", corpus.name, b, p, threads), func(t *testing.T) {
						cfg := base
						cfg.Pairs = b
						cfg.ThreadsPerRank = threads
						res, _, err := profam.RunSet(corpus.set, p, true, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if fmt.Sprint(res.Families) != fmt.Sprint(ref.Families) {
							t.Fatal("families differ from the GST reference")
						}
						if fmt.Sprint(res.Keep) != fmt.Sprint(ref.Keep) {
							t.Fatal("keep mask differs from the GST reference")
						}
					})
				}
			}
		}
	}
}

// plantedSet hand-plants two families of near-duplicates plus contained
// fragments and noise — deliberately unlike the workload generator's
// statistics, so the property test covers a second corpus shape.
func plantedSet(t *testing.T) *seq.Set {
	t.Helper()
	set := seq.NewSet()
	famA := "MKVLWAALLVTFLAGCQAKVEQAVETEPEPELRQQTEWQSGQRWELALGRFWDYLRWVQT"
	famB := "GHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWYACDEF"
	mutate := func(s string, at int, r byte) string {
		b := []byte(s)
		b[at%len(b)] = r
		return string(b)
	}
	for i := 0; i < 8; i++ {
		set.MustAdd("", mutate(famA, 3+5*i, "ACDEFGHK"[i]))
		set.MustAdd("", mutate(famB, 7+4*i, "LMNPQRST"[i]))
	}
	// Contained fragments of family A members (RR fodder).
	set.MustAdd("", famA[5:45])
	set.MustAdd("", famA[10:58])
	// Unrelated singletons.
	set.MustAdd("", "WWYYAACCDDEEFFGGHHKKWWYYAACCDDEE")
	set.MustAdd("", "PPQQRRSSTTVVWWYYPPQQRRSSTTVVWWYY")
	return set
}

// TestEpochBackendDriftRejected: an incremental epoch may not switch
// pair backends mid-service — the fingerprint guard must reject it.
func TestEpochBackendDriftRejected(t *testing.T) {
	set := plantedSet(t)
	var names, seqs []string
	for _, s := range set.Seqs {
		names = append(names, s.Name)
		seqs = append(seqs, string(s.Res))
	}
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3, Pairs: profam.PairsSparse}
	_, st, err := profam.RunEpoch(nil, names[:10], seqs[:10], 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drift := cfg
	drift.Pairs = profam.PairsGST
	_, _, err = profam.RunEpoch(st, names[10:], seqs[10:], 1, drift)
	if !errors.Is(err, profam.ErrConfigChanged) {
		t.Fatalf("backend drift accepted: err=%v", err)
	}
	// Staying on the same backend must still commit.
	if _, _, err := profam.RunEpoch(st, names[10:], seqs[10:], 1, cfg); err != nil {
		t.Fatal(err)
	}
}
