package profam_test

import (
	"fmt"
	"testing"

	"profam"
	"profam/internal/mpi"
	"profam/internal/workload"
)

// TestThreadsPerRankDeterminism: the same set and config must yield a
// byte-identical sorted family list for ThreadsPerRank ∈ {1, 4}, on
// both the simulated and the concurrent transports. Intra-rank
// parallelism may only change execution time, never results.
func TestThreadsPerRankDeterminism(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 4, MeanFamilySize: 10, MeanLength: 100,
		Divergence: 0.08, ContainedFrac: 0.15, Singletons: 4, Seed: 777,
	})
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3,
		BatchPairs: 256, BatchTasks: 64}

	for _, sim := range []bool{false, true} {
		mode := "concurrent"
		if sim {
			mode = "simulated"
		}
		var want string
		for _, threads := range []int{1, 4} {
			c := cfg
			c.ThreadsPerRank = threads
			res, _, err := profam.RunSet(set, 2, sim, c)
			if err != nil {
				t.Fatalf("%s threads=%d: %v", mode, threads, err)
			}
			got := fmt.Sprint(res.Families)
			if threads == 1 {
				want = got
				if len(res.Families) == 0 {
					t.Fatalf("%s: no families detected; test set too weak", mode)
				}
				continue
			}
			if got != want {
				t.Errorf("%s: families differ between ThreadsPerRank=1 and =%d", mode, threads)
			}
		}
	}
}

// TestThreadsSerialRankMatchesSeed: the single-rank wall-clock path with
// intra-rank threading enabled must match the serial reference exactly,
// in its families and in the pairs each phase aligned, skipped by
// closure and the DP cells it spent.
func TestThreadsSerialRankMatchesSeed(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 3, MeanFamilySize: 9, MeanLength: 90,
		Divergence: 0.07, ContainedFrac: 0.2, Singletons: 3, Seed: 515,
	})
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3}
	cfg.ThreadsPerRank = 1
	want, _, err := profam.RunSet(set, 1, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ThreadsPerRank = 4
	got, _, err := profam.RunSet(set, 1, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Families) != fmt.Sprint(want.Families) {
		t.Error("single-rank run with 4 threads differs from 1 thread")
	}
	if got.NumNonRedundant != want.NumNonRedundant {
		t.Errorf("NR differs: %d vs %d", got.NumNonRedundant, want.NumNonRedundant)
	}
	for _, ph := range []struct {
		name      string
		got, want profam.PhaseStats
	}{{"RR", got.RR, want.RR}, {"CCD", got.CCD, want.CCD}} {
		g, w := ph.got, ph.want
		if g.PairsAligned != w.PairsAligned || g.PairsClosure != w.PairsClosure || g.Cells != w.Cells {
			t.Errorf("%s: 4 threads aligned %d, closure-skipped %d, %d cells; 1 thread %d, %d, %d",
				ph.name, g.PairsAligned, g.PairsClosure, g.Cells, w.PairsAligned, w.PairsClosure, w.Cells)
		}
	}
	if want.RR.PairsClosure == 0 || want.CCD.PairsClosure == 0 {
		t.Errorf("closure skipped %d RR and %d CCD pairs; the corpus must exercise both", want.RR.PairsClosure, want.CCD.PairsClosure)
	}
}

// TestThreadsTCPTransport runs the hybrid model over real sockets: 3
// ranks × 4 goroutines each. Under -race this is the required proof
// that intra-rank parallelism is clean on the TCP transport; the result
// must still match the serial reference.
func TestThreadsTCPTransport(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 4, MeanFamilySize: 10, MeanLength: 100,
		Divergence: 0.08, ContainedFrac: 0.15, Singletons: 4, Seed: 777,
	})
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3,
		ThreadsPerRank: 4}
	want, _, err := profam.RunSet(set, 1, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got *profam.Result
	err = mpi.RunTCP(3, 0, func(c *mpi.Comm) {
		res, err := profam.RunPipelineOn(c, set, cfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			got = res
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Families) != fmt.Sprint(want.Families) {
		t.Error("TCP hybrid run differs from serial reference")
	}
}

// TestThreadsVirtualSpeedup: under the simulated transport, explicit
// ThreadsPerRank must shrink the virtual makespan (the ceil(work/t)
// perfect-speedup model) while producing the identical family list.
func TestThreadsVirtualSpeedup(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 4, MeanFamilySize: 10, MeanLength: 100,
		Divergence: 0.08, ContainedFrac: 0.15, Singletons: 4, Seed: 999,
	})
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3,
		BatchPairs: 256, BatchTasks: 64}

	cfg.ThreadsPerRank = 1
	res1, span1, err := profam.RunSet(set, 2, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ThreadsPerRank = 4
	res4, span4, err := profam.RunSet(set, 2, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res1.Families) != fmt.Sprint(res4.Families) {
		t.Error("virtual hybrid run changed the family list")
	}
	if span4 >= span1 {
		t.Errorf("4 virtual threads did not beat 1: %.3fs vs %.3fs", span4, span1)
	}
	t.Logf("virtual makespan: threads=1 %.3fs, threads=4 %.3fs (%.2fx)", span1, span4, span1/span4)
}
