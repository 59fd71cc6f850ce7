package profam_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"profam"
	"profam/internal/mpi"
	"profam/internal/seq"
	"profam/internal/workload"
)

// overlapCorpus is sized so the RR and CCD master–worker phases carry
// enough batches for arrival interleaving to genuinely vary with link
// timing, and fixed-seed so the simulated runs are exactly reproducible.
func overlapCorpus() *seq.Set {
	set, _ := workload.Generate(workload.Params{
		Families: 5, MeanFamilySize: 25, MeanLength: 110,
		Divergence: 0.09, IndelRate: 0.004, Subfamilies: 2,
		ContainedFrac: 0.2, Singletons: 5, Seed: 2024,
	})
	return set
}

// clusterLike is a commodity-cluster cost model (tens-of-µs message
// overheads, 100 µs latency, ~100 MB/s links): the communication-
// dominated regime where the master's service order actually depends on
// link timing. The BlueGene-like torus of the scaling figures has such
// cheap messaging that arrivals barely reorder at simulable rank counts.
func clusterLike() mpi.CostModel {
	return mpi.CostModel{
		SendOverhead: 2e-5,
		RecvOverhead: 2e-5,
		Latency:      1e-4,
		SecPerByte:   1.0 / 100e6,
	}
}

// stragglerLink is clusterLike with every link touching rank p-1 slowed
// to a 10 ms latency — one distant or congested node.
func stragglerLink(p int) mpi.CostModel {
	cm := clusterLike()
	base := cm.Latency
	slow := p - 1
	cm.Latency = 0
	cm.RankLatency = func(from, to int) float64 {
		if from == slow || to == slow {
			return 1e-2
		}
		return base
	}
	return cm
}

// TestFamiliesArrivalOrderInvariant: the arrival-order master serves
// requests in whatever order the network delivers them, so the proof
// obligation is that the *results* cannot depend on that order. Skewing
// per-link latencies permutes arrivals; across all permutations, rank
// counts and thread counts the surviving sequences, components and
// families must equal the p=1 serial reference, which has no arrival
// order at all: one rank consumes pairs in decreasing match-length order
// and absorbs each outcome before popping the next task.
func TestFamiliesArrivalOrderInvariant(t *testing.T) {
	set := overlapCorpus()
	base := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3,
		BatchPairs: 256, BatchTasks: 64}

	run := func(p, threads int, cm mpi.CostModel) *profam.Result {
		t.Helper()
		cfg := base
		cfg.ThreadsPerRank = threads
		cfg.TraceCapacity = 1 << 16
		var res *profam.Result
		_, err := mpi.RunSim(p, cm, func(c *mpi.Comm) {
			r, e := profam.RunPipelineOn(c, set, cfg)
			if e != nil {
				panic(e)
			}
			if c.Rank() == 0 {
				res = r
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Three deliberately different delivery-order regimes: uniform
	// links, a straggler, and a per-link skew that scrambles arrival
	// interleaving across the whole mesh.
	models := func(p int) []mpi.CostModel {
		uniform := clusterLike()
		skew := clusterLike()
		baseLat := skew.Latency
		skew.Latency = 0
		skew.RankLatency = func(from, to int) float64 {
			return baseLat * float64(1+(3*from+5*to)%7)
		}
		return []mpi.CostModel{uniform, stragglerLink(p), skew}
	}

	ref := run(1, 1, clusterLike())
	for _, p := range []int{1, 2, 4} {
		// At p=2 the single worker's FIFO pins the service order, so the
		// canonical metrics and trace must also be timing-invariant: identical across every latency permutation
		// and thread count. (At p>2 the service order — and with it the
		// filter-effectiveness counters — legitimately depends on
		// arrival interleaving; only the results are invariant there.)
		var canonMetrics, canonTrace string
		for _, threads := range []int{1, 4} {
			for mi, cm := range models(p) {
				got := run(p, threads, cm)
				tag := fmt.Sprintf("p=%d threads=%d model=%d", p, threads, mi)
				if fmt.Sprint(got.Keep) != fmt.Sprint(ref.Keep) {
					t.Errorf("%s: keep mask differs from the serial reference", tag)
				}
				if fmt.Sprint(got.Components) != fmt.Sprint(ref.Components) {
					t.Errorf("%s: components differ from the serial reference", tag)
				}
				if fmt.Sprint(got.Families) != fmt.Sprint(ref.Families) {
					t.Errorf("%s: families differ from the serial reference", tag)
				}
				if p != 2 {
					continue
				}
				var mbuf bytes.Buffer
				if err := got.Metrics.Canonical().WriteJSON(&mbuf); err != nil {
					t.Fatal(err)
				}
				tbuf, err := json.Marshal(got.Trace.Canonical())
				if err != nil {
					t.Fatal(err)
				}
				if canonMetrics == "" {
					canonMetrics, canonTrace = mbuf.String(), string(tbuf)
					continue
				}
				if mbuf.String() != canonMetrics {
					t.Errorf("%s: canonical metrics differ across timing permutations", tag)
				}
				if string(tbuf) != canonTrace {
					t.Errorf("%s: canonical trace differs across timing permutations", tag)
				}
			}
		}
	}
}
