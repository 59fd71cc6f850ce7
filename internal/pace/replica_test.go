package pace

import (
	"fmt"
	"slices"
	"testing"

	"profam/internal/mpi"
	"profam/internal/unionfind"
)

// stragglerModel is a commodity-cluster cost model (20 µs message
// overheads, 100 µs latency, 100 MB/s links) with every link touching
// rank p-1 slowed to 10 ms, so that worker's requests and replies arrive
// late and the others' merges pile up in its merge log.
func stragglerModel(p int) mpi.CostModel {
	return mpi.CostModel{
		SendOverhead: 2e-5,
		RecvOverhead: 2e-5,
		SecPerByte:   1.0 / 100e6,
		RankLatency: func(from, to int) float64 {
			if from == p-1 || to == p-1 {
				return 1e-2
			}
			return 1e-4
		},
	}
}

// TestReplicasEndPhaseExact: no collective ends RR or CCD, so every rank
// reads the keep mask and the components off its own replica. Each
// rank's RR marks and CCD partition must therefore equal rank 0's when
// the phase returns, whatever the batch size and link timing.
func TestReplicasEndPhaseExact(t *testing.T) {
	set, _ := famSet(t)
	models := []struct {
		name string
		cm   func(p int) mpi.CostModel
	}{
		{"bluegene", func(int) mpi.CostModel { return mpi.BlueGeneLike() }},
		{"straggler", stragglerModel},
	}
	for _, p := range []int{3, 5} {
		for _, batch := range []int{4, 16, 512} {
			for _, m := range models {
				name := fmt.Sprintf("p=%d/tasks=%d/%s", p, batch, m.name)
				marks := make([][]bool, p)
				parts := make([][]int, p)
				_, err := mpi.RunSim(p, m.cm(p), func(c *mpi.Comm) {
					cfg := Config{Psi: 6, BatchTasks: batch}.withDefaults()
					pairs, err := Enumerate(c, set, 0, cfg, "rr")
					if err != nil {
						panic(err)
					}
					rr := &rrMaster{set: set, redundant: make([]bool, set.Len())}
					runPhase(c, set, pairs, rr, rrWorker{params: cfg.Contain}, cfg, "rr")
					marks[c.Rank()] = rr.redundant
					var kept []PairItem
					for _, q := range pairs {
						if !rr.redundant[q.A] && !rr.redundant[q.B] {
							kept = append(kept, q)
						}
					}
					cc := &ccMaster{uf: unionfind.New(set.Len())}
					runPhase(c, set, kept, cc, ccWorker{params: cfg.Overlap}, cfg, "ccd")
					parts[c.Rank()] = partition(cc.uf, set.Len())
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for r := 1; r < p; r++ {
					if !slices.Equal(marks[r], marks[0]) {
						t.Errorf("%s: rank %d ends RR with other marks than rank 0", name, r)
					}
					if !slices.Equal(parts[r], parts[0]) {
						t.Errorf("%s: rank %d ends CCD with another partition than rank 0", name, r)
					}
				}
			}
		}
	}
}
