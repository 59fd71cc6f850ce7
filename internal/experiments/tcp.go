package experiments

import (
	"math/rand"

	"profam"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/seq"
)

// PipelineTCP runs the full pipeline on a 2-rank loopback TCP mesh — the
// genuine socket path, binary frames and gob envelope included. The
// caller picks a free port range.
func PipelineTCP(set *seq.Set, cfg profam.Config, basePort int) error {
	profam.RegisterWireTypes()
	return mpi.RunTCP(2, basePort, func(c *mpi.Comm) {
		if _, err := profam.RunPipelineOn(c, set, cfg); err != nil {
			panic(err)
		}
	})
}

// MasterRoundBatches builds deterministic, realistically-shaped
// worker batches (near-monotone pair ids, small offsets — the traffic
// the delta codec is tuned for) for the master-round kernel.
func MasterRoundBatches(n, batch int, seed int64) []pace.WorkerMsg {
	rng := rand.New(rand.NewSource(seed))
	out := make([]pace.WorkerMsg, n)
	for i := range out {
		var m pace.WorkerMsg
		a := int32(rng.Intn(50))
		for j := 0; j < batch; j++ {
			a += int32(rng.Intn(3))
			m.Pairs = append(m.Pairs, pace.PairItem{
				A: a, B: a + 1 + int32(rng.Intn(60)),
				OffA: int32(rng.Intn(300)), OffB: int32(rng.Intn(300)),
				Len: 8 + int32(rng.Intn(50)),
			})
			m.Results = append(m.Results, pace.AlignOutcome{
				A: a, B: a + 1 + int32(rng.Intn(60)),
				OK: rng.Intn(3) > 0, Stage: int8(1 + rng.Intn(3)),
				Cells: int64(rng.Intn(20000)), FullCells: int64(10000 + rng.Intn(90000)),
			})
		}
		out[i] = m
	}
	return out
}

// MasterRoundLatency measures the master–worker exchange in isolation:
// a 2-rank TCP mesh ping-pongs every batch as one WorkerMsg request and
// one MasterMsg reply, exactly the envelope and encode/decode path of a
// protocol round without any alignment work attached.
func MasterRoundLatency(batches []pace.WorkerMsg, basePort int) error {
	pace.RegisterWireTypes()
	return mpi.RunTCP(2, basePort, func(c *mpi.Comm) {
		if c.Rank() == 1 {
			for _, b := range batches {
				c.Send(0, 10, b)
				m := c.Recv(0, 11).Data.(pace.MasterMsg)
				if len(m.Tasks) != len(b.Pairs) {
					panic("master round echo mismatch")
				}
			}
			return
		}
		for range batches {
			m := c.Recv(1, 10).Data.(pace.WorkerMsg)
			c.Send(1, 11, pace.MasterMsg{Tasks: m.Pairs})
		}
	})
}
