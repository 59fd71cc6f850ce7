package pace

import (
	"math/rand"
	"reflect"
	"testing"

	"profam/internal/align"
	"profam/internal/mpi"
)

func randomWorkerMsg(rng *rand.Rand) WorkerMsg {
	var m WorkerMsg
	m.Exhausted = rng.Intn(2) == 0
	for i, n := 0, rng.Intn(40); i < n; i++ {
		m.Pairs = append(m.Pairs, PairItem{
			A: rng.Int31n(1 << 20), B: rng.Int31n(1 << 20),
			Len: rng.Int31n(512),
		})
	}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		if rng.Intn(4) == 0 { // a task the worker's replica skipped
			m.Results = append(m.Results, AlignOutcome{
				A: rng.Int31n(1 << 20), B: rng.Int31n(1 << 20), Skipped: true})
			continue
		}
		m.Results = append(m.Results, AlignOutcome{
			A: rng.Int31n(1 << 20), B: rng.Int31n(1 << 20),
			OK: rng.Intn(2) == 0, Stage: int8(rng.Intn(4)),
			Cells: rng.Int63n(1 << 30), FullCells: rng.Int63n(1 << 30),
		})
		if rng.Intn(2) == 0 { // a CCD outcome
			m.Results[len(m.Results)-1].Overlap = align.OverlapCounts{
				Positives: rng.Int31n(1 << 12), Cols: rng.Int31n(1 << 12),
				Span: rng.Int31n(1 << 12), LongLen: rng.Int31(),
			}
		}
	}
	return m
}

func randomMasterMsg(rng *rand.Rand) MasterMsg {
	m := MasterMsg{Tasks: randomWorkerMsg(rng).Pairs, Done: rng.Intn(2) == 0}
	for i, n := 0, rng.Intn(20); i < n; i++ {
		m.Merges = append(m.Merges, Merge{A: rng.Int31n(1 << 20), B: rng.Int31n(1 << 20)})
	}
	return m
}

// TestWireRoundTrip: the round messages cross real sockets
// as gob values, registered by the package itself, so with no call from
// the test every WorkerMsg and MasterMsg arrives equal to what was sent:
// skipped outcomes, CCD counts, nil slices and Done-only replies alike.
func TestWireRoundTrip(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(42))
	workers := []WorkerMsg{{}, {Exhausted: true}}
	masters := []MasterMsg{{}, {Done: true}}
	for len(workers) < n {
		workers = append(workers, randomWorkerMsg(rng))
		masters = append(masters, randomMasterMsg(rng))
	}

	toMaster, toWorker := roundTags("rr")
	var gotW []WorkerMsg
	var gotM []MasterMsg
	err := mpi.RunTCP(2, 0, func(c *mpi.Comm) {
		if c.Rank() == 1 {
			for _, w := range workers {
				c.Send(0, toMaster, w)
			}
			for range masters {
				gotM = append(gotM, c.Recv(0, toWorker).Data.(MasterMsg))
			}
			return
		}
		for _, m := range masters {
			c.Send(1, toWorker, m)
		}
		for range workers {
			gotW = append(gotW, c.Recv(1, toMaster).Data.(WorkerMsg))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range workers {
		if !reflect.DeepEqual(gotW[i], workers[i]) {
			t.Fatalf("WorkerMsg %d changed in transit:\nsent: %+v\ngot:  %+v", i, workers[i], gotW[i])
		}
		if !reflect.DeepEqual(gotM[i], masters[i]) {
			t.Fatalf("MasterMsg %d changed in transit:\nsent: %+v\ngot:  %+v", i, masters[i], gotM[i])
		}
	}
}
