package pace

import (
	"fmt"
	"testing"

	"profam/internal/align"
	"profam/internal/pool"
	"profam/internal/seq"
	"profam/internal/unionfind"
	"profam/internal/workload"
)

// alignOneAtATime is the reference alignBatch must equal: take the next
// task, skip it if the state proves it closed, otherwise align it and
// merge a positive outcome before looking at the next task.
func alignOneAtATime(set *seq.Set, wl workerLogic, state masterLogic, tasks []PairItem) []AlignOutcome {
	al := align.NewAligner(align.DefaultScoring())
	out := make([]AlignOutcome, len(tasks))
	for i, t := range tasks {
		if state.closed(t) {
			out[i] = AlignOutcome{A: t.A, B: t.B, Skipped: true}
			continue
		}
		out[i] = wl.alignPair(al, set, t)
		if out[i].OK {
			state.merge(t.A, t.B)
		}
	}
	return out
}

// alignInBatches runs alignBatch over consecutive slices of batch tasks,
// as runSerial does with its BatchPairs rounds.
func alignInBatches(set *seq.Set, wl workerLogic, state masterLogic, tasks []PairItem, threads, batch int) []AlignOutcome {
	cache := pool.NewAlignerCache(align.DefaultScoring())
	var out []AlignOutcome
	for len(tasks) > 0 {
		b, _ := nextBatch(&tasks, batch)
		res, _, _ := alignBatch(cache, threads, set, wl, state, b, nil)
		out = append(out, res...)
	}
	return out
}

// requireSameOutcomes compares two outcome lists task by task and
// returns how many tasks the reference skipped.
func requireSameOutcomes(t *testing.T, got, want []AlignOutcome) (skipped int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d outcomes, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d: alignBatch %+v, reference %+v", i, got[i], want[i])
		}
		if want[i].Skipped {
			skipped++
		}
	}
	return skipped
}

// partition labels each of the n sequences by the smallest member of
// its set.
func partition(uf *unionfind.UF, n int) []int {
	label := make(map[int]int)
	out := make([]int, n)
	for i := range out {
		r := uf.Find(i)
		if _, ok := label[r]; !ok {
			label[r] = i
		}
		out[i] = label[r]
	}
	return out
}

// TestAlignBatchMatchesOneAtATime: over generated corpora, for the RR
// and CCD logic, at 1, 2 and 4 threads and with the list cut into small
// or whole batches, alignBatch must return the reference's outcome for
// every task (skip, verdict, cells, stage and counts) and leave the same
// redundancy mask or union–find partition behind.
func TestAlignBatchMatchesOneAtATime(t *testing.T) {
	corpora := []workload.Params{
		{Families: 4, MeanFamilySize: 12, MeanLength: 100, Divergence: 0.08,
			IndelRate: 0.004, Subfamilies: 2, ContainedFrac: 0.3, Singletons: 4, Seed: 5},
		{Families: 6, MeanFamilySize: 20, MeanLength: 32, Divergence: 0.004,
			IndelRate: 0.001, Subfamilies: 1, ContainedFrac: 0.5, UniformSizes: true,
			Singletons: 6, Seed: 1},
		{Families: 3, MeanFamilySize: 15, MeanLength: 150, Divergence: 0.1,
			Subfamilies: 2, ContainedFrac: 0.2, Singletons: 2, Seed: 31},
	}
	cfg := Config{Psi: 6}.withDefaults()
	rr := rrWorker{params: cfg.Contain}
	cc := ccWorker{params: cfg.Overlap}
	var skippedRR, skippedCC int
	for ci, params := range corpora {
		set, _ := workload.Generate(params)
		pairs := enumerateOn(t, 1, set, 0, cfg)

		refRR := &rrMaster{set: set, redundant: make([]bool, set.Len())}
		wantRR := alignOneAtATime(set, rr, refRR, pairs)
		var kept []PairItem
		for _, p := range pairs {
			if !refRR.redundant[p.A] && !refRR.redundant[p.B] {
				kept = append(kept, p)
			}
		}
		refCC := &ccMaster{uf: unionfind.New(set.Len())}
		wantCC := alignOneAtATime(set, cc, refCC, kept)

		for _, threads := range []int{1, 2, 4} {
			for _, batch := range []int{7, len(pairs)} {
				t.Run(fmt.Sprintf("corpus=%d/threads=%d/batch=%d", ci, threads, batch), func(t *testing.T) {
					gotRR := &rrMaster{set: set, redundant: make([]bool, set.Len())}
					skippedRR += requireSameOutcomes(t, alignInBatches(set, rr, gotRR, pairs, threads, batch), wantRR)
					if fmt.Sprint(gotRR.redundant) != fmt.Sprint(refRR.redundant) {
						t.Error("RR redundancy masks differ")
					}
					gotCC := &ccMaster{uf: unionfind.New(set.Len())}
					skippedCC += requireSameOutcomes(t, alignInBatches(set, cc, gotCC, kept, threads, batch), wantCC)
					if fmt.Sprint(partition(gotCC.uf, set.Len())) != fmt.Sprint(partition(refCC.uf, set.Len())) {
						t.Error("CCD partitions differ")
					}
				})
			}
		}
	}
	if skippedRR == 0 || skippedCC == 0 {
		t.Errorf("the reference skipped %d RR and %d CCD tasks; the corpora must exercise both closed tests", skippedRR, skippedCC)
	}
}
