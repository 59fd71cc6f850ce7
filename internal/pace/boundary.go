package pace

import (
	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/pool"
	"profam/internal/seq"
)

// Masterless batch alignment for the cross-shard boundary passes: each
// rank aligns a statically assigned task list on its goroutine pool, with
// no pair exchange and no closure filtering — the caller pre-filters and
// merges verdicts itself. Outcomes land at the same index as their task,
// so results are identical for every thread count, and the DP work is
// charged to the rank's virtual clock exactly like a worker batch.

// AlignContainPairs runs the redundancy-removal predicate (Definition 1,
// seed-anchored cascade unless cfg.ExactAlign) over tasks on the calling
// rank. Outcome i corresponds to tasks[i]; Which identifies the
// contained side as in the master–worker phase.
func AlignContainPairs(c *mpi.Comm, set *seq.Set, tasks []PairItem, cfg Config, phase string) []AlignOutcome {
	cfg = cfg.withDefaults()
	return alignAssigned(c, set, rrWorker{params: cfg.Contain, exact: cfg.ExactAlign}, tasks, cfg, phase)
}

// AlignOverlapPairs runs the component-overlap predicate (Definition 2)
// over tasks on the calling rank; OK outcomes are union edges.
func AlignOverlapPairs(c *mpi.Comm, set *seq.Set, tasks []PairItem, cfg Config, phase string) []AlignOutcome {
	cfg = cfg.withDefaults()
	return alignAssigned(c, set, ccWorker{params: cfg.Overlap, exact: cfg.ExactAlign}, tasks, cfg, phase)
}

func alignAssigned(c *mpi.Comm, set *seq.Set, wl workerLogic, tasks []PairItem, cfg Config, phase string) []AlignOutcome {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New(c.Rank(), c.Time)
	}
	if len(tasks) == 0 {
		return nil
	}
	threads := max(1, cfg.Threads)
	obs := poolObserver(cfg.Metrics, phase, "align")
	out, cells := alignBatch(pool.NewAlignerCache(cfg.Scoring), threads, set, wl, tasks, nil, obs)
	c.Advance(float64(pool.CeilDiv(cells, threads)) * cfg.Costs.SecPerCell)
	l := func(n string) string { return metrics.Name(n, "phase", phase) }
	cfg.Metrics.Counter(l("pace_pairs_aligned")).Add(int64(len(out)))
	cfg.Metrics.Counter(l("pace_align_cells")).Add(cells)
	var pos int64
	for i := range out {
		if out[i].OK {
			pos++
		}
	}
	cfg.Metrics.Counter(l("pace_pairs_positive")).Add(pos)
	return out
}
