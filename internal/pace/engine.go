package pace

import (
	"container/heap"
	"sort"

	"profam/internal/align"
	"profam/internal/esa"
	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/pool"
	"profam/internal/seq"
	"profam/internal/suffixtree"
	"profam/internal/trace"
	"profam/internal/unionfind"
)

// phaseCounters are the registry handles behind one phase's Stats — the
// registry is the single accumulation path; Stats is a read-out of these
// counters at phase end. All handles are labeled with the phase name
// ("rr" or "ccd") so both phases coexist in one registry. A registry
// serves at most one call of a phase (the pipeline builds one per run, a
// nil Config.Metrics gets a private one), so what the counters hold at
// phase end is the phase's Stats.
type phaseCounters struct {
	generated, duplicate    *metrics.Counter
	closure, aligned        *metrics.Counter
	workerSkipped           *metrics.Counter // the part of closure a worker's replica closed after dispatch
	positive, cells, rounds *metrics.Counter
	batchTasks              *metrics.Histogram // alignment tasks per master→worker batch
	batchPairs              *metrics.Histogram // promising pairs per worker→master batch
	queueDepth              *metrics.Gauge     // high-water mark of the master's pending heap
	quota                   *metrics.Gauge     // high-water adaptive per-worker task quota
	// cascadeStage[s] counts RR pairs decided by containment-cascade
	// stage s (prefilter/banded/full); cascadeFullCells accumulates what
	// those pairs would have cost under the exact full-matrix predicate,
	// so cells-eliminated = cascadeFullCells − pace_align_cells. The
	// series only appear with the cascade enabled (created lazily on
	// first staged outcome), so CCD and an exact RR run never grow them.
	cascadeStage     map[align.Stage]*metrics.Counter
	cascadeFullCells *metrics.Counter
	reg              *metrics.Registry
	phase            string
}

func newPhaseCounters(reg *metrics.Registry, phase string) phaseCounters {
	l := func(n string) string { return metrics.Name(n, "phase", phase) }
	pc := phaseCounters{
		generated:     reg.Counter(l("pace_pairs_generated")),
		duplicate:     reg.Counter(l("pace_pairs_duplicate")),
		closure:       reg.Counter(l("pace_pairs_closure")),
		workerSkipped: reg.Counter(l("pace_pairs_worker_skipped")),
		aligned:       reg.Counter(l("pace_pairs_aligned")),
		positive:      reg.Counter(l("pace_pairs_positive")),
		cells:         reg.Counter(l("pace_align_cells")),
		rounds:        reg.Counter(l("pace_rounds")),
		batchTasks:    reg.Histogram(l("pace_batch_tasks")),
		batchPairs:    reg.Histogram(l("pace_batch_pairs")),
		queueDepth:    reg.Gauge(l("pace_queue_depth")),
		quota:         reg.Gauge(l("pace_batch_quota")),
		cascadeStage:  make(map[align.Stage]*metrics.Counter),
		reg:           reg,
		phase:         phase,
	}
	return pc
}

// countStage records one cascade-decided pair.
func (pc *phaseCounters) countStage(stage align.Stage, fullCells int64) {
	c := pc.cascadeStage[stage]
	if c == nil {
		c = pc.reg.Counter(metrics.Name("pace_cascade_pairs",
			"phase", pc.phase, "stage", stage.String()))
		pc.cascadeStage[stage] = c
	}
	c.Inc()
	if pc.cascadeFullCells == nil {
		pc.cascadeFullCells = pc.reg.Counter(metrics.Name("pace_cascade_cells_full", "phase", pc.phase))
	}
	pc.cascadeFullCells.Add(fullCells)
}

// tally counts one alignment outcome and hands an aligned one to the
// state's record. A skipped task, one a replica proved closed, counts as
// closure-eliminated. Merging is left to the caller: the master merges
// what its workers found, while on a single rank alignBatch has already
// merged into the state it aligned against.
func (pc *phaseCounters) tally(ml masterLogic, r AlignOutcome) {
	if r.Skipped {
		pc.closure.Inc()
		return
	}
	pc.aligned.Inc()
	pc.cells.Add(r.Cells)
	if r.Stage != 0 {
		pc.countStage(align.Stage(r.Stage), r.FullCells)
	}
	if r.OK {
		pc.positive.Inc()
	}
	ml.record(r)
}

// stats reads the phase's Stats out of its counters.
func (pc phaseCounters) stats() Stats {
	return Stats{
		PairsGenerated: pc.generated.Value(),
		PairsDuplicate: pc.duplicate.Value(),
		PairsClosure:   pc.closure.Value(),
		PairsAligned:   pc.aligned.Value(),
		PairsPositive:  pc.positive.Value(),
		Cells:          pc.cells.Value(),
		Rounds:         pc.rounds.Value(),
	}
}

// poolObserver records a pool run's queue depth into a site-labeled
// histogram and high-water gauge. The thread bound is deliberately not
// recorded: it is configuration, and keeping it out preserves metric
// determinism across thread counts.
func poolObserver(reg *metrics.Registry, phase, site string) pool.Observer {
	if reg == nil {
		return nil
	}
	h := reg.Histogram(metrics.Name("pool_queue_depth", "phase", phase, "site", site))
	return func(queued, threads int) { h.Observe(int64(queued)) }
}

// nextBatch splits the next batch of at most k pairs off the front of
// *pairs and reports whether the list is now exhausted, so the last batch
// carries the exhaustion notice itself.
func nextBatch(pairs *[]PairItem, k int) ([]PairItem, bool) {
	n := min(k, len(*pairs))
	batch := (*pairs)[:n:n]
	*pairs = (*pairs)[n:]
	return batch, len(*pairs) == 0
}

// buildTrees constructs the per-bucket indexes owned by this rank,
// charging construction work to the virtual clock. Buckets are
// independent, so they build on the rank's goroutine pool; the result
// slice is indexed by bucket position, keeping the tree order — and
// therefore the pair list — identical for every thread count.
// pace_index_bytes is the subtrees' summed footprint, which lives until
// their pairs are listed.
func buildTrees(c *mpi.Comm, set *seq.Set, bucketIdx []int, buckets []suffixtree.Bucket, cfg Config, phase string) ([]*suffixtree.SubTree, error) {
	sp := cfg.Metrics.StartSpan(phase + "/index")
	defer sp.End()
	opt := suffixtree.Options{MinMatch: cfg.Psi}
	threads := max(1, cfg.Threads)
	trees := make([]*suffixtree.SubTree, len(bucketIdx))
	errs := make([]error, len(bucketIdx))
	pool.RunObserved(threads, len(bucketIdx), poolObserver(cfg.Metrics, phase, "index"), func(i int) {
		trees[i], errs[i] = esa.BuildBucket(set, buckets[bucketIdx[i]], opt)
	})
	var weight, indexBytes int64
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		weight += buckets[bucketIdx[i]].Weight
		indexBytes += trees[i].Stats().ApproxBytes
	}
	c.Advance(float64(pool.CeilDiv(weight, threads)) * DefaultCostParams().SecPerTreeChar)
	cfg.Metrics.Counter(metrics.Name("pace_index_chars", "phase", phase)).Add(weight)
	cfg.Metrics.Gauge(metrics.Name("pace_index_bytes", "phase", phase)).SetMax(float64(indexBytes))
	return trees, nil
}

// masterState is the p ≥ 2 master's round bookkeeping. All of its
// counting goes straight to the metrics registry through ctr; the Stats
// a phase returns are read back out of the registry when it ends.
type masterState struct {
	pending taskHeap
	// seen maps every pair ingested so far to the longest match length
	// any rank shipped it with.
	seen   map[int64]int32
	seqno  int64
	merges int64 // positive outcomes absorbed (union-find merges / redundancy marks)
	// mergeLog lists, in absorb order, every worker outcome that changed
	// the master state, tagged with the worker that produced it; each
	// worker's replica is sent the entries of the others.
	mergeLog []loggedMerge
	ctr      phaseCounters
	logic    masterLogic
	cfg      Config
}

type loggedMerge struct {
	Merge
	from int
}

func newMasterState(logic masterLogic, cfg Config, phase string) *masterState {
	return &masterState{
		pending: taskHeap{fifo: cfg.RandomPairOrder},
		seen:    make(map[int64]int32),
		ctr:     newPhaseCounters(cfg.Metrics, phase),
		logic:   logic,
		cfg:     cfg,
	}
}

// ingestPairs filters a batch of incoming promising pairs into the
// pending queue. Returns the number of filter operations performed.
func (ms *masterState) ingestPairs(pairs []PairItem) int {
	for _, pr := range pairs {
		key := pairKey(pr.A, pr.B)
		if l, dup := ms.seen[key]; dup {
			ms.seen[key] = max(l, pr.Len)
			ms.ctr.duplicate.Inc()
			continue
		}
		ms.seen[key] = pr.Len
		if ms.logic.closed(pr) {
			ms.ctr.closure.Inc()
			continue
		}
		ms.seqno++
		heap.Push(&ms.pending, taskEntry{PairItem: pr, seq: ms.seqno})
	}
	ms.ctr.queueDepth.SetMax(float64(ms.pending.Len()))
	return len(pairs)
}

// absorbResults integrates the alignment outcomes of worker rank from.
// A skipped task was closed by the worker's replica: it leaves no trace
// in the state, since the merge that closed it was absorbed before.
func (ms *masterState) absorbResults(results []AlignOutcome, from int) {
	for _, r := range results {
		ms.ctr.tally(ms.logic, r)
		if r.Skipped {
			ms.ctr.workerSkipped.Inc()
			continue
		}
		if r.OK {
			ms.merges++
			if ms.logic.merge(r.A, r.B) {
				ms.mergeLog = append(ms.mergeLog, loggedMerge{Merge{r.A, r.B}, from})
			}
		}
	}
}

// popTasks extracts up to k still-relevant tasks, re-filtering against
// the current clustering state (clusters may have merged since enqueue).
func (ms *masterState) popTasks(k int) []PairItem {
	var tasks []PairItem
	for len(tasks) < k && ms.pending.Len() > 0 {
		e := heap.Pop(&ms.pending).(taskEntry)
		if ms.logic.closed(e.PairItem) {
			ms.ctr.closure.Inc()
			continue
		}
		tasks = append(tasks, e.PairItem)
	}
	return tasks
}

// workerState is the master's per-worker protocol bookkeeping.
type workerState struct {
	exhausted   bool // the worker has shipped its last pair
	outstanding int  // tasks dispatched whose outcomes have not come back
	owed        int  // requests received and not yet answered (parked)
	quota       int  // adaptive task quota: slow-start, doubles per productive dispatch
	expect      int  // requests this worker will send in total (grows per non-Done reply)
	received    int  // requests received so far
	logged      int  // merge-log entries already considered for this worker
}

// mergesFor returns the merge-log entries other workers produced since
// the master's previous reply to worker w, and advances w's cursor.
func (ms *masterState) mergesFor(w int, s *workerState) []Merge {
	var out []Merge
	for _, e := range ms.mergeLog[s.logged:] {
		if e.from != w {
			out = append(out, e.Merge)
		}
	}
	s.logged = len(ms.mergeLog)
	return out
}

// runMaster drives the event-driven master loop on rank 0: it serves
// worker messages strictly in arrival order (RecvAny) and answers each
// request individually, so a fast worker is never stalled behind a slow
// one.
//
// Protocol: each worker keeps prefetchDepth requests in flight; every
// non-Done reply provokes exactly one further request (carrying the
// next pair batch and the outcomes of the batch the worker just
// finished), which is the accounting behind expect/received — the
// master knows precisely how many requests remain, so the phase
// terminates with zero messages left in flight.
//
// Every reply carries the worker's merge log (mergesFor), so each
// worker's replica of the clustering state lags the master by at most
// the outcomes still in flight, and the first Done reply brings it level:
// nothing is absorbed once the phase is done.
//
// A request is answered immediately unless the worker is a pure task
// sink with an empty queue (exhausted, nothing to dispatch): answering
// it with an empty batch would spin an idle request/reply loop, so it
// parks until new tasks arrive or the phase completes. Parking a worker
// with outstanding tasks is safe: each of the replies it already holds
// provokes one results-bearing request, so the outcomes the termination
// condition waits for arrive without any further prompting.
func runMaster(c *mpi.Comm, ms *masterState) {
	p := c.Size()
	tr := ms.cfg.Trace
	phase := ms.ctr.phase
	toMaster, toWorker := roundTags(phase)
	// With prefetchDepth requests in flight per worker, a per-dispatch
	// quota of BatchTasks/prefetchDepth keeps each worker's window of
	// dispatched tasks at BatchTasks. The worker's replica re-filters
	// that window, so the quota no longer decides how many pairs one
	// worker aligns; it bounds how many outcomes of *other* workers a
	// replica can be missing.
	maxQuota := max(1, ms.cfg.BatchTasks/prefetchDepth)
	initialQuota := max(1, maxQuota/8)
	ws := make([]workerState, p)
	for w := 1; w < p; w++ {
		ws[w] = workerState{quota: initialQuota, expect: prefetchDepth}
	}
	done := false

	reply := func(w int) {
		s := &ws[w]
		var tasks []PairItem
		if !done {
			quota := s.quota
			if fair := ms.pending.Len()/(p-1) + 1; fair < quota {
				quota = fair
			}
			tasks = ms.popTasks(quota)
			if len(tasks) > 0 {
				ms.ctr.batchTasks.Observe(int64(len(tasks)))
				s.outstanding += len(tasks)
				if s.quota < maxQuota {
					s.quota *= 2
					if s.quota > maxQuota {
						s.quota = maxQuota
					}
				}
				ms.ctr.quota.SetMax(float64(s.quota))
			}
			s.expect++ // one more request will answer this reply
		}
		s.owed--
		merges := ms.mergesFor(w, s)
		tr.Instant(trace.CatMaster, phase+"/dispatch",
			"to", int64(w), "tasks", int64(len(tasks)))
		c.Send(w, toWorker, MasterMsg{Tasks: tasks, Merges: merges, Done: done})
	}

	var served int64
	for {
		if done {
			finished := true
			for w := 1; w < p; w++ {
				if ws[w].received < ws[w].expect || ws[w].owed > 0 {
					finished = false
					break
				}
			}
			if finished {
				return
			}
		}
		t0 := tr.Now()
		in := c.RecvAny(toMaster)
		msg := in.Data.(WorkerMsg)
		w := in.From
		s := &ws[w]
		s.received++
		s.owed++
		served++
		ms.ctr.rounds.Inc()
		tr.Instant(trace.CatMaster, phase+"/collect",
			"pairs", int64(len(msg.Pairs)), "results", int64(len(msg.Results)))
		ms.absorbResults(msg.Results, w)
		s.outstanding -= len(msg.Results)
		if msg.Exhausted {
			s.exhausted = true
		}
		ms.ctr.generated.Add(int64(len(msg.Pairs)))
		if len(msg.Pairs) > 0 {
			ms.ctr.batchPairs.Observe(int64(len(msg.Pairs)))
		}
		nops := ms.ingestPairs(msg.Pairs)
		c.Advance(float64(nops+len(msg.Results)) * DefaultCostParams().SecPerPairFilter)

		if !done {
			done = ms.pending.Len() == 0
			for v := 1; v < p && done; v++ {
				if !ws[v].exhausted || ws[v].outstanding > 0 {
					done = false
				}
			}
		}
		if done {
			// The clustering state is final (absorbing: no pending tasks,
			// no outcomes in flight, no pairs to come). Answer everything
			// owed with Done; later arrivals get theirs on receipt.
			for v := 1; v < p; v++ {
				for ws[v].owed > 0 {
					reply(v)
				}
			}
		} else {
			if !(s.exhausted && ms.pending.Len() == 0) {
				reply(w)
			}
			// New pairs may have unparked idle workers: feed them while
			// tasks remain.
			for v := 1; v < p && ms.pending.Len() > 0; v++ {
				for ws[v].owed > 0 && ms.pending.Len() > 0 {
					reply(v)
				}
			}
		}
		tr.Count(trace.CatMaster, phase+"/queue", int64(ms.pending.Len()))
		tr.Count(trace.CatMaster, phase+"/merges", ms.merges)
		tr.Span(trace.CatMaster, phase+"/round", t0, tr.Now(),
			"round", served, "queue", int64(ms.pending.Len()))
		ms.cfg.Log.Debug("master service",
			"phase", phase, "served", served, "from", w,
			"queue", ms.pending.Len(), "merges", ms.merges, "t", c.Time())
	}
}

// alignBatch computes the outcomes for one task batch against the
// worker's replica of the clustering state, which at p = 1 is the state
// itself. A task the replica proves closed comes back Skipped, without
// an alignment. The rest align on the rank's goroutine pool in
// conflict-free waves: a task joins the current wave unless the wave
// already touches one of its keys, and a task that conflicts first
// flushes the wave — aligns it, then merges its positive outcomes into
// the replica in task order. Outcomes in one wave cannot change each
// other's closed test, so skips and outcomes equal strict one-at-a-time
// processing for every thread count. Outcomes land at their task's index. Each chunk checks an aligner out
// of the cache, recycling DP buffers across chunks and rounds. The
// summed DP cells are returned so the caller can charge the virtual
// clock ceil(cells/threads), the perfect-speedup model, along with the
// replica operations (closed tests and merges) it performed.
func alignBatch(cache *pool.AlignerCache, threads int, set *seq.Set, wl workerLogic, replica masterLogic, tasks []PairItem, obs pool.Observer) (out []AlignOutcome, cells, ops int64) {
	out = make([]AlignOutcome, len(tasks))
	var wave []int
	touched := make(map[int32]bool)
	flush := func() {
		pool.RunChunkedObserved(threads, len(wave), obs, func(lo, hi int) {
			al := cache.Get()
			for _, i := range wave[lo:hi] {
				out[i] = wl.alignPair(al, set, tasks[i])
			}
			cache.Put(al)
		})
		for _, i := range wave {
			cells += out[i].Cells
			if out[i].OK {
				replica.merge(out[i].A, out[i].B)
				ops++
			}
		}
		wave = wave[:0]
		clear(touched)
	}
	for i, t := range tasks {
		a, b := replica.keys(t)
		if touched[a] || touched[b] {
			flush()
			a, b = replica.keys(t)
		}
		ops++
		if replica.closed(t) {
			out[i] = AlignOutcome{A: t.A, B: t.B, Skipped: true}
			continue
		}
		wave = append(wave, i)
		touched[a], touched[b] = true, true
	}
	flush()
	return out, cells, ops
}

// runWorker drives the double-buffered worker loop on ranks 1..p-1. The
// worker opens prefetchDepth requests up front and, from then on,
// answers every non-Done reply with the next request *before* aligning
// the batch it just received, so the master's reply to the prefetched
// request is (ideally) already queued when the current batch finishes,
// hiding the round-trip behind alignment compute.
//
// Task outcomes ship on the request sent right *after* the batch
// completes — not on the one sent before it. The distinction matters: a
// stale master is an expensive master (every outcome it hasn't absorbed
// yet is a cluster merge its closure filter can't use, so late reports
// directly inflate the number of pairs the whole mesh aligns), and with
// prefetchDepth ≥ 2 the previously posted request already keeps the
// master busy through the compute window, so deferring the next request
// to after the alignment costs no overlap while making its piggybacked
// outcomes as fresh as a dedicated report message would be — without
// doubling the phase's message count.
//
// Before aligning a batch the worker applies the batch's merge log to its
// replica; alignBatch then skips whatever the replica proves closed. The
// replica's checks and merges are charged at the master's per-pair
// filter rate, so a skipped task is not free in virtual time.
func runWorker(c *mpi.Comm, set *seq.Set, wl workerLogic, replica masterLogic, pairs []PairItem, cfg Config, phase string) {
	sp := cfg.Metrics.StartSpan(phase + "/exchange")
	defer sp.End()
	tr := cfg.Trace
	threads := max(1, cfg.Threads)
	cache := pool.NewAlignerCache(align.DefaultScoring())
	obs := poolObserver(cfg.Metrics, phase, "align")
	toMaster, toWorker := roundTags(phase)
	exhausted := false
	sent, recvd := 0, 0
	request := func(results []AlignOutcome) {
		var batch []PairItem
		if !exhausted {
			batch, exhausted = nextBatch(&pairs, cfg.BatchPairs)
			c.Advance(float64(len(batch)) * DefaultCostParams().SecPerPairGen)
			var ex int64
			if exhausted {
				ex = 1
			}
			tr.Instant(trace.CatWorker, phase+"/pairgen",
				"pairs", int64(len(batch)), "exhausted", ex)
		}
		sent++
		c.Send(0, toMaster, WorkerMsg{Pairs: batch, Exhausted: exhausted, Results: results})
	}
	for i := 0; i < prefetchDepth; i++ {
		request(nil)
	}
	for {
		w0 := tr.Now()
		msg := c.Recv(0, toWorker).Data.(MasterMsg)
		recvd++
		tr.Span(trace.CatComm, "task-wait", w0, tr.Now(),
			"from", 0, "inflight", int64(sent-recvd))
		t0 := tr.Now()
		for _, m := range msg.Merges {
			replica.merge(m.A, m.B)
		}
		if msg.Done {
			// Done implies the master saw every outcome, so nothing is
			// unreported and, with these merges, the replica equals the
			// master's final state. Every request gets exactly one reply
			// and the stragglers are all Done; drain them so the phase
			// leaves nothing in flight.
			c.Advance(float64(len(msg.Merges)) * DefaultCostParams().SecPerPairFilter)
			for recvd < sent {
				c.Recv(0, toWorker)
				recvd++
			}
			return
		}
		results, cells, ops := alignBatch(cache, threads, set, wl, replica, msg.Tasks, obs)
		c.Advance(float64(int64(len(msg.Merges))+ops)*DefaultCostParams().SecPerPairFilter +
			float64(pool.CeilDiv(cells, threads))*DefaultCostParams().SecPerCell)
		tr.Span(trace.CatWorker, phase+"/align", t0, tr.Now(),
			"tasks", int64(len(msg.Tasks)), "cells", cells)
		// Ship the finished batch's outcomes with the next request. The
		// in-process transports hand the slice over by reference and the
		// master absorbs it asynchronously, so ownership transfers on
		// send — each batch allocates fresh (nil above) instead of
		// reusing the buffer.
		request(results)
	}
}

// runSerial executes a whole phase on a single rank, which is a worker
// whose replica is the phase state itself: each BatchPairs slice of the
// longest-first pair list goes through alignBatch on the rank's pool,
// with the skips and outcomes of one-at-a-time processing. There is no
// queue, and nothing is dispatched, so no skip counts as a worker skip.
func runSerial(c *mpi.Comm, set *seq.Set, ml masterLogic, wl workerLogic, pairs []PairItem, cfg Config, ctr *phaseCounters) {
	tr := cfg.Trace
	phase := ctr.phase
	threads := max(1, cfg.Threads)
	cache := pool.NewAlignerCache(align.DefaultScoring())
	obs := poolObserver(cfg.Metrics, phase, "align")
	var merges int64
	for round := int64(1); ; round++ {
		ctr.rounds.Inc()
		roundStart := tr.Now()
		batch, exhausted := nextBatch(&pairs, cfg.BatchPairs)
		c.Advance(float64(len(batch)) * DefaultCostParams().SecPerPairGen)
		ctr.generated.Add(int64(len(batch)))
		if len(batch) > 0 {
			ctr.batchPairs.Observe(int64(len(batch)))
		}
		c.Advance(float64(len(batch)) * DefaultCostParams().SecPerPairFilter)
		results, cells, _ := alignBatch(cache, threads, set, wl, ml, batch, obs)
		c.Advance(float64(pool.CeilDiv(cells, threads)) * DefaultCostParams().SecPerCell)
		for _, r := range results {
			ctr.tally(ml, r)
			if r.OK {
				merges++
			}
		}
		tr.Count(trace.CatMaster, phase+"/merges", merges)
		tr.Span(trace.CatMaster, phase+"/round", roundStart, tr.Now(),
			"round", round, "pairs", int64(len(batch)))
		cfg.Log.Debug("serial round",
			"phase", phase, "round", round, "merges", merges, "t", c.Time())
		if exhausted {
			return
		}
	}
}

// Enumerate lists this rank's promising pairs over set — the pairs of
// sequences sharing a maximal match of length ≥ ψ — each once, with the
// length of its longest match, longest first. Every rank calls it with
// the same arguments. The enumerating ranks own the suffix-tree buckets:
// rank 0 alone at p = 1, the workers 1..p-1 otherwise (the master gets
// nil). Each builds its buckets' suffix arrays, lists their pairs and
// drops them. Whether a pair is promising depends on its two sequences
// alone, so one list serves every phase over any subset of set: RR takes
// it whole, CCD keeps the pairs with both sides kept.
//
// newFrom > 0 leaves out the pairs whose two sequences both predate it:
// an incremental epoch's prior state already holds their verdicts. They
// are counted under pace_pairs_prior. phase labels the index and raw-pair
// series with the phase the enumeration serves.
func Enumerate(c *mpi.Comm, set *seq.Set, newFrom int, cfg Config, phase string) ([]PairItem, error) {
	cfg = cfg.withDefaults()
	opt := suffixtree.Options{MinMatch: cfg.Psi}
	p := c.Size()
	if p > 1 && c.Rank() == 0 {
		_, err := opt.Validate()
		return nil, err
	}
	buckets, err := suffixtree.Buckets(set, opt)
	if err != nil {
		return nil, err
	}
	// Rank 0 owns every bucket at p = 1; otherwise worker r owns share r-1.
	own := suffixtree.AssignBuckets(buckets, max(1, p-1))[max(0, c.Rank()-1)]
	trees, err := buildTrees(c, set, own, buckets, cfg, phase)
	if err != nil {
		return nil, err
	}
	var pairs []PairItem
	var raw, prior int64
	seen := make(map[int64]bool)
	// The first occurrence of a sequence pair is its longest match.
	suffixtree.MergedPairs(trees, func(m suffixtree.Pair) bool {
		raw++
		if m.SeqB < int32(newFrom) { // SeqA < SeqB: both predate newFrom
			prior++
			return true
		}
		if key := pairKey(m.SeqA, m.SeqB); !seen[key] {
			seen[key] = true
			pairs = append(pairs, PairItem{A: m.SeqA, B: m.SeqB, Len: m.Len})
		}
		return true
	})
	cfg.Metrics.Counter(metrics.Name("pace_pairs_raw", "phase", phase)).Add(raw)
	if prior > 0 {
		cfg.Metrics.Counter(metrics.Name("pace_pairs_prior", "phase", phase)).Add(prior)
	}
	return pairs, nil
}

// runPhase runs the master/worker/serial loops of one phase over this
// rank's pair list. Every rank's ml ends it holding the phase's final
// state: rank 0's is the master state, and a worker's replica receives
// the last merges with its Done reply. It returns the master's stats on
// rank 0 (zero Stats elsewhere), a read-out of the phase's registry
// counters — the registry is the one accumulation path. At p ≥ 2 the
// master ingests its own list (the pair-table pairs an epoch replays)
// before serving, as it ingests a worker's, and returns what it
// ingested: each distinct pair with its longest match length.
func runPhase(c *mpi.Comm, set *seq.Set, pairs []PairItem, ml masterLogic, wl workerLogic, cfg Config, phase string) (Stats, map[int64]int32) {
	if cfg.Metrics == nil {
		// Private registry so the counter-backed Stats still work for
		// direct API callers that don't collect metrics.
		cfg.Metrics = metrics.New(c.Rank(), c.Time)
	}
	switch {
	case c.Size() == 1:
		ctr := newPhaseCounters(cfg.Metrics, phase)
		sp := cfg.Metrics.StartSpan(phase + "/exchange")
		runSerial(c, set, ml, wl, pairs, cfg, &ctr)
		sp.End()
		return ctr.stats(), nil
	case c.Rank() == 0:
		// The master owns the clustering state; each worker's own ml
		// serves as its replica of it.
		ms := newMasterState(ml, cfg, phase)
		sp := cfg.Metrics.StartSpan(phase + "/exchange")
		ms.ctr.generated.Add(int64(len(pairs)))
		c.Advance(float64(ms.ingestPairs(pairs)) * DefaultCostParams().SecPerPairFilter)
		runMaster(c, ms)
		sp.End()
		return ms.ctr.stats(), ms.seen
	default:
		runWorker(c, set, wl, ml, pairs, cfg, phase)
		return Stats{}, nil
	}
}

// --- public phase entry points -------------------------------------------

// RedundancyRemoval executes the paper's RR phase collectively over its
// own enumeration of set: every rank calls it with the same set and
// config, and every rank returns the same keep mask (keep[id] == false
// means sequence id is contained in another sequence and should be
// dropped). The phase Stats are rank 0's; every other rank gets zero
// Stats.
func RedundancyRemoval(c *mpi.Comm, set *seq.Set, cfg Config) ([]bool, Stats, error) {
	pairs, err := Enumerate(c, set, 0, cfg, "rr")
	if err != nil {
		return nil, Stats{}, err
	}
	keep, st := redundancyRemoval(c, set, pairs, nil, cfg, false)
	return keep, st, nil
}

// RedundancyRemovalFrom is RedundancyRemoval over this rank's pairs from
// Enumerate, on top of prior (may be nil), the redundancy verdict of a
// previous epoch over a prefix of set. A sequence is redundant iff an
// earlier one in the (length descending, ID ascending) order contains it,
// and whether it is depends on each of its pairs alone. So when the pairs
// leave out only pairs of two prior sequences, settled last epoch, the
// combined mask equals a cold run's, containment chains across the epoch
// boundary included (see DESIGN.md §9). The returned keep mask covers the
// whole set on all ranks; the Stats are rank 0's, zero elsewhere.
func RedundancyRemovalFrom(c *mpi.Comm, set *seq.Set, pairs []PairItem, prior []bool, cfg Config) ([]bool, Stats) {
	return redundancyRemoval(c, set, pairs, prior, cfg, false)
}

// redundancyRemoval runs RR over pairs; exact swaps the containment
// cascade for the full-matrix predicate. Each rank reads the keep mask
// off its own marks, which end the phase equal to the master's.
func redundancyRemoval(c *mpi.Comm, set *seq.Set, pairs []PairItem, prior []bool, cfg Config, exact bool) ([]bool, Stats) {
	cfg = cfg.withDefaults()
	ml := &rrMaster{set: set, redundant: make([]bool, set.Len())}
	copy(ml.redundant, prior)
	st, _ := runPhase(c, set, pairs, ml, rrWorker{params: cfg.Contain, exact: exact}, cfg, "rr")
	keep := make([]bool, set.Len())
	for i := range keep {
		keep[i] = !ml.redundant[i]
	}
	return keep, st
}

// ConnectedComponents executes the paper's CCD phase collectively over
// the sequences with keep[id] == true (pass nil to cluster everything),
// enumerating the pairs of that kept subset itself. It returns comp,
// where comp[id] is the component label of sequence id (labels are the
// smallest member ID in the component) or -1 for dropped sequences,
// identical on all ranks. The phase Stats are rank 0's; every other rank
// gets zero Stats.
func ConnectedComponents(c *mpi.Comm, set *seq.Set, keep []bool, cfg Config) ([]int32, Stats, error) {
	var ids []int
	for i := range set.Len() {
		if keep == nil || keep[i] {
			ids = append(ids, i)
		}
	}
	sub, orig := set.Subset(ids)
	pairs, err := Enumerate(c, sub, 0, cfg, "ccd")
	if err != nil {
		return nil, Stats{}, err
	}
	for i, p := range pairs { // orig ascends, so A < B still holds
		pairs[i].A, pairs[i].B = int32(orig[p.A]), int32(orig[p.B])
	}
	comp, _, _, st := connectedComponents(c, set, keep, pairs, nil, cfg)
	return comp, st, nil
}

// ConnectedComponentsFrom is ConnectedComponents over this rank's pairs
// from Enumerate, of which it keeps those with both sides kept, merged
// into uf, a union–find over set (nil means singletons). Every rank
// passes an equal uf. A connected-component partition is the transitive
// closure of its positive pairs and closure is order-invariant, so when
// uf is the closure of some positive pairs and pairs holds every other
// pair that can join two of its sets, comp is the cold partition.
// Alongside comp it returns, on rank 0 only (nil on other ranks), every
// kept–kept pair the phase handled, once and in no particular order
// (rank 0's own kept pairs at p = 1, the master's de-duplicated ingest
// at p ≥ 2); the verdict of every pair the phase aligned; and the phase
// Stats (zero Stats on other ranks). Each verdict's counts are those of
// the local alignment of the lower ID against the higher one.
func ConnectedComponentsFrom(c *mpi.Comm, set *seq.Set, keep []bool, pairs []PairItem, uf *unionfind.UF, cfg Config) ([]int32, []PairItem, []Verdict, Stats) {
	return connectedComponents(c, set, keep, pairs, uf, cfg)
}

// connectedComponents runs CCD over pairs into uf. Each rank labels the
// components off its own uf, which ends the phase equal to the master's.
func connectedComponents(c *mpi.Comm, set *seq.Set, keep []bool, pairs []PairItem, uf *unionfind.UF, cfg Config) ([]int32, []PairItem, []Verdict, Stats) {
	cfg = cfg.withDefaults()
	if uf == nil {
		uf = unionfind.New(set.Len())
	}
	if keep != nil {
		kept := make([]PairItem, 0, len(pairs))
		for _, p := range pairs {
			if keep[p.A] && keep[p.B] {
				kept = append(kept, p)
			}
		}
		pairs = kept
	}
	ml := &ccMaster{uf: uf, disableFilter: cfg.DisableClosureFilter}
	st, seen := runPhase(c, set, pairs, ml, ccWorker{params: cfg.Overlap}, cfg, "ccd")
	if seen != nil {
		pairs = make([]PairItem, 0, len(seen))
		for k, l := range seen {
			pairs = append(pairs, PairItem{A: int32(k >> 32), B: int32(k), Len: l})
		}
	}

	// Label components by their smallest member ID: the first visit.
	comp := make([]int32, set.Len())
	label := make(map[int]int32)
	for i := range comp {
		if keep != nil && !keep[i] {
			comp[i] = -1
			continue
		}
		r := uf.Find(i)
		if _, ok := label[r]; !ok {
			label[r] = int32(i)
		}
		comp[i] = label[r]
	}
	if c.Rank() != 0 {
		return comp, nil, nil, st
	}
	return comp, pairs, ml.verdicts, st
}

// ComponentsBySize groups sequence IDs by component label (ignoring -1)
// and returns the groups with at least minSize members, largest first
// (ties by label).
func ComponentsBySize(comp []int32, minSize int) [][]int {
	byLabel := map[int32][]int{}
	for id, l := range comp {
		if l >= 0 {
			byLabel[l] = append(byLabel[l], id)
		}
	}
	var out [][]int
	for _, members := range byLabel {
		if len(members) >= minSize {
			out = append(out, members)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}
