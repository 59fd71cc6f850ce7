package pace

import (
	"container/heap"
	"fmt"
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
// ("rr" or "ccd") so both phases coexist in one registry. base holds the
// counter values at construction, making the read-out a per-call delta
// even when a caller reuses one registry across phase calls.
type phaseCounters struct {
	raw, generated, duplicate *metrics.Counter
	closure, aligned          *metrics.Counter
	positive, cells, rounds   *metrics.Counter
	batchTasks                *metrics.Histogram // alignment tasks per master→worker batch
	batchPairs                *metrics.Histogram // promising pairs per worker→master batch
	queueDepth                *metrics.Gauge     // high-water mark of the master's pending heap
	quota                     *metrics.Gauge     // high-water adaptive per-worker task quota
	// cascadeStage[s] counts RR pairs decided by containment-cascade
	// stage s (prefilter/banded/full); cascadeFullCells accumulates what
	// those pairs would have cost under the exact full-matrix predicate,
	// so cells-eliminated = cascadeFullCells − pace_align_cells. The
	// series only appear with the cascade enabled (created lazily on
	// first staged outcome), so CCD and an ExactAlign run never grow them.
	cascadeStage     map[align.Stage]*metrics.Counter
	cascadeFullCells *metrics.Counter
	reg              *metrics.Registry
	phase            string
	base             Stats
}

// rawPairsName names the raw-pair counter, which the master reads and
// the enumerating worker ranks own.
func rawPairsName(phase string) string {
	return metrics.Name("pace_pairs_raw", "phase", phase)
}

func newPhaseCounters(reg *metrics.Registry, phase string) phaseCounters {
	l := func(n string) string { return metrics.Name(n, "phase", phase) }
	pc := phaseCounters{
		raw:          reg.Counter(rawPairsName(phase)),
		generated:    reg.Counter(l("pace_pairs_generated")),
		duplicate:    reg.Counter(l("pace_pairs_duplicate")),
		closure:      reg.Counter(l("pace_pairs_closure")),
		aligned:      reg.Counter(l("pace_pairs_aligned")),
		positive:     reg.Counter(l("pace_pairs_positive")),
		cells:        reg.Counter(l("pace_align_cells")),
		rounds:       reg.Counter(l("pace_rounds")),
		batchTasks:   reg.Histogram(l("pace_batch_tasks")),
		batchPairs:   reg.Histogram(l("pace_batch_pairs")),
		queueDepth:   reg.Gauge(l("pace_queue_depth")),
		quota:        reg.Gauge(l("pace_batch_quota")),
		cascadeStage: make(map[align.Stage]*metrics.Counter),
		reg:          reg,
		phase:        phase,
	}
	pc.base = pc.read()
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

// read returns the counters' current absolute values.
func (pc phaseCounters) read() Stats {
	return Stats{
		PairsRaw:       pc.raw.Value(),
		PairsGenerated: pc.generated.Value(),
		PairsDuplicate: pc.duplicate.Value(),
		PairsClosure:   pc.closure.Value(),
		PairsAligned:   pc.aligned.Value(),
		PairsPositive:  pc.positive.Value(),
		Cells:          pc.cells.Value(),
		Rounds:         pc.rounds.Value(),
	}
}

// stats returns the per-call Stats delta accumulated since construction.
func (pc phaseCounters) stats() Stats {
	cur := pc.read()
	return Stats{
		PairsRaw:       cur.PairsRaw - pc.base.PairsRaw,
		PairsGenerated: cur.PairsGenerated - pc.base.PairsGenerated,
		PairsDuplicate: cur.PairsDuplicate - pc.base.PairsDuplicate,
		PairsClosure:   cur.PairsClosure - pc.base.PairsClosure,
		PairsAligned:   cur.PairsAligned - pc.base.PairsAligned,
		PairsPositive:  cur.PairsPositive - pc.base.PairsPositive,
		Cells:          cur.Cells - pc.base.Cells,
		Rounds:         cur.Rounds - pc.base.Rounds,
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

// pairSource pulls promising pairs out of a worker's subtrees in
// decreasing match-length order, deduplicating locally (the first — and
// therefore longest — occurrence of each sequence pair wins).
type pairSource struct {
	refs []nodeRef
	cur  int
	buf  []PairItem
	pos  int
	seen map[int64]bool
	raw  int64 // pairs enumerated before local dedup
	// newFrom > 0 is the incremental-epoch filter: pairs whose sequences
	// both predate it are settled by the prior state and are skipped at
	// enumeration (counted in prior), before local dedup.
	newFrom int32
	prior   int64
}

type nodeRef struct {
	t *suffixtree.SubTree
	i int
}

func newPairSource(trees []*suffixtree.SubTree, newFrom int32) *pairSource {
	s := &pairSource{seen: make(map[int64]bool), newFrom: newFrom}
	for _, t := range trees {
		for i := range t.Nodes {
			s.refs = append(s.refs, nodeRef{t, i})
		}
	}
	sort.SliceStable(s.refs, func(a, b int) bool {
		return s.refs[a].t.Nodes[s.refs[a].i].Depth > s.refs[b].t.Nodes[s.refs[b].i].Depth
	})
	return s
}

// next returns up to k pairs and whether the source is now exhausted.
func (s *pairSource) next(k int) ([]PairItem, bool) {
	out := make([]PairItem, 0, k)
	for len(out) < k {
		if s.pos >= len(s.buf) {
			if s.cur >= len(s.refs) {
				return out, true
			}
			r := s.refs[s.cur]
			s.cur++
			s.buf = s.buf[:0]
			s.pos = 0
			r.t.EmitNodePairs(r.i, func(p suffixtree.Pair) bool {
				s.raw++
				if s.newFrom > 0 && p.SeqA < s.newFrom && p.SeqB < s.newFrom {
					s.prior++
					return true
				}
				key := pairKey(p.SeqA, p.SeqB)
				if !s.seen[key] {
					s.seen[key] = true
					s.buf = append(s.buf, PairItem{A: p.SeqA, B: p.SeqB,
						OffA: p.OffA, OffB: p.OffB, Len: p.Len})
				}
				return true
			})
			continue
		}
		out = append(out, s.buf[s.pos])
		s.pos++
	}
	exhausted := s.pos >= len(s.buf) && s.cur >= len(s.refs)
	return out, exhausted
}

// buildTrees constructs the per-bucket indexes owned by this rank,
// charging construction work to the virtual clock. Buckets are
// independent, so they build on the rank's goroutine pool; the result
// slice is indexed by bucket position, keeping the tree order — and
// therefore the pair stream — identical for every thread count. The
// subtrees stay alive for the whole phase, so pace_index_bytes is their
// summed footprint.
func buildTrees(c *mpi.Comm, set *seq.Set, bucketIdx []int, buckets []suffixtree.Bucket, cfg Config, phase string) ([]*suffixtree.SubTree, error) {
	sp := cfg.Metrics.StartSpan(phase + "/index")
	defer sp.End()
	opt := suffixtree.Options{MinMatch: cfg.Psi, PrefixLen: cfg.PrefixLen}
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
	c.Advance(float64(pool.CeilDiv(weight, threads)) * cfg.Costs.SecPerTreeChar)
	cfg.Metrics.Counter(metrics.Name("pace_index_chars", "phase", phase)).Add(weight)
	cfg.Metrics.Gauge(metrics.Name("pace_index_bytes", "phase", phase)).SetMax(float64(indexBytes))
	return trees, nil
}

// masterState is the generic master-side round bookkeeping. All of its
// counting goes straight to the metrics registry through ctr; the Stats
// a phase returns are read back out of the registry when it ends.
type masterState struct {
	pending taskHeap
	seen    map[int64]bool
	seqno   int64
	merges  int64 // positive outcomes absorbed (union-find merges / redundancy marks)
	ctr     phaseCounters
	logic   masterLogic
	cfg     Config
}

func newMasterState(logic masterLogic, cfg Config, phase string) *masterState {
	return &masterState{
		pending: taskHeap{fifo: cfg.RandomPairOrder},
		seen:    make(map[int64]bool),
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
		if ms.seen[key] {
			ms.ctr.duplicate.Inc()
			continue
		}
		ms.seen[key] = true
		enq, closure := ms.logic.filter(pr)
		if closure {
			ms.ctr.closure.Inc()
			continue
		}
		if enq {
			ms.seqno++
			heap.Push(&ms.pending, taskEntry{PairItem: pr, seq: ms.seqno})
		}
	}
	ms.ctr.queueDepth.SetMax(float64(ms.pending.Len()))
	return len(pairs)
}

// absorbResults integrates worker alignment outcomes.
func (ms *masterState) absorbResults(results []AlignOutcome) {
	for _, r := range results {
		ms.ctr.aligned.Inc()
		ms.ctr.cells.Add(r.Cells)
		if r.OK {
			ms.ctr.positive.Inc()
			ms.merges++
		}
		if r.Stage != 0 {
			ms.ctr.countStage(align.Stage(r.Stage), r.FullCells)
		}
		ms.logic.absorb(r)
	}
}

// popTasks extracts up to k still-relevant tasks, re-filtering against
// the current clustering state (clusters may have merged since enqueue).
func (ms *masterState) popTasks(k int) []PairItem {
	var tasks []PairItem
	for len(tasks) < k && ms.pending.Len() > 0 {
		e := heap.Pop(&ms.pending).(taskEntry)
		enq, closure := ms.logic.filter(e.PairItem)
		if closure {
			ms.ctr.closure.Inc()
			continue
		}
		if enq {
			tasks = append(tasks, e.PairItem)
		}
	}
	return tasks
}

// workerState is the master's per-worker protocol bookkeeping.
type workerState struct {
	exhausted   bool // the worker's pair source is drained
	outstanding int  // tasks dispatched whose outcomes have not come back
	owed        int  // requests received and not yet answered (parked)
	quota       int  // adaptive task quota: slow-start, doubles per productive dispatch
	expect      int  // requests this worker will send in total (grows per non-Done reply)
	received    int  // requests received so far
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
// terminates with zero messages left in flight even though tags are
// reused by the next phase.
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
	// With prefetchDepth requests in flight per worker, a per-dispatch
	// quota of BatchTasks/prefetchDepth keeps each worker's undispatchable
	// window (tasks the closure filter can no longer recall) at
	// BatchTasks. A larger quota overlaps no better and measurably
	// inflates the aligned-pair count: stale tasks connecting
	// already-merged clusters slip past the filter.
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
		tr.Instant(trace.CatMaster, phase+"/dispatch",
			"to", int64(w), "tasks", int64(len(tasks)))
		c.Send(w, tagMaster, MasterMsg{Tasks: tasks, Done: done})
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
		in := c.RecvAny(tagWorker)
		msg := in.Data.(WorkerMsg)
		w := in.From
		s := &ws[w]
		s.received++
		s.owed++
		served++
		ms.ctr.rounds.Inc()
		tr.Instant(trace.CatMaster, phase+"/collect",
			"pairs", int64(len(msg.Pairs)), "results", int64(len(msg.Results)))
		ms.absorbResults(msg.Results)
		s.outstanding -= len(msg.Results)
		if msg.Exhausted {
			s.exhausted = true
		}
		ms.ctr.generated.Add(int64(len(msg.Pairs)))
		if len(msg.Pairs) > 0 {
			ms.ctr.batchPairs.Observe(int64(len(msg.Pairs)))
		}
		nops := ms.ingestPairs(msg.Pairs)
		c.Advance(float64(nops+len(msg.Results)) * ms.cfg.Costs.SecPerPairFilter)

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

// alignBatch computes the outcomes for one assigned task batch on the
// rank's goroutine pool. Outcomes land at the same index as their task,
// so the result order — and everything the master derives from it — is
// identical for every thread count. Each chunk checks an aligner out of
// the cache, recycling DP row and trace buffers across chunks and
// rounds. The summed DP cells are returned so the caller can charge the
// virtual clock ceil(cells/threads), the perfect-speedup model.
func alignBatch(cache *pool.AlignerCache, threads int, set *seq.Set, wl workerLogic, tasks []PairItem, out []AlignOutcome, obs pool.Observer) ([]AlignOutcome, int64) {
	if cap(out) < len(tasks) {
		out = make([]AlignOutcome, len(tasks))
	} else {
		out = out[:len(tasks)]
	}
	pool.RunChunkedObserved(threads, len(tasks), obs, func(lo, hi int) {
		al := cache.Get()
		for i := lo; i < hi; i++ {
			out[i] = wl.alignPair(al, set, tasks[i])
		}
		cache.Put(al)
	})
	var cells int64
	for i := range out {
		cells += out[i].Cells
	}
	return out, cells
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
func runWorker(c *mpi.Comm, set *seq.Set, wl workerLogic, src *pairSource, cfg Config, phase string) {
	sp := cfg.Metrics.StartSpan(phase + "/exchange")
	defer sp.End()
	tr := cfg.Trace
	threads := max(1, cfg.Threads)
	cache := pool.NewAlignerCache(cfg.Scoring)
	obs := poolObserver(cfg.Metrics, phase, "align")
	exhausted := false
	sent, recvd := 0, 0
	request := func(results []AlignOutcome) {
		var pairs []PairItem
		if !exhausted {
			pairs, exhausted = src.next(cfg.BatchPairs)
			c.Advance(float64(len(pairs)) * cfg.Costs.SecPerPairGen)
			var ex int64
			if exhausted {
				ex = 1
			}
			tr.Instant(trace.CatWorker, phase+"/pairgen",
				"pairs", int64(len(pairs)), "exhausted", ex)
		}
		sent++
		c.Send(0, tagWorker, WorkerMsg{Pairs: pairs, Exhausted: exhausted, Results: results})
	}
	for i := 0; i < prefetchDepth; i++ {
		request(nil)
	}
	for {
		w0 := tr.Now()
		msg := c.Recv(0, tagMaster).Data.(MasterMsg)
		recvd++
		tr.Span(trace.CatComm, "task-wait", w0, tr.Now(),
			"from", 0, "inflight", int64(sent-recvd))
		if msg.Done {
			// Done implies the master saw every outcome (its outstanding
			// count for this worker was zero), so nothing is unreported.
			// Every request gets exactly one reply and the stragglers are
			// all Done; drain them so the phase leaves nothing in flight.
			for recvd < sent {
				c.Recv(0, tagMaster)
				recvd++
			}
			return
		}
		t0 := tr.Now()
		results, cells := alignBatch(cache, threads, set, wl, msg.Tasks, nil, obs)
		c.Advance(float64(pool.CeilDiv(cells, threads)) * cfg.Costs.SecPerCell)
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

// runSerial executes a whole phase on a single rank: pairs are consumed
// in decreasing match-length order with the same filtering policy.
func runSerial(c *mpi.Comm, set *seq.Set, ms *masterState, wl workerLogic, src *pairSource, cfg Config) {
	al := align.NewAligner(cfg.Scoring)
	tr := cfg.Trace
	phase := ms.ctr.phase
	var round int64
	for {
		round++
		ms.ctr.rounds.Inc()
		roundStart := tr.Now()
		pairs, exhausted := src.next(cfg.BatchPairs)
		c.Advance(float64(len(pairs)) * cfg.Costs.SecPerPairGen)
		ms.ctr.generated.Add(int64(len(pairs)))
		if len(pairs) > 0 {
			ms.ctr.batchPairs.Observe(int64(len(pairs)))
		}
		nops := ms.ingestPairs(pairs)
		c.Advance(float64(nops) * cfg.Costs.SecPerPairFilter)
		// One task at a time so each alignment outcome can eliminate
		// later pending pairs via the closure filter — the serial
		// reference semantics the parallel rounds approximate.
		for ms.pending.Len() > 0 {
			for _, t := range ms.popTasks(1) {
				out := wl.alignPair(al, set, t)
				c.Advance(float64(out.Cells) * cfg.Costs.SecPerCell)
				ms.absorbResults([]AlignOutcome{out})
			}
		}
		tr.Count(trace.CatMaster, phase+"/merges", ms.merges)
		tr.Span(trace.CatMaster, phase+"/round", roundStart, tr.Now(),
			"round", round, "pairs", int64(len(pairs)))
		ms.cfg.Log.Debug("serial round",
			"phase", phase, "round", round, "merges", ms.merges, "t", c.Time())
		if exhausted {
			ms.ctr.raw.Add(src.raw)
			return
		}
	}
}

// runPhase wires buckets, trees, and the master/worker/serial loops
// together for one phase over the given sequence set. It returns the
// master's stats on rank 0 (zero Stats elsewhere; callers broadcast what
// they need). Stats are a read-out of the phase's registry counters —
// the registry is the one accumulation path.
//
// newFrom > 0 is the representative-pair generation mode behind
// incremental epochs: pair sources emit only promising pairs with at
// least one sequence ID ≥ newFrom. IDs below newFrom are the previous
// epoch's sequences — their pairwise outcomes are already folded into
// the prior clustering state the caller seeds the master with
// (RedundancyRemovalFrom / ConnectedComponentsFrom), so re-enumerating
// them would only rediscover settled verdicts. The suppressed
// enumeration is counted under pace_pairs_prior. 0 emits every pair —
// the one-shot batch behavior.
func runPhase(c *mpi.Comm, set *seq.Set, ml masterLogic, wl workerLogic, cfg Config, phase string, newFrom int) (Stats, error) {
	if cfg.Metrics == nil {
		// Private registry so the counter-backed Stats still work for
		// direct API callers that don't collect metrics.
		cfg.Metrics = metrics.New(c.Rank(), c.Time)
	}
	start := c.Time()
	buckets, err := suffixtree.Buckets(set, suffixtree.Options{MinMatch: cfg.Psi, PrefixLen: cfg.PrefixLen})
	if err != nil {
		return Stats{}, err
	}
	p := c.Size()
	ms := newMasterState(ml, cfg, phase)

	if p == 1 {
		own := make([]int, len(buckets))
		for i := range own {
			own[i] = i
		}
		trees, err := buildTrees(c, set, own, buckets, cfg, phase)
		if err != nil {
			return Stats{}, err
		}
		src := newPairSource(trees, int32(newFrom))
		treeDone := c.Time()
		sp := cfg.Metrics.StartSpan(phase + "/exchange")
		runSerial(c, set, ms, wl, src, cfg)
		sp.End()
		countPriorPairs(cfg, phase, src)
		st := ms.ctr.stats()
		st.TreeTime = treeDone - start
		st.PhaseTime = c.Time() - start
		return st, nil
	}

	// Workers own the buckets; the master owns the clustering state.
	assign := suffixtree.AssignBuckets(buckets, p-1)
	if c.Rank() == 0 {
		sp := cfg.Metrics.StartSpan(phase + "/exchange")
		runMaster(c, ms)
		sp.End()
		raw := c.ReduceInt64(0, 0, addInt64)
		st := ms.ctr.stats()
		st.PairsRaw = raw
		st.PhaseTime = c.MaxFloat64(c.Time()) - start
		return st, nil
	}
	trees, err := buildTrees(c, set, assign[c.Rank()-1], buckets, cfg, phase)
	if err != nil {
		return Stats{}, err
	}
	src := newPairSource(trees, int32(newFrom))
	runWorker(c, set, wl, src, cfg, phase)
	// The enumerating ranks own the raw-pair counter; the master's Stats
	// read-out gets the total via the reduction below.
	cfg.Metrics.Counter(rawPairsName(phase)).Add(src.raw)
	countPriorPairs(cfg, phase, src)
	c.ReduceInt64(0, src.raw, addInt64)
	c.MaxFloat64(c.Time())
	return Stats{}, nil
}

func addInt64(a, b int64) int64 { return a + b }

// countPriorPairs records how many promising pairs the newFrom filter
// suppressed because both sides predate the current epoch. The counter is
// created lazily so cold runs (newFrom == 0) export an unchanged metric
// set.
func countPriorPairs(cfg Config, phase string, src *pairSource) {
	if src.prior > 0 {
		cfg.Metrics.Counter(metrics.Name("pace_pairs_prior", "phase", phase)).Add(src.prior)
	}
}

// --- public phase entry points -------------------------------------------

// RedundancyRemoval executes the paper's RR phase collectively: every
// rank calls it with the same set and config, and every rank returns the
// same keep mask (keep[id] == false means sequence id is contained in
// another sequence and should be dropped). Stats are likewise identical
// on all ranks.
func RedundancyRemoval(c *mpi.Comm, set *seq.Set, cfg Config) ([]bool, Stats, error) {
	return RedundancyRemovalFrom(c, set, nil, 0, cfg)
}

// RedundancyRemovalFrom is the incremental form of RedundancyRemoval:
// prior (may be nil) is the redundancy verdict from the previous epoch
// over sequences 0..newFrom-1, and only pairs with at least one side ≥
// newFrom are aligned. Old-vs-old containment was settled last epoch, so
// the combined mask matches a cold run whenever no containment chains
// cross the epoch boundary (see DESIGN.md §9). The returned keep mask
// covers the whole set on all ranks.
func RedundancyRemovalFrom(c *mpi.Comm, set *seq.Set, prior []bool, newFrom int, cfg Config) ([]bool, Stats, error) {
	cfg = cfg.withDefaults()
	ml := &rrMaster{redundant: make([]bool, set.Len())}
	if prior != nil {
		copy(ml.redundant, prior)
	}
	st, err := runPhase(c, set, ml, rrWorker{params: cfg.Contain, exact: cfg.ExactAlign}, cfg, "rr", newFrom)
	if err != nil {
		return nil, Stats{}, err
	}
	keep := make([]bool, set.Len())
	if c.Rank() == 0 {
		for i := range keep {
			keep[i] = !ml.redundant[i]
		}
	}
	keep = c.Bcast(0, keep).([]bool)
	st = broadcastStats(c, st)
	return keep, st, nil
}

// ConnectedComponents executes the paper's CCD phase collectively over
// the sequences with keep[id] == true (pass nil to cluster everything).
// It returns comp, where comp[id] is the component label of sequence id
// (labels are the smallest member ID in the component) or -1 for dropped
// sequences. All ranks return identical results.
func ConnectedComponents(c *mpi.Comm, set *seq.Set, keep []bool, cfg Config) ([]int32, Stats, error) {
	comp, _, st, err := ConnectedComponentsFrom(c, set, keep, nil, 0, cfg)
	return comp, st, err
}

// ConnectedComponentsFrom is the incremental form of ConnectedComponents:
// prior (may be nil) is the committed union–find over the kept subset of
// sequences 0..newFrom-1, and only pairs with at least one side ≥ newFrom
// are aligned — old-vs-old merges are already encoded in prior. Because a
// connected-component partition is the transitive closure of its positive
// pairs and closure is order-invariant, seeding a clone of prior and
// merging only epoch-crossing pairs yields exactly the cold partition.
// Alongside comp it returns, on rank 0 only, the resulting union–find
// over the kept subset (nil on other ranks) so the caller can commit it
// as the next epoch's prior.
func ConnectedComponentsFrom(c *mpi.Comm, set *seq.Set, keep []bool, prior *unionfind.UF, newFrom int, cfg Config) ([]int32, *unionfind.UF, Stats, error) {
	cfg = cfg.withDefaults()
	// Build the kept-subset view identically on every rank.
	var ids []int
	subNew := 0 // sub-space ID that the first new sequence maps to
	for i := 0; i < set.Len(); i++ {
		if keep == nil || keep[i] {
			ids = append(ids, i)
			if i < newFrom {
				subNew++
			}
		}
	}
	// The pair filter operates in the subset's ID space: kept sequences
	// are renumbered in ascending original order, so IDs < subNew are
	// exactly the kept prior-epoch sequences. Computed on every rank so
	// the collective phase sees identical arguments.
	sub, orig := set.Subset(ids)

	uf := unionfind.New(sub.Len())
	if prior != nil {
		if prior.Len() != subNew {
			return nil, nil, Stats{}, fmt.Errorf("pace: prior union-find covers %d sequences, kept prior subset has %d", prior.Len(), subNew)
		}
		uf = prior.Clone()
		uf.Extend(sub.Len())
	}
	ml := &ccMaster{uf: uf, disableFilter: cfg.DisableClosureFilter}
	st, err := runPhase(c, sub, ml, ccWorker{params: cfg.Overlap}, cfg, "ccd", subNew)
	if err != nil {
		return nil, nil, Stats{}, err
	}

	comp := make([]int32, set.Len())
	if c.Rank() == 0 {
		for i := range comp {
			comp[i] = -1
		}
		// Label components by their smallest original member ID.
		rootLabel := make(map[int]int32)
		for subID := 0; subID < sub.Len(); subID++ {
			r := ml.uf.Find(subID)
			if _, ok := rootLabel[r]; !ok {
				rootLabel[r] = int32(orig[subID]) // first visit = smallest subID = smallest orig
			}
			comp[orig[subID]] = rootLabel[r]
		}
	}
	comp = c.Bcast(0, comp).([]int32)
	st = broadcastStats(c, st)
	var out *unionfind.UF
	if c.Rank() == 0 {
		out = ml.uf
	}
	return comp, out, st, nil
}

// broadcastStats shares the master's stats with all ranks.
func broadcastStats(c *mpi.Comm, st Stats) Stats {
	if c.Size() == 1 {
		return st
	}
	out := c.Bcast(0, st)
	return out.(Stats)
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
