package profam

import (
	"encoding/binary"
	"maps"
	"runtime"
	"time"

	"profam/internal/bipartite"
	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/pool"
	"profam/internal/seq"
	"profam/internal/shingle"
	"profam/internal/trace"
	"profam/internal/unionfind"
)

// wireFamily is the gob-friendly family representation exchanged between
// ranks and kept in the family cache. Comp is the index of the component
// the family came from (into the epoch's Components slice) so rank 0 can
// file gathered families under their component's cache key.
type wireFamily struct {
	Comp       int32
	Members    []int32
	MeanDegree float64
	Density    float64
}

// WireSize implements mpi.Sized for the simtime cost model.
func (w wireFamily) WireSize() int { return 28 + 4*len(w.Members) }

// familyBatch is one rank's phase 3+4 output: its families and the
// counts of every pair its B_d builds aligned, for rank 0's memo.
type familyBatch struct {
	Families []wireFamily
	Fresh    pace.Verdicts
}

func (b familyBatch) WireSize() int {
	n := b.Fresh.WireSize()
	for _, f := range b.Families {
		n += f.WireSize()
	}
	return n
}

// RegisterWireTypes registers all pipeline payloads with the TCP
// transport. Callers using DialMesh/RunTCP across processes must invoke
// it on every rank; the in-process and simulated transports don't need
// it.
func RegisterWireTypes() {
	pace.RegisterWireTypes()
	mpi.RegisterType(familyBatch{})
	mpi.RegisterType(metrics.Snapshot{})
	mpi.RegisterType(metrics.Report{})
	mpi.RegisterType(trace.RankTrace{})
	mpi.RegisterType(trace.Timeline{})
	mpi.RegisterType(false) // abort-decision broadcast
}

// compKey is a component's family-cache key: its member list, encoded
// exactly, so equal keys mean equal components.
func compKey(members []int) string {
	b := make([]byte, 0, 2*len(members))
	for _, m := range members {
		b = binary.AppendUvarint(b, uint64(m))
	}
	return string(b)
}

// runEpochPipeline executes all four phases collectively on c. prior is
// the committed state whose corpus is the prefix [0, prior.set.Len()) of
// set; a nil or epoch-0 prior (an empty corpus) makes this a cold run.
// Otherwise the run reuses prior's verdicts: RR aligns only pairs
// touching a new sequence on top of the prior redundancy mask, CCD merges
// epoch-crossing pairs into a clone of the prior union–find, and
// components whose member list the prior already built skip phases 3+4
// via the family cache. prior is only read. Every rank returns the same
// *Result; rank 0 also returns the next state over set (nil elsewhere),
// whose epoch and fingerprint the caller stamps.
func runEpochPipeline(c *mpi.Comm, set *seq.Set, cfg Config, prior *EpochState) (res *Result, next *EpochState, err error) {
	cfg = cfg.withDefaults()
	if prior == nil {
		prior = NewEpochState()
	}
	newFrom := prior.set.Len()

	// Every rank owns one metrics registry, clocked by its communicator:
	// virtual seconds under the simulator (deterministic traces),
	// wall-clock seconds otherwise. The registry is the single reporting
	// path — phase Stats, transport volume and component counters all
	// accumulate here and are merged into Result.Metrics at the end.
	reg := metrics.New(c.Rank(), c.Time)
	c.AttachMetrics(reg)

	// The tracer shares the registry's clock and rank. Every phase span is
	// mirrored into it through the span sink, so the trace analyzer and
	// the metrics report fold the exact same intervals. Comm events hook
	// in at the transport wrapper; protocol events via pcfg.Trace.
	var tracer *trace.Tracer
	if cfg.TraceCapacity > 0 {
		tracer = trace.New(c.Rank(), cfg.TraceCapacity, c.Time, reg.Counter("trace_dropped"))
		reg.SetSpanSink(func(sp metrics.SpanRecord) {
			tracer.Span(trace.CatPhase, sp.Name, sp.Start, sp.End, "", 0, "", 0)
		})
		c.AttachTracer(tracer)
	}

	log := cfg.Logger
	if log == nil {
		log = trace.NopLogger()
	}
	log = log.With("rank", c.Rank())

	// Register the registry with the live set so external observers (the
	// CLI's /metrics endpoint and progress ticker) can watch the run in
	// flight. On the way out — error and panic paths included —
	// unregister, and stash the final metrics and trace snapshots of
	// failed runs so callers can still flush an observability report when
	// they get no Result.
	metrics.RegisterLive(reg)
	stash := func() {
		metrics.StashFailed([]metrics.Snapshot{reg.Snapshot()})
		if tracer != nil {
			trace.StashFailed([]trace.RankTrace{tracer.Snapshot()})
		}
	}
	defer func() {
		metrics.UnregisterLive(reg)
		if p := recover(); p != nil {
			// Transport failures surface as panics in rank code; keep that
			// contract (the mpi harness converts them to errors) but save
			// the partial observability state first.
			stash()
			panic(p)
		}
		if err != nil {
			stash()
		}
	}()

	pcfg := cfg.paceConfig()
	pcfg.Metrics = reg
	pcfg.Trace = tracer
	pcfg.Log = log

	res = &Result{NumInput: set.Len()}

	// checkAbort is the phase-boundary cancellation point: rank 0 polls
	// the channel and broadcasts the verdict so every rank leaves the
	// collective at the same place. With Abort nil it is a no-op — no
	// extra messages — so existing jobs keep their exact comm pattern.
	checkAbort := func() error {
		if cfg.Abort == nil {
			return nil
		}
		aborted := false
		if c.Rank() == 0 {
			select {
			case <-cfg.Abort:
				aborted = true
			default:
			}
		}
		if c.Bcast(0, aborted).(bool) {
			return ErrAborted
		}
		return nil
	}
	if err = checkAbort(); err != nil {
		return nil, nil, err
	}

	// Phases 1+2. The start instant carries the corpus shape so an
	// epoch's timeline is self-describing (both counts are rank-identical,
	// so the canonical trace stays thread-invariant).
	tracer.Instant(trace.CatPipeline, "phase:start", "corpus", int64(set.Len()), "new", int64(set.Len()-newFrom))

	// Phase 1: redundancy removal, over the run's one pair enumeration.
	// Pairs of two prior sequences are left out: the prior holds their
	// verdicts.
	tracer.Instant(trace.CatPipeline, "phase:rr", "", 0, "", 0)
	rrSpan := reg.StartSpan("rr")
	pairs, err := pace.Enumerate(c, set, newFrom, pcfg, "rr")
	if err != nil {
		return nil, nil, err
	}
	keep, rrStats := pace.RedundancyRemovalFrom(c, set, pairs, prior.redundant, pcfg)
	rrSpan.End()
	probeHeapPeak(c, reg)
	res.Keep = keep
	res.RR = fromPace(rrStats)
	for _, k := range keep {
		if k {
			res.NumNonRedundant++
		}
	}
	if c.Rank() == 0 {
		log.Info("redundancy removal done",
			"kept", res.NumNonRedundant, "of", res.NumInput,
			"aligned", rrStats.PairsAligned, "t", c.Time())
	}

	if err = checkAbort(); err != nil {
		return nil, nil, err
	}

	// Phase 2: connected components over the non-redundant set, replaying
	// the kept pairs of RR's list. Incremental CCD is sound only while
	// every previously-kept sequence stays kept: union–find can merge but
	// never split. If a new arrival demoted an old sequence (contains it),
	// fall back to a cold CCD for this epoch, which needs the old–old
	// pairs the list left out, so it enumerates again. The scan runs on
	// every rank over the broadcast keep mask, so the fallback decision is
	// collective for free.
	tracer.Instant(trace.CatPipeline, "phase:ccd", "", 0, "", 0)
	ccdSpan := reg.StartSpan("ccd")
	ccPrior, ccNewFrom := prior.uf, newFrom
	for i := range newFrom {
		if !prior.redundant[i] && !keep[i] {
			ccPrior, ccNewFrom = nil, 0
			if c.Rank() == 0 {
				reg.Counter("pipeline_epoch_demotions").Add(1)
				log.Info("prior sequence demoted by new arrival; cold CCD rebuild", "t", c.Time())
			}
			if pairs, err = pace.Enumerate(c, set, 0, pcfg, "ccd"); err != nil {
				return nil, nil, err
			}
			break
		}
	}
	comp, ccUF, ccVerdicts, ccStats, err := pace.ConnectedComponentsFrom(c, set, keep, pairs, ccPrior, ccNewFrom, pcfg)
	ccdSpan.End()
	if err != nil {
		return nil, nil, err
	}
	probeHeapPeak(c, reg)
	res.CCD = fromPace(ccStats)
	res.Components = pace.ComponentsBySize(comp, cfg.MinComponentSize)
	if c.Rank() == 0 {
		log.Info("connected components done",
			"components", len(res.Components),
			"aligned", ccStats.PairsAligned, "t", c.Time())
	}

	if err = checkAbort(); err != nil {
		return nil, nil, err
	}

	// Family cache: a component's families are a pure function of its
	// exact member list and the config (phases 3+4 never look outside the
	// component, and incremental runs are fingerprint-guarded), so a
	// component the prior epoch built is reused as is. Every rank holds
	// the same prior and the same components, so each finds the same hits
	// without a message; only the misses are distributed below. Component
	// indices are into res.Components throughout.
	keys := make([]string, len(res.Components))
	var missIdx []int
	var missComps [][]int
	for i, members := range res.Components {
		keys[i] = compKey(members)
		if _, hit := prior.famCache[keys[i]]; !hit {
			missIdx = append(missIdx, i)
			missComps = append(missComps, members)
		}
	}
	if hits := len(keys) - len(missIdx); hits > 0 && c.Rank() == 0 {
		reg.Counter("pipeline_components_cached").Add(int64(hits))
	}

	// Pair memo: B_d decides every pair some earlier alignment already
	// has counts for, without DP. Rank 0 merges the prior epoch's memo
	// with this run's CCD verdicts into a new map (the committed state is
	// immutable) and broadcasts the entries inside the components B_d
	// will build; B_m aligns nothing, so it skips all of this.
	//
	// On rank 0 memo holds every count this epoch knows; elsewhere, the
	// broadcast entries. B_d builds only read it.
	var memo bipartite.Memo
	if cfg.Reduction == GlobalSimilarity {
		var inside pace.Verdicts
		if c.Rank() == 0 {
			memo = mergeMemo(prior.memo, ccVerdicts)
			inside = memoInside(memo, comp, missComps)
		}
		inside = c.Bcast(0, inside).(pace.Verdicts)
		if c.Rank() != 0 {
			memo = mergeMemo(nil, inside)
		}
	}

	local, bggTime, dsdTime, err := buildFamilies(c, set, cfg, reg, tracer, missComps, missIdx, memo)
	if err != nil {
		return nil, nil, err
	}

	// Gather families and fresh B_d counts at rank 0, join the cached
	// families there, and share the final family list. sortFamilies below
	// is a pure function of the family set, so the cached/recomputed
	// interleaving cannot perturb the output order.
	gathered := c.Gather(0, local)
	var all []wireFamily
	if c.Rank() == 0 {
		for _, g := range gathered {
			b := g.(familyBatch)
			all = append(all, b.Families...)
			for _, v := range b.Fresh {
				memo[[2]int32{v.A, v.B}] = v.Overlap
			}
		}
		for i, k := range keys {
			for _, w := range prior.famCache[k] {
				w.Comp = int32(i)
				all = append(all, w)
			}
		}
	}
	all = c.Bcast(0, familyBatch{Families: all}).(familyBatch).Families

	res.Families = make([]Family, len(all))
	for i, w := range all {
		f := Family{Members: make([]int, len(w.Members)), MeanDegree: w.MeanDegree, Density: w.Density}
		for k, id := range w.Members {
			f.Members[k] = int(id)
		}
		res.Families[i] = f
	}
	sortFamilies(res.Families)

	if c.Rank() == 0 {
		next = nextState(set, keep, comp, ccUF, keys, all, memo)
	}

	res.BGGTime = c.MaxFloat64(bggTime)
	res.DSDTime = c.MaxFloat64(dsdTime)

	// Work-elimination ratios (the paper's headline heuristic-efficiency
	// numbers) as gauges. Rank 0 holds the merged phase Stats, so it alone
	// records them; gauge merge takes the max, making the value global.
	if c.Rank() == 0 {
		reg.Gauge(metrics.Name("work_elimination_ratio", "phase", "rr")).Set(res.RR.WorkReduction())
		reg.Gauge(metrics.Name("work_elimination_ratio", "phase", "ccd")).Set(res.CCD.WorkReduction())
	}

	res.Metrics, res.Trace = shareReports(c, reg, tracer)
	if c.Rank() == 0 {
		if res.Trace != nil {
			log.Info("pipeline done",
				"families", len(res.Families),
				"trace_events", res.Trace.NumEvents(), "trace_dropped", res.Trace.Dropped,
				"t", c.Time())
		} else {
			log.Info("pipeline done", "families", len(res.Families), "t", c.Time())
		}
	}
	return res, next, nil
}

// nextState is the state a run over set commits for the next epoch: the
// full redundancy verdict, CCD's union–find over set, a family-cache
// entry per component keyed by keys (family-less components included —
// their absence of families is itself a reusable result), and memo
// pruned, in place, to pairs whose two sequences share a final component
// — the only pairs a later B_d build can enumerate without a new arrival
// joining them.
func nextState(set *seq.Set, keep []bool, comp []int32, uf *unionfind.UF, keys []string, fams []wireFamily, memo bipartite.Memo) *EpochState {
	for k := range memo {
		if l := comp[k[0]]; l < 0 || l != comp[k[1]] {
			delete(memo, k)
		}
	}
	redundant := make([]bool, len(keep))
	for i, k := range keep {
		redundant[i] = !k
	}
	famCache := make(map[string][]wireFamily, len(keys))
	for _, k := range keys {
		famCache[k] = nil
	}
	for _, w := range fams {
		k := keys[w.Comp]
		famCache[k] = append(famCache[k], w)
	}
	return &EpochState{set: set, redundant: redundant, uf: uf, famCache: famCache, memo: memo}
}

// buildFamilies runs phases 3+4 on this rank's share of comps: per
// component, build the bipartite reduction and run the Shingle algorithm.
// Components are distributed across all ranks (batched by estimated
// cost) and processed independently — no communication, exactly as the
// paper argues dense subgraphs cannot span components. idx[k] is the
// index of comps[k] among the epoch's components, stamped on its
// families. It returns the rank's families with the counts of every pair
// its B_d builds aligned, and the rank's BGG and DSD seconds.
func buildFamilies(c *mpi.Comm, set *seq.Set, cfg Config, reg *metrics.Registry, tracer *trace.Tracer,
	comps [][]int, idx []int, memo bipartite.Memo) (out familyBatch, bggTime, dsdTime float64, err error) {
	tracer.Instant(trace.CatPipeline, "phase:bgg", "", 0, "", 0)
	mine := bipartite.DistributeComponents(comps, c.Size())[c.Rank()]
	bcfg := cfg.bipartiteConfig()
	sp := cfg.shingleParams()
	threads := max(1, cfg.ThreadsPerRank)

	// Each owned component is an independent job: build its bipartite
	// reduction, run the Shingle detector, and record the modeled work
	// units. Jobs run on the rank's goroutine pool; results land in a
	// slice indexed by component position, so the flattened family list
	// is identical for every thread count.
	type compJob struct {
		fams  []wireFamily
		build bipartite.BuildStats
		sh    shingle.Stats
		bggS  float64 // wall seconds in Build*
		dsdS  float64 // wall seconds in Detect
		err   error
	}
	jobs := make([]compJob, len(mine))
	compObs := func(queued, threads int) {
		reg.Histogram(metrics.Name("pool_queue_depth", "phase", "bgg", "site", "components")).
			Observe(int64(queued))
	}
	// One Detector per pool goroutine, handed from component to component,
	// so the rank's detection storage is sized by its largest component.
	detectors := make(chan *shingle.Detector, threads)
	for range threads {
		detectors <- new(shingle.Detector)
	}
	t0 := c.Time()
	pool.RunObserved(threads, len(mine), compObs, func(i int) {
		j := &jobs[i]
		members := comps[mine[i]]
		reg.Histogram("pipeline_component_size").Observe(int64(len(members)))
		var g *bipartite.Graph
		start := time.Now()
		if cfg.Reduction == DomainBased {
			g, j.build, j.err = bipartite.BuildBm(set, members, bcfg)
		} else {
			g, j.build, j.err = bipartite.BuildBdMemo(set, members, bcfg, memo)
		}
		if j.err != nil {
			return
		}
		built := time.Now()
		d := <-detectors
		subs, st := d.Detect(g, sp)
		detectors <- d
		j.sh = st
		j.bggS, j.dsdS = built.Sub(start).Seconds(), time.Since(built).Seconds()
		for _, d := range subs {
			reg.Histogram("pipeline_family_size").Observe(int64(len(d.Members)))
			j.fams = append(j.fams, wireFamily{
				Comp:       int32(idx[mine[i]]),
				Members:    d.Members,
				MeanDegree: d.MeanDegree,
				Density:    d.Density,
			})
		}
	})
	t1 := c.Time()

	var build bipartite.BuildStats
	var sh shingle.Stats
	var bggS, dsdS float64
	for i := range jobs {
		j := &jobs[i]
		if j.err != nil {
			return familyBatch{}, 0, 0, j.err
		}
		build.Cells += j.build.Cells
		build.PairsAligned += j.build.PairsAligned
		build.PairsReused += j.build.PairsReused
		build.Chars += j.build.Chars
		build.Words += j.build.Words
		for k, oc := range j.build.Fresh {
			out.Fresh = append(out.Fresh, pace.Verdict{A: k[0], B: k[1], Overlap: oc})
		}
		sh.ShinglesPass1 += j.sh.ShinglesPass1
		sh.ShinglesPass2 += j.sh.ShinglesPass2
		sh.Candidates += j.sh.Candidates
		sh.WorkOps += j.sh.WorkOps
		bggS += j.bggS
		dsdS += j.dsdS
		out.Families = append(out.Families, j.fams...)
	}
	// Fold the phase 3+4 work of this rank's components into the
	// registry; sums over ranks give the job totals since components are
	// owned by exactly one rank.
	red := cfg.Reduction.String()
	reg.Counter("pipeline_components_owned").Add(int64(len(mine)))
	reg.Counter(metrics.Name("bgg_pairs_aligned", "reduction", red)).Add(build.PairsAligned)
	reg.Counter(metrics.Name("bgg_pairs_reused", "reduction", red)).Add(build.PairsReused)
	reg.Counter(metrics.Name("bgg_align_cells", "reduction", red)).Add(build.Cells)
	reg.Counter(metrics.Name("bgg_word_chars", "reduction", red)).Add(build.Chars)
	reg.Counter(metrics.Name("bgg_words", "reduction", red)).Add(build.Words)
	reg.Counter("dsd_shingles_pass1").Add(int64(sh.ShinglesPass1))
	reg.Counter("dsd_shingles_pass2").Add(int64(sh.ShinglesPass2))
	reg.Counter("dsd_candidates").Add(int64(sh.Candidates))
	reg.Counter("dsd_work_ops").Add(sh.WorkOps)
	reg.Counter("pipeline_families_emitted").Add(int64(len(out.Families)))

	// Charge the virtual clock ceil(work/threads) per work class — the
	// perfect-intra-rank-speedup model — keeping simulated curves
	// deterministic for a given thread count. On wall-clock transports
	// Advance is a no-op and the elapsed time of the parallel section
	// (t1-t0) is apportioned between the phases by the seconds the jobs
	// measured in each; under simtime that section takes no virtual time.
	// B_d enumerates every promising pair, reused or aligned; only the
	// aligned ones cost DP cells.
	costs := pace.DefaultCostParams()
	bggAdv := float64(pool.CeilDiv(build.Cells, threads))*costs.SecPerCell +
		float64(pool.CeilDiv(build.PairsAligned+build.PairsReused, threads))*costs.SecPerPairGen +
		float64(pool.CeilDiv(build.Chars, threads))*costs.SecPerTreeChar
	dsdAdv := float64(pool.CeilDiv(sh.WorkOps, threads)) * shingle.SecPerHashOp
	c.Advance(bggAdv)
	t2 := c.Time()
	c.Advance(dsdAdv)
	t3 := c.Time()
	bggShare := 1.0
	if bggS+dsdS > 0 {
		bggShare = bggS / (bggS + dsdS)
	}
	wall := t1 - t0
	bggTime = (t2 - t1) + wall*bggShare
	dsdTime = (t3 - t2) + wall*(1-bggShare)
	// Phases 3+4 interleave inside the per-component jobs, so their
	// spans are recorded from the apportionment rather than bracketed
	// directly.
	reg.RecordSpan("bgg", t0, t0+bggTime)
	tracer.Instant(trace.CatPipeline, "phase:dsd", "", 0, "", 0)
	reg.RecordSpan("dsd", t0+bggTime, t0+bggTime+dsdTime)
	probeHeapPeak(c, reg)
	return out, bggTime, dsdTime, nil
}

// shareReports folds every rank's registry, and its tracer when tracing
// is on, into the job-wide report and timeline that every rank returns.
// Each rank snapshots its registry after the last data collective, so the
// transport counters cover the family exchange; the metrics
// gather/broadcast itself is necessarily outside its own accounting.
// Traces are gathered strictly after the metrics exchange, so its comm
// events are traced, while each rank's snapshot right before sending
// excludes the trace exchange's own messages on every rank,
// deterministically.
func shareReports(c *mpi.Comm, reg *metrics.Registry, tracer *trace.Tracer) (*metrics.Report, *trace.Timeline) {
	gathered := c.Gather(0, reg.Snapshot())
	rep := &metrics.Report{}
	if c.Rank() == 0 {
		snaps := make([]metrics.Snapshot, len(gathered))
		for i, s := range gathered {
			snaps[i] = s.(metrics.Snapshot)
		}
		rep = metrics.Merge(snaps)
	}
	merged := c.Bcast(0, *rep).(metrics.Report)
	if tracer == nil {
		return &merged, nil
	}
	gathered = c.Gather(0, tracer.Snapshot())
	tl := &trace.Timeline{}
	if c.Rank() == 0 {
		rts := make([]trace.RankTrace, len(gathered))
		for i, s := range gathered {
			rts[i] = s.(trace.RankTrace)
		}
		tl = trace.Merge(rts)
	}
	timeline := c.Bcast(0, *tl).(trace.Timeline)
	return &merged, &timeline
}

// mergeMemo returns a new memo holding prior's entries and the counts of
// every verdict. A verdict overwrites nothing it disagrees with: both are
// the counts of the same alignment of the same two residue strings.
func mergeMemo(prior bipartite.Memo, verdicts []pace.Verdict) bipartite.Memo {
	memo := make(bipartite.Memo, len(prior)+len(verdicts))
	maps.Copy(memo, prior)
	for _, v := range verdicts {
		memo[[2]int32{v.A, v.B}] = v.Overlap
	}
	return memo
}

// memoInside lists the memo entries whose two sequences lie in one of
// comps, given the component label of every sequence.
func memoInside(memo bipartite.Memo, comp []int32, comps [][]int) pace.Verdicts {
	built := make(map[int32]bool, len(comps))
	for _, members := range comps {
		built[comp[members[0]]] = true
	}
	out := pace.Verdicts{}
	for k, oc := range memo {
		if l := comp[k[0]]; l == comp[k[1]] && built[l] {
			out = append(out, pace.Verdict{A: k[0], B: k[1], Overlap: oc})
		}
	}
	return out
}

// RunPipelineOn executes the pipeline collectively on an existing
// communicator — for callers managing their own transports, such as a
// TCP mesh spanning several processes (see mpi.DialMesh). Every rank
// must call it with the same sequence set and configuration; every rank
// returns the same result.
func RunPipelineOn(c *mpi.Comm, set *seq.Set, cfg Config) (*Result, error) {
	res, _, err := runEpochPipeline(c, set, cfg, nil)
	return res, err
}

// RunSet runs the pipeline over a set the caller already holds — the
// one body behind every entry point, in-module tools and benchmarks: on
// p simulated ranks when simulate is true, or on p concurrent ranks
// otherwise (p = 1 means serial), returning the rank-0 result and the
// makespan in seconds (virtual when simulated, wall-clock otherwise).
//
// ThreadsPerRank = 0 resolves here: to max(1, NumCPU/p) on the wall
// clock, and to the paper's single-threaded nodes under simulation, so
// the reproduced scaling curves stay host-independent unless the caller
// explicitly opts into hybrid rank×thread modeling.
func RunSet(set *seq.Set, p int, simulate bool, cfg Config) (*Result, float64, error) {
	var res *Result
	var rerr error
	body := func(c *mpi.Comm) {
		r, _, e := runEpochPipeline(c, set, cfg, nil)
		if c.Rank() == 0 {
			res, rerr = r, e
		}
	}
	var span float64
	var err error
	if simulate {
		if cfg.ThreadsPerRank == 0 {
			cfg.ThreadsPerRank = 1
		}
		span, err = mpi.RunSim(p, mpi.BlueGeneLike(), body)
	} else {
		cfg = cfg.withAutoThreads(p)
		err = mpi.Run(p, func(c *mpi.Comm) {
			body(c)
			// The wall-clock makespan is the slowest rank's clock; RunSim
			// reports the virtual one itself, without a collective that
			// would be charged to it.
			if t := c.MaxFloat64(c.Time()); c.Rank() == 0 {
				span = t
			}
		})
	}
	if err != nil {
		return nil, 0, err
	}
	return res, span, rerr
}

// probeHeapPeak samples the process heap at a phase boundary into the
// pipeline_heap_peak_bytes max-gauge — the coarse machine-derived
// companion to the work-derived pace_index_bytes series. Rank 0 only:
// in-process ranks share one heap, so one sampler suffices. The value
// depends on GC timing, not on work done, so metrics.Report.Canonical
// strips this gauge; determinism contracts are unaffected.
func probeHeapPeak(c *mpi.Comm, reg *metrics.Registry) {
	if c.Rank() != 0 {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge(metrics.HeapPeakGauge).SetMax(float64(ms.HeapAlloc))
}
