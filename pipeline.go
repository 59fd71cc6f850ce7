package profam

import (
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
// ranks. Comp is the index of the component the family came from (into
// the epoch's Components slice) so rank 0 can attribute gathered
// families to components when building the next epoch's family cache.
type wireFamily struct {
	Comp       int32
	Members    []int32
	MeanDegree float64
	Density    float64
}

// WireSize implements mpi.Sized for the simtime cost model.
func (w wireFamily) WireSize() int { return 28 + 4*len(w.Members) }

type familyBatch struct{ Families []wireFamily }

func (b familyBatch) WireSize() int {
	n := 16
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

// famEntry is one family-cache record: the exact member list of a
// component from the prior epoch (collision guard for the hash key) and
// the families phases 3+4 produced for it.
type famEntry struct {
	members []int
	fams    []Family
}

// epochPrior carries the committed state of the previous epoch into an
// incremental run. All fields describe the sequence-ID prefix
// [0, newFrom) of the current set; IDs at or beyond newFrom are the
// epoch's new arrivals.
type epochPrior struct {
	newFrom   int           // first new sequence ID
	redundant []bool        // prior RR verdicts, len == newFrom
	uf        *unionfind.UF // prior union–find over the kept prior subset (sub-ID space)
	famCache  map[uint64]famEntry
}

// epochPost is the state a successful epoch hands forward, populated on
// rank 0 only (nil elsewhere).
type epochPost struct {
	redundant []bool
	uf        *unionfind.UF
	famCache  map[uint64]famEntry
}

// hashMembers is FNV-1a over a component's member IDs — the family-cache
// key. Collisions are harmless: lookups verify the full member list.
func hashMembers(members []int) uint64 {
	h := uint64(14695981039346656037)
	for _, m := range members {
		v := uint64(m)
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// runPipeline executes all four phases collectively on c. Every rank
// returns the same *Result.
func runPipeline(c *mpi.Comm, set *seq.Set, cfg Config) (*Result, error) {
	res, _, err := runEpochPipeline(c, set, cfg, nil)
	return res, err
}

// runEpochPipeline is the epoch-aware pipeline core. With prior == nil it
// is a cold run, behaviorally identical to the original runPipeline (the
// incremental machinery — pair filtering, union–find seeding, the family
// cache, abort broadcasts — is entirely inert, so metrics and traces of
// existing callers are unchanged). With a prior it reuses last epoch's
// verdicts: RR aligns only pairs touching a new sequence on top of the
// prior redundancy mask, CCD merges epoch-crossing pairs into a clone of
// the prior union–find, and components whose membership is unchanged skip
// phases 3+4 via the family cache. Every rank returns the same *Result;
// rank 0 additionally returns the epochPost to commit (nil elsewhere).
func runEpochPipeline(c *mpi.Comm, set *seq.Set, cfg Config, prior *epochPrior) (res *Result, post *epochPost, err error) {
	cfg = cfg.withDefaults()

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

	var priorRedundant []bool
	newFrom := 0
	if prior != nil {
		priorRedundant = prior.redundant
		newFrom = prior.newFrom
	}

	// Phases 1+2. The start instant carries the corpus shape so an
	// epoch's timeline is self-describing (both counts are rank-identical,
	// so the canonical trace stays thread-invariant).
	tracer.Instant(trace.CatPipeline, "phase:start", "corpus", int64(set.Len()), "new", int64(set.Len()-newFrom))

	// Phase 1: redundancy removal.
	tracer.Instant(trace.CatPipeline, "phase:rr", "", 0, "", 0)
	rrSpan := reg.StartSpan("rr")
	keep, rrStats, err := pace.RedundancyRemovalFrom(c, set, priorRedundant, newFrom, pcfg)
	rrSpan.End()
	if err != nil {
		return nil, nil, err
	}
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

	// Incremental CCD is sound only while every previously-kept
	// sequence stays kept: union–find can merge but never split. If a
	// new arrival demoted an old sequence (contains it), fall back to a
	// cold CCD for this epoch. The scan runs on every rank over the
	// broadcast keep mask, so the fallback decision is collective for
	// free.
	ccPrior, ccNewFrom := (*unionfind.UF)(nil), 0
	if prior != nil {
		demoted := false
		for i := 0; i < prior.newFrom; i++ {
			if !prior.redundant[i] && !keep[i] {
				demoted = true
				break
			}
		}
		if demoted {
			if c.Rank() == 0 {
				reg.Counter("pipeline_epoch_demotions").Add(1)
				log.Info("prior sequence demoted by new arrival; cold CCD rebuild", "t", c.Time())
			}
		} else {
			ccPrior, ccNewFrom = prior.uf, prior.newFrom
		}
	}

	// Phase 2: connected components over the non-redundant set.
	tracer.Instant(trace.CatPipeline, "phase:ccd", "", 0, "", 0)
	ccdSpan := reg.StartSpan("ccd")
	comp, ccUF, ccStats, err := pace.ConnectedComponentsFrom(c, set, keep, ccPrior, ccNewFrom, pcfg)
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

	// Family cache: a component whose membership is unchanged from the
	// prior epoch must produce byte-identical families (phases 3+4 are a
	// pure function of the members and the config, and incremental runs
	// are fingerprint-guarded), so its cached result is reused and only
	// the remaining components are recomputed. Rank 0 owns the cache and
	// broadcasts the hit mask; component indices below are into
	// res.Components throughout.
	hit := make([]bool, len(res.Components))
	var cachedFams [][]Family // rank 0 only, indexed like res.Components
	if prior != nil && prior.famCache != nil {
		if c.Rank() == 0 {
			cachedFams = make([][]Family, len(res.Components))
			hits := int64(0)
			for i, members := range res.Components {
				e, ok := prior.famCache[hashMembers(members)]
				if ok && equalMembers(e.members, members) {
					hit[i] = true
					cachedFams[i] = e.fams
					hits++
				}
			}
			if hits > 0 {
				reg.Counter("pipeline_components_cached").Add(hits)
			}
		}
		hit = c.Bcast(0, hit).([]bool)
	}
	missIdx := make([]int, 0, len(res.Components))
	missComps := make([][]int, 0, len(res.Components))
	for i, members := range res.Components {
		if !hit[i] {
			missIdx = append(missIdx, i)
			missComps = append(missComps, members)
		}
	}

	// Phases 3+4: per component, build the bipartite reduction and run
	// the Shingle algorithm. Components are distributed across all ranks
	// (batched by estimated cost), processed independently — no
	// communication until the final gather, exactly as the paper argues
	// dense subgraphs cannot span components.
	tracer.Instant(trace.CatPipeline, "phase:bgg", "", 0, "", 0)
	own := bipartite.DistributeComponents(missComps, c.Size())
	bcfg := cfg.bipartiteConfig()
	sp := cfg.shingleParams()
	mine := own[c.Rank()]
	threads := max(1, cfg.ThreadsPerRank)

	// Each owned component is an independent job: build its bipartite
	// reduction, run the Shingle detector, and record the modeled work
	// units. Jobs run on the rank's goroutine pool; results land in a
	// slice indexed by component position, so the flattened family list
	// is identical for every thread count.
	type compJob struct {
		fams  []wireFamily
		cells int64 // B_d DP cells
		pairs int64 // B_d pairs aligned
		chars int64 // B_m word-extraction characters
		words int64 // B_m shared words (left vertices)
		sh    shingle.Stats
		bggS  float64 // wall seconds in Build*
		dsdS  float64 // wall seconds in Detect
		err   error
	}
	jobs := make([]compJob, len(mine))
	costs := pace.DefaultCostParams()
	compObs := func(queued, threads int) {
		reg.Histogram(metrics.Name("pool_queue_depth", "phase", "bgg", "site", "components")).
			Observe(int64(queued))
	}
	t0 := c.Time()
	pool.RunObserved(threads, len(mine), compObs, func(i int) {
		j := &jobs[i]
		members := missComps[mine[i]]
		reg.Histogram("pipeline_component_size").Observe(int64(len(members)))
		var g *bipartite.Graph
		start := time.Now()
		switch cfg.Reduction {
		case DomainBased:
			var st bipartite.BuildStats
			g, st, j.err = bipartite.BuildBm(set, members, bcfg)
			if j.err != nil {
				return
			}
			j.chars, j.words = st.Chars, st.Words
		default:
			var st bipartite.BuildStats
			g, st, j.err = bipartite.BuildBd(set, members, bcfg)
			if j.err != nil {
				return
			}
			j.cells, j.pairs = st.Cells, st.PairsAligned
		}
		built := time.Now()
		subs, st := shingle.Detect(g, sp)
		j.sh = st
		j.bggS, j.dsdS = built.Sub(start).Seconds(), time.Since(built).Seconds()
		for _, d := range subs {
			reg.Histogram("pipeline_family_size").Observe(int64(len(d.Members)))
			j.fams = append(j.fams, wireFamily{
				Comp:       int32(missIdx[mine[i]]),
				Members:    d.Members,
				MeanDegree: d.MeanDegree,
				Density:    d.Density,
			})
		}
	})
	t1 := c.Time()

	// Charge the virtual clock ceil(work/threads) per work class — the
	// perfect-intra-rank-speedup model — keeping simulated curves
	// deterministic for a given thread count. On wall-clock transports
	// Advance is a no-op and the elapsed time of the parallel section
	// (t1-t0) is apportioned between the phases by the seconds the jobs
	// measured in each; under simtime that section takes no virtual time.
	var local []wireFamily
	var cells, pairs, chars, words, ops int64
	var bggS, dsdS float64
	var sh shingle.Stats
	for i := range jobs {
		j := &jobs[i]
		if j.err != nil {
			return nil, nil, j.err
		}
		cells += j.cells
		pairs += j.pairs
		chars += j.chars
		words += j.words
		ops += j.sh.WorkOps
		bggS += j.bggS
		dsdS += j.dsdS
		sh.ShinglesPass1 += j.sh.ShinglesPass1
		sh.ShinglesPass2 += j.sh.ShinglesPass2
		sh.Candidates += j.sh.Candidates
		sh.Reported += j.sh.Reported
		local = append(local, j.fams...)
	}
	// Fold the phase 3+4 work of this rank's components into the
	// registry; sums over ranks give the job totals since components are
	// owned by exactly one rank.
	reg.Counter("pipeline_components_owned").Add(int64(len(mine)))
	reg.Counter(metrics.Name("bgg_pairs_aligned", "reduction", cfg.Reduction.String())).Add(pairs)
	reg.Counter(metrics.Name("bgg_align_cells", "reduction", cfg.Reduction.String())).Add(cells)
	reg.Counter(metrics.Name("bgg_word_chars", "reduction", cfg.Reduction.String())).Add(chars)
	reg.Counter(metrics.Name("bgg_words", "reduction", cfg.Reduction.String())).Add(words)
	reg.Counter("dsd_shingles_pass1").Add(int64(sh.ShinglesPass1))
	reg.Counter("dsd_shingles_pass2").Add(int64(sh.ShinglesPass2))
	reg.Counter("dsd_candidates").Add(int64(sh.Candidates))
	reg.Counter("dsd_work_ops").Add(ops)
	reg.Counter("pipeline_families_emitted").Add(int64(len(local)))
	bggAdv := float64(pool.CeilDiv(cells, threads))*costs.SecPerCell +
		float64(pool.CeilDiv(pairs, threads))*costs.SecPerPairGen +
		float64(pool.CeilDiv(chars, threads))*costs.SecPerTreeChar
	dsdAdv := float64(pool.CeilDiv(ops, threads)) * shingle.SecPerHashOp
	c.Advance(bggAdv)
	t2 := c.Time()
	c.Advance(dsdAdv)
	t3 := c.Time()
	bggShare := 1.0
	if bggS+dsdS > 0 {
		bggShare = bggS / (bggS + dsdS)
	}
	wall := t1 - t0
	bggTime := (t2 - t1) + wall*bggShare
	dsdTime := (t3 - t2) + wall*(1-bggShare)
	// Phases 3+4 interleave inside the per-component jobs, so their
	// spans are recorded from the apportionment rather than bracketed
	// directly.
	reg.RecordSpan("bgg", t0, t0+bggTime)
	tracer.Instant(trace.CatPipeline, "phase:dsd", "", 0, "", 0)
	reg.RecordSpan("dsd", t0+bggTime, t0+bggTime+dsdTime)
	probeHeapPeak(c, reg)

	// Gather families at rank 0, then share the final list. Cached
	// families join on rank 0 before the broadcast; sortFamilies below is
	// a pure function of the family set, so the cached/recomputed
	// interleaving cannot perturb the output order.
	gathered := c.Gather(0, familyBatch{Families: local})
	var all []wireFamily
	if c.Rank() == 0 {
		for _, g := range gathered {
			all = append(all, g.(familyBatch).Families...)
		}
		for ci, fams := range cachedFams {
			for _, f := range fams {
				w := wireFamily{
					Comp:       int32(ci),
					Members:    make([]int32, len(f.Members)),
					MeanDegree: f.MeanDegree,
					Density:    f.Density,
				}
				for i, id := range f.Members {
					w.Members[i] = int32(id)
				}
				all = append(all, w)
			}
		}
	}
	all = c.Bcast(0, familyBatch{Families: all}).(familyBatch).Families

	res.Families = make([]Family, 0, len(all))
	perComp := map[int][]Family{} // rank 0: component index → its families
	for _, w := range all {
		f := Family{
			Members:    make([]int, len(w.Members)),
			MeanDegree: w.MeanDegree,
			Density:    w.Density,
		}
		for i, id := range w.Members {
			f.Members[i] = int(id)
		}
		res.Families = append(res.Families, f)
		if c.Rank() == 0 {
			perComp[int(w.Comp)] = append(perComp[int(w.Comp)], f)
		}
	}
	sortFamilies(res.Families)

	// Commit state for the next epoch on rank 0: the full redundancy
	// verdict, the kept-subset union–find, and a family cache entry per
	// component (including family-less ones — their absence of families
	// is itself a reusable result).
	if c.Rank() == 0 {
		redundant := make([]bool, len(keep))
		for i, k := range keep {
			redundant[i] = !k
		}
		famCache := make(map[uint64]famEntry, len(res.Components))
		for i, members := range res.Components {
			fams := perComp[i]
			sortFamilies(fams)
			famCache[hashMembers(members)] = famEntry{members: members, fams: fams}
		}
		post = &epochPost{redundant: redundant, uf: ccUF, famCache: famCache}
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

	// Fold the per-rank registries into one job-wide report that every
	// rank returns. The snapshot is taken after the last data collective so
	// the transport counters cover the family exchange; the metrics
	// gather/broadcast itself is necessarily outside its own accounting.
	gathered = c.Gather(0, reg.Snapshot())
	var rep *metrics.Report
	if c.Rank() == 0 {
		snaps := make([]metrics.Snapshot, len(gathered))
		for i, s := range gathered {
			snaps[i] = s.(metrics.Snapshot)
		}
		rep = metrics.Merge(snaps)
	} else {
		rep = &metrics.Report{}
	}
	rep2 := c.Bcast(0, *rep).(metrics.Report)
	res.Metrics = &rep2

	// Gather traces strictly after the metrics exchange so the comm
	// events of the metrics gather are themselves traced; each rank
	// snapshots right before sending, so the trace exchange's own
	// messages are excluded on every rank — deterministically.
	if tracer != nil {
		gt := c.Gather(0, tracer.Snapshot())
		var tl *trace.Timeline
		if c.Rank() == 0 {
			rts := make([]trace.RankTrace, len(gt))
			for i, s := range gt {
				rts[i] = s.(trace.RankTrace)
			}
			tl = trace.Merge(rts)
		} else {
			tl = &trace.Timeline{}
		}
		tl2 := c.Bcast(0, *tl).(trace.Timeline)
		res.Trace = &tl2
		if c.Rank() == 0 {
			log.Info("pipeline done",
				"families", len(res.Families),
				"trace_events", tl2.NumEvents(), "trace_dropped", tl2.Dropped,
				"t", c.Time())
		}
	} else if c.Rank() == 0 {
		log.Info("pipeline done", "families", len(res.Families), "t", c.Time())
	}
	return res, post, nil
}

// equalMembers reports whether two sorted member lists are identical.
func equalMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RunPipelineOn executes the pipeline collectively on an existing
// communicator — for callers managing their own transports, such as a
// TCP mesh spanning several processes (see mpi.DialMesh). Every rank
// must call it with the same sequence set and configuration; every rank
// returns the same result.
func RunPipelineOn(c *mpi.Comm, set *seq.Set, cfg Config) (*Result, error) {
	return runPipeline(c, set, cfg)
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
		r, e := runPipeline(c, set, cfg)
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
