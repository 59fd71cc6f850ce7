package profam

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"time"

	"profam/internal/bipartite"
	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/pool"
	"profam/internal/seq"
	"profam/internal/shingle"
	"profam/internal/trace"
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
// counts of every pair its B_d builds aligned, for rank 0's pair table.
type familyBatch struct {
	Families []wireFamily
	Fresh    []pace.Verdict
}

func (b familyBatch) WireSize() int {
	n := 16 + 24*len(b.Fresh)
	for _, f := range b.Families {
		n += f.WireSize()
	}
	return n
}

// The pipeline's own payloads cross the TCP transport gob-encoded, so
// they register with it here: what the phases exchange, and the per-rank
// metrics snapshot and trace buffer gathered at rank 0 (the merged
// report and timeline never leave it). pace registers its round
// messages itself.
func init() {
	mpi.RegisterType(familyBatch{})
	mpi.RegisterType(componentPairs{})
	mpi.RegisterType(metrics.Snapshot{})
	mpi.RegisterType(trace.RankTrace{})
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
// them into a union–find seeded with the pair table's stored positives,
// and components whose member list the prior already built skip phases
// 3+4 via the family cache. prior is only read. Rank 0 alone holds the run's
// outputs: it returns the *Result and the next state over set, whose
// epoch and fingerprint the caller stamps; every other rank returns
// (nil, nil, nil) once its families and reports are gathered.
// reg and tracer are this rank's, from observe. Each rank checks ctx
// before RR, after RR and after CCD on its own: leaving early is safe,
// as a cancelled job's transport unwinds the peers blocked on it.
func runEpochPipeline(ctx context.Context, c *mpi.Comm, set *seq.Set, cfg Config, prior *EpochState, reg *metrics.Registry, tracer *trace.Tracer) (res *Result, next *EpochState, err error) {
	cfg = cfg.withDefaults()
	if prior == nil {
		prior = NewEpochState()
	}
	newFrom := prior.set.Len()

	log := cfg.Logger
	if log == nil {
		log = trace.NopLogger()
	}
	log = log.With("rank", c.Rank())

	// Register the registry with the live set so external observers (the
	// CLI's /metrics endpoint and progress ticker) can watch the run in
	// flight.
	metrics.RegisterLive(reg)
	defer metrics.UnregisterLive(reg)

	pcfg := cfg.paceConfig()
	pcfg.Metrics = reg
	pcfg.Trace = tracer
	pcfg.Log = log

	res = &Result{NumInput: set.Len()}

	if err = cancelled(ctx); err != nil {
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

	if err = cancelled(ctx); err != nil {
		return nil, nil, err
	}

	// Phase 2: connected components over the non-redundant set. Every
	// rank seeds its union–find with the prior pair table's kept–kept
	// pairs whose stored counts pass Definition 2, and CCD merges the kept
	// pairs of RR's list into it. Rank 0 adds the table's kept–kept pairs
	// without counts that the seed leaves in two sets, longest match
	// first. Only a demotion leaves such pairs: without one, every
	// count-less table pair was closed by positives the table stores.
	tracer.Instant(trace.CatPipeline, "phase:ccd", "", 0, "", 0)
	ccdSpan := reg.StartSpan("ccd")
	uf, open := prior.table.seed(set.Len(), keep, pcfg.Overlap)
	if c.Rank() == 0 {
		for i := range newFrom {
			if !prior.redundant[i] && !keep[i] {
				reg.Counter("pipeline_epoch_demotions").Add(1)
				log.Info("prior sequence demoted by new arrival", "replayed", len(open), "t", c.Time())
				break
			}
		}
		if len(open) > 0 {
			pairs = append(pairs, open...)
			slices.SortStableFunc(pairs, func(x, y pace.PairItem) int { return cmp.Compare(y.Len, x.Len) })
		}
	}
	comp, ccPairs, ccVerdicts, ccStats := pace.ConnectedComponentsFrom(c, set, keep, pairs, uf, pcfg)
	ccdSpan.End()
	probeHeapPeak(c, reg)
	res.CCD = fromPace(ccStats)
	res.Components = pace.ComponentsBySize(comp, cfg.MinComponentSize)
	if c.Rank() == 0 {
		log.Info("connected components done",
			"components", len(res.Components),
			"aligned", ccStats.PairsAligned, "t", c.Time())
		// Work-elimination ratios, the paper's headline heuristic-efficiency
		// numbers, from the phase Stats rank 0 holds.
		reg.Gauge(metrics.Name("work_elimination_ratio", "phase", "rr")).Set(res.RR.WorkReduction())
		reg.Gauge(metrics.Name("work_elimination_ratio", "phase", "ccd")).Set(res.CCD.WorkReduction())
	}

	if err = cancelled(ctx); err != nil {
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

	// Pair table: every kept–kept promising pair, with the counts of any
	// alignment already computed. Rank 0 builds this epoch's table from
	// the prior's and CCD's list (the committed table is immutable) and
	// broadcasts the pairs inside each component B_d will build, so no
	// rank indexes a component and B_d aligns only pairs without counts.
	// B_m aligns nothing, so it skips the broadcast.
	var table pairTable
	if c.Rank() == 0 {
		table = prior.table.next(keep, ccPairs, ccVerdicts)
	}
	var inside componentPairs
	if cfg.Reduction == GlobalSimilarity {
		if c.Rank() == 0 {
			inside = table.inside(comp, missComps)
		}
		inside = c.Bcast(0, inside).(componentPairs)
	}

	local, err := buildFamilies(c, set, cfg, reg, tracer, missComps, missIdx, inside)
	if err != nil {
		return nil, nil, err
	}

	// Gather families and fresh B_d counts, then every rank's metrics and
	// trace, at rank 0; the other ranks are done. Rank 0 joins the cached
	// families in. sortFamilies below is a pure function of the family
	// set, so the cached/recomputed interleaving cannot perturb the
	// output order.
	gathered := c.Gather(0, local)
	res.Metrics, res.Trace = gatherReports(c, reg, tracer)
	if c.Rank() != 0 {
		return nil, nil, nil
	}
	var all []wireFamily
	for _, g := range gathered {
		b := g.(familyBatch)
		all = append(all, b.Families...)
		table.setCounts(b.Fresh)
	}
	for i, k := range keys {
		for _, w := range prior.famCache[k] {
			w.Comp = int32(i)
			all = append(all, w)
		}
	}

	res.Families = make([]Family, len(all))
	for i, w := range all {
		f := Family{Members: make([]int, len(w.Members)), MeanDegree: w.MeanDegree, Density: w.Density}
		for k, id := range w.Members {
			f.Members[k] = int(id)
		}
		res.Families[i] = f
	}
	sortFamilies(res.Families)
	next = nextState(set, keep, keys, all, table)

	// Each phase's time is the slowest rank's: the critical path of the
	// merged report's rr, ccd, bgg and dsd spans, one per rank.
	for _, ph := range res.Metrics.Phases {
		switch ph.Name {
		case "rr":
			res.RR.Time = ph.MaxSeconds
		case "ccd":
			res.CCD.Time = ph.MaxSeconds
		case "bgg":
			res.BGGTime = ph.MaxSeconds
		case "dsd":
			res.DSDTime = ph.MaxSeconds
		}
	}

	if res.Trace != nil {
		log.Info("pipeline done",
			"families", len(res.Families),
			"trace_events", res.Trace.NumEvents(), "trace_dropped", res.Trace.Dropped,
			"t", c.Time())
	} else {
		log.Info("pipeline done", "families", len(res.Families), "t", c.Time())
	}
	return res, next, nil
}

// nextState is the state a run over set commits for the next epoch: the
// full redundancy verdict, a family-cache entry per component keyed by
// keys (family-less components included — their absence of families is
// itself a reusable result), and the pair table.
func nextState(set *seq.Set, keep []bool, keys []string, fams []wireFamily, table pairTable) *EpochState {
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
	return &EpochState{set: set, redundant: redundant, famCache: famCache, table: table}
}

// buildFamilies runs phases 3+4 on this rank's share of comps: per
// component, build the bipartite reduction and run the Shingle algorithm.
// Components are distributed across all ranks (batched by estimated
// cost) and processed independently — no communication, exactly as the
// paper argues dense subgraphs cannot span components. idx[k] is the
// index of comps[k] among the epoch's components, stamped on its
// families, and under B_d inside[k] lists the promising pairs inside
// comps[k]. It returns the rank's families with the counts of every pair
// its B_d builds aligned, and records the rank's BGG and DSD seconds as
// the bgg and dsd spans of reg.
func buildFamilies(c *mpi.Comm, set *seq.Set, cfg Config, reg *metrics.Registry, tracer *trace.Tracer,
	comps [][]int, idx []int, inside componentPairs) (out familyBatch, err error) {
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
			g, j.build = bipartite.BuildBdFrom(set, members, inside[mine[i]], bcfg)
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
			return familyBatch{}, j.err
		}
		build.Cells += j.build.Cells
		build.PairsAligned += j.build.PairsAligned
		build.PairsReused += j.build.PairsReused
		build.Chars += j.build.Chars
		build.Words += j.build.Words
		out.Fresh = append(out.Fresh, j.build.Fresh...)
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
	// B_d visits every promising pair of its component, reused or
	// aligned; only the aligned ones cost DP cells.
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
	bggTime := (t2 - t1) + wall*bggShare
	dsdTime := (t3 - t2) + wall*(1-bggShare)
	// Phases 3+4 interleave inside the per-component jobs, so their
	// spans are recorded from the apportionment rather than bracketed
	// directly.
	reg.RecordSpan("bgg", t0, t0+bggTime)
	tracer.Instant(trace.CatPipeline, "phase:dsd", "", 0, "", 0)
	reg.RecordSpan("dsd", t0+bggTime, t0+bggTime+dsdTime)
	probeHeapPeak(c, reg)
	return out, nil
}

// gatherReports folds every rank's registry, and its tracer when tracing
// is on, into the job-wide report and timeline on rank 0; every other
// rank gets nil. Each rank snapshots its registry after the last data
// collective, so the transport counters cover the family exchange; the
// metrics gather itself is necessarily outside its own accounting.
// Traces are gathered strictly after the metrics, so that gather's comm
// events are traced, while each rank's snapshot right before sending
// excludes the trace gather's own messages on every rank,
// deterministically.
func gatherReports(c *mpi.Comm, reg *metrics.Registry, tracer *trace.Tracer) (*metrics.Report, *trace.Timeline) {
	gathered := c.Gather(0, reg.Snapshot())
	var rep *metrics.Report
	if c.Rank() == 0 {
		snaps := make([]metrics.Snapshot, len(gathered))
		for i, s := range gathered {
			snaps[i] = s.(metrics.Snapshot)
		}
		rep = metrics.Merge(snaps)
	}
	if tracer == nil {
		return rep, nil
	}
	gathered = c.Gather(0, tracer.Snapshot())
	if c.Rank() != 0 {
		return nil, nil
	}
	rts := make([]trace.RankTrace, len(gathered))
	for i, s := range gathered {
		rts[i] = s.(trace.RankTrace)
	}
	return rep, trace.Merge(rts)
}

// observe builds rank c's metrics registry, the run's single reporting
// path, and when tracing is on its tracer, both clocked by c (virtual
// seconds under the simulator), and attaches both to c. Every phase
// span is mirrored into the tracer, so the trace analyzer and the
// metrics report fold the exact same intervals.
func observe(c *mpi.Comm, cfg Config) (*metrics.Registry, *trace.Tracer) {
	reg := metrics.New(c.Rank(), c.Time)
	c.AttachMetrics(reg)
	if cfg.TraceCapacity <= 0 {
		return reg, nil
	}
	tracer := trace.New(c.Rank(), cfg.TraceCapacity, c.Time, reg.Counter("trace_dropped"))
	reg.SetSpanSink(func(sp metrics.SpanRecord) {
		tracer.Span(trace.CatPhase, sp.Name, sp.Start, sp.End, "", 0, "", 0)
	})
	c.AttachTracer(tracer)
	return reg, tracer
}

// cancelled returns ErrAborted, wrapping ctx's cause, once ctx is done,
// and nil before.
func cancelled(ctx context.Context) error {
	if ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrAborted, context.Cause(ctx))
}

// RunError is the error of a run that failed or was cancelled: the
// cause, with every started rank's last metrics snapshot and, when
// tracing was on, its trace buffer, so a caller without a Result can
// still flush an observability report.
type RunError struct {
	Err       error
	Snapshots []metrics.Snapshot
	Traces    []trace.RankTrace
}

func (e *RunError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause, so errors.Is(err, ErrAborted) holds for a
// cancelled run.
func (e *RunError) Unwrap() error { return e.Err }

// RunPipelineOn executes the pipeline collectively on an existing
// communicator — for callers managing their own transports, such as a
// TCP mesh spanning several processes (see mpi.DialMesh). Every rank
// must call it with the same sequence set and configuration. Rank 0, as
// an MPI root, alone holds the outputs: it returns the Result, and every
// other rank returns nil, nil.
func RunPipelineOn(c *mpi.Comm, set *seq.Set, cfg Config) (*Result, error) {
	reg, tracer := observe(c, cfg)
	res, _, err := runEpochPipeline(context.Background(), c, set, cfg, nil, reg, tracer)
	return res, err
}

// RunSet runs the pipeline over a set the caller already holds: on p
// simulated ranks when simulate is true, or on p concurrent ranks
// otherwise (p = 1 means serial), returning the rank-0 result and the
// makespan in seconds (virtual when simulated, wall-clock otherwise).
// A failed run returns a *RunError.
//
// ThreadsPerRank = 0 resolves here: to max(1, NumCPU/p) on the wall
// clock, and to the paper's single-threaded nodes under simulation, so
// the reproduced scaling curves stay host-independent unless the caller
// explicitly opts into hybrid rank×thread modeling.
func RunSet(set *seq.Set, p int, simulate bool, cfg Config) (*Result, float64, error) {
	res, _, span, err := runJob(context.Background(), set, p, simulate, cfg, nil)
	return res, span, err
}

// runJob is the one body behind RunSet and RunEpoch: it starts p ranks
// (simulated, or goroutines that ctx cancels), builds each rank's
// registry and tracer, and runs the pipeline over set on top of prior.
// It returns rank 0's result and next state and the makespan. On any
// error it returns a *RunError holding every rank's last snapshots; a
// job cancelled through ctx reports ErrAborted wrapping ctx's cause,
// whichever rank noticed first.
func runJob(ctx context.Context, set *seq.Set, p int, simulate bool, cfg Config, prior *EpochState) (*Result, *EpochState, float64, error) {
	regs := make([]*metrics.Registry, max(p, 0))
	tracers := make([]*trace.Tracer, max(p, 0))
	ends := make([]float64, max(p, 0))
	var res *Result
	var next *EpochState
	var rerr error
	body := func(c *mpi.Comm) {
		reg, tracer := observe(c, cfg)
		regs[c.Rank()], tracers[c.Rank()] = reg, tracer
		r, n, e := runEpochPipeline(ctx, c, set, cfg, prior, reg, tracer)
		if c.Rank() == 0 {
			res, next, rerr = r, n, e
		}
		ends[c.Rank()] = c.Time()
	}
	var err error
	if simulate {
		if cfg.ThreadsPerRank == 0 {
			cfg.ThreadsPerRank = 1
		}
		_, err = mpi.RunSim(p, mpi.BlueGeneLike(), body)
	} else {
		cfg = cfg.withAutoThreads(p)
		err = mpi.RunContext(ctx, p, body)
	}
	if err == nil {
		err = rerr
	}
	if err == nil {
		// The makespan is the slowest rank's clock at its end.
		return res, next, slices.Max(ends), nil
	}
	if aerr := cancelled(ctx); aerr != nil {
		err = aerr
	}
	re := &RunError{Err: err}
	for r, reg := range regs { // every rank of a started job ran observe
		re.Snapshots = append(re.Snapshots, reg.Snapshot())
		if tracers[r] != nil {
			re.Traces = append(re.Traces, tracers[r].Snapshot())
		}
	}
	return nil, nil, 0, re
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
