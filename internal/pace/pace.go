// Package pace implements the paper's PaCE-style master–worker phases:
// redundancy removal (Problem 1) and connected-component detection
// (Problem 2).
//
// All ranks hold the sequence set (a few MB at the scales involved; the
// paper's distributed structure is the suffix tree, not the sequences).
// Suffix-tree buckets are assigned to worker ranks; each worker builds its
// subtrees locally (from each bucket's suffix array, internal/esa) and
// generates "promising pairs" — pairs of sequences sharing a maximal
// exact match of length ≥ ψ — in decreasing match-length order. The
// master maintains the global clustering state,
// filters incoming pairs (duplicate elimination plus, for CCD, the
// transitive-closure test that skips pairs already in one cluster), and
// dynamically assigns the surviving alignment workload back to workers.
//
// The same code runs serially (one rank), concurrently (inproc/tcp
// transports), and on the virtual-time simulator, where each rank charges
// its machine-independent work (suffix-tree characters, DP cells,
// per-pair filter operations) to the simulated clock.
package pace

import (
	"fmt"
	"log/slog"

	"profam/internal/align"
	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/seq"
	"profam/internal/trace"
	"profam/internal/unionfind"
)

// CostParams convert work units into virtual seconds for the simtime
// transport. The defaults are loosely calibrated to the paper's 700 MHz
// PowerPC 440 nodes; only ratios shape the reproduced curves.
type CostParams struct {
	SecPerTreeChar   float64 // suffix-tree construction, per suffix character examined
	SecPerPairGen    float64 // per promising pair generated at a worker
	SecPerCell       float64 // per alignment DP cell
	SecPerPairFilter float64 // master-side per-pair dedup/closure work
}

// DefaultCostParams returns the 2008-era calibration.
func DefaultCostParams() CostParams {
	return CostParams{
		SecPerTreeChar:   1.2e-7,
		SecPerPairGen:    2.5e-7,
		SecPerCell:       4.0e-8,
		SecPerPairFilter: 1.5e-7,
	}
}

// Config controls both phases.
type Config struct {
	// Psi is ψ, the minimum maximal-match length for a promising pair
	// (default 8).
	Psi int
	// PrefixLen is the suffix-tree bucketing granularity (default 2).
	PrefixLen int
	// BatchPairs is how many promising pairs a worker ships to the
	// master per round (default 4096).
	BatchPairs int
	// BatchTasks bounds the alignment tasks one worker holds undone
	// (default 512): each of its prefetchDepth open requests is answered
	// with at most BatchTasks/prefetchDepth tasks, under an adaptive
	// quota that slow-starts at an eighth of that and doubles on every
	// productive dispatch.
	BatchTasks int
	// Threads bounds the intra-rank goroutine pool used for index
	// construction and batch alignment (the hybrid rank×thread model).
	// 0 or 1 means serial — the host-independent default, so simulated
	// curves reproduce everywhere; the profam layer resolves its
	// NumCPU-based auto default before handing the config down.
	Threads int
	// Scoring is the alignment scheme (default BLOSUM62 11/1).
	Scoring *align.Scoring
	// Contain holds the Definition 1 thresholds (default 95 %/95 %).
	Contain align.ContainParams
	// Overlap holds the Definition 2 thresholds (default 30 %/80 %).
	Overlap align.OverlapParams
	// Costs is the simtime work calibration.
	Costs CostParams
	// DisableClosureFilter turns off the transitive-closure pair
	// elimination in CCD; used by the ablation benchmarks.
	DisableClosureFilter bool
	// RandomPairOrder makes the master process pending alignments in
	// FIFO instead of decreasing match-length order; used by the
	// ablation benchmarks.
	RandomPairOrder bool
	// ExactAlign disables RR's containment cascade and runs every
	// assigned pair through the full-matrix Contained predicate. Verdicts
	// are identical either way (the cascade only takes provably-safe
	// shortcuts); this is the reference arm of the determinism tests.
	// CCD always runs the exact Overlaps predicate.
	ExactAlign bool
	// Metrics receives every phase counter, histogram and span; it is
	// the single accumulation path behind Stats (which is a read-out of
	// the registry taken at phase end). Each rank passes its own
	// registry, built on its Comm clock. nil means a private throwaway
	// registry per phase call — Stats still works, nothing is exported.
	Metrics *metrics.Registry
	// Trace receives protocol-level events: round spans, per-worker
	// dispatch/collect instants, queue-depth and merges-applied counter
	// tracks. Each rank passes its own tracer, built on its Comm clock
	// (the same clock as Metrics). nil disables event recording.
	Trace *trace.Tracer
	// Log receives structured progress records (round milestones at
	// debug level), stamped with the rank clock. nil discards.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Psi == 0 {
		c.Psi = 8
	}
	if c.PrefixLen == 0 {
		c.PrefixLen = 2
		if c.PrefixLen > c.Psi {
			c.PrefixLen = c.Psi
		}
	}
	if c.BatchPairs == 0 {
		c.BatchPairs = 4096
	}
	if c.BatchTasks == 0 {
		c.BatchTasks = 512
	}
	if c.Scoring == nil {
		c.Scoring = align.DefaultScoring()
	}
	if c.Contain == (align.ContainParams{}) {
		c.Contain = align.DefaultContainParams()
	}
	if c.Overlap == (align.OverlapParams{}) {
		c.Overlap = align.DefaultOverlapParams()
	}
	if c.Costs == (CostParams{}) {
		c.Costs = DefaultCostParams()
	}
	if c.Log == nil {
		c.Log = trace.NopLogger()
	}
	return c
}

// Stats summarise one phase's execution across all ranks.
type Stats struct {
	PairsRaw       int64 // maximal-match pairs enumerated before worker-local dedup
	PairsGenerated int64 // promising pairs shipped by workers
	PairsDuplicate int64 // dropped by the master: pair already seen
	PairsClosure   int64 // dropped by the master: already same cluster
	PairsAligned   int64 // alignments actually computed
	PairsPositive  int64 // alignments that passed the phase predicate
	Cells          int64 // total DP cells across workers
	Rounds         int64 // master–worker exchange rounds
	TreeTime       float64
	PhaseTime      float64
}

func (s Stats) String() string {
	return fmt.Sprintf("pairs: %d generated, %d dup, %d closure-skipped, %d aligned (%d positive); cells=%d rounds=%d time=%.1fs",
		s.PairsGenerated, s.PairsDuplicate, s.PairsClosure,
		s.PairsAligned, s.PairsPositive, s.Cells, s.Rounds, s.PhaseTime)
}

// WorkReduction returns the fraction of generated pairs that never needed
// an alignment — the paper's headline heuristic-efficiency number.
func (s Stats) WorkReduction() float64 {
	if s.PairsGenerated == 0 {
		return 0
	}
	return 1 - float64(s.PairsAligned)/float64(s.PairsGenerated)
}

// --- wire types -------------------------------------------------------

// PairItem is one promising pair: sequence IDs plus the coordinates of
// the maximal match that made it promising (the seed). OffA/OffB locate
// the match start within each sequence, and Len orders the master's
// pending queue (longest match first).
type PairItem struct {
	A, B       int32
	OffA, OffB int32
	Len        int32
}

// AlignOutcome is a worker's verdict on one assigned pair.
type AlignOutcome struct {
	A, B  int32
	OK    bool // predicate passed
	Which int8 // RR only: 0 if A is the contained side, 1 if B
	// Stage records which containment-cascade stage decided an RR pair
	// (0 when the exact path ran instead, and always 0 in CCD; see
	// align.Stage).
	Stage int8
	Cells int64
	// FullCells is what the exact full-matrix predicate would have cost
	// a staged pair, so the master can report the cells the cascade
	// eliminated.
	FullCells int64
}

// WorkerMsg is the worker→master payload: the next pair batch and the
// outcomes of the worker's most recently finished task batch. Every
// WorkerMsg is a request: the master owes it exactly one MasterMsg reply.
type WorkerMsg struct {
	Pairs     []PairItem
	Exhausted bool // no more pairs will come from this worker
	Results   []AlignOutcome
}

// WireSize implements mpi.Sized.
func (m WorkerMsg) WireSize() int { return 16 + 20*len(m.Pairs) + 29*len(m.Results) }

// MasterMsg is the master→worker round payload.
type MasterMsg struct {
	Tasks []PairItem
	Done  bool
}

// WireSize implements mpi.Sized.
func (m MasterMsg) WireSize() int { return 16 + 20*len(m.Tasks) }

// RegisterWireTypes registers the phase payloads for the TCP transport:
// the binary frame decoders for the hot batch messages, and the gob types
// of everything that has no frame.
func RegisterWireTypes() {
	registerBinaryCodecs()
	mpi.RegisterType([]bool{})
	mpi.RegisterType([]int32{})
	mpi.RegisterType(Stats{})
	mpi.RegisterType(int64(0))
	mpi.RegisterType(float64(0))
}

// message tags.
const (
	tagWorker = 10 // worker → master round message
	tagMaster = 11 // master → worker round message
)

// prefetchDepth is how many task requests a worker keeps in flight: the
// next batch is requested before the current one is aligned, so compute
// overlaps the master round-trip.
const prefetchDepth = 2

// --- pending-task priority queue ---------------------------------------

// taskHeap orders pending alignments by decreasing match length (the
// paper's on-demand ordering), with FIFO tie-breaking for determinism.
type taskEntry struct {
	PairItem
	seq int64
}

type taskHeap struct {
	entries []taskEntry
	fifo    bool
}

func (h *taskHeap) Len() int { return len(h.entries) }
func (h *taskHeap) Less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if !h.fifo && a.Len != b.Len {
		return a.Len > b.Len
	}
	return a.seq < b.seq
}
func (h *taskHeap) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *taskHeap) Push(x any)    { h.entries = append(h.entries, x.(taskEntry)) }
func (h *taskHeap) Pop() (out any) {
	n := len(h.entries)
	out = h.entries[n-1]
	h.entries = h.entries[:n-1]
	return out
}

// pairKey packs an ordered ID pair for the master's duplicate set.
func pairKey(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }

// --- phase logic interfaces ---------------------------------------------

// masterLogic is the phase-specific policy the generic master loop
// consults.
type masterLogic interface {
	// filter decides whether an incoming promising pair still needs an
	// alignment. Duplicate elimination is handled generically before
	// this is called. Returning closure=true counts the pair as
	// eliminated by clustering state.
	filter(p PairItem) (enqueue, closure bool)
	// absorb integrates one alignment outcome into the master state.
	absorb(r AlignOutcome)
}

// workerLogic computes the phase predicate for one assigned pair.
type workerLogic interface {
	alignPair(al *align.Aligner, set *seq.Set, p PairItem) AlignOutcome
}

// --- redundancy removal -------------------------------------------------

type rrMaster struct {
	redundant []bool
}

func (m *rrMaster) filter(p PairItem) (bool, bool) {
	// If either side is already redundant the pair cannot change the
	// outcome: a redundant sequence is dropped regardless, and it is not
	// eligible to serve as a container (its own container still is).
	if m.redundant[p.A] || m.redundant[p.B] {
		return false, true
	}
	return true, false
}

func (m *rrMaster) absorb(r AlignOutcome) {
	if !r.OK {
		return
	}
	contained, container := r.A, r.B
	if r.Which == 1 {
		contained, container = r.B, r.A
	}
	// Never remove both sides of a mutually-contained (near-identical)
	// pair: keep the container if it still stands.
	if !m.redundant[container] {
		m.redundant[contained] = true
	}
}

type rrWorker struct {
	params align.ContainParams
	exact  bool
}

func (w rrWorker) alignPair(al *align.Aligner, set *seq.Set, p PairItem) AlignOutcome {
	a, b := set.Get(int(p.A)), set.Get(int(p.B))
	before := al.Cells
	out := AlignOutcome{A: p.A, B: p.B,
		FullCells: int64(len(a.Res)) * int64(len(b.Res))}
	if w.exact {
		ok, which := al.EitherContained(a.Res, b.Res, w.params)
		out.OK, out.Which = ok, int8(which)
	} else {
		seed := align.SeedMatch{PosA: int(p.OffA), PosB: int(p.OffB), Len: int(p.Len)}
		ok, which, stage := al.EitherContainedCascade(a.Res, b.Res, w.params, seed)
		out.OK, out.Which, out.Stage = ok, int8(which), int8(stage)
	}
	out.Cells = al.Cells - before
	return out
}

// --- connected component detection ---------------------------------------

type ccMaster struct {
	uf            *unionfind.UF
	disableFilter bool
}

func (m *ccMaster) filter(p PairItem) (bool, bool) {
	if !m.disableFilter && m.uf.Same(int(p.A), int(p.B)) {
		return false, true
	}
	return true, false
}

func (m *ccMaster) absorb(r AlignOutcome) {
	if r.OK {
		m.uf.Union(int(r.A), int(r.B))
	}
}

type ccWorker struct {
	params align.OverlapParams
}

func (w ccWorker) alignPair(al *align.Aligner, set *seq.Set, p PairItem) AlignOutcome {
	a, b := set.Get(int(p.A)), set.Get(int(p.B))
	before := al.Cells
	out := AlignOutcome{A: p.A, B: p.B}
	out.OK, _ = al.Overlaps(a.Res, b.Res, w.params)
	out.Cells = al.Cells - before
	return out
}
