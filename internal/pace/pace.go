// Package pace implements the paper's PaCE-style master–worker phases:
// redundancy removal (Problem 1) and connected-component detection
// (Problem 2).
//
// All ranks hold the sequence set (a few MB at the scales involved; the
// paper's distributed structure is the suffix tree, not the sequences).
// Suffix-tree buckets are assigned to worker ranks; each worker builds its
// subtrees locally (from each bucket's suffix array, internal/esa) and
// lists its "promising pairs" — pairs of sequences sharing a maximal
// exact match of length ≥ ψ — in decreasing match-length order
// (Enumerate). A pipeline run enumerates once: RR ships the whole list to
// the master, CCD the pairs with both sides kept, and CCD hands those
// back to the caller, whose pair table feeds phase 3 and seeds later
// epochs' CCD. The master maintains the global clustering state,
// filters incoming pairs (duplicate elimination plus the closure test:
// for CCD, pairs already in one cluster; for RR, pairs whose later side
// is already redundant), and dynamically assigns the surviving alignment
// workload back to workers. Each worker keeps a replica of the
// clustering state, fed by its own outcomes and a merge log the master
// piggybacks on its replies, and skips the tasks the replica proves
// closed.
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
	// Contain holds the Definition 1 thresholds (default 95 %/95 %).
	Contain align.ContainParams
	// Overlap holds the Definition 2 thresholds (default 30 %/80 %).
	Overlap align.OverlapParams
	// DisableClosureFilter turns off the transitive-closure pair
	// elimination in CCD; used by the ablation benchmarks.
	DisableClosureFilter bool
	// RandomPairOrder makes the master process pending alignments in
	// FIFO instead of decreasing match-length order; used by the
	// ablation benchmarks. A single rank has no master queue: it runs
	// its longest-first pair list in order either way.
	RandomPairOrder bool
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
	if c.BatchPairs == 0 {
		c.BatchPairs = 4096
	}
	if c.BatchTasks == 0 {
		c.BatchTasks = 512
	}
	if c.Contain == (align.ContainParams{}) {
		c.Contain = align.DefaultContainParams()
	}
	if c.Overlap == (align.OverlapParams{}) {
		c.Overlap = align.DefaultOverlapParams()
	}
	if c.Log == nil {
		c.Log = trace.NopLogger()
	}
	return c
}

// Stats summarise one phase's execution across all ranks.
type Stats struct {
	PairsGenerated int64 // promising pairs shipped by workers
	PairsDuplicate int64 // dropped by the master: pair already seen
	PairsClosure   int64 // dropped by the master: already same cluster
	PairsAligned   int64 // alignments actually computed
	PairsPositive  int64 // alignments that passed the phase predicate
	Cells          int64 // total DP cells across workers
	Rounds         int64 // master–worker exchange rounds
}

func (s Stats) String() string {
	return fmt.Sprintf("pairs: %d generated, %d dup, %d closure-skipped, %d aligned (%d positive); cells=%d rounds=%d",
		s.PairsGenerated, s.PairsDuplicate, s.PairsClosure,
		s.PairsAligned, s.PairsPositive, s.Cells, s.Rounds)
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

// PairItem is one promising pair: sequence IDs (A < B) and the length of
// the longest maximal match they share, which orders the master's
// pending queue (longest match first).
type PairItem struct {
	A, B int32
	Len  int32
}

// AlignOutcome is a worker's verdict on one assigned pair.
type AlignOutcome struct {
	A, B int32
	OK   bool // predicate passed
	// Skipped marks a task the worker's replica of the clustering state
	// already proved closed: nothing was aligned, and every other field
	// but A and B is zero.
	Skipped bool
	// Stage records which containment-cascade stage decided an RR pair
	// (0 when the exact path ran instead, and always 0 in CCD; see
	// align.Stage).
	Stage int8
	Cells int64
	// FullCells is what the exact full-matrix predicate would have cost
	// a staged pair, so the master can report the cells the cascade
	// eliminated.
	FullCells int64
	// Overlap holds the counts behind a CCD verdict, so a later phase can
	// re-decide the pair under other thresholds without aligning it
	// again. Zero in RR.
	Overlap align.OverlapCounts
}

// Verdict is one pair in original sequence IDs (A < B) with the overlap
// counts of the local alignment of A against B, which CCD's verdict on
// it, or a B_d edge, is read from. Counts depend on the two residue
// strings alone. Zero counts mark a pair not aligned yet: a computed
// LongLen is the longer sequence's length.
type Verdict struct {
	A, B    int32
	Overlap align.OverlapCounts
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
func (m WorkerMsg) WireSize() int {
	n := 16 + 12*len(m.Pairs) + 29*len(m.Results)
	for _, r := range m.Results {
		switch {
		case r.Skipped:
			n -= 20 // no stage or cell counts follow a skip
		case r.Overlap != (align.OverlapCounts{}):
			n += 16
		}
	}
	return n
}

// Merge is one positive outcome as the master relays it to the replicas
// of the workers that did not produce it.
type Merge struct {
	A, B int32
}

// MasterMsg is the master→worker round payload: the next task batch and
// the merge log, the positive outcomes of other workers that the master
// absorbed since its previous reply to this worker.
type MasterMsg struct {
	Tasks  []PairItem
	Merges []Merge
	Done   bool
}

// WireSize implements mpi.Sized.
func (m MasterMsg) WireSize() int { return 16 + 12*len(m.Tasks) + 8*len(m.Merges) }

// The round payloads cross the TCP transport gob-encoded, so they
// register with it here.
func init() {
	mpi.RegisterType(WorkerMsg{})
	mpi.RegisterType(MasterMsg{})
}

// roundTags returns a phase's message tags: worker → master requests and
// master → worker replies. No collective separates RR from CCD, so a
// worker holding its RR Done may send CCD requests while the master
// still serves RR; each phase's own tags keep those apart.
func roundTags(phase string) (toMaster, toWorker int) {
	if phase == "ccd" {
		return 12, 13
	}
	return 10, 11
}

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

// masterLogic is the phase's clustering state and the policy the generic
// master loop consults. Every rank builds one from the same collective
// arguments: rank 0's is the master state, a worker's is its replica,
// which learns the worker's own outcomes and the master's merge log.
// Both rules are monotone — merges only ever add to the state, and a
// closed pair stays closed — so a replica that knows any subset of the
// outcomes never closes a pair the complete state would still act on.
type masterLogic interface {
	// closed reports whether the state already implies the pair's
	// verdict, so aligning it could change nothing. Duplicate
	// elimination is handled generically before this is called.
	closed(p PairItem) bool
	// keys names the state entries whose change could reopen or close
	// the pair: two outcomes with disjoint keys cannot affect each
	// other's closed test.
	keys(p PairItem) (int32, int32)
	// merge applies one positive outcome and reports whether it changed
	// the state.
	merge(a, b int32) bool
	// record keeps whatever the phase returns about an aligned pair
	// besides the merge; only the master calls it.
	record(r AlignOutcome)
}

// workerLogic computes the phase predicate for one assigned pair.
type workerLogic interface {
	alignPair(al *align.Aligner, set *seq.Set, p PairItem) AlignOutcome
}

// --- redundancy removal -------------------------------------------------

// laterSide orders a pair's sequences by (length descending, ID
// ascending) and returns the side that comes later, then the earlier.
func laterSide(set *seq.Set, a, b int32) (later, earlier int32) {
	la, lb := len(set.Get(int(a)).Res), len(set.Get(int(b)).Res)
	if la < lb || (la == lb && a > b) {
		return a, b
	}
	return b, a
}

// rrMaster holds Definition 1's redundancy marks: a sequence is
// redundant iff some sequence earlier in the (length descending, ID
// ascending) order contains it. A pair can only mark its later side, so
// the marks are the same under any processing order.
type rrMaster struct {
	set       *seq.Set
	redundant []bool
}

func (m *rrMaster) closed(p PairItem) bool {
	later, _ := laterSide(m.set, p.A, p.B)
	return m.redundant[later]
}

func (m *rrMaster) keys(p PairItem) (int32, int32) {
	later, _ := laterSide(m.set, p.A, p.B)
	return later, later
}

func (m *rrMaster) merge(a, b int32) bool {
	later, _ := laterSide(m.set, a, b)
	if m.redundant[later] {
		return false
	}
	m.redundant[later] = true
	return true
}

func (m *rrMaster) record(AlignOutcome) {}

type rrWorker struct {
	params align.ContainParams
	// exact runs the full-matrix Contained predicate instead of the
	// cascade. Verdicts are identical either way, since the cascade only
	// takes provably safe shortcuts; the tests set it as their reference.
	exact bool
}

// alignPair tests whether the pair's later side is contained in its
// earlier side; the reverse containment can never mark anything.
func (w rrWorker) alignPair(al *align.Aligner, set *seq.Set, p PairItem) AlignOutcome {
	later, earlier := laterSide(set, p.A, p.B)
	a, b := set.Get(int(later)).Res, set.Get(int(earlier)).Res
	before := al.Cells
	out := AlignOutcome{A: p.A, B: p.B, FullCells: int64(len(a)) * int64(len(b))}
	if w.exact {
		out.OK = al.Contained(a, b, w.params)
	} else {
		ok, stage := al.ContainedCascade(a, b, w.params, align.SeedMatch{})
		out.OK, out.Stage = ok, int8(stage)
	}
	out.Cells = al.Cells - before
	return out
}

// --- connected component detection ---------------------------------------

type ccMaster struct {
	uf            *unionfind.UF
	disableFilter bool
	verdicts      []Verdict // every aligned outcome
}

func (m *ccMaster) closed(p PairItem) bool {
	return !m.disableFilter && m.uf.Same(int(p.A), int(p.B))
}

func (m *ccMaster) keys(p PairItem) (int32, int32) {
	return int32(m.uf.Find(int(p.A))), int32(m.uf.Find(int(p.B)))
}

func (m *ccMaster) merge(a, b int32) bool { return m.uf.Union(int(a), int(b)) }

func (m *ccMaster) record(r AlignOutcome) {
	m.verdicts = append(m.verdicts, Verdict{A: r.A, B: r.B, Overlap: r.Overlap})
}

type ccWorker struct {
	params align.OverlapParams
}

func (w ccWorker) alignPair(al *align.Aligner, set *seq.Set, p PairItem) AlignOutcome {
	a, b := set.Get(int(p.A)).Res, set.Get(int(p.B)).Res
	before := al.Cells
	out := AlignOutcome{A: p.A, B: p.B, Overlap: al.LocalCounts(a, b)}
	out.OK = w.params.Accept(out.Overlap)
	out.Cells = al.Cells - before
	return out
}
