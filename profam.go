// Package profam identifies protein families in large collections of
// amino-acid (ORF) sequences, reproducing the parallel approach of
// Wu & Kalyanaraman, "An Efficient Parallel Approach for Identifying
// Protein Families in Large-scale Metagenomic Data Sets" (SC 2008).
//
// The pipeline has four phases:
//
//  1. Redundancy removal — sequences ≥95 % contained in another sequence
//     are dropped, using a generalized-suffix-tree maximal-match filter
//     so that only promising pairs are ever aligned.
//  2. Connected-component detection — PaCE-style master–worker
//     clustering with union–find transitive-closure work elimination.
//  3. Bipartite graph generation — each component is reduced to a
//     bipartite graph, either by vertex duplication (global-similarity
//     families) or via shared fixed-length words (domain families).
//  4. Dense-subgraph detection — the two-pass Shingle algorithm (Gibson
//     et al., VLDB 2005) with min-wise independent permutations extracts
//     arbitrarily-sized dense subgraphs: the protein families.
//
// Entry points: Run and RunFASTA (serial), RunParallel (goroutine ranks
// over in-memory message passing), RunSimulated (deterministic
// virtual-time simulation of a distributed-memory machine, for scaling
// studies on a single host), RunSet (any of these over a set the caller
// already holds), RunEpoch (incremental epochs over a growing corpus,
// cancelled through a context) and RunPipelineOn (a communicator the
// caller manages, such as a TCP mesh). A failed run returns a *RunError
// carrying every rank's last metrics and trace snapshots.
package profam

import (
	"fmt"
	"io"
	"log/slog"
	"sort"

	"profam/internal/align"
	"profam/internal/bipartite"
	"profam/internal/metrics"
	"profam/internal/pace"
	"profam/internal/pool"
	"profam/internal/seq"
	"profam/internal/shingle"
	"profam/internal/trace"
)

// Reduction selects the bipartite-graph reduction of phase 3.
type Reduction int

const (
	// GlobalSimilarity is the paper's B_d reduction: families are sets
	// of sequences with strong full-length pairwise similarity.
	GlobalSimilarity Reduction = iota
	// DomainBased is the paper's B_m reduction: families share
	// substantial numbers of exact fixed-length words (domains).
	DomainBased
)

func (r Reduction) String() string {
	if r == GlobalSimilarity {
		return "global-similarity"
	}
	return "domain-based"
}

// Config holds every user-visible knob, with the paper's defaults.
// The zero value is ready to use.
type Config struct {
	// Psi (ψ) is the minimum maximal exact-match length that makes a
	// sequence pair "promising" (default 8).
	Psi int

	// Redundancy removal (Definition 1) thresholds.
	ContainIdentity float64 // default 0.95
	ContainCoverage float64 // default 0.95

	// Overlap (Definition 2) thresholds for component detection.
	OverlapSimilarity float64 // default 0.30
	OverlapCoverage   float64 // default 0.80

	// EdgeSimilarity is the similarity cutoff for bipartite-graph edges
	// (defaults to OverlapSimilarity).
	EdgeSimilarity float64

	// Reduction selects B_d (GlobalSimilarity) or B_m (DomainBased).
	Reduction Reduction
	// W is the word length for the domain-based reduction (default 10).
	W int

	// Shingle parameters (defaults (5,300) and (5,100), per the paper's
	// fine-tuned setting).
	S1, C1, S2, C2 int
	// Tau is the |A∩B|/|A∪B| post-test for global-similarity families
	// (default 0.5).
	Tau float64

	// MinComponentSize skips smaller connected components (paper
	// reports components of 5+; default 5).
	MinComponentSize int
	// MinFamilySize drops smaller dense subgraphs (default 5).
	MinFamilySize int

	// Seed drives the min-wise permutation family (default fixed).
	Seed int64

	// BatchPairs/BatchTasks tune the master–worker exchange granularity.
	BatchPairs, BatchTasks int

	// ThreadsPerRank bounds the goroutine pool each rank fans its
	// embarrassingly-parallel work out over (alignment batches, index
	// construction, per-component phase 3+4 jobs) — the hybrid
	// rank×thread execution model. 0 means auto: the wall-clock entry
	// points (Run, RunFASTA, RunParallel, RunSet) resolve it to
	// max(1, NumCPU/ranks), while RunSimulated keeps the paper's
	// single-threaded nodes so virtual curves stay host-independent.
	// RunPipelineOn treats 0 as 1; distributed callers choose their own
	// budget. Results are byte-identical for every value; only execution
	// time changes.
	ThreadsPerRank int

	// TraceCapacity enables event-level tracing: each rank records up to
	// this many protocol and communication events into a bounded ring
	// buffer (oldest overwritten beyond capacity, drops counted under
	// trace_dropped). At job end the per-rank buffers are merged into
	// Result.Trace. 0 (the default) disables tracing entirely.
	TraceCapacity int

	// Logger receives structured progress records from the pipeline
	// (rank-0 phase milestones at info level, per-round master detail at
	// debug level), stamped with the rank clock — virtual seconds under
	// RunSimulated. nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Psi == 0 {
		c.Psi = 8
	}
	if c.ContainIdentity == 0 {
		c.ContainIdentity = 0.95
	}
	if c.ContainCoverage == 0 {
		c.ContainCoverage = 0.95
	}
	if c.OverlapSimilarity == 0 {
		c.OverlapSimilarity = 0.30
	}
	if c.OverlapCoverage == 0 {
		c.OverlapCoverage = 0.80
	}
	if c.EdgeSimilarity == 0 {
		c.EdgeSimilarity = c.OverlapSimilarity
	}
	if c.W == 0 {
		c.W = 10
	}
	if c.S1 == 0 {
		c.S1 = 5
	}
	if c.C1 == 0 {
		c.C1 = 300
	}
	if c.S2 == 0 {
		c.S2 = 5
	}
	if c.C2 == 0 {
		c.C2 = 100
	}
	if c.Tau == 0 {
		c.Tau = 0.5
	}
	if c.MinComponentSize == 0 {
		c.MinComponentSize = 5
	}
	if c.MinFamilySize == 0 {
		c.MinFamilySize = 5
	}
	if c.Seed == 0 {
		c.Seed = 20081117
	}
	return c
}

// epochFingerprint canonicalizes every knob that influences family
// output. Incremental epochs refuse to extend state built under a
// different fingerprint: the determinism contract (incremental ==
// byte-identical to cold) only holds when all epochs agree on these.
// Execution-shape knobs (threads, batching) are deliberately excluded —
// families are certified identical across them.
func (c Config) epochFingerprint() string {
	d := c.withDefaults()
	return fmt.Sprintf("psi=%d ci=%g cc=%g os=%g oc=%g es=%g red=%d w=%d s1=%d c1=%d s2=%d c2=%d tau=%g mc=%d mf=%d seed=%d",
		d.Psi, d.ContainIdentity, d.ContainCoverage, d.OverlapSimilarity, d.OverlapCoverage,
		d.EdgeSimilarity, d.Reduction, d.W, d.S1, d.C1, d.S2, d.C2, d.Tau,
		d.MinComponentSize, d.MinFamilySize, d.Seed)
}

// Fingerprint exposes the epoch fingerprint for provenance records: two
// configs with equal fingerprints are guaranteed to produce identical
// families over the same corpus, so a ledger that stores it can certify
// which runs are comparable.
func (c Config) Fingerprint() string { return c.epochFingerprint() }

func (c Config) paceConfig() pace.Config {
	return pace.Config{
		Psi:        c.Psi,
		BatchPairs: c.BatchPairs,
		BatchTasks: c.BatchTasks,
		Threads:    c.ThreadsPerRank,
		Contain:    align.ContainParams{MinIdentity: c.ContainIdentity, MinCoverage: c.ContainCoverage},
		Overlap:    align.OverlapParams{MinSimilarity: c.OverlapSimilarity, MinLongCoverage: c.OverlapCoverage},
	}
}

func (c Config) bipartiteConfig() bipartite.Config {
	return bipartite.Config{
		Psi:  c.Psi,
		Edge: align.OverlapParams{MinSimilarity: c.EdgeSimilarity, MinLongCoverage: c.OverlapCoverage},
		W:    c.W,
	}
}

// withAutoThreads resolves ThreadsPerRank = 0 (auto) to the hybrid
// default for a wall-clock job of p in-process ranks sharing this host:
// max(1, NumCPU/p).
func (c Config) withAutoThreads(p int) Config {
	if c.ThreadsPerRank == 0 {
		c.ThreadsPerRank = pool.DefaultThreads(p)
	}
	return c
}

func (c Config) shingleParams() shingle.Params {
	return shingle.Params{
		S1: c.S1, C1: c.C1, S2: c.S2, C2: c.C2,
		Tau: c.Tau, MinSize: c.MinFamilySize, Seed: c.Seed,
	}
}

// Family is one detected protein family.
type Family struct {
	// Members are sequence indices into the input, sorted ascending.
	Members []int
	// MeanDegree and Density describe the similarity subgraph induced by
	// the family (global-similarity reduction only): Density is the
	// paper's mean-degree/(size-1) measure.
	MeanDegree float64
	Density    float64
}

// Size returns the number of member sequences.
func (f Family) Size() int { return len(f.Members) }

// PhaseStats mirrors the master–worker phase counters.
type PhaseStats struct {
	PairsGenerated int64
	PairsDuplicate int64
	PairsClosure   int64
	PairsAligned   int64
	PairsPositive  int64
	Cells          int64
	Time           float64 // seconds (virtual under RunSimulated)
}

// WorkReduction is the fraction of generated promising pairs that never
// required an alignment.
func (s PhaseStats) WorkReduction() float64 {
	if s.PairsGenerated == 0 {
		return 0
	}
	return 1 - float64(s.PairsAligned)/float64(s.PairsGenerated)
}

func fromPace(st pace.Stats) PhaseStats {
	return PhaseStats{
		PairsGenerated: st.PairsGenerated,
		PairsDuplicate: st.PairsDuplicate,
		PairsClosure:   st.PairsClosure,
		PairsAligned:   st.PairsAligned,
		PairsPositive:  st.PairsPositive,
		Cells:          st.Cells,
		Time:           st.PhaseTime,
	}
}

// Result is the pipeline's complete output.
type Result struct {
	// Input and non-redundant sequence counts.
	NumInput, NumNonRedundant int
	// Keep[i] reports whether input sequence i survived redundancy
	// removal.
	Keep []bool
	// Components lists the connected components of size ≥
	// MinComponentSize, largest first.
	Components [][]int
	// Families are the dense subgraphs, largest first.
	Families []Family

	RR  PhaseStats // redundancy removal
	CCD PhaseStats // connected-component detection
	// BGGTime and DSDTime are the bipartite-generation and
	// dense-subgraph phase times in seconds.
	BGGTime, DSDTime float64

	// Metrics is the job-wide observability report: every counter, gauge,
	// histogram and phase span from all ranks, merged (counters summed,
	// gauges maxed, histograms merged, spans folded per phase). Identical
	// on every rank. Times are virtual seconds under RunSimulated and
	// wall-clock seconds otherwise; Metrics.Canonical() strips the
	// clock-derived fields, leaving the thread-count-independent part.
	Metrics *metrics.Report

	// Trace is the job-wide event timeline, present only when
	// Config.TraceCapacity > 0: every rank's protocol and comm events,
	// merged in rank order and identical on every rank. Export with
	// trace.WriteChromeJSON, analyze with trace.Analyze;
	// Trace.Canonical() is the thread-count-independent form.
	Trace *trace.Timeline
}

// SeqsInFamilies returns the number of sequences covered by families.
func (r *Result) SeqsInFamilies() int {
	n := 0
	for _, f := range r.Families {
		n += len(f.Members)
	}
	return n
}

// MeanFamilyDegree averages MeanDegree over families (Table I's "mean
// degree" column).
func (r *Result) MeanFamilyDegree() float64 {
	if len(r.Families) == 0 {
		return 0
	}
	var s float64
	for _, f := range r.Families {
		s += f.MeanDegree
	}
	return s / float64(len(r.Families))
}

// MeanFamilyDensity averages Density over families.
func (r *Result) MeanFamilyDensity() float64 {
	if len(r.Families) == 0 {
		return 0
	}
	var s float64
	for _, f := range r.Families {
		s += f.Density
	}
	return s / float64(len(r.Families))
}

// LargestFamily returns the size of the largest family (0 if none).
func (r *Result) LargestFamily() int {
	if len(r.Families) == 0 {
		return 0
	}
	return len(r.Families[0].Members)
}

// Summary renders the Table I row for this result.
func (r *Result) Summary() string {
	return fmt.Sprintf("#input=%d #NR=%d #CC=%d #DS=%d #seqInDS=%d meanDeg=%.0f meanDensity=%.0f%% largestDS=%d",
		r.NumInput, r.NumNonRedundant, len(r.Components), len(r.Families),
		r.SeqsInFamilies(), r.MeanFamilyDegree(), 100*r.MeanFamilyDensity(), r.LargestFamily())
}

// FamilyLabels returns a per-sequence family label (-1 when the sequence
// is in no family), for quality comparisons.
func (r *Result) FamilyLabels() []int {
	labels := make([]int, r.NumInput)
	for i := range labels {
		labels[i] = -1
	}
	for fi, f := range r.Families {
		for _, id := range f.Members {
			labels[id] = fi
		}
	}
	return labels
}

// --- input helpers ------------------------------------------------------

// setFromStrings builds the input set; nil names means seq0, seq1, ….
func setFromStrings(names, seqs []string) (*seq.Set, error) {
	if names == nil {
		names = make([]string, len(seqs))
	}
	if len(names) != len(seqs) {
		return nil, fmt.Errorf("profam: %d names but %d sequences", len(names), len(seqs))
	}
	set := seq.NewSet()
	for i := range seqs {
		name := names[i]
		if name == "" {
			name = fmt.Sprintf("seq%d", i)
		}
		if _, err := set.Add(name, seqs[i]); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// --- entry points ---------------------------------------------------------
//
// Each is an argument-shaping wrapper over RunSet (pipeline.go), the one
// body that starts the ranks.

// Run executes the whole pipeline serially on the given sequences.
// names may be nil (sequences are then named seq0, seq1, …).
func Run(names, seqs []string, cfg Config) (*Result, error) {
	return RunParallel(1, names, seqs, cfg)
}

// RunFASTA executes the pipeline serially on FASTA input.
func RunFASTA(r io.Reader, cfg Config) (*Result, error) {
	set, err := seq.ReadFASTA(r)
	if err != nil {
		return nil, err
	}
	res, _, err := RunSet(set, 1, false, cfg)
	return res, err
}

// RunParallel executes the pipeline on p concurrent ranks (goroutines
// exchanging in-memory messages). Results are identical to Run up to the
// documented ordering effects of dynamic work distribution.
func RunParallel(p int, names, seqs []string, cfg Config) (*Result, error) {
	set, err := setFromStrings(names, seqs)
	if err != nil {
		return nil, err
	}
	res, _, err := RunSet(set, p, false, cfg)
	return res, err
}

// RunSimulated executes the pipeline on p simulated ranks of a
// distributed-memory machine with BlueGene/L-like communication costs and
// returns the result together with the virtual makespan in seconds. This
// is the engine behind the scaling experiments.
func RunSimulated(p int, names, seqs []string, cfg Config) (*Result, float64, error) {
	set, err := setFromStrings(names, seqs)
	if err != nil {
		return nil, 0, err
	}
	return RunSet(set, p, true, cfg)
}

// sortFamilies orders families largest-first with deterministic ties:
// equal-size families compare lexicographically on their (ascending)
// member lists, so the order is a pure function of the family set and
// independent of discovery order — required for the incremental ==
// cold byte-identity contract, where cached and recomputed families
// arrive interleaved.
func sortFamilies(fams []Family) {
	sort.Slice(fams, func(i, j int) bool {
		mi, mj := fams[i].Members, fams[j].Members
		if len(mi) != len(mj) {
			return len(mi) > len(mj)
		}
		for k := range mi {
			if mi[k] != mj[k] {
				return mi[k] < mj[k]
			}
		}
		return false
	})
}
