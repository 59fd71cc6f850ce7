// Package spgemm generates promising candidate pairs from a sparse
// k-mer × sequence matrix instead of a maximal-match index — the
// PASTIS-style formulation of the promising-pairs problem as a blocked,
// streamed A·Aᵀ overlap multiply.
//
// The matrix A has one row per distinct ψ-mer of the corpus and one
// column per sequence; a stored entry A[r][s] packs the offset of an
// occurrence of ψ-mer r in sequence s. The candidate set of the
// multiply — the sequence pairs sharing at least one row — is exactly
// the GST/ESA promising-pair set: a shared ψ-mer extends to a maximal
// match of length ≥ ψ, and conversely any maximal match of length ≥ ψ
// contains a shared ψ-mer at its start. Each emitted pair carries the
// coordinates of a genuine shared ψ-mer occurrence, extended to its
// maximal match, so the alignment cascade seeds on it unchanged.
//
// Nothing in the pipeline calls this package: phases 1–3 index with
// internal/esa, and the only caller left is the benchmark's per-layer
// comparison (bench/staged.go). It is kept, with its own tests, as the
// starting point for distributed candidate generation, which ROADMAP.md
// parks until a corpus exhausts one rank's index budget.
//
// Memory is the point. The suffix-tree and suffix-array builders hold
// every subtree of their bucket assignment alive for the whole phase;
// this package materializes one bucket's CSR block at a time (8 bytes
// per posting plus 4 bytes per row boundary) and streams the product
// through a bounded per-block accumulator, so peak index memory is the
// largest single bucket rather than the sum of all of them.
//
// Determinism: buckets arrive in the caller's (weight-sorted, rank-
// assigned) order, rows within a bucket are sorted by k-mer bytes, the
// accumulator flushes in insertion order re-sorted by descending seed
// length with stable ties — every step is a total order independent of
// thread count and rank layout, and all counters are computed by
// per-row arithmetic so they are invariant under any partition of the
// buckets across ranks.
package spgemm

import (
	"bytes"
	"fmt"
	"sort"

	"profam/internal/seq"
	"profam/internal/suffixtree"
)

// Options configure a Source.
type Options struct {
	// K is ψ — the k-mer width, which must equal the pipeline's minimum
	// maximal-match length for the backend-equivalence argument to hold.
	K int
	// PrefixLen is the bucketing granularity the caller's buckets were
	// built with; rows of a bucket share this prefix, so only the
	// remaining K−PrefixLen residues are compared when sorting rows.
	PrefixLen int
	// BlockNNZ bounds the postings gathered into one accumulator block
	// (default 4096). A block always contains at least one full row.
	BlockNNZ int
	// MinShared is the shared-k-mer count a pair must reach within one
	// block to be emitted (default 1). Values above 1 trade recall for
	// pair volume and break exact backend equivalence; the count is
	// per block, not global, so a pair spread thinly across blocks may
	// be suppressed entirely.
	MinShared int
	// MaxRowOcc caps the distinct sequences a single k-mer row may
	// touch; rows above the cap (low-complexity repeats) count their
	// raw pairs but contribute nothing to the accumulator. 0 disables
	// the cap, preserving backend equivalence.
	MaxRowOcc int
	// NewFrom > 0 is the incremental-epoch filter: pairs whose
	// sequences both predate it are counted under Prior and skipped at
	// expansion, mirroring the GST/ESA enumeration filter.
	NewFrom int32
}

func (o Options) withDefaults() (Options, error) {
	if o.K < 1 {
		return o, fmt.Errorf("spgemm: K must be >= 1, got %d", o.K)
	}
	if o.PrefixLen == 0 {
		o.PrefixLen = 2
		if o.PrefixLen > o.K {
			o.PrefixLen = o.K
		}
	}
	if o.PrefixLen < 1 || o.PrefixLen > o.K {
		return o, fmt.Errorf("spgemm: PrefixLen must be in [1, K], got %d", o.PrefixLen)
	}
	if o.BlockNNZ == 0 {
		o.BlockNNZ = 4096
	}
	if o.BlockNNZ < 1 {
		return o, fmt.Errorf("spgemm: BlockNNZ must be >= 1, got %d", o.BlockNNZ)
	}
	if o.MinShared == 0 {
		o.MinShared = 1
	}
	if o.MinShared < 1 {
		return o, fmt.Errorf("spgemm: MinShared must be >= 1, got %d", o.MinShared)
	}
	if o.MaxRowOcc < 0 {
		return o, fmt.Errorf("spgemm: MaxRowOcc must be >= 0, got %d", o.MaxRowOcc)
	}
	return o, nil
}

// Hooks observe the streaming multiply; either may be nil. They fire on
// the goroutine driving Next.
type Hooks struct {
	// OnBucket fires after one bucket's CSR block is built: postings
	// stored, distinct k-mer rows, and the block's resident footprint
	// in bytes.
	OnBucket func(postings, rows int, footprint int64)
	// OnBlock fires after one accumulator block flushes, with the
	// number of distinct pair entries the accumulator held.
	OnBlock func(entries int)
}

// Stats are the multiply's running totals. Raw, Prior, Blocks and
// CappedRows are per-row arithmetic, invariant under bucket
// partitioning; AccumPeak and PeakBytes are per-rank high-water marks.
type Stats struct {
	Raw        int64 // distinct-sequence pairs over all rows, before dedup
	Prior      int64 // raw pairs suppressed by the NewFrom epoch filter
	Blocks     int64 // accumulator blocks flushed
	CappedRows int64 // rows dropped by MaxRowOcc
	AccumPeak  int   // high-water distinct entries in one accumulator block
	PeakBytes  int64 // largest single CSR block footprint
}

// csr is one bucket's slice of the k-mer × sequence matrix: postings
// sorted by (k-mer bytes, sequence, offset) with rowStart[i] marking
// where row i begins (len(rowStart) == rows+1).
type csr struct {
	postings []suffixtree.Suffix
	rowStart []int32
}

func (m *csr) rows() int { return len(m.rowStart) - 1 }

// footprint is the block's resident size: 8 bytes per posting plus 4
// per row boundary.
func (m *csr) footprint() int64 {
	return int64(len(m.postings))*8 + int64(len(m.rowStart))*4
}

// accEnt is one accumulator entry: a candidate pair, the seed
// coordinates of the first shared k-mer that created it, and how many
// distinct k-mer rows of the current block the pair shares.
type accEnt struct {
	a, b       int32
	offA, offB int32
	count      int32
}

// Source streams candidate pairs from the blocked multiply over the
// buckets this rank owns. It is single-goroutine, like the GST/ESA
// pair sources.
type Source struct {
	set     *seq.Set
	buckets []suffixtree.Bucket
	own     []int
	opt     Options
	hooks   Hooks

	bi   int // next index into own
	cur  csr // current bucket's CSR block
	row  int // next row of cur
	seen map[int64]bool

	buf []suffixtree.Pair
	pos int

	ents []accEnt
	idx  map[int64]int32
	dseq []suffixtree.Suffix // per-row distinct-sequence scratch

	st Stats
}

// NewSource builds a streaming pair source over the given buckets (the
// caller's weight-sorted bucket list, typically from
// suffixtree.Buckets) restricted to the indices in own — the same
// ownership lists suffixtree.AssignBuckets hands each rank, so the
// sparse backend partitions work identically to the tree backends.
func NewSource(set *seq.Set, buckets []suffixtree.Bucket, own []int, opt Options, hooks Hooks) (*Source, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Source{
		set:     set,
		buckets: buckets,
		own:     own,
		opt:     opt,
		hooks:   hooks,
		seen:    make(map[int64]bool),
		idx:     make(map[int64]int32),
	}, nil
}

// Stats returns the multiply's totals so far.
func (s *Source) Stats() Stats { return s.st }

func pairKey(a, b int32) int64 { return int64(a)<<32 | int64(uint32(b)) }

// kmer returns the row-distinguishing residues of a posting: the k-mer
// minus the bucket-shared prefix.
func (s *Source) kmer(sf suffixtree.Suffix) []byte {
	res := s.set.Seqs[sf.Seq].Res
	return res[int(sf.Off)+s.opt.PrefixLen : int(sf.Off)+s.opt.K]
}

// buildBucket materializes one bucket's CSR block. Sorting by k-mer
// bytes then (sequence, offset) is a total order, so the row layout is
// identical regardless of the bucket's input suffix order.
func (s *Source) buildBucket(b suffixtree.Bucket) {
	s.cur.postings = append(s.cur.postings[:0], b.Suffixes...)
	p := s.cur.postings
	sort.Slice(p, func(i, j int) bool {
		if c := bytes.Compare(s.kmer(p[i]), s.kmer(p[j])); c != 0 {
			return c < 0
		}
		if p[i].Seq != p[j].Seq {
			return p[i].Seq < p[j].Seq
		}
		return p[i].Off < p[j].Off
	})
	s.cur.rowStart = s.cur.rowStart[:0]
	for i := 0; i < len(p); {
		s.cur.rowStart = append(s.cur.rowStart, int32(i))
		j := i + 1
		for j < len(p) && bytes.Equal(s.kmer(p[i]), s.kmer(p[j])) {
			j++
		}
		i = j
	}
	s.cur.rowStart = append(s.cur.rowStart, int32(len(p)))
	s.row = 0
	fp := s.cur.footprint()
	if fp > s.st.PeakBytes {
		s.st.PeakBytes = fp
	}
	if s.hooks.OnBucket != nil {
		s.hooks.OnBucket(len(p), s.cur.rows(), fp)
	}
}

// expandRow feeds one k-mer row's distinct-sequence occurrence list
// into the accumulator. Counting is arithmetic over the distinct count
// so Raw/Prior are partition-invariant; only the accumulator inserts
// depend on the seen/dedup state.
func (s *Source) expandRow(r int) {
	p := s.cur.postings[s.cur.rowStart[r]:s.cur.rowStart[r+1]]
	// Postings within a row are sorted by (sequence, offset): compress
	// to one representative occurrence — the lowest offset — per
	// sequence.
	d := s.dseq[:0]
	for i := 0; i < len(p); {
		d = append(d, p[i])
		sid := p[i].Seq
		for i < len(p) && p[i].Seq == sid {
			i++
		}
	}
	s.dseq = d
	n := len(d)
	if n < 2 {
		return
	}
	s.st.Raw += int64(n) * int64(n-1) / 2
	firstNew := 0
	if s.opt.NewFrom > 0 {
		firstNew = sort.Search(n, func(i int) bool { return d[i].Seq >= s.opt.NewFrom })
		s.st.Prior += int64(firstNew) * int64(firstNew-1) / 2
	}
	if s.opt.MaxRowOcc > 0 && n > s.opt.MaxRowOcc {
		s.st.CappedRows++
		return
	}
	for i := 0; i < n; i++ {
		jStart := i + 1
		if i < firstNew && jStart < firstNew {
			jStart = firstNew // both-old pairs are settled by the prior epoch
		}
		for j := jStart; j < n; j++ {
			key := pairKey(d[i].Seq, d[j].Seq)
			if s.seen[key] {
				continue
			}
			if ei, ok := s.idx[key]; ok {
				s.ents[ei].count++
				continue
			}
			s.idx[key] = int32(len(s.ents))
			s.ents = append(s.ents, accEnt{
				a: d[i].Seq, b: d[j].Seq,
				offA: d[i].Off, offB: d[j].Off,
				count: 1,
			})
		}
	}
}

// extend grows a shared k-mer occurrence to its maximal match, so the
// emitted seed matches what the tree backends would have anchored the
// cascade on (the cascade's verdicts do not depend on which seed is
// chosen — see DESIGN.md §7e — but a longer seed is a better anchor).
func (s *Source) extend(a, b, offA, offB int32) (int32, int32, int32) {
	ra, rb := s.set.Seqs[a].Res, s.set.Seqs[b].Res
	endA, endB := offA+int32(s.opt.K), offB+int32(s.opt.K)
	for offA > 0 && offB > 0 && ra[offA-1] == rb[offB-1] {
		offA--
		offB--
	}
	for int(endA) < len(ra) && int(endB) < len(rb) && ra[endA] == rb[endB] {
		endA++
		endB++
	}
	return offA, offB, endA - offA
}

// processBlock gathers rows into one accumulator block (bounded by
// BlockNNZ postings, always at least one row), then flushes the
// surviving entries into buf in descending seed-length order.
func (s *Source) processBlock() {
	nnz := 0
	rows := s.cur.rows()
	for s.row < rows {
		lo, hi := s.cur.rowStart[s.row], s.cur.rowStart[s.row+1]
		if nnz > 0 && nnz+int(hi-lo) > s.opt.BlockNNZ {
			break
		}
		s.expandRow(s.row)
		s.row++
		nnz += int(hi - lo)
	}
	if len(s.ents) > s.st.AccumPeak {
		s.st.AccumPeak = len(s.ents)
	}
	blockStart := len(s.buf)
	for i := range s.ents {
		e := &s.ents[i]
		if int(e.count) < s.opt.MinShared {
			continue
		}
		s.seen[pairKey(e.a, e.b)] = true
		offA, offB, ln := s.extend(e.a, e.b, e.offA, e.offB)
		s.buf = append(s.buf, suffixtree.Pair{
			SeqA: e.a, OffA: offA,
			SeqB: e.b, OffB: offB,
			Len: ln,
		})
	}
	blk := s.buf[blockStart:]
	sort.SliceStable(blk, func(i, j int) bool { return blk[i].Len > blk[j].Len })
	s.st.Blocks++
	if s.hooks.OnBlock != nil {
		s.hooks.OnBlock(len(s.ents))
	}
	clear(s.idx)
	s.ents = s.ents[:0]
}

// advance refills buf from the next non-empty block, loading further
// buckets as the current one drains. Returns false when every owned
// bucket is exhausted.
func (s *Source) advance() bool {
	s.buf = s.buf[:0]
	s.pos = 0
	for {
		if s.row >= s.cur.rows() {
			if s.bi >= len(s.own) {
				return false
			}
			s.buildBucket(s.buckets[s.own[s.bi]])
			s.bi++
			continue
		}
		s.processBlock()
		if len(s.buf) > 0 {
			return true
		}
	}
}

// Next returns up to max candidate pairs and whether the source is now
// exhausted — the same contract as the tree-backed pair sources.
func (s *Source) Next(max int) ([]suffixtree.Pair, bool) {
	out := make([]suffixtree.Pair, 0, max)
	for len(out) < max {
		if s.pos >= len(s.buf) {
			if !s.advance() {
				return out, true
			}
		}
		out = append(out, s.buf[s.pos])
		s.pos++
	}
	exhausted := s.pos >= len(s.buf) && s.row >= s.cur.rows() && s.bi >= len(s.own)
	return out, exhausted
}

// IndexPeakBytes measures the backend's peak resident index footprint
// over the given buckets without running the multiply: each CSR block
// is built and discarded in turn, exactly as a streaming run would hold
// them. It equals the Stats().PeakBytes of a drained source, which
// bench/ reports as spgemm.index_peak_bytes.
func IndexPeakBytes(set *seq.Set, buckets []suffixtree.Bucket, opt Options) (int64, error) {
	own := make([]int, len(buckets))
	for i := range own {
		own[i] = i
	}
	s, err := NewSource(set, buckets, own, opt, Hooks{})
	if err != nil {
		return 0, err
	}
	for s.bi < len(s.own) {
		s.buildBucket(s.buckets[s.own[s.bi]])
		s.bi++
	}
	return s.st.PeakBytes, nil
}
