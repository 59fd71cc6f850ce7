package align

// ContainParams are the thresholds of the paper's Definition 1
// (redundancy removal). Both are fractions in (0, 1].
type ContainParams struct {
	// MinIdentity is the minimum identity of the overlapping region
	// (paper default 0.95).
	MinIdentity float64
	// MinCoverage is the minimum fraction of the contained sequence that
	// must lie inside the overlapping region (paper default 0.95).
	MinCoverage float64
}

// DefaultContainParams returns the paper's default (95 % / 95 %) settings.
func DefaultContainParams() ContainParams {
	return ContainParams{MinIdentity: 0.95, MinCoverage: 0.95}
}

// OverlapParams are the thresholds of the paper's Definition 2
// (connected-component detection).
type OverlapParams struct {
	// MinSimilarity is the minimum fraction of positive-scoring columns
	// in the alignment (paper default 0.30).
	MinSimilarity float64
	// MinLongCoverage is the minimum fraction of the longer sequence the
	// alignment must span (paper default 0.80).
	MinLongCoverage float64
}

// DefaultOverlapParams returns the paper's default (30 % / 80 %) settings.
func DefaultOverlapParams() OverlapParams {
	return OverlapParams{MinSimilarity: 0.30, MinLongCoverage: 0.80}
}

// Contained reports whether sequence a is contained in sequence b per
// Definition 1: a fit alignment of a into b whose overlapping region has
// identity ≥ p.MinIdentity and covers ≥ p.MinCoverage of a. The fit
// kernel decides it from the alignment's counts; Align(a, b, Fit) is its
// oracle.
func (al *Aligner) Contained(a, b []byte, p ContainParams) bool {
	if len(a) > len(b) {
		// A longer sequence can never be 95 % covered inside a shorter
		// one (gaps only hurt); skip the DP.
		return false
	}
	matches, cols, coveredA := al.fitCounts(a, b)
	if cols == 0 {
		return false
	}
	identity := float64(matches) / float64(cols)
	cov := float64(coveredA) / float64(len(a))
	return identity >= p.MinIdentity && cov >= p.MinCoverage
}

// EitherContained reports containment in either direction and, when true,
// which sequence is the redundant (contained) one: 0 for a, 1 for b.
func (al *Aligner) EitherContained(a, b []byte, p ContainParams) (contained bool, which int) {
	if len(a) <= len(b) {
		return al.Contained(a, b, p), 0
	}
	return al.Contained(b, a, p), 1
}

// OverlapCounts are the exact integer ingredients of a Definition-2
// verdict, read off one local alignment. They depend only on the two
// residue strings, their order and the scoring, never on thresholds, so
// counts computed once decide the verdict under any OverlapParams.
type OverlapCounts struct {
	Positives int32 // columns with a positive substitution score
	Cols      int32 // alignment columns
	Span      int32 // the alignment's extent on the longer sequence
	LongLen   int32 // the longer sequence's length
}

// CountsOf extracts the overlap counts of r, the local alignment of a
// sequence of length la against one of length lb. The span is measured
// on the longer sequence's aligned range (a's on a tie).
func CountsOf(r Result, la, lb int) OverlapCounts {
	c := OverlapCounts{Positives: int32(r.Positives), Cols: int32(r.Cols),
		Span: int32(r.EndA - r.StartA), LongLen: int32(la)}
	if lb > la {
		c.Span, c.LongLen = int32(r.EndB-r.StartB), int32(lb)
	}
	return c
}

// Accept reports whether counts pass Definition 2: similarity ≥
// p.MinSimilarity over a span of at least p.MinLongCoverage of the
// longer sequence. An empty alignment never passes.
func (p OverlapParams) Accept(c OverlapCounts) bool {
	if c.Cols == 0 {
		return false
	}
	sim := float64(c.Positives) / float64(c.Cols)
	cov := float64(c.Span) / float64(c.LongLen)
	return sim >= p.MinSimilarity && cov >= p.MinLongCoverage
}

// Overlaps reports whether a and b overlap per Definition 2: a local
// alignment with similarity ≥ p.MinSimilarity spanning at least
// p.MinLongCoverage of the longer sequence.
func (al *Aligner) Overlaps(a, b []byte, p OverlapParams) bool {
	return p.Accept(al.LocalCounts(a, b))
}
