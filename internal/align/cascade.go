package align

import "math"

// This file implements the seed-anchored alignment cascade: cheap,
// *provable* accept/reject stages that run before the full O(n·m)
// dynamic program. Every decision a cascade stage makes is certified —
// backed by a bound that holds for all alignments, not a heuristic — so
// the cascade predicates return exactly the same verdicts as the exact
// predicates in predicates.go, byte for byte, while computing a small
// fraction of the DP cells on typical promising-pair workloads.
//
// The stages, in order of increasing cost:
//
//  1. Prefilters (zero DP cells): residue-composition match bounds,
//     length-ratio bounds, forced-gap score ceilings against a seed-run
//     score floor.
//  2. Banded DP (O(band·n) cells): a max-matches DP over the diagonal
//     band that any accepting Definition-1 alignment provably occupies,
//     or a seed-anchored banded local score exceeding the accepting
//     ceiling for Definition 2.
//  3. The unchanged exact DP from predicates.go, for every pair the
//     first two stages cannot decide — in particular every positive.
//
// thresholdSlack absorbs the float rounding of the predicates' ratio
// comparisons when thresholds are turned into integer bounds. It only
// ever loosens a bound, so a slackened stage can fail to reject (falling
// through to the exact DP) but can never reject a pair the exact
// predicate would accept.
const thresholdSlack = 1e-9

// SeedMatch is the maximal exact match that made a sequence pair
// "promising": a[PosA : PosA+Len] equals b[PosB : PosB+Len], and the
// match extends in neither direction. The pair-generation phase (suffix
// tree or ESA) carries it down to the aligner so cascade kernels can
// anchor their band on the seed diagonal. The zero SeedMatch is valid —
// it merely provides no anchor, and every kernel stays correct (just
// potentially slower) under arbitrary, even bogus, seed coordinates.
type SeedMatch struct {
	PosA, PosB int
	Len        int
}

// Diag returns the seed's DP diagonal d = j − i.
func (s SeedMatch) Diag() int { return s.PosB - s.PosA }

// Swapped returns the seed as seen with the two sequences exchanged.
func (s SeedMatch) Swapped() SeedMatch { return SeedMatch{PosA: s.PosB, PosB: s.PosA, Len: s.Len} }

// Stage identifies which cascade stage decided a pair's verdict.
type Stage uint8

const (
	// StageNone means the cascade was not involved (exact path).
	StageNone Stage = iota
	// StagePrefilter is a zero-DP provable decision.
	StagePrefilter
	// StageBanded is a banded-DP certified decision.
	StageBanded
	// StageFull means the cascade fell through to the exact full DP.
	StageFull
)

func (s Stage) String() string {
	switch s {
	case StagePrefilter:
		return "prefilter"
	case StageBanded:
		return "banded"
	case StageFull:
		return "full"
	}
	return "none"
}

// minGapCost lower-bounds the affine penalty of any alignment containing
// k gap columns, however they split into runs: a single run is cheapest
// when opening costs at least extending, otherwise k runs of one.
func (al *Aligner) minGapCost(k int) int32 {
	if k <= 0 {
		return 0
	}
	open, ext := al.sc.GapOpen, al.sc.GapExtend
	if open >= ext {
		return open + int32(k-1)*ext
	}
	return int32(k) * open
}

// maxSubScore returns max(0, the largest substitution score in the
// matrix), cached per aligner.
func (al *Aligner) maxSubScore() int32 {
	if !al.maxSubSet {
		best := int32(0)
		for i := 0; i < 26; i++ {
			for j := 0; j < 26; j++ {
				if v := int32(al.sc.Sub[i][j]); v > best {
					best = v
				}
			}
		}
		al.maxSub, al.maxSubSet = best, true
	}
	return al.maxSub
}

// matchUpperBound is the residue-composition bound on match columns: an
// alignment cannot match more copies of a letter than both sequences
// hold, whatever the path, so Matches ≤ Σ_c min(count_a(c), count_b(c)).
func matchUpperBound(a, b []byte) int {
	var ca, cb [26]int32
	for _, c := range a {
		ca[c-'A']++
	}
	for _, c := range b {
		cb[c-'A']++
	}
	n := int32(0)
	for r := 0; r < 26; r++ {
		if ca[r] < cb[r] {
			n += ca[r]
		} else {
			n += cb[r]
		}
	}
	return int(n)
}

// seedRunScore is a zero-DP local-score lower bound: the best-scoring
// contiguous sub-run of the seed's diagonal (Kadane). Any such run is
// itself a valid gapless local alignment, so its score never exceeds the
// optimal LocalScore. An out-of-range seed is clamped and, at worst,
// yields 0 — the empty local alignment, always available.
func (al *Aligner) seedRunScore(a, b []byte, seed SeedMatch) int32 {
	pa, pb, l := seed.PosA, seed.PosB, seed.Len
	if pa < 0 || pb < 0 {
		return 0
	}
	if rest := len(a) - pa; l > rest {
		l = rest
	}
	if rest := len(b) - pb; l > rest {
		l = rest
	}
	var best, run int32
	for k := 0; k < l; k++ {
		run += int32(al.sc.Sub[a[pa+k]-'A'][b[pb+k]-'A'])
		if run < 0 {
			run = 0
		}
		if run > best {
			best = run
		}
	}
	return best
}

// fitMatchesPossible reports whether any monotone fit path confined to
// the diagonal band d ∈ [dlo, dhi] can contain at least req match
// columns. The DP value is the maximum number of matches on any in-band
// path from row 0 to the cell; gaps are free — the bound is about match
// counts only, and free gaps only loosen it. A row aborts the whole scan
// early once even a perfect remainder (one match per remaining row)
// cannot reach req.
func (al *Aligner) fitMatchesPossible(a, b []byte, dlo, dhi, req int) bool {
	n, m := len(a), len(b)
	if req <= 0 {
		return true
	}
	if n == 0 || m == 0 {
		return false
	}
	al.growRows(m)
	const unreach = int32(-1) << 28
	prev, cur := al.m0, al.m1
	for j := 0; j <= m; j++ {
		prev[j], cur[j] = unreach, unreach
	}
	lo0, hi0 := dlo, dhi // row 0: cell (0, j) lies on diagonal j
	if lo0 < 0 {
		lo0 = 0
	}
	if hi0 > m {
		hi0 = m
	}
	for j := lo0; j <= hi0; j++ {
		prev[j] = 0
	}
	for i := 1; i <= n; i++ {
		if dlo <= -i && -i <= dhi {
			cur[0] = prev[0] // vertical step down the border, no match
		} else {
			cur[0] = unreach
		}
		rowBest := cur[0]
		lo, hi := i+dlo, i+dhi
		if lo < 1 {
			lo = 1
		}
		if hi > m {
			hi = m
		}
		if lo <= hi {
			al.Cells += int64(hi - lo + 1)
			ca := a[i-1]
			left := unreach
			if lo == 1 {
				left = cur[0]
			}
			for j := lo; j <= hi; j++ {
				d := prev[j-1]
				if ca == b[j-1] {
					d++
				}
				if prev[j] > d {
					d = prev[j]
				}
				if left > d {
					d = left
				}
				cur[j] = d
				if d > rowBest {
					rowBest = d
				}
				left = d
			}
		}
		if int(rowBest)+(n-i) < req {
			return false
		}
		prev, cur = cur, prev
	}
	return true
}

// ContainedCascade computes Contained(a, b, p)'s verdict through the
// cascade: zero-DP prefilters, then a certified banded reject, then —
// only when no cheap stage can prove the verdict — the exact Align that
// Contained itself runs. The verdict is always identical to Contained's;
// only the amount of DP work differs. The returned Stage reports which
// stage decided. The seed is accepted for interface symmetry; the
// Definition-1 band is pinned by the fit geometry itself (lengths and
// the identity threshold), which is tighter than any seed anchor.
func (al *Aligner) ContainedCascade(a, b []byte, p ContainParams, seed SeedMatch) (bool, Stage) {
	_ = seed
	n, m := len(a), len(b)
	if n > m || n == 0 || m == 0 {
		// Contained rejects these without DP (longer-into-shorter guard;
		// empty alignment has zero columns).
		return false, StagePrefilter
	}
	// Any accepting alignment has Identity ≥ MinIdentity over Cols ≥ n
	// columns (fit consumes every residue of a), so its integer match
	// count is at least req. The slack absorbs the predicate's float
	// division; it can only weaken the bound, never flip an accept.
	req := int(math.Ceil((p.MinIdentity - thresholdSlack) * float64(n)))
	if req > 0 {
		if matchUpperBound(a, b) < req {
			return false, StagePrefilter
		}
		// Matches ≥ req also pins the geometry: at most imax = n − req
		// gap-in-B columns, and a fit path starts on diagonal ≥ 0 and
		// ends on diagonal ≤ m−n, so every cell of an accepting path lies
		// on a diagonal in [−imax, (m−n)+imax]. If no in-band path
		// reaches req matches, the optimal alignment either leaves the
		// band (then it is not accepting) or stays inside with too few
		// matches (not accepting either): a certified reject.
		imax := n - req
		if width := (m - n) + 2*imax + 1; width*3 <= m {
			// Only spend the banded DP when the band is actually narrow;
			// otherwise the full DP would cost about the same.
			if !al.fitMatchesPossible(a, b, -imax, (m-n)+imax, req) {
				return false, StageBanded
			}
		}
	}
	ok, _ := al.Contained(a, b, p)
	return ok, StageFull
}

// EitherContainedCascade is the cascade form of EitherContained: same
// verdict and `which` side, plus the deciding stage.
func (al *Aligner) EitherContainedCascade(a, b []byte, p ContainParams, seed SeedMatch) (contained bool, which int, stage Stage) {
	if len(a) <= len(b) {
		ok, st := al.ContainedCascade(a, b, p, seed)
		return ok, 0, st
	}
	ok, st := al.ContainedCascade(b, a, p, seed.Swapped())
	return ok, 1, st
}

// cascadeLocalBand is the half-width of the seed-anchored banded local
// score used as a lower bound in OverlapsCascade's banded stage.
const cascadeLocalBand = 8

// OverlapsCascade computes Overlaps(a, b, p)'s verdict through the
// cascade, identically to Overlaps but cheaper when a stage can prove
// the reject. The seed anchors the banded local score and the seed-run
// score floor; arbitrary (even wrong) seeds only weaken the bounds.
func (al *Aligner) OverlapsCascade(a, b []byte, p OverlapParams, seed SeedMatch) (bool, Stage) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return false, StagePrefilter // Overlaps sees zero columns
	}
	short, long := n, m
	if short > long {
		short, long = long, short
	}
	minSim := p.MinSimilarity - thresholdSlack
	minCov := p.MinLongCoverage - thresholdSlack
	// Positives ≤ short (each positive column consumes one residue of
	// each sequence), while accepting needs Positives ≥ MinSimilarity ·
	// Cols ≥ MinSimilarity · span ≥ MinSimilarity · MinLongCoverage · long.
	if minSim > 0 && minCov > 0 && float64(short) < minSim*minCov*float64(long) {
		return false, StagePrefilter
	}
	// Forced-gap ceiling: spanning w ≥ ⌈minCov·long⌉ columns of the
	// longer sequence with at most `short` substitution columns forces
	// ≥ w−short gap columns, so every accepting alignment scores at most
	// ub. Any valid local alignment scoring above ub — the seed run for
	// free, the anchored banded score for O(band·n) — proves the optimal
	// local alignment is not an accepting one: a certified reject.
	if minCov > 0 {
		if w := int(math.Ceil(minCov * float64(long))); w > short {
			ub := int64(short)*int64(al.maxSubScore()) - int64(al.minGapCost(w-short))
			if int64(al.seedRunScore(a, b, seed)) > ub {
				return false, StagePrefilter
			}
			if int64(al.LocalScoreBandedAnchored(a, b, seed.Diag(), cascadeLocalBand)) > ub {
				return false, StageBanded
			}
		}
	}
	ok, _ := al.Overlaps(a, b, p)
	return ok, StageFull
}
