package align

import "testing"

// fuzzResidues maps arbitrary bytes onto the A–Z residue alphabet the
// scoring matrix indexes, preserving the input's length and structure.
func fuzzResidues(s string) []byte {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = 'A' + s[i]%26
	}
	return out
}

// resultOverlaps is the Definition-2 verdict computed from the Result's
// own fields, the way Overlaps read it before verdicts became counts.
func resultOverlaps(r Result, la, lb int, p OverlapParams) bool {
	if r.Cols == 0 {
		return false
	}
	longLen, span := la, r.EndA-r.StartA
	if lb > longLen {
		longLen, span = lb, r.EndB-r.StartB
	}
	return r.Similarity() >= p.MinSimilarity && float64(span)/float64(longLen) >= p.MinLongCoverage
}

// FuzzAlignCascade cross-checks the anchored banded kernel and the
// containment cascade against the exact full-matrix reference on
// arbitrary residue strings and arbitrary (possibly bogus) seeds, the
// counts kernels against Align in both argument orders, and the
// count-based overlap verdict against the Result-based one.
func FuzzAlignCascade(f *testing.F) {
	f.Add("ACDEFGHIK", "ACDEFGWIK", 0, 0, 5)
	f.Add("MKWVTFISLLFLFSSAYS", "KWVTFISLL", 1, 0, 9)
	f.Add("", "WWWW", 3, 1, 2)
	f.Add("AAAAAAAAAA", "CCCCCCCCCCCC", -7, 40, 0)
	f.Add("WHKNMEFRWCYHH", "TTTTWHKNMEFRWCYHH", 0, 4, 13)
	f.Fuzz(func(t *testing.T, as, bs string, pa, pb, ln int) {
		if len(as) > 256 || len(bs) > 256 {
			t.Skip()
		}
		a, b := fuzzResidues(as), fuzzResidues(bs)
		seed := SeedMatch{PosA: pa % 512, PosB: pb % 512, Len: ln % 512}
		al := NewAligner(Blosum62(11, 1))
		exact := NewAligner(Blosum62(11, 1))

		localFull := exact.LocalScore(a, b)
		wide := len(a) + len(b) + abs(seed.Diag()) + 1
		if got := al.LocalScoreBandedAnchored(a, b, seed.Diag(), wide); got != localFull {
			t.Fatalf("wide anchored band=%d, LocalScore=%d", got, localFull)
		}
		if got := al.LocalScoreBandedAnchored(a, b, seed.Diag(), 4); got < 0 || got > localFull {
			t.Fatalf("narrow anchored band=%d escapes [0,%d]", got, localFull)
		}

		// Counts are not symmetric, so each order is its own case.
		checkCounts(t, al, exact, a, b)
		checkCounts(t, al, exact, b, a)

		cp := DefaultContainParams()
		short, long, shortSeed := shorterFirst(a, b, seed)
		wantC := exact.Contained(short, long, cp)
		gotC, _ := al.ContainedCascade(short, long, cp, shortSeed)
		if wantC != gotC {
			t.Fatalf("ContainedCascade=%v, exact=%v", gotC, wantC)
		}

		// The default thresholds, an edge-like cutoff, and the loosest
		// and tightest possible ones; an empty local alignment (Cols == 0)
		// must be rejected by all of them.
		r := exact.Align(a, b, Local)
		counts := CountsOf(r, len(a), len(b))
		for _, p := range []OverlapParams{
			DefaultOverlapParams(), {MinSimilarity: 0.78, MinLongCoverage: 0.80},
			{MinSimilarity: 0, MinLongCoverage: 0}, {MinSimilarity: 1, MinLongCoverage: 1},
		} {
			want := resultOverlaps(r, len(a), len(b), p)
			if got := p.Accept(counts); got != want {
				t.Fatalf("%+v: Accept(%+v)=%v, Result verdict=%v", p, counts, got, want)
			}
			if got := al.Overlaps(a, b, p); got != want {
				t.Fatalf("%+v: Overlaps=%v, Result verdict=%v", p, got, want)
			}
		}
	})
}
