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

// FuzzAlignCascade cross-checks the anchored banded kernel and the
// containment cascade against the exact full-matrix reference on
// arbitrary residue strings and arbitrary (possibly bogus) seeds.
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

		cp := DefaultContainParams()
		wantC, wantWhich := exact.EitherContained(a, b, cp)
		gotC, gotWhich, _ := al.EitherContainedCascade(a, b, cp, seed)
		if wantC != gotC || wantWhich != gotWhich {
			t.Fatalf("EitherContainedCascade=(%v,%d), exact=(%v,%d)", gotC, gotWhich, wantC, wantWhich)
		}
	})
}
