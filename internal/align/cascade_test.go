package align

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// mutate returns a copy of s with roughly rate·len substitutions and a
// few indels, producing related-but-divergent pairs.
func mutate(rng *rand.Rand, s []byte, rate float64) []byte {
	const alpha = "ACDEFGHIKLMNPQRSTVWY"
	out := make([]byte, 0, len(s)+4)
	for _, c := range s {
		r := rng.Float64()
		switch {
		case r < rate*0.1: // deletion
		case r < rate*0.2: // insertion
			out = append(out, alpha[rng.Intn(len(alpha))], c)
		case r < rate:
			out = append(out, alpha[rng.Intn(len(alpha))])
		default:
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = append(out, 'A')
	}
	return out
}

// pairKinds generates a spectrum from identical to unrelated so verdict
// tests exercise accepts, near-threshold cases and rejects.
func pairKinds(rng *rand.Rand) ([]byte, []byte) {
	a := randSeq(rng, 20+rng.Intn(120))
	switch rng.Intn(5) {
	case 0: // contained: a inside padding
		pre := randSeq(rng, rng.Intn(30))
		post := randSeq(rng, rng.Intn(30))
		b := append(append(append([]byte(nil), pre...), a...), post...)
		return a, b
	case 1:
		return a, mutate(rng, a, 0.03)
	case 2:
		return a, mutate(rng, a, 0.15)
	case 3:
		return a, mutate(rng, a, 0.5)
	default:
		return a, randSeq(rng, 20+rng.Intn(120))
	}
}

// randSeedFor returns sometimes-genuine, sometimes-bogus seed
// coordinates; cascade verdicts must not depend on seed quality.
func randSeedFor(rng *rand.Rand, a, b []byte) SeedMatch {
	switch rng.Intn(3) {
	case 0:
		return SeedMatch{}
	case 1: // bogus
		return SeedMatch{PosA: rng.Intn(400) - 100, PosB: rng.Intn(400) - 100, Len: rng.Intn(50)}
	default: // in-range diagonal window
		pa := rng.Intn(len(a))
		pb := rng.Intn(len(b))
		l := 1 + rng.Intn(16)
		return SeedMatch{PosA: pa, PosB: pb, Len: l}
	}
}

func TestAnchoredBandFindsShiftedMotif(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	motif := "WWHKNMEFRWCYHH"
	a := []byte(motif + "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAA")
	b := []byte("TTTTTTTTTTTTTTTTTTTTTTTTTTTTTT" + motif)
	full := al.LocalScore(a, b)
	// The motif sits on diagonal 30: a diag-0 band misses it, the
	// anchored band recovers the full score.
	if got := al.LocalScoreBandedAnchored(a, b, 30, 2); got != full {
		t.Errorf("anchored band: %d, want full %d", got, full)
	}
	if got := al.LocalScoreBandedAnchored(a, b, 0, 2); got >= full {
		t.Errorf("unanchored narrow band should miss the motif: %d vs %d", got, full)
	}
}

func TestAnchoredBandSandwich(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := pairKinds(rng)
		full := al.LocalScore(a, b)
		diag := rng.Intn(2*len(b)) - len(b)
		s := al.LocalScoreBandedAnchored(a, b, diag, rng.Intn(20))
		if s < 0 || s > full {
			return false
		}
		wide := len(a) + len(b) + abs(diag) + 1
		return al.LocalScoreBandedAnchored(a, b, diag, wide) == full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestAnchoredBandLeftEdgeRegression pins the band's left-edge
// horizontal carry: reading the stale previous-row H there used to
// inflate the banded score above the full local optimum (seed found by
// quick.Check), breaking the [0, LocalScore] sandwich that makes a
// banded score a valid lower bound.
func TestAnchoredBandLeftEdgeRegression(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	rng := rand.New(rand.NewSource(3649157941712816913))
	a, b := pairKinds(rng)
	full := al.LocalScore(a, b)
	diag := rng.Intn(2*len(b)) - len(b)
	band := rng.Intn(20)
	if s := al.LocalScoreBandedAnchored(a, b, diag, band); s < 0 || s > full {
		t.Fatalf("banded score %d outside [0, %d]", s, full)
	}
}

func TestFitMatchesPossibleBasics(t *testing.T) {
	al := NewAligner(nil)
	s := []byte("ACDEFGHIKLMNPQRSTVWY")
	if !al.fitMatchesPossible(s, s, 0, 0, len(s)) {
		t.Error("identical sequences must reach a full match on the main diagonal")
	}
	if al.fitMatchesPossible(s, s, -len(s), len(s), len(s)+1) {
		t.Error("more matches than rows is impossible")
	}
	rev := make([]byte, len(s))
	for i, c := range s {
		rev[len(s)-1-i] = c
	}
	if al.fitMatchesPossible(s, rev, -2, 2, len(s)-2) {
		t.Error("a reversed sequence cannot nearly-fully match within a narrow band")
	}
}

func TestContainedCascadeMatchesExact(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	exact := NewAligner(Blosum62(11, 1))
	p := DefaultContainParams()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := pairKinds(rng)
		wantOK, wantWhich := exact.EitherContained(a, b, p)
		gotOK, gotWhich, _ := al.EitherContainedCascade(a, b, p, randSeedFor(rng, a, b))
		return wantOK == gotOK && wantWhich == gotWhich
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestCascadeLooseThresholds: degenerate thresholds (0 or >1) must not
// trip the prefilter math; verdicts still match the exact predicates.
func TestCascadeLooseThresholds(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	exact := NewAligner(Blosum62(11, 1))
	rng := rand.New(rand.NewSource(99))
	params := []ContainParams{{}, {MinIdentity: 1.5, MinCoverage: 1}, {MinIdentity: 0.01, MinCoverage: 0.01}}
	for i := 0; i < 50; i++ {
		a, b := pairKinds(rng)
		seed := randSeedFor(rng, a, b)
		for _, p := range params {
			want, wantW := exact.EitherContained(a, b, p)
			got, gotW, _ := al.EitherContainedCascade(a, b, p, seed)
			if want != got || wantW != gotW {
				t.Fatalf("contain params %+v: cascade (%v,%d) != exact (%v,%d)", p, got, gotW, want, wantW)
			}
		}
	}
}

// TestCascadeStages pins each stage to an input engineered to trigger
// it, and checks the verdict against the exact predicate every time.
func TestCascadeStages(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	exact := NewAligner(Blosum62(11, 1))
	cp := DefaultContainParams()

	check := func(name string, got, want bool, gotStage, wantStage Stage) {
		t.Helper()
		if got != want {
			t.Errorf("%s: verdict %v, exact %v", name, got, want)
		}
		if gotStage != wantStage {
			t.Errorf("%s: stage %v, want %v", name, gotStage, wantStage)
		}
	}

	// Disjoint alphabets: the composition bound rejects with zero DP.
	a := bytes.Repeat([]byte("AC"), 30)
	b := bytes.Repeat([]byte("WY"), 35)
	ok, st := al.ContainedCascade(a, b, cp, SeedMatch{})
	wantOK, _ := exact.Contained(a, b, cp)
	check("contain/prefilter", ok, wantOK, st, StagePrefilter)

	// Same composition, reversed order: composition passes, and the
	// banded max-matches DP proves the identity threshold unreachable.
	a = bytes.Repeat([]byte("ACDEFGHIKLMNPQRSTVWY"), 3)
	rev := make([]byte, len(a))
	for i, c := range a {
		rev[len(a)-1-i] = c
	}
	ok, st = al.ContainedCascade(a, rev, cp, SeedMatch{})
	wantOK, _ = exact.Contained(a, rev, cp)
	check("contain/banded", ok, wantOK, st, StageBanded)

	// A genuinely contained pair must reach the full DP and accept.
	inner := bytes.Repeat([]byte("MKWVTFISLL"), 6)
	outer := append(append([]byte("HHHHH"), inner...), []byte("GGGGG")...)
	ok, st = al.ContainedCascade(inner, outer, cp, SeedMatch{Len: len(inner)})
	wantOK, _ = exact.Contained(inner, outer, cp)
	if !wantOK {
		t.Fatal("test setup: expected exact containment")
	}
	check("contain/full", ok, wantOK, st, StageFull)
}

// TestCascadeCheaper: on a mixed workload the cascade must compute far
// fewer DP cells than the exact predicates while agreeing on every
// verdict (the cells reduction is asserted end-to-end in the pipeline
// tests; here we just require a strict win).
func TestCascadeCheaper(t *testing.T) {
	casc := NewAligner(Blosum62(11, 1))
	exact := NewAligner(Blosum62(11, 1))
	rng := rand.New(rand.NewSource(2024))
	cp := DefaultContainParams()
	// Comparable-length pairs, matching the redundancy-removal workload
	// (pairs of near-full-length reads sharing a ψ-mer). Wildly unequal
	// lengths are exercised for correctness by pairKinds above; they are
	// not where the cascade's cell savings come from.
	comparablePair := func() ([]byte, []byte) {
		a := randSeq(rng, 80+rng.Intn(60))
		switch rng.Intn(5) {
		case 0:
			pre := randSeq(rng, rng.Intn(8))
			post := randSeq(rng, rng.Intn(8))
			return a, append(append(append([]byte(nil), pre...), a...), post...)
		case 1:
			return a, mutate(rng, a, 0.03)
		case 2:
			return a, mutate(rng, a, 0.15)
		case 3:
			return a, mutate(rng, a, 0.5)
		default:
			return a, randSeq(rng, 80+rng.Intn(60))
		}
	}
	for i := 0; i < 200; i++ {
		a, b := comparablePair()
		wantOK, wantWhich := exact.EitherContained(a, b, cp)
		gotOK, gotWhich, _ := casc.EitherContainedCascade(a, b, cp, randSeedFor(rng, a, b))
		if wantOK != gotOK || wantWhich != gotWhich {
			t.Fatalf("pair %d: cascade (%v,%d) != exact (%v,%d)", i, gotOK, gotWhich, wantOK, wantWhich)
		}
	}
	if casc.Cells*2 >= exact.Cells {
		t.Errorf("cascade computed %d cells vs exact %d; want at least a 2x reduction", casc.Cells, exact.Cells)
	}
}
