package align

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

const residues = "ACDEFGHIKLMNPQRSTVWY"

func randSeq(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = residues[rng.Intn(len(residues))]
	}
	return b
}

// scoreFromOps independently recomputes an alignment's score by walking
// its edit operations, charging open + (len-1)*extend per gap run.
func scoreFromOps(sc *Scoring, a, b []byte, r Result) int32 {
	i, j := r.StartA, r.StartB
	var total int32
	for _, op := range r.Ops {
		switch op.Op {
		case 'M':
			for k := 0; k < op.Len; k++ {
				total += sc.Score(a[i], b[j])
				i++
				j++
			}
		case 'I':
			total -= sc.GapOpen + int32(op.Len-1)*sc.GapExtend
			i += op.Len
		case 'D':
			total -= sc.GapOpen + int32(op.Len-1)*sc.GapExtend
			j += op.Len
		}
	}
	if i != r.EndA || j != r.EndB {
		return -1 << 30 // ops inconsistent with coordinates
	}
	return total
}

func TestBlosum62Sanity(t *testing.T) {
	sc := Blosum62(11, 1)
	if sc.Score('A', 'A') != 4 || sc.Score('W', 'W') != 11 || sc.Score('X', 'X') != -1 {
		t.Errorf("diagonal scores wrong: A=%d W=%d X=%d",
			sc.Score('A', 'A'), sc.Score('W', 'W'), sc.Score('X', 'X'))
	}
	if sc.Score('A', 'R') != -1 || sc.Score('I', 'L') != 2 {
		t.Errorf("off-diagonal scores wrong: AR=%d IL=%d", sc.Score('A', 'R'), sc.Score('I', 'L'))
	}
	// Symmetry over the full letter range.
	for a := byte('A'); a <= 'Z'; a++ {
		for b := byte('A'); b <= 'Z'; b++ {
			if sc.Score(a, b) != sc.Score(b, a) {
				t.Fatalf("asymmetric: %c%c", a, b)
			}
		}
	}
	// U behaves like C, O like K.
	if sc.Score('U', 'C') != sc.Score('C', 'C') || sc.Score('O', 'K') != sc.Score('K', 'K') {
		t.Error("U/O mapping broken")
	}
}

func TestGlobalIdentical(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	s := []byte("MKLVINGKTLKGEITVEAP")
	r := al.Align(s, s, Global)
	var want int32
	for _, c := range s {
		want += al.Scoring().Score(c, c)
	}
	if r.Score != want {
		t.Errorf("score = %d, want %d", r.Score, want)
	}
	if r.Identity() != 1 || r.Gaps != 0 || r.Cols != len(s) {
		t.Errorf("stats wrong: id=%v gaps=%d cols=%d", r.Identity(), r.Gaps, r.Cols)
	}
	if r.StartA != 0 || r.EndA != len(s) || r.StartB != 0 || r.EndB != len(s) {
		t.Errorf("coords wrong: %+v", r)
	}
}

func TestGlobalKnownSmall(t *testing.T) {
	// Identity scoring: match 2, mismatch -1, open 2, ext 1.
	sc := Identity(2, -1, 2, 1)
	al := NewAligner(sc)
	// ACGT vs AGT: best is A-C/gap: A C G T
	//                            A - G T  → 3 matches (6) - open(2) = 4
	r := al.Align([]byte("ACGT"), []byte("AGT"), Global)
	if r.Score != 4 {
		t.Errorf("score = %d, want 4", r.Score)
	}
	if got := scoreFromOps(sc, []byte("ACGT"), []byte("AGT"), r); got != r.Score {
		t.Errorf("ops recompute %d != score %d", got, r.Score)
	}
	if r.Matches != 3 || r.Gaps != 1 {
		t.Errorf("matches=%d gaps=%d", r.Matches, r.Gaps)
	}
}

func TestGlobalEmpty(t *testing.T) {
	sc := Identity(2, -1, 3, 1)
	al := NewAligner(sc)
	r := al.Align([]byte("AAAA"), nil, Global)
	if r.Score != -(3 + 3*1) {
		t.Errorf("all-gap score = %d, want -6", r.Score)
	}
	if r.Cols != 4 || r.Gaps != 4 {
		t.Errorf("cols=%d gaps=%d", r.Cols, r.Gaps)
	}
	r = al.Align(nil, []byte("CC"), Global)
	if r.Score != -(3 + 1) {
		t.Errorf("all-gap score = %d, want -4", r.Score)
	}
	r = al.Align(nil, nil, Global)
	if r.Score != 0 || r.Cols != 0 {
		t.Errorf("empty global: %+v", r)
	}
}

func TestLocalEmbeddedMotif(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	motif := "WWHKNMEFRWCY"
	a := []byte("AAAAAAA" + motif + "GGGGG")
	b := []byte("TTT" + motif + "PPPPPPPPP")
	r := al.Align(a, b, Local)
	if r.Identity() != 1 {
		t.Fatalf("expected exact motif match, got identity %v (%s)", r.Identity(), r.Format(a, b))
	}
	if got := string(a[r.StartA:r.EndA]); got != motif {
		t.Errorf("aligned A region = %q, want %q", got, motif)
	}
	if got := string(b[r.StartB:r.EndB]); got != motif {
		t.Errorf("aligned B region = %q, want %q", got, motif)
	}
}

func TestLocalDisjoint(t *testing.T) {
	sc := Identity(1, -2, 5, 2)
	al := NewAligner(sc)
	r := al.Align([]byte("AAAA"), []byte("CCCC"), Local)
	if r.Score > 0 || r.Cols != 0 {
		t.Errorf("disjoint local alignment nonempty: %+v", r)
	}
}

func TestFitContainment(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	inner := "MKWVTFISLLFLFSSAYSRGV"
	outer := []byte("HHHHHHHHHH" + inner + "KKKKKKKKKK")
	r := al.Align([]byte(inner), outer, Fit)
	if r.Identity() != 1 || r.StartA != 0 || r.EndA != len(inner) {
		t.Fatalf("fit failed: %+v", r)
	}
	if r.StartB != 10 || r.EndB != 10+len(inner) {
		t.Errorf("fit located at B[%d:%d], want [10:%d]", r.StartB, r.EndB, 10+len(inner))
	}
}

func TestFitEmpty(t *testing.T) {
	al := NewAligner(nil)
	r := al.Align(nil, []byte("AAAA"), Fit)
	if r.Cols != 0 || r.Score != 0 {
		t.Errorf("fit empty: %+v", r)
	}
	r = al.Align([]byte("AAAA"), nil, Fit)
	if r.Cols != 0 {
		t.Errorf("fit into empty: %+v", r)
	}
}

func TestContainedPredicate(t *testing.T) {
	al := NewAligner(nil)
	p := DefaultContainParams()
	inner := []byte("MKWVTFISLLFLFSSAYSRGVFRRDTHKSEIAHRFKDLGE")
	outer := append(append([]byte("DEGHIKLMNP"), inner...), []byte("QRSTVWYACD")...)
	if !al.Contained(inner, outer, p) {
		t.Error("exact substring not detected as contained")
	}
	// One mismatch in 40 residues: 97.5 % identity, still contained.
	mut := append([]byte(nil), inner...)
	mut[20] = 'W'
	if !al.Contained(mut, outer, p) {
		t.Error("97.5%-identical substring not detected as contained")
	}
	// Heavily mutated: not contained.
	for i := 0; i < len(mut); i += 3 {
		mut[i] = 'P'
	}
	if al.Contained(mut, outer, p) {
		t.Error("heavily mutated sequence wrongly contained")
	}
	// Longer than container: short-circuit false.
	long := append(append([]byte(nil), outer...), 'A')
	if al.Contained(long, outer, p) {
		t.Error("longer sequence cannot be contained")
	}
}

func TestOverlapsPredicate(t *testing.T) {
	al := NewAligner(nil)
	p := DefaultOverlapParams()
	a := []byte("MKWVTFISLLFLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIA")
	// b = a with sparse mutations → strongly overlapping.
	b := append([]byte(nil), a...)
	for i := 5; i < len(b); i += 10 {
		b[i] = 'G'
	}
	if !al.Overlaps(a, b, p) {
		t.Error("near-identical sequences do not overlap")
	}
	// Short common region in long sequences: fails 80 % coverage.
	longA := append(append([]byte(strings.Repeat("K", 60)), a[:20]...), []byte(strings.Repeat("E", 60))...)
	if al.Overlaps(longA, a, p) {
		t.Error("short shared region should fail the coverage test")
	}
}

// Property: the reported score always equals the score recomputed from the
// edit operations, for every mode.
func TestScoreMatchesOpsProperty(t *testing.T) {
	sc := Blosum62(11, 1)
	al := NewAligner(sc)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSeq(rng, 1+rng.Intn(60))
		b := randSeq(rng, 1+rng.Intn(60))
		for _, mode := range []Mode{Global, Local, Fit} {
			r := al.Align(a, b, mode)
			if mode == Local && r.Cols == 0 {
				continue
			}
			if got := scoreFromOps(sc, a, b, r); got != r.Score {
				t.Logf("mode=%v seed=%d: ops score %d != %d\n%s", mode, seed, got, r.Score, r.Format(a, b))
				return false
			}
			if r.Matches > r.Positives || r.Positives+r.Gaps > r.Cols {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the traceback-free LocalScore agrees with the full Local DP.
func TestLocalScoreAgreesProperty(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSeq(rng, rng.Intn(80))
		b := randSeq(rng, rng.Intn(80))
		full := al.Align(a, b, Local).Score
		if full < 0 {
			full = 0
		}
		return al.LocalScore(a, b) == full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: local alignment score is symmetric.
func TestLocalSymmetryProperty(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSeq(rng, 1+rng.Intn(50))
		b := randSeq(rng, 1+rng.Intn(50))
		return al.LocalScore(a, b) == al.LocalScore(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: global self-alignment is a perfect diagonal.
func TestGlobalSelfProperty(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randSeq(rng, 1+rng.Intn(100))
		r := al.Align(a, a, Global)
		return r.Identity() == 1 && r.Gaps == 0 && r.Cols == len(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCellsAccounting(t *testing.T) {
	al := NewAligner(nil)
	al.Align([]byte("AAAA"), []byte("CCCCC"), Local)
	if al.Cells != 20 {
		t.Errorf("Cells = %d, want 20", al.Cells)
	}
	al.LocalScore([]byte("AA"), []byte("CC"))
	if al.Cells != 24 {
		t.Errorf("Cells = %d, want 24", al.Cells)
	}
	al.LocalCounts([]byte("AAA"), []byte("CCCCC"))
	if al.Cells != 39 {
		t.Errorf("Cells = %d after LocalCounts, want 39", al.Cells)
	}
	al.Contained([]byte("AAA"), []byte("CCCC"), DefaultContainParams())
	if al.Cells != 51 {
		t.Errorf("Cells = %d after Contained, want 51", al.Cells)
	}
	// Contained skips the DP when a is the longer side, and fitting an
	// empty sequence is the empty alignment; neither charges a cell.
	al.Contained([]byte("AAAAA"), []byte("CCCC"), DefaultContainParams())
	al.Contained(nil, []byte("CCCC"), DefaultContainParams())
	if al.Cells != 51 {
		t.Errorf("Cells = %d after DP-free Contained calls, want 51", al.Cells)
	}
}

func TestFormatShape(t *testing.T) {
	al := NewAligner(Identity(2, -1, 2, 1))
	a, b := []byte("ACGT"), []byte("AGT")
	r := al.Align(a, b, Global)
	out := r.Format(a, b)
	if !strings.Contains(out, "ACGT") || !strings.Contains(out, "A-GT") {
		t.Errorf("unexpected format output:\n%s", out)
	}
}

func BenchmarkLocalFull(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randSeq(rng, 200)
	y := randSeq(rng, 200)
	al := NewAligner(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Align(x, y, Local)
	}
}

// BenchmarkLocalCounts times the Definition-2 kernel against its oracle
// on a related pair, as B_d's are: a 200-residue sequence and a 30 %
// mutant of it.
func BenchmarkLocalCounts(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randSeq(rng, 200)
	y := mutate(rng, x, 0.3)
	benchCells(b, len(x)*len(y), map[string]func(al *Aligner){
		"kernel": func(al *Aligner) { countsSink = al.LocalCounts(x, y) },
		"align":  func(al *Aligner) { countsSink = CountsOf(al.Align(x, y, Local), len(x), len(y)) },
	})
}

// BenchmarkFitCounts times the Definition-1 kernel against its oracle on
// a 180-residue near-copy fragment of a 200-residue sequence.
func BenchmarkFitCounts(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	y := randSeq(rng, 200)
	x := mutate(rng, y[10:190], 0.02)
	benchCells(b, len(x)*len(y), map[string]func(al *Aligner){
		"kernel": func(al *Aligner) { fitSink, _, _ = al.fitCounts(x, y) },
		"align":  func(al *Aligner) { fitSink = al.Align(x, y, Fit).Matches },
	})
}

// The benchmarks' results land here, so no call is optimised away.
var (
	countsSink OverlapCounts
	fitSink    int
)

// benchCells runs each variant as a sub-benchmark reporting ns per DP
// cell.
func benchCells(b *testing.B, cells int, variants map[string]func(al *Aligner)) {
	for _, name := range []string{"kernel", "align"} {
		run := variants[name]
		b.Run(name, func(b *testing.B) {
			al := NewAligner(nil)
			run(al) // warm the scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(al)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
		})
	}
}

func BenchmarkLocalScoreOnly(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randSeq(rng, 200)
	y := randSeq(rng, 200)
	al := NewAligner(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.LocalScore(x, y)
	}
}
