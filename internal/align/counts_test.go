package align

import (
	"math/rand"
	"testing"
)

// countsPair draws the k-th pair of the differential test: random,
// mutated at 0–60 %, a fragment of the other, the other extended on both
// sides, an empty side, or a single residue.
func countsPair(rng *rand.Rand, k int) (a, b []byte) {
	a = randSeq(rng, 1+rng.Intn(90))
	switch k % 6 {
	case 0:
		b = randSeq(rng, 1+rng.Intn(90))
	case 1:
		b = mutate(rng, a, 0.6*rng.Float64())
	case 2:
		lo := rng.Intn(len(a))
		b = mutate(rng, a[lo:lo+1+rng.Intn(len(a)-lo)], 0.1*rng.Float64())
	case 3:
		b = append(append(randSeq(rng, rng.Intn(30)), mutate(rng, a, 0.1*rng.Float64())...), randSeq(rng, rng.Intn(30))...)
	case 4:
		b = nil
		if rng.Intn(4) == 0 {
			a = nil
		}
	case 5:
		b = a[rng.Intn(len(a)):][:1]
		if rng.Intn(2) == 0 {
			b = randSeq(rng, 1)
		}
	}
	return a, b
}

// TestCountsMatchAlign is the kernels' differential test: on 20 000
// seeded pairs each, in both argument orders (counts are not symmetric),
// LocalCounts equals CountsOf(Align(Local)) and fitCounts equals
// Align(Fit)'s matches, columns and covered length of a, and each
// charges Align's cells. One aligner per side serves every pair, so
// stale scratch would show. The identity schemes make ties between
// predecessors common, and free gap extension makes a gap in b that
// opens straight from a gap in a optimal, so every tie-break is tested
// too.
func TestCountsMatchAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var kernels, oracles []*Aligner
	for _, sc := range []*Scoring{DefaultScoring(), Identity(1, -1, 2, 1), Identity(1, -2, 2, 0)} {
		kernels, oracles = append(kernels, NewAligner(sc)), append(oracles, NewAligner(sc))
	}
	const pairs = 20000
	for k := 0; k < pairs/2; k++ {
		s := k % len(kernels)
		a, b := countsPair(rng, k/len(kernels))
		checkCounts(t, kernels[s], oracles[s], a, b)
		checkCounts(t, kernels[s], oracles[s], b, a)
	}
}

// checkCounts requires both kernels to give Align's counts on (x, y)
// and to charge the cells Align charges.
func checkCounts(t *testing.T, kernel, oracle *Aligner, x, y []byte) {
	t.Helper()
	name := kernel.Scoring().Name
	k0, o0 := kernel.Cells, oracle.Cells
	want := CountsOf(oracle.Align(x, y, Local), len(x), len(y))
	if got := kernel.LocalCounts(x, y); got != want {
		t.Fatalf("%s LocalCounts(%s, %s) = %+v, Align(Local) gives %+v", name, x, y, got, want)
	}
	r := oracle.Align(x, y, Fit)
	if m, c, cov := kernel.fitCounts(x, y); m != r.Matches || c != r.Cols || cov != r.EndA-r.StartA {
		t.Fatalf("%s fitCounts(%s, %s) = (%d, %d, %d), Align(Fit) gives (%d, %d, %d)",
			name, x, y, m, c, cov, r.Matches, r.Cols, r.EndA-r.StartA)
	}
	if dk, do := kernel.Cells-k0, oracle.Cells-o0; dk != do {
		t.Fatalf("%s (%s, %s): kernels charged %d cells, Align %d", name, x, y, dk, do)
	}
}
