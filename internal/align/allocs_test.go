package align

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

func randomResidues(rng *rand.Rand, n int) []byte {
	const alpha = "ACDEFGHIKLMNPQRSTVWY"
	out := make([]byte, n)
	for i := range out {
		out[i] = alpha[rng.Intn(len(alpha))]
	}
	return out
}

// TestGrowGeometric drives grow through steadily increasing widths and
// requires O(log) reallocations, not one per width.
func TestGrowGeometric(t *testing.T) {
	al := NewAligner(nil)
	rowReallocs, traceReallocs := 0, 0
	prevRow, prevTrace := 0, 0
	const maxM = 4000
	for m := 1; m <= maxM; m++ {
		al.grow(10, m)
		if cap(al.m0) != prevRow {
			rowReallocs++
			prevRow = cap(al.m0)
		}
		if cap(al.trace) != prevTrace {
			traceReallocs++
			prevTrace = cap(al.trace)
		}
	}
	// log1.5(4000) ≈ 20.5; leave headroom for the initial allocations.
	if rowReallocs > 25 {
		t.Errorf("DP rows reallocated %d times over %d widths; growth is not geometric", rowReallocs, maxM)
	}
	if traceReallocs > 45 {
		t.Errorf("trace reallocated %d times over %d widths; growth is not geometric", traceReallocs, maxM)
	}
}

// TestLocalScoreAllocs: once the scratch rows are warm, the scoring fast
// path must not allocate at all.
func TestLocalScoreAllocs(t *testing.T) {
	al := NewAligner(nil)
	rng := rand.New(rand.NewSource(42))
	a, b := randomResidues(rng, 200), randomResidues(rng, 180)
	al.LocalScore(a, b) // warm the buffers
	if n := testing.AllocsPerRun(50, func() { al.LocalScore(a, b) }); n > 0 {
		t.Errorf("warm LocalScore allocates %.1f objects per call, want 0", n)
	}
}

// TestCountsAllocs: once the scratch rows and trace are warm, the
// predicates' kernels allocate nothing; they build no edit path.
func TestCountsAllocs(t *testing.T) {
	al := NewAligner(nil)
	rng := rand.New(rand.NewSource(36))
	a := randomResidues(rng, 200)
	b := mutate(rng, a, 0.3)
	frag := mutate(rng, a[10:190], 0.02)
	warm := map[string]func(){
		"LocalCounts": func() { al.LocalCounts(a, b) },
		"fitCounts":   func() { al.fitCounts(frag, a) },
	}
	for name, fn := range warm {
		fn() // warm the scratch buffers
		if n := testing.AllocsPerRun(50, fn); n > 0 {
			t.Errorf("warm %s allocates %.1f objects per call, want 0", name, n)
		}
	}
}

// TestAlignAllocsSteadyState: warm full alignments may allocate only the
// returned edit-op path, never DP rows or the trace matrix.
func TestAlignAllocsSteadyState(t *testing.T) {
	al := NewAligner(nil)
	a := bytes.Repeat([]byte("ACDEFGHIKL"), 20)
	b := bytes.Repeat([]byte("ACDEFGHIKL"), 18)
	al.Align(a, b, Global) // warm the buffers
	n := testing.AllocsPerRun(50, func() { al.Align(a, b, Global) })
	// The identical-repeat pair tracebacks into a handful of EditOp runs:
	// a few slice growth steps, nothing proportional to the DP size.
	if n > 6 {
		t.Errorf("warm Align allocates %.1f objects per call, want only the small Ops path", n)
	}
}

// TestScoreKernelsLazyTrace: the score-only kernels must never touch the
// O(n·m) trace matrix — a rejected pair costs O(m) scratch, not a full
// traceback allocation. Only the traced kernels (Align and the counts
// kernels) are allowed to materialize the trace.
func TestScoreKernelsLazyTrace(t *testing.T) {
	al := NewAligner(nil)
	rng := rand.New(rand.NewSource(7))
	a, b := randomResidues(rng, 150), randomResidues(rng, 170)
	al.LocalScore(a, b)
	al.LocalScoreBanded(a, b, 8)
	al.LocalScoreBandedAnchored(a, b, 5, 8)
	al.fitMatchesPossible(a, b, -10, 30, 140)
	if cap(al.trace) != 0 {
		t.Errorf("score-only kernels allocated the trace matrix (cap %d), want lazy allocation", cap(al.trace))
	}
	al.Align(a, b, Local)
	if cap(al.trace) == 0 {
		t.Error("Align must allocate the trace for traceback")
	}
}

// TestCascadeWarmAllocs: the containment cascade and its certified
// banded max-matches stage must be allocation-free once the aligner's
// buffers are warm, so a stream of rejected pairs costs only the DP
// itself.
func TestCascadeWarmAllocs(t *testing.T) {
	al := NewAligner(Blosum62(11, 1))
	rng := rand.New(rand.NewSource(99))
	// b holds a reversed plus a random tail: containment passes the
	// composition prefilter and is rejected by the banded stage.
	a := randomResidues(rng, 150)
	b := append(bytes.Clone(a), randomResidues(rng, 30)...)
	slices.Reverse(b[:len(a)])
	seed := SeedMatch{PosA: 3, PosB: 3, Len: 10}
	cp := DefaultContainParams()
	if _, st := al.ContainedCascade(a, b, cp, seed); st != StageBanded {
		t.Fatalf("test setup: containment decided at %v, want banded", st)
	}
	warm := map[string]func(){
		"fitMatchesPossible": func() { al.fitMatchesPossible(a, b, -7, 37, 143) },
		"ContainedCascade":   func() { al.ContainedCascade(a, b, cp, seed) },
	}
	for name, fn := range warm {
		fn() // warm the scratch buffers
		if n := testing.AllocsPerRun(50, fn); n > 0 {
			t.Errorf("warm %s allocates %.1f objects per call, want 0", name, n)
		}
	}
}

// TestShrinkThenGrowReusesTrace: a wide pair after a narrow one must not
// lose the trace capacity bought earlier.
func TestShrinkThenGrowReusesTrace(t *testing.T) {
	al := NewAligner(nil)
	al.grow(100, 100) // (101)*(101) trace
	traceCap := cap(al.trace)
	al.grow(2, 2) // shrink: no reallocation
	if cap(al.trace) != traceCap {
		t.Fatalf("shrinking realloced the trace: cap %d -> %d", traceCap, cap(al.trace))
	}
	al.grow(50, 50) // refits in the existing capacity
	if cap(al.trace) != traceCap {
		t.Errorf("regrow within capacity realloced the trace: cap %d -> %d", traceCap, cap(al.trace))
	}
}
