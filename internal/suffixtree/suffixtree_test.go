package suffixtree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"profam/internal/seq"
)

const residues = "ACDEFG" // small alphabet provokes many matches

func randomSet(rng *rand.Rand, nseq, maxLen int) *seq.Set {
	set := seq.NewSet()
	for i := 0; i < nseq; i++ {
		n := 1 + rng.Intn(maxLen)
		b := make([]byte, n)
		for j := range b {
			b[j] = residues[rng.Intn(len(residues))]
		}
		set.MustAdd(fmt.Sprintf("s%d", i), string(b))
	}
	return set
}

// bruteMaximalPairs enumerates all maximal matches of length >= psi
// between different sequences by direct O(n^2 l^2) scanning.
func bruteMaximalPairs(set *seq.Set, psi int) map[Pair]bool {
	out := map[Pair]bool{}
	for a := 0; a < set.Len(); a++ {
		for b := a + 1; b < set.Len(); b++ {
			x, y := set.Get(a).Res, set.Get(b).Res
			for i := 0; i < len(x); i++ {
				for j := 0; j < len(y); j++ {
					if x[i] != y[j] {
						continue
					}
					if i > 0 && j > 0 && x[i-1] == y[j-1] {
						continue // not left-maximal
					}
					l := 0
					for i+l < len(x) && j+l < len(y) && x[i+l] == y[j+l] {
						l++
					}
					if l >= psi {
						out[Pair{int32(a), int32(i), int32(b), int32(j), int32(l)}] = true
					}
				}
			}
		}
	}
	return out
}

func treePairs(t *testing.T, set *seq.Set, opt Options) map[Pair]bool {
	t.Helper()
	trees, err := Build(set, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := map[Pair]bool{}
	MergedPairs(trees, func(p Pair) bool {
		if got[p] {
			t.Fatalf("pair emitted twice: %+v", p)
		}
		got[p] = true
		return true
	})
	return got
}

func TestPairsMatchBruteForceSmall(t *testing.T) {
	set := seq.NewSet()
	set.MustAdd("a", "ACDEFGACDEFG")
	set.MustAdd("b", "CDEFGAC")
	set.MustAdd("c", "ACDEFG")
	for _, psi := range []int{2, 3, 4, 5} {
		want := bruteMaximalPairs(set, psi)
		got := treePairs(t, set, Options{MinMatch: psi})
		if len(got) != len(want) {
			t.Errorf("psi=%d: got %d pairs, want %d", psi, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Errorf("psi=%d: missing pair %+v", psi, p)
			}
		}
		for p := range got {
			if !want[p] {
				t.Errorf("psi=%d: spurious pair %+v", psi, p)
			}
		}
	}
}

func TestIdenticalSequences(t *testing.T) {
	// Identical sequences share exactly one maximal match: the whole
	// string (suffix pairs within the terminator child).
	set := seq.NewSet()
	set.MustAdd("a", "ACDEFGHIK")
	set.MustAdd("b", "ACDEFGHIK")
	got := treePairs(t, set, Options{MinMatch: 3})
	want := bruteMaximalPairs(set, 3)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs want %d: %v", len(got), len(want), got)
	}
	full := Pair{0, 0, 1, 0, 9}
	if !got[full] {
		t.Errorf("full-length match not reported: %v", got)
	}
}

func TestRepeatRuns(t *testing.T) {
	// Low-complexity runs are the classic suffix-tree stress case.
	set := seq.NewSet()
	set.MustAdd("a", "AAAAAAAA")
	set.MustAdd("b", "AAAA")
	want := bruteMaximalPairs(set, 2)
	got := treePairs(t, set, Options{MinMatch: 2})
	if len(got) != len(want) {
		t.Fatalf("got %d want %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Errorf("missing %+v", p)
		}
	}
}

func TestPairsMatchBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := randomSet(rng, 2+rng.Intn(5), 40)
		psi := 2 + rng.Intn(4)
		opt := Options{MinMatch: psi, PrefixLen: 1 + rng.Intn(2)}
		if opt.PrefixLen > psi {
			opt.PrefixLen = psi
		}
		want := bruteMaximalPairs(set, psi)
		trees, err := Build(set, opt)
		if err != nil {
			return false
		}
		got := map[Pair]bool{}
		ok := true
		MergedPairs(trees, func(p Pair) bool {
			if got[p] {
				ok = false
			}
			got[p] = true
			return true
		})
		if !ok || len(got) != len(want) {
			t.Logf("seed %d: got %d pairs want %d", seed, len(got), len(want))
			return false
		}
		for p := range want {
			if !got[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDecreasingLengthOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	set := randomSet(rng, 6, 60)
	trees, err := Build(set, Options{MinMatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	last := int32(1 << 30)
	MergedPairs(trees, func(p Pair) bool {
		if p.Len > last {
			t.Fatalf("pair length increased: %d after %d", p.Len, last)
		}
		last = p.Len
		return true
	})
	// Per-tree enumeration must also be non-increasing.
	for _, tr := range trees {
		last = 1 << 30
		tr.ForEachPair(func(p Pair) bool {
			if p.Len > last {
				t.Fatalf("subtree pair length increased")
			}
			last = p.Len
			return true
		})
	}
}

func TestEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	set := randomSet(rng, 5, 50)
	trees, err := Build(set, Options{MinMatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	MergedPairs(trees, func(p Pair) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop delivered %d pairs, want 3", n)
	}
}

func TestShortSuffixesSkipped(t *testing.T) {
	set := seq.NewSet()
	set.MustAdd("a", "AC") // shorter than psi: contributes nothing
	set.MustAdd("b", "ACDEFG")
	set.MustAdd("c", "ACDEFG")
	buckets, err := Buckets(set, Options{MinMatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range buckets {
		for _, s := range b.Suffixes {
			if s.Seq == 0 {
				t.Errorf("suffix of too-short sequence bucketed: %+v", s)
			}
		}
	}
}

func TestBucketsRespectPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	set := randomSet(rng, 4, 30)
	buckets, err := Buckets(set, Options{MinMatch: 4, PrefixLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	total := 0
	for _, b := range buckets {
		if seen[b.Prefix] {
			t.Errorf("duplicate bucket %q", b.Prefix)
		}
		seen[b.Prefix] = true
		for _, s := range b.Suffixes {
			res := set.Get(int(s.Seq)).Res
			if string(res[s.Off:s.Off+2]) != b.Prefix {
				t.Errorf("suffix %+v in wrong bucket %q", s, b.Prefix)
			}
		}
		total += len(b.Suffixes)
	}
	want := 0
	for _, s := range set.Seqs {
		if s.Len() >= 4 {
			want += s.Len() - 3
		}
	}
	if total != want {
		t.Errorf("bucketed %d suffixes, want %d", total, want)
	}
}

func TestAssignBucketsBalance(t *testing.T) {
	buckets := make([]Bucket, 20)
	for i := range buckets {
		buckets[i].Weight = int64(100 - i)
	}
	own := AssignBuckets(buckets, 4)
	covered := map[int]bool{}
	loads := make([]int64, 4)
	for r, idxs := range own {
		for _, i := range idxs {
			if covered[i] {
				t.Fatalf("bucket %d assigned twice", i)
			}
			covered[i] = true
			loads[r] += buckets[i].Weight
		}
	}
	if len(covered) != len(buckets) {
		t.Fatalf("only %d/%d buckets assigned", len(covered), len(buckets))
	}
	var lo, hi = loads[0], loads[0]
	for _, l := range loads {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi > 2*lo {
		t.Errorf("poor balance: loads %v", loads)
	}
}

func TestOptionsValidation(t *testing.T) {
	set := seq.NewSet()
	set.MustAdd("a", "ACDEFG")
	if _, err := Buckets(set, Options{MinMatch: 0}); err == nil {
		t.Error("MinMatch 0 accepted")
	}
	if _, err := Buckets(set, Options{MinMatch: 2, PrefixLen: 3}); err == nil {
		t.Error("PrefixLen > MinMatch accepted")
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	set := randomSet(rng, 200, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(set, Options{MinMatch: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumeratePairs(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	set := randomSet(rng, 200, 150)
	trees, err := Build(set, Options{MinMatch: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		MergedPairs(trees, func(Pair) bool { n++; return true })
	}
}

func TestStats(t *testing.T) {
	set := seq.NewSet()
	set.MustAdd("a", "ACDEFGHIK")
	set.MustAdd("b", "ACDEFGHIK")
	trees, err := Build(set, Options{MinMatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	leaves, nodes := 0, 0
	for _, tr := range trees {
		st := tr.Stats()
		leaves += st.Leaves
		nodes += st.Nodes
		if st.Leaves != len(tr.Leaves) || st.Nodes != len(tr.Nodes) {
			t.Errorf("stats disagree with structure: %+v", st)
		}
		if st.Nodes > 0 && st.MaxDepth < 3 {
			t.Errorf("MaxDepth %d below MinMatch", st.MaxDepth)
		}
		if st.ApproxBytes <= 0 && st.Leaves > 0 {
			t.Errorf("ApproxBytes not computed: %+v", st)
		}
	}
	want := 0
	for _, s := range set.Seqs {
		if s.Len() >= 3 {
			want += s.Len() - 2
		}
	}
	if leaves != want {
		t.Errorf("total leaves %d, want %d", leaves, want)
	}
	if nodes == 0 {
		t.Error("identical sequences should produce nodes")
	}
}
