package esa

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"profam/internal/seq"
	"profam/internal/suffixtree"
)

const residues = "ACDEFG"

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

func pairSet(trees []*suffixtree.SubTree) map[suffixtree.Pair]bool {
	out := map[suffixtree.Pair]bool{}
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		out[p] = true
		return true
	})
	return out
}

// TestMatchesSuffixTree: the ESA must emit exactly the same maximal-match
// pair set as the suffix tree on the same input.
func TestMatchesSuffixTree(t *testing.T) {
	set := seq.NewSet()
	set.MustAdd("a", "ACDEFGACDEFGAC")
	set.MustAdd("b", "CDEFGACD")
	set.MustAdd("c", "ACDEFG")
	set.MustAdd("d", "ACDEFG") // identical pair exercises end-at-depth handling
	for _, psi := range []int{2, 3, 4, 6} {
		opt := suffixtree.Options{MinMatch: psi}
		want, err := suffixtree.Build(set, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Build(set, opt)
		if err != nil {
			t.Fatal(err)
		}
		w, g := pairSet(want), pairSet(got)
		if len(w) != len(g) {
			t.Errorf("psi=%d: esa %d pairs, tree %d", psi, len(g), len(w))
		}
		for p := range w {
			if !g[p] {
				t.Errorf("psi=%d: esa missing %+v", psi, p)
			}
		}
		for p := range g {
			if !w[p] {
				t.Errorf("psi=%d: esa extra %+v", psi, p)
			}
		}
	}
}

// fuzzAlphabet is deliberately tiny so short random sequences share long
// repeats; byte value 4 (mod 5) ends a sequence.
const fuzzAlphabet = "ACDE"

func encodeSeqs(seqs ...string) []byte {
	var out []byte
	for _, s := range seqs {
		for i := range s {
			out = append(out, byte(strings.IndexByte(fuzzAlphabet, s[i])))
		}
		out = append(out, 4)
	}
	return out
}

func decodeSeqs(data []byte) *seq.Set {
	set := seq.NewSet()
	var cur []byte
	flush := func() {
		if len(cur) > 0 {
			set.MustAdd(fmt.Sprintf("s%d", set.Len()), string(cur))
			cur = cur[:0]
		}
	}
	for _, b := range data {
		if b%5 == 4 {
			flush()
		} else {
			cur = append(cur, fuzzAlphabet[b%5])
		}
	}
	flush()
	return set
}

// FuzzBuildBucketMatchesReference: on every bucket of a small random
// set, for ψ in 1…6 and every legal PrefixLen, the suffix-array builder
// must enumerate exactly the pair multiset of the recursive suffix-tree
// builder — the reference it replaced in production — over the same
// leaves, with node depths non-increasing (the order the pace phases and
// MergedPairs rely on).
func FuzzBuildBucketMatchesReference(f *testing.F) {
	// Low-complexity runs: every suffix of the shorter is a prefix of many.
	f.Add(encodeSeqs("AAAAAAAA", "AAAA"), uint8(1), uint8(0))
	// Suffixes ending exactly at a node's depth (identical sequences, and
	// one a suffix of another): the tree's TermChild case, which the
	// suffix array represents as singleton children instead.
	f.Add(encodeSeqs("ACDEACDEAC", "CDEACD", "ACDE", "ACDE", "DE"), uint8(1), uint8(1))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		var seqs []string
		for n := 2 + rng.Intn(6); n > 0; n-- {
			b := make([]byte, 1+rng.Intn(50))
			for j := range b {
				b[j] = fuzzAlphabet[rng.Intn(3+i%2)]
			}
			seqs = append(seqs, string(b))
		}
		f.Add(encodeSeqs(seqs...), uint8(rng.Intn(6)), uint8(rng.Intn(6)))
	}
	f.Fuzz(func(t *testing.T, data []byte, psi, prefix uint8) {
		if len(data) > 512 {
			t.Skip("pair enumeration is quadratic; keep inputs small")
		}
		set := decodeSeqs(data)
		opt := suffixtree.Options{MinMatch: 1 + int(psi%6)}
		opt.PrefixLen = 1 + int(prefix)%opt.MinMatch
		buckets, err := suffixtree.Buckets(set, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range buckets {
			want, err := suffixtree.BuildBucket(set, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildBucket(set, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Leaves) != len(want.Leaves) {
				t.Fatalf("bucket %q: %d leaves, reference %d", b.Prefix, len(got.Leaves), len(want.Leaves))
			}
			for i := 1; i < len(got.Nodes); i++ {
				if got.Nodes[i].Depth > got.Nodes[i-1].Depth {
					t.Fatalf("bucket %q: node depths increase at %d", b.Prefix, i)
				}
			}
			pairs := map[suffixtree.Pair]int{}
			want.ForEachPair(func(p suffixtree.Pair) bool { pairs[p]++; return true })
			got.ForEachPair(func(p suffixtree.Pair) bool { pairs[p]--; return true })
			for p, n := range pairs {
				if n != 0 {
					t.Fatalf("psi=%d prefix=%d bucket %q: pair %+v emitted %+d times vs the reference",
						opt.MinMatch, opt.PrefixLen, b.Prefix, p, -n)
				}
			}
		}
	})
}

// TestDecreasingOrder: per-bucket enumeration must be non-increasing in
// match length (so the pace phases can use either index).
func TestDecreasingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	set := randomSet(rng, 6, 60)
	trees, err := Build(set, suffixtree.Options{MinMatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		last := int32(1 << 30)
		tr.ForEachPair(func(p suffixtree.Pair) bool {
			if p.Len > last {
				t.Fatal("pair lengths increased within bucket")
			}
			last = p.Len
			return true
		})
	}
}

func TestLowComplexityRuns(t *testing.T) {
	set := seq.NewSet()
	set.MustAdd("a", "AAAAAAAA")
	set.MustAdd("b", "AAAA")
	opt := suffixtree.Options{MinMatch: 2}
	want, _ := suffixtree.Build(set, opt)
	got, err := Build(set, opt)
	if err != nil {
		t.Fatal(err)
	}
	w, g := pairSet(want), pairSet(got)
	if fmt.Sprint(len(w)) != fmt.Sprint(len(g)) {
		t.Fatalf("runs: esa %d pairs vs tree %d", len(g), len(w))
	}
	for p := range w {
		if !g[p] {
			t.Fatalf("missing %+v", p)
		}
	}
}

func TestEmptyBucketAndValidation(t *testing.T) {
	set := seq.NewSet()
	set.MustAdd("a", "ACDEFG")
	tr, err := BuildBucket(set, suffixtree.Bucket{}, suffixtree.Options{MinMatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Leaves) != 0 || len(tr.Nodes) != 0 {
		t.Error("empty bucket produced content")
	}
	if _, err := BuildBucket(set, suffixtree.Bucket{}, suffixtree.Options{}); err == nil {
		t.Error("invalid options accepted")
	}
}

func BenchmarkBuildESA(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	set := randomSet(rng, 200, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(set, suffixtree.Options{MinMatch: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkESABuild stresses the suffix-array sort harder than
// BenchmarkBuildESA: a bigger corpus over a 6-letter alphabet produces
// deep buckets with long shared prefixes, which is where the radix
// presort and bytes.Compare comparator earn their keep.
func BenchmarkESABuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	set := randomSet(rng, 400, 300)
	opt := suffixtree.Options{MinMatch: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(set, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildTreeReference(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	set := randomSet(rng, 200, 150)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suffixtree.Build(set, suffixtree.Options{MinMatch: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
