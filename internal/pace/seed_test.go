package pace

import (
	"bytes"
	"testing"

	"profam/internal/esa"
	"profam/internal/suffixtree"
)

// TestPairSeedsAreMaximalMatches drains the worker pair stream for both
// index backends and asserts the seed coordinates carried on every
// PairItem — the (OffA, OffB, Len) the worker hands the aligner as its
// seed — locate a genuine maximal match: the substrings are equal and the
// match can extend in neither direction.
func TestPairSeedsAreMaximalMatches(t *testing.T) {
	set, _ := famSet(t)
	opt := suffixtree.Options{MinMatch: 6, PrefixLen: 2}
	buckets, err := suffixtree.Buckets(set, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []struct {
		name  string
		build func(b suffixtree.Bucket) (*suffixtree.SubTree, error)
	}{
		{"gst", func(b suffixtree.Bucket) (*suffixtree.SubTree, error) { return suffixtree.BuildBucket(set, b, opt) }},
		{"esa", func(b suffixtree.Bucket) (*suffixtree.SubTree, error) { return esa.BuildBucket(set, b, opt) }},
	} {
		t.Run(backend.name, func(t *testing.T) {
			var trees []*suffixtree.SubTree
			for _, b := range buckets {
				st, err := backend.build(b)
				if err != nil {
					t.Fatal(err)
				}
				trees = append(trees, st)
			}
			src := newPairSource(trees, 0)
			checked := 0
			for {
				pairs, exhausted := src.next(1024)
				for _, p := range pairs {
					a := set.Get(int(p.A)).Res
					b := set.Get(int(p.B)).Res
					oa, ob, l := int(p.OffA), int(p.OffB), int(p.Len)
					if l < opt.MinMatch {
						t.Fatalf("pair (%d,%d): seed length %d below psi %d", p.A, p.B, l, opt.MinMatch)
					}
					if oa < 0 || ob < 0 || oa+l > len(a) || ob+l > len(b) {
						t.Fatalf("pair (%d,%d): seed (%d,%d,%d) out of range (%d,%d)",
							p.A, p.B, oa, ob, l, len(a), len(b))
					}
					if !bytes.Equal(a[oa:oa+l], b[ob:ob+l]) {
						t.Fatalf("pair (%d,%d): seed substrings differ at (%d,%d,%d)", p.A, p.B, oa, ob, l)
					}
					if oa > 0 && ob > 0 && a[oa-1] == b[ob-1] {
						t.Fatalf("pair (%d,%d): seed (%d,%d,%d) not left-maximal", p.A, p.B, oa, ob, l)
					}
					if oa+l < len(a) && ob+l < len(b) && a[oa+l] == b[ob+l] {
						t.Fatalf("pair (%d,%d): seed (%d,%d,%d) not right-maximal", p.A, p.B, oa, ob, l)
					}
					checked++
				}
				if exhausted {
					break
				}
			}
			if checked == 0 {
				t.Fatal("pair stream was empty; the workload should produce promising pairs")
			}
			t.Logf("%s: verified %d seeds", backend.name, checked)
		})
	}
}
