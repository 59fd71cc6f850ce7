// Package esa builds the pipeline's maximal-match index — the one
// phases 1–3 use — as an enhanced suffix array (suffix array + LCP array
// + bottom-up lcp-interval enumeration, Abouelhoda et al. 2004).
//
// The output is the *same structure* the recursive builder of
// internal/suffixtree produces (suffixtree.SubTree: DFS-ordered leaves
// plus internal nodes with child bounds), because the suffix array
// order of a bucket's suffixes is a DFS leaf order of the corresponding
// tree, and each lcp-interval of depth d with its lcp==d split
// positions is exactly a tree node with its children. Maximal-match
// pair enumeration therefore produces an identical pair multiset, which
// the tests and FuzzBuildBucketMatchesReference hold against that
// builder; it is 4–9× faster and allocates 12–40× fewer bytes
// (bench/README.md), with no per-bucket arena.
//
// One representational difference: suffixes that end exactly at depth d
// sort adjacently with pairwise lcp == d, so they split into singleton
// child intervals instead of one terminator child. Their right-maximal
// pairs are then emitted as ordinary cross-child pairs, making the
// terminator special case (TermChild) unnecessary.
package esa

import (
	"bytes"
	"cmp"
	"slices"
	"sort"

	"profam/internal/seq"
	"profam/internal/suffixtree"
)

// BuildBucket constructs the index for one bucket as a
// suffixtree.SubTree ready for pair enumeration.
func BuildBucket(set *seq.Set, b suffixtree.Bucket, opt suffixtree.Options) (*suffixtree.SubTree, error) {
	opt, err := opt.Validate()
	if err != nil {
		return nil, err
	}

	n := len(b.Suffixes)
	t := &suffixtree.SubTree{}
	if n == 0 {
		return t, nil
	}

	suf := func(s suffixtree.Suffix) []byte {
		return set.Seqs[s.Seq].Res[s.Off:]
	}

	// Suffix array: sort the bucket's suffixes lexicographically. A
	// shorter suffix that is a prefix of a longer one sorts first — the
	// terminator-is-least convention of the tree (bytes.Compare gives
	// exactly that order). Every suffix in the bucket shares its first
	// pl residues, so a counting pass on the residue just past the
	// shared prefix splits the sort into independent single-byte groups
	// — suffixes ending at the prefix take key 0, least — and the
	// comparator then only ever runs within a group, starting past the
	// known-equal prefix.
	pl := len(b.Prefix)
	key := func(s suffixtree.Suffix) int {
		r := set.Seqs[s.Seq].Res
		if int(s.Off)+pl >= len(r) {
			return 0
		}
		return int(r[int(s.Off)+pl])
	}
	rest := func(s suffixtree.Suffix) []byte {
		return set.Seqs[s.Seq].Res[int(s.Off)+pl:]
	}
	var bounds [257]int32
	for _, s := range b.Suffixes {
		bounds[key(s)+1]++
	}
	for k := 1; k < len(bounds); k++ {
		bounds[k] += bounds[k-1]
	}
	order := make([]suffixtree.Suffix, n)
	pos := bounds
	for _, s := range b.Suffixes {
		k := key(s)
		order[pos[k]] = s
		pos[k]++
	}
	for k := 0; k < 256; k++ {
		g := order[bounds[k]:bounds[k+1]]
		if len(g) < 2 {
			continue
		}
		sort.Slice(g, func(i, j int) bool {
			if c := bytes.Compare(rest(g[i]), rest(g[j])); c != 0 {
				return c < 0
			}
			// Total order for determinism.
			if g[i].Seq != g[j].Seq {
				return g[i].Seq < g[j].Seq
			}
			return g[i].Off < g[j].Off
		})
	}

	// Leaves in suffix-array order, with left characters.
	t.Leaves = make([]suffixtree.Leaf, n)
	for i, s := range order {
		var left byte
		if s.Off > 0 {
			left = set.Seqs[s.Seq].Res[s.Off-1]
		}
		t.Leaves[i] = suffixtree.Leaf{Seq: s.Seq, Off: s.Off, Left: left}
	}

	// LCP array: lcp[i] = longest common prefix of sorted suffixes i-1
	// and i, for i in 1..n-1.
	lcp := make([]int32, n)
	for i := 1; i < n; i++ {
		a, c := suf(order[i-1]), suf(order[i])
		m := len(a)
		if len(c) < m {
			m = len(c)
		}
		var l int32
		for int(l) < m && a[l] == c[l] {
			l++
		}
		lcp[i] = l
	}

	// Bottom-up lcp-interval enumeration.
	type interval struct {
		depth int32
		lb    int32
	}
	stack := []interval{{depth: 0, lb: 0}}
	emit := func(depth, lb, rb int32) {
		if depth < int32(opt.MinMatch) {
			return
		}
		// Children: split [lb, rb] at inner positions j with lcp[j] ==
		// depth (each j starts a new child).
		bounds := []int32{lb}
		for j := lb + 1; j <= rb; j++ {
			if lcp[j] == depth {
				bounds = append(bounds, j)
			}
		}
		bounds = append(bounds, rb+1)
		if len(bounds) < 3 {
			return // single child: not a branching node
		}
		t.Nodes = append(t.Nodes, suffixtree.Node{
			Depth:     depth,
			Bounds:    bounds,
			TermChild: -1,
		})
	}
	for i := int32(1); i <= int32(n); i++ {
		var l int32
		if int(i) < n {
			l = lcp[i]
		}
		lb := i - 1
		for len(stack) > 1 && stack[len(stack)-1].depth > l {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			emit(top.depth, top.lb, i-1)
			lb = top.lb
		}
		if stack[len(stack)-1].depth < l {
			stack = append(stack, interval{depth: l, lb: lb})
		}
	}

	slices.SortStableFunc(t.Nodes, func(a, b suffixtree.Node) int { return cmp.Compare(b.Depth, a.Depth) })
	return t, nil
}

// Build constructs indexes for all buckets serially, mirroring
// suffixtree.Build.
func Build(set *seq.Set, opt suffixtree.Options) ([]*suffixtree.SubTree, error) {
	buckets, err := suffixtree.Buckets(set, opt)
	if err != nil {
		return nil, err
	}
	out := make([]*suffixtree.SubTree, 0, len(buckets))
	for _, b := range buckets {
		t, err := BuildBucket(set, b, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
