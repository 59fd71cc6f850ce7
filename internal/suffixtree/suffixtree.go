// Package suffixtree builds generalized suffix trees (GSTs) over sets of
// amino-acid sequences and enumerates maximal exact matches between
// different sequences — the pattern-matching filter at the heart of the
// paper's redundancy-removal and clustering phases.
//
// The tree is built bucket-wise: suffixes are partitioned by their first
// PrefixLen residues, and each bucket becomes an independent subtree. This
// is the same decomposition PaCE uses to distribute the GST across
// processors: a rank builds only the buckets assigned to it, so the whole
// structure never has to exist in one memory.
//
// A match between suffixes (s_a, off_a) and (s_b, off_b) of length L is
// *right-maximal* when the suffixes diverge (or end) after L residues, and
// *left-maximal* when the preceding residues differ (or either suffix
// starts its sequence). Every maximal match of length ≥ MinMatch between
// two different sequences is enumerated exactly once, at the tree node
// whose string depth is the match length.
package suffixtree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"profam/internal/seq"
)

// Options configure tree construction.
type Options struct {
	// MinMatch (ψ) is the minimum maximal-match length of interest.
	// Suffixes shorter than MinMatch are skipped entirely (they cannot
	// take part in a qualifying match). Must be ≥ 1.
	MinMatch int
	// PrefixLen is the bucketing granularity: suffixes are grouped by
	// their first PrefixLen residues. Must be in [1, MinMatch]. With the
	// 25-letter alphabet, PrefixLen 2 yields up to 625 buckets — enough
	// to balance hundreds of ranks. Defaults to 2 (or MinMatch if
	// smaller).
	PrefixLen int
}

// Validate checks the options and fills defaults; exposed for
// alternative index builders (internal/esa) that share these options.
func (o Options) Validate() (Options, error) { return o.withDefaults() }

func (o Options) withDefaults() (Options, error) {
	if o.MinMatch < 1 {
		return o, fmt.Errorf("suffixtree: MinMatch must be >= 1, got %d", o.MinMatch)
	}
	if o.PrefixLen == 0 {
		o.PrefixLen = 2
		if o.PrefixLen > o.MinMatch {
			o.PrefixLen = o.MinMatch
		}
	}
	if o.PrefixLen < 1 || o.PrefixLen > o.MinMatch {
		return o, fmt.Errorf("suffixtree: PrefixLen must be in [1, MinMatch], got %d", o.PrefixLen)
	}
	return o, nil
}

// Suffix identifies one suffix of one sequence.
type Suffix struct {
	Seq int32 // sequence ID within the set
	Off int32 // starting offset of the suffix
}

// Bucket is a group of suffixes sharing the same PrefixLen-residue prefix.
// Weight approximates the construction cost (total remaining suffix
// residues) and drives load-balanced assignment of buckets to ranks.
type Bucket struct {
	Prefix   string
	Suffixes []Suffix
	Weight   int64
}

// Buckets partitions the ≥MinMatch-long suffixes of set into buckets,
// sorted by descending weight so a greedy assignment balances well.
func Buckets(set *seq.Set, opt Options) ([]Bucket, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	byPrefix := make(map[string]*Bucket)
	for _, s := range set.Seqs {
		res := s.Res
		for off := 0; off+opt.MinMatch <= len(res); off++ {
			p := string(res[off : off+opt.PrefixLen])
			b := byPrefix[p]
			if b == nil {
				b = &Bucket{Prefix: p}
				byPrefix[p] = b
			}
			b.Suffixes = append(b.Suffixes, Suffix{Seq: int32(s.ID), Off: int32(off)})
			b.Weight += int64(len(res) - off)
		}
	}
	out := make([]Bucket, 0, len(byPrefix))
	for _, b := range byPrefix {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Prefix < out[j].Prefix
	})
	return out, nil
}

// AssignBuckets greedily distributes buckets across p ranks so that total
// weights are balanced (longest-processing-time heuristic over the
// already weight-sorted bucket list). Returns, per rank, the indices into
// buckets owned by that rank.
func AssignBuckets(buckets []Bucket, p int) [][]int {
	own := make([][]int, p)
	load := make([]int64, p)
	for i, b := range buckets {
		best := 0
		for r := 1; r < p; r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		own[best] = append(own[best], i)
		load[best] += b.Weight
	}
	return own
}

// Leaf is one suffix stored in DFS order, annotated with the residue that
// precedes it in its sequence (0 when the suffix starts the sequence).
type Leaf struct {
	Seq  int32
	Off  int32
	Left byte
}

// Node is an internal tree node with string depth ≥ MinMatch. Its leaves
// occupy leaves[Bounds[0]:Bounds[len(Bounds)-1]], and child k's leaves are
// leaves[Bounds[k]:Bounds[k+1]]. TermChild is the index of the child
// holding suffixes that *end* exactly at this node (-1 if none); pairs
// within that child are right-maximal too.
type Node struct {
	Depth     int32
	Bounds    []int32
	TermChild int8
}

// SubTree is the compressed suffix tree of one bucket, reduced to exactly
// what maximal-match enumeration needs: DFS-ordered leaves plus the
// qualifying internal nodes sorted by decreasing string depth.
type SubTree struct {
	set    *seq.Set
	opt    Options
	Leaves []Leaf
	Nodes  []Node // sorted by Depth descending

	boundsArena []int32
}

// BuildBucket constructs the subtree for one bucket.
func BuildBucket(set *seq.Set, b Bucket, opt Options) (*SubTree, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &SubTree{set: set, opt: opt}
	if len(b.Suffixes) > 0 {
		sufs := make([]Suffix, len(b.Suffixes))
		copy(sufs, b.Suffixes)
		t.Leaves = make([]Leaf, 0, len(sufs))
		t.build(sufs, int32(opt.PrefixLen))
	}
	sort.SliceStable(t.Nodes, func(i, j int) bool { return t.Nodes[i].Depth > t.Nodes[j].Depth })
	return t, nil
}

// charAt returns the residue of suffix s at string depth d, or 0 when the
// suffix ends before d (the terminator).
func (t *SubTree) charAt(s Suffix, d int32) byte {
	res := t.set.Seqs[s.Seq].Res
	i := s.Off + d
	if int(i) >= len(res) {
		return 0
	}
	return res[i]
}

func (t *SubTree) leftChar(s Suffix) byte {
	if s.Off == 0 {
		return 0
	}
	return t.set.Seqs[s.Seq].Res[s.Off-1]
}

func (t *SubTree) emitLeaf(s Suffix) {
	t.Leaves = append(t.Leaves, Leaf{Seq: s.Seq, Off: s.Off, Left: t.leftChar(s)})
}

// build processes a group of suffixes sharing a common prefix of length
// depth, extending the shared prefix and recursing on divergence.
func (t *SubTree) build(sufs []Suffix, depth int32) {
	for {
		if len(sufs) == 1 {
			t.emitLeaf(sufs[0])
			return
		}
		// Try to extend the common prefix by one residue.
		c := t.charAt(sufs[0], depth)
		same := c != 0
		if same {
			for _, s := range sufs[1:] {
				if t.charAt(s, depth) != c {
					same = false
					break
				}
			}
		}
		if !same {
			break
		}
		depth++
	}

	// Divergence (or common end) at this depth: partition by next residue.
	var counts [256]int32
	for _, s := range sufs {
		counts[t.charAt(s, depth)]++
	}
	var nchildren int
	for _, n := range counts {
		if n > 0 {
			nchildren++
		}
	}

	record := depth >= int32(t.opt.MinMatch) &&
		(nchildren >= 2 || counts[0] >= 2)

	var node Node
	if record {
		node = Node{Depth: depth, TermChild: -1}
		node.Bounds = t.newBounds(nchildren + 1)
		node.Bounds = node.Bounds[:0]
		node.Bounds = append(node.Bounds, int32(len(t.Leaves)))
	}

	// Stable partition into per-child groups, ordered by byte value
	// (terminator group first).
	var starts [256]int32
	var acc int32
	for ci := 0; ci < 256; ci++ {
		starts[ci] = acc
		acc += counts[ci]
	}
	part := make([]Suffix, len(sufs))
	next := starts
	for _, s := range sufs {
		c := t.charAt(s, depth)
		part[next[c]] = s
		next[c]++
	}

	childIdx := int8(0)
	for ci := 0; ci < 256; ci++ {
		if counts[ci] == 0 {
			continue
		}
		group := part[starts[ci] : starts[ci]+counts[ci]]
		if ci == 0 {
			// Suffixes ending exactly here: leaves of this node.
			for _, s := range group {
				t.emitLeaf(s)
			}
			if record {
				node.TermChild = childIdx
			}
		} else {
			t.build(group, depth+1)
		}
		if record {
			node.Bounds = append(node.Bounds, int32(len(t.Leaves)))
		}
		childIdx++
	}
	if record {
		t.Nodes = append(t.Nodes, node)
	}
}

// newBounds allocates child-boundary storage from a shared arena to avoid
// one tiny allocation per node.
func (t *SubTree) newBounds(n int) []int32 {
	if cap(t.boundsArena)-len(t.boundsArena) < n {
		t.boundsArena = make([]int32, 0, 1<<16)
	}
	lo := len(t.boundsArena)
	t.boundsArena = t.boundsArena[:lo+n]
	return t.boundsArena[lo : lo+n : lo+n]
}

// Pair is one maximal-match occurrence between two different sequences.
// SeqA < SeqB always holds; offsets locate the match start within each.
type Pair struct {
	SeqA, OffA int32
	SeqB, OffB int32
	Len        int32
}

// ForEachPair enumerates every maximal-match pair of length ≥ MinMatch in
// decreasing match-length order. Enumeration stops early if fn returns
// false. Pairs between occurrences in the same sequence are skipped, as
// the pipeline only cares about cross-sequence evidence.
func (t *SubTree) ForEachPair(fn func(Pair) bool) {
	for ni := range t.Nodes {
		if !t.emitNodePairs(&t.Nodes[ni], fn) {
			return
		}
	}
}

func (t *SubTree) emitNodePairs(n *Node, fn func(Pair) bool) bool {
	nc := len(n.Bounds) - 1
	emit := func(a, b Leaf) bool {
		if a.Seq == b.Seq {
			return true
		}
		// Left-maximality: both preceded by the same residue means the
		// match extends left and is reported at the extended position.
		if a.Left != 0 && a.Left == b.Left {
			return true
		}
		p := Pair{SeqA: a.Seq, OffA: a.Off, SeqB: b.Seq, OffB: b.Off, Len: n.Depth}
		if a.Seq > b.Seq {
			p.SeqA, p.OffA, p.SeqB, p.OffB = b.Seq, b.Off, a.Seq, a.Off
		}
		return fn(p)
	}
	// Cross-child pairs: right-maximal because the suffixes diverge here.
	for c1 := 0; c1 < nc; c1++ {
		g1 := t.Leaves[n.Bounds[c1]:n.Bounds[c1+1]]
		for c2 := c1 + 1; c2 < nc; c2++ {
			g2 := t.Leaves[n.Bounds[c2]:n.Bounds[c2+1]]
			for _, a := range g1 {
				for _, b := range g2 {
					if !emit(a, b) {
						return false
					}
				}
			}
		}
	}
	// Pairs within the terminator child: both suffixes end here, so the
	// match cannot extend right either.
	if tc := int(n.TermChild); tc >= 0 {
		g := t.Leaves[n.Bounds[tc]:n.Bounds[tc+1]]
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				if !emit(g[i], g[j]) {
					return false
				}
			}
		}
	}
	return true
}

// TreeStats summarise one subtree's footprint.
type TreeStats struct {
	Leaves   int
	Nodes    int
	MaxDepth int32 // deepest recorded node's string depth
	// ApproxBytes estimates the in-memory size: leaves (9 B packed to
	// 12), node headers, and child-bound entries.
	ApproxBytes int64
}

// Stats computes the subtree's footprint summary.
func (t *SubTree) Stats() TreeStats {
	st := TreeStats{Leaves: len(t.Leaves), Nodes: len(t.Nodes)}
	var bounds int64
	for i := range t.Nodes {
		if t.Nodes[i].Depth > st.MaxDepth {
			st.MaxDepth = t.Nodes[i].Depth
		}
		bounds += int64(len(t.Nodes[i].Bounds))
	}
	st.ApproxBytes = int64(len(t.Leaves))*12 + int64(len(t.Nodes))*32 + bounds*4
	return st
}

// Build constructs subtrees for all buckets serially. It is the
// single-rank convenience path used by tests, examples and the serial
// pipeline; the distributed path assigns buckets to ranks and calls
// BuildBucket per rank.
func Build(set *seq.Set, opt Options) ([]*SubTree, error) {
	buckets, err := Buckets(set, opt)
	if err != nil {
		return nil, err
	}
	trees := make([]*SubTree, 0, len(buckets))
	for _, b := range buckets {
		st, err := BuildBucket(set, b, opt)
		if err != nil {
			return nil, err
		}
		trees = append(trees, st)
	}
	return trees, nil
}

// MergedPairs enumerates pairs from several subtrees in globally
// decreasing match-length order by merging the per-tree node lists.
// Enumeration stops early if fn returns false.
func MergedPairs(trees []*SubTree, fn func(Pair) bool) {
	type ref struct {
		t *SubTree
		n *Node
	}
	var refs []ref
	for _, t := range trees {
		for ni := range t.Nodes {
			refs = append(refs, ref{t, &t.Nodes[ni]})
		}
	}
	slices.SortStableFunc(refs, func(a, b ref) int { return cmp.Compare(b.n.Depth, a.n.Depth) })
	for _, r := range refs {
		if !r.t.emitNodePairs(r.n, fn) {
			return
		}
	}
}
