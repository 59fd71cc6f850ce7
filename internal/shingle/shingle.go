// Package shingle implements the two-pass Shingle dense-subgraph
// detection algorithm of Gibson, Kumar and Tomkins (VLDB 2005), adapted
// to the paper's protein-family setting.
//
// Pass I computes an (s1, c1)-shingle set for every left vertex of a
// bipartite graph using min-wise independent permutations: vertices whose
// out-link sets overlap substantially share first-level shingles with
// high probability. Pass II reverses direction and shingles the
// first-level shingles themselves ((s2, c2)), so that groups of
// first-level shingles with similar vertex memberships collapse together.
// Connected components of the second-level-shingle → first-level-shingle
// relation (tracked with union–find) are the candidate dense subgraphs.
//
// For the global-similarity reduction B_d a candidate (A, B) is reported
// as the family A∪B only when |A∩B| / |A∪B| ≥ τ (the paper's added
// post-test, since in B_d both sides represent the same sequences). For
// the domain reduction B_m the right-hand set B is the family directly.
package shingle

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"profam/internal/bipartite"
	"profam/internal/minhash"
	"profam/internal/unionfind"
)

// Params are the Shingle algorithm's knobs.
type Params struct {
	S1, C1 int     // pass I shingle size and count (paper default (5, 300))
	S2, C2 int     // pass II shingle size and count (default (5, 100))
	Tau    float64 // B_d post-test threshold (default 0.5)
	// MinSize drops dense subgraphs with fewer member sequences
	// (paper default 5; zero keeps everything of size >= 2).
	MinSize int
	Seed    int64
}

func (p Params) withDefaults() Params {
	if p.S1 == 0 {
		p.S1 = 5
	}
	if p.C1 == 0 {
		p.C1 = 300
	}
	if p.S2 == 0 {
		p.S2 = 5
	}
	if p.C2 == 0 {
		p.C2 = 100
	}
	if p.Tau == 0 {
		p.Tau = 0.5
	}
	if p.Seed == 0 {
		p.Seed = 20080315
	}
	if p.MinSize < 2 {
		p.MinSize = 2
	}
	return p
}

// DenseSubgraph is one detected family.
type DenseSubgraph struct {
	// Members are the original sequence IDs of the family (A∪B for B_d,
	// B for B_m), sorted ascending.
	Members []int32
	// MeanDegree and Density describe the induced similarity subgraph
	// (B_d only; zero for B_m): Density = MeanDegree / (|Members|-1),
	// the paper's observed-density measure.
	MeanDegree float64
	Density    float64
}

func (d DenseSubgraph) Size() int { return len(d.Members) }

func (d DenseSubgraph) String() string {
	return fmt.Sprintf("dense subgraph: %d members, mean degree %.1f, density %.0f%%",
		len(d.Members), d.MeanDegree, 100*d.Density)
}

// Stats accumulates work counters for one Detect call.
type Stats struct {
	LeftVertices  int
	ShinglesPass1 int // distinct first-level shingles
	ShinglesPass2 int // distinct second-level shingles
	Candidates    int // components before τ/size filtering
	Reported      int
	WorkOps       int64 // hash evaluations, the dominant cost
}

// SecPerHashOp is the virtual-clock charge per min-hash evaluation
// (Stats.WorkOps), in the same calibration family as pace.CostParams.
const SecPerHashOp = 2.0e-8

// Detect runs the two-pass algorithm on one bipartite graph and returns
// the dense subgraphs, largest first.
func Detect(g *bipartite.Graph, p Params) ([]DenseSubgraph, Stats) {
	var d Detector
	return d.Detect(g, p)
}

// Detector runs Detect with its working storage — the pass I shingle
// sets, their grouping by shingle and the hash tables of both passes —
// kept from one call to the next, so a caller that detects in many
// graphs in turn allocates for the largest of them rather than for
// every one. Results never alias that storage. The zero value is ready
// to use; a Detector must not be used by two goroutines at once.
type Detector struct {
	tuples               shingleTuples
	sorted               []uint64 // distinct first-level hashes, ascending
	id, off, verts, fill []int32  // firstLevel and its fill cursors
	done, second, sameAs map[uint64]int32
	seen                 map[uint64]struct{}
}

// Detect is the package-level Detect on d's storage.
func (d *Detector) Detect(g *bipartite.Graph, p Params) ([]DenseSubgraph, Stats) {
	p = p.withDefaults()
	st := Stats{LeftVertices: g.NLeft}
	if g.NLeft == 0 {
		return nil, st
	}
	if d.done == nil {
		d.done, d.second, d.sameAs = map[uint64]int32{}, map[uint64]int32{}, map[uint64]int32{}
		d.seen = make(map[uint64]struct{}, p.C1)
	}
	tuples, ops := d.passOne(g, p)
	st.WorkOps = ops
	return d.reportFromShingles(g, p, tuples, st)
}

// reuse returns s resized to n zeroed elements, in place when its
// capacity allows.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// shingleTuples is pass I's output: the shingle set of every left
// vertex. Vertices with equal adjacency lists share one stored set.
type shingleTuples struct {
	Hashes []uint64 // the distinct shingle sets, concatenated
	Sets   []span   // by left vertex: its shingle set in Hashes, empty without one
}

// listKey hashes a vertex list to the 64-bit key the two memos look
// lists up by. A hit is always verified against the list itself, so a
// collision costs a recomputation, never a wrong answer.
func listKey(a []int32) uint64 {
	h := uint64(len(a)) + 0x9e3779b97f4a7c15
	for _, v := range a {
		h = (h ^ uint64(uint32(v))) * 0x100000001b3
		h ^= h >> 29
	}
	return h
}

// span is a half-open range of tuple positions.
type span struct{ lo, hi int32 }

// passOne computes the (s1, c1)-shingle set of every left vertex: per
// vertex, the distinct shingle hashes in permutation order. A shingle
// set is a pure function of the adjacency list, so vertices sharing one
// (the members of a clique in B_d, the words of one conserved domain in
// B_m) are shingled once: later vertices point at the first one's set.
// It returns the sets and the number of hash evaluations performed.
func (d *Detector) passOne(g *bipartite.Graph, p Params) (shingleTuples, int64) {
	fam := minhash.NewFamily(p.C1, p.Seed)
	t := shingleTuples{Hashes: d.tuples.Hashes[:0], Sets: reuse(d.tuples.Sets, g.NLeft)}
	var ops int64
	done := d.done // listKey(adjacency) -> first vertex with it
	clear(done)
	seen := d.seen
	scratch := make([]uint64, p.S1)
	var elems []uint64
	for v := range g.NLeft {
		adj := g.Adj[v]
		if len(adj) == 0 {
			continue
		}
		key := listKey(adj)
		first, known := done[key]
		if known && slices.Equal(g.Adj[first], adj) {
			t.Sets[v] = t.Sets[first]
			continue
		}
		elems = elems[:0]
		for _, r := range adj {
			elems = append(elems, uint64(r))
		}
		clear(seen)
		start := len(t.Hashes)
		for _, pm := range fam.Perms {
			h := minhash.HashTuple(pm.Shingle(elems, p.S1, scratch))
			if _, dup := seen[h]; !dup {
				seen[h] = struct{}{}
				t.Hashes = append(t.Hashes, h)
			}
		}
		ops += int64(len(elems)) * int64(len(fam.Perms))
		t.Sets[v] = span{int32(start), int32(len(t.Hashes))}
		if !known {
			done[key] = int32(v)
		}
	}
	d.tuples = t
	return t, ops
}

// firstLevel is pass I's output grouped by shingle. Shingles are numbered
// by ascending hash; shingle i has the member vertices
// verts[off[i]:off[i+1]], ascending, and stored hash k (pass I's
// Hashes[k]) is shingle id[k].
type firstLevel struct {
	id, off, verts []int32
}

func (f firstLevel) len() int                { return len(f.off) - 1 }
func (f firstLevel) members(i int32) []int32 { return f.verts[f.off[i]:f.off[i+1]] }

// groupTuples indexes the pass-I shingle sets by shingle; id is indexed
// like t.Hashes.
func (d *Detector) groupTuples(t shingleTuples) firstLevel {
	hashes := append(d.sorted[:0], t.Hashes...) // the distinct hashes, ascending
	slices.Sort(hashes)
	hashes = slices.Compact(hashes)
	d.sorted = hashes
	n := len(hashes)
	id := reuse(d.id, len(t.Hashes))
	for k, h := range t.Hashes {
		i, _ := slices.BinarySearch(hashes, h)
		id[k] = int32(i)
	}
	off := reuse(d.off, n+1)
	for _, s := range t.Sets {
		for _, i := range id[s.lo:s.hi] {
			off[i+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	verts := reuse(d.verts, int(off[n]))
	fill := append(d.fill[:0], off[:n]...)
	for v, s := range t.Sets {
		for _, i := range id[s.lo:s.hi] {
			verts[fill[i]] = int32(v)
			fill[i]++
		}
	}
	d.id, d.off, d.verts, d.fill = id, off, verts, fill
	return firstLevel{id: id, off: off, verts: verts}
}

// passTwo shingles each first-level shingle's vertex membership
// ((s2, c2)) and unions first-level shingles sharing a second-level
// shingle. It returns the component root of every first-level shingle
// and fills in the pass's counters.
//
// A shingle whose member list equals an earlier one's would draw the
// same c2 second-level shingles and be unioned with whatever holds
// them, which by then is the earlier shingle's own set: one union with
// that shingle leaves the same sets, roots and ranks (DESIGN §5).
func (d *Detector) passTwo(f firstLevel, p Params, st *Stats) []int32 {
	fam := minhash.NewFamily(p.C2, p.Seed+1)
	n := f.len()
	uf := unionfind.New(n)
	second := d.second // second-level shingle -> first first-level index seen
	sameAs := d.sameAs // listKey(members) -> first first-level index with them
	clear(second)
	clear(sameAs)
	scratch := make([]uint64, p.S2)
	var elems []uint64
	for i := int32(0); i < int32(n); i++ {
		members := f.members(i)
		key := listKey(members)
		first, known := sameAs[key]
		if known && slices.Equal(f.members(first), members) {
			uf.Union(int(first), int(i))
			continue
		}
		if !known {
			sameAs[key] = i
		}
		elems = elems[:0]
		for _, v := range members {
			elems = append(elems, uint64(v))
		}
		for _, pm := range fam.Perms {
			h2 := minhash.HashTuple(pm.Shingle(elems, p.S2, scratch))
			if holder, ok := second[h2]; ok {
				uf.Union(int(holder), int(i))
			} else {
				second[h2] = i
			}
		}
		st.WorkOps += int64(len(elems)) * int64(len(fam.Perms))
	}
	st.ShinglesPass2 = len(second)
	// Components of first-level shingles are the candidates (every
	// shingle has at least one member vertex).
	st.Candidates = uf.Sets()
	root := make([]int32, n)
	for i := range root {
		root[i] = int32(uf.Find(i))
	}
	return root
}

// reportFromShingles runs pass II and the reporting stage over the
// pass-I shingle sets.
func (d *Detector) reportFromShingles(g *bipartite.Graph, p Params, t shingleTuples, st Stats) ([]DenseSubgraph, Stats) {
	f := d.groupTuples(t)
	n, id := f.len(), f.id
	st.ShinglesPass1 = n
	root := d.passTwo(f, p, &st)

	// A left vertex can surface in several components (its c1 shingles
	// may scatter); keep the output disjoint by assigning each vertex to
	// the component holding more of its shingles (ties to the smaller
	// root for determinism).
	assigned := make([]int32, g.NLeft) // left vertex -> root, -1 without shingles
	votes := make([]int32, n)          // by root; zero between vertices
	sizeA := make([]int32, n)          // by root: vertices assigned
	for v, s := range t.Sets {
		assigned[v] = -1
		if s.lo == s.hi {
			continue
		}
		ids := id[s.lo:s.hi]
		for _, i := range ids {
			votes[root[i]]++
		}
		best, bestVotes := int32(-1), int32(0)
		for _, i := range ids {
			r := root[i]
			if c := votes[r]; c > bestVotes || (c == bestVotes && r < best) {
				best, bestVotes = r, c
			}
		}
		for _, i := range ids {
			votes[root[i]] = 0
		}
		assigned[v] = best
		sizeA[best]++
	}

	// Candidate (A, B) per component: A are the assigned vertices.
	// Deterministic order: larger A first, then smaller root.
	var roots []int32
	for r, c := range sizeA {
		if c > 0 {
			roots = append(roots, int32(r))
		}
	}
	slices.SortFunc(roots, func(a, b int32) int {
		if c := cmp.Compare(sizeA[b], sizeA[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	startA := make([]int32, n) // by root: offset of its A in vertsA
	total := int32(0)
	for _, r := range roots {
		startA[r] = total
		total += sizeA[r]
	}
	vertsA := make([]int32, total)
	fillA := slices.Clone(startA)
	for v, r := range assigned {
		if r >= 0 {
			vertsA[fillA[r]] = int32(v)
			fillA[r]++
		}
	}

	// Right vertices are sequences, one each, so "already reported" is
	// kept per right vertex. For B_d both sides index the same universe.
	claimed := make([]bool, g.NRight)
	inB := make([]int32, g.NRight)   // == stamp: in this candidate's A∪B
	inFam := make([]int32, g.NRight) // == stamp: in this candidate's family
	var cand []int32                 // B, then A∖B for B_d
	var out []DenseSubgraph
	for k, r := range roots {
		stamp := int32(k + 1)
		A := vertsA[startA[r] : startA[r]+sizeA[r]]
		cand = cand[:0]
		for _, v := range A {
			for _, rv := range g.Adj[v] {
				if inB[rv] != stamp {
					inB[rv] = stamp
					cand = append(cand, rv)
				}
			}
		}
		if g.Kind == bipartite.Duplicate {
			// Require A ≈ B, then report A∪B.
			inter := 0
			for _, v := range A {
				if inB[v] == stamp {
					inter++
				} else {
					inB[v] = stamp
					cand = append(cand, v)
				}
			}
			if float64(inter)/float64(len(cand)) < p.Tau {
				continue
			}
		}
		// Skip already-claimed sequences to keep outputs disjoint.
		fam := cand[:0]
		for _, v := range cand {
			if !claimed[v] {
				fam = append(fam, v)
			}
		}
		if len(fam) < p.MinSize {
			continue
		}
		ds := DenseSubgraph{Members: make([]int32, len(fam))}
		for i, v := range fam {
			ds.Members[i] = g.RightSeq[v]
			claimed[v] = true
			inFam[v] = stamp
		}
		slices.Sort(ds.Members)
		if g.Kind == bipartite.Duplicate {
			// Mean within-family degree over the similarity edges, and
			// the paper's density measure (mean degree / (m-1)).
			degSum := 0
			for _, v := range fam {
				for _, nb := range g.Adj[v] {
					if nb != v && inFam[nb] == stamp { // ignore B_d self edges
						degSum++
					}
				}
			}
			ds.MeanDegree = float64(degSum) / float64(len(fam))
			ds.Density = ds.MeanDegree / float64(len(fam)-1)
		}
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Members) != len(out[j].Members) {
			return len(out[i].Members) > len(out[j].Members)
		}
		return out[i].Members[0] < out[j].Members[0]
	})
	st.Reported = len(out)
	return out, st
}

// SizeHistogram buckets subgraph sizes into [lo, lo+width) bins and
// returns the sorted bucket lower bounds with their counts — the shape of
// the paper's Figure 5.
func SizeHistogram(subs []DenseSubgraph, width int) (bounds []int, counts []int) {
	if width <= 0 {
		width = 5
	}
	m := map[int]int{}
	for _, d := range subs {
		b := (d.Size() / width) * width
		m[b]++
	}
	for b := range m {
		bounds = append(bounds, b)
	}
	sort.Ints(bounds)
	counts = make([]int, len(bounds))
	for i, b := range bounds {
		counts[i] = m[b]
	}
	return bounds, counts
}
