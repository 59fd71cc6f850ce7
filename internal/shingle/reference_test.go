package shingle

import (
	"sort"

	"profam/internal/bipartite"
	"profam/internal/minhash"
	"profam/internal/unionfind"
)

// This file keeps the straightforward detector the production one is
// differentially tested against: every vertex and every first-level
// shingle is shingled afresh ("hash all, sort, take s"), and the
// reporting stage is written with maps. It is the definition of the
// output; Detect must match it exactly on everything but Stats.WorkOps.

// referenceShingle is the textbook (s, 1)-shingle: the s smallest
// permuted values, ascending.
func referenceShingle(pm minhash.Perm, elems []uint64, s int, scratch []uint64) []uint64 {
	scratch = scratch[:0]
	for _, e := range elems {
		scratch = append(scratch, pm.Apply(e))
	}
	sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
	if s < len(scratch) {
		scratch = scratch[:s]
	}
	return scratch
}

// detectReference runs the two-pass algorithm on one bipartite graph and
// returns the dense subgraphs, largest first.
func detectReference(g *bipartite.Graph, p Params) ([]DenseSubgraph, Stats) {
	p = p.withDefaults()
	var st Stats
	st.LeftVertices = g.NLeft
	if g.NLeft == 0 {
		return nil, st
	}

	fam1 := minhash.NewFamily(p.C1, p.Seed)

	// Pass I: shingle every left vertex's out-link set.
	shingleMembers := map[uint64][]int32{} // first-level shingle -> left vertices
	var scratch []uint64
	elems := make([]uint64, 0, 64)
	for v := 0; v < g.NLeft; v++ {
		adj := g.Adj[v]
		if len(adj) == 0 {
			continue
		}
		elems = elems[:0]
		for _, r := range adj {
			elems = append(elems, uint64(r))
		}
		seenHere := map[uint64]bool{}
		for _, pm := range fam1.Perms {
			scratch = referenceShingle(pm, elems, p.S1, scratch)
			h := minhash.HashTuple(scratch)
			st.WorkOps += int64(len(elems))
			if !seenHere[h] {
				seenHere[h] = true
				shingleMembers[h] = append(shingleMembers[h], int32(v))
			}
		}
	}

	// Index first-level shingles deterministically.
	hashes := make([]uint64, 0, len(shingleMembers))
	for h := range shingleMembers {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	st.ShinglesPass1 = len(hashes)
	return referenceReport(g, p, hashes, shingleMembers, st)
}

// referenceReport runs pass II and the reporting stage over the pass-I
// output: the sorted first-level shingle hashes and their member
// vertices.
func referenceReport(g *bipartite.Graph, p Params, hashes []uint64, shingleMembers map[uint64][]int32, st Stats) ([]DenseSubgraph, Stats) {
	fam2 := minhash.NewFamily(p.C2, p.Seed+1)
	var scratch []uint64
	elems := make([]uint64, 0, 64)

	// Pass II: shingle each first-level shingle's vertex membership and
	// union first-level shingles sharing a second-level shingle.
	uf := unionfind.New(len(hashes))
	second := map[uint64]int{} // second-level shingle -> first first-level index seen
	for i, h := range hashes {
		members := shingleMembers[h]
		elems = elems[:0]
		for _, v := range members {
			elems = append(elems, uint64(v))
		}
		for _, pm := range fam2.Perms {
			scratch = referenceShingle(pm, elems, p.S2, scratch)
			h2 := minhash.HashTuple(scratch)
			st.WorkOps += int64(len(elems))
			if first, ok := second[h2]; ok {
				uf.Union(first, i)
			} else {
				second[h2] = i
			}
		}
	}
	st.ShinglesPass2 = len(second)

	// Collect components of first-level shingles; gather their vertices.
	compVerts := map[int]map[int32]bool{}
	for i, h := range hashes {
		r := uf.Find(i)
		vs := compVerts[r]
		if vs == nil {
			vs = map[int32]bool{}
			compVerts[r] = vs
		}
		for _, v := range shingleMembers[h] {
			vs[v] = true
		}
	}
	st.Candidates = len(compVerts)

	// A left vertex can surface in several components (its c1 shingles
	// may scatter); keep the output disjoint by assigning each vertex to
	// the component holding more of its shingles (ties to the smaller
	// root for determinism).
	votes := map[int32]map[int]int{}
	for i, h := range hashes {
		r := uf.Find(i)
		for _, v := range shingleMembers[h] {
			m := votes[v]
			if m == nil {
				m = map[int]int{}
				votes[v] = m
			}
			m[r]++
		}
	}
	assigned := map[int32]int{}
	for v, m := range votes {
		bestRoot, bestVotes := -1, -1
		for r, n := range m {
			if n > bestVotes || (n == bestVotes && r < bestRoot) {
				bestRoot, bestVotes = r, n
			}
		}
		assigned[v] = bestRoot
	}

	// Build candidate (A, B) per component from assigned vertices.
	compA := map[int][]int32{}
	for v, r := range assigned {
		compA[r] = append(compA[r], v)
	}
	roots := make([]int, 0, len(compA))
	for r := range compA {
		roots = append(roots, r)
	}
	// Deterministic order: larger A first, then smaller root.
	sort.Slice(roots, func(i, j int) bool {
		if len(compA[roots[i]]) != len(compA[roots[j]]) {
			return len(compA[roots[i]]) > len(compA[roots[j]])
		}
		return roots[i] < roots[j]
	})

	claimed := map[int32]bool{} // sequence IDs already reported
	var out []DenseSubgraph
	for _, r := range roots {
		A := compA[r]
		sort.Slice(A, func(i, j int) bool { return A[i] < A[j] })
		B := map[int32]bool{}
		for _, v := range A {
			for _, rv := range g.Adj[v] {
				B[rv] = true
			}
		}
		members := referenceAssemble(g, A, B, p, claimed)
		if len(members) < p.MinSize {
			continue
		}
		ds := DenseSubgraph{Members: members}
		if g.Kind == bipartite.Duplicate {
			ds.MeanDegree, ds.Density = referenceDensity(g, members)
		}
		for _, id := range members {
			claimed[id] = true
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

// referenceAssemble turns a candidate (A, B) into the family's sequence-ID list,
// applying the reduction-specific rule and skipping already-claimed
// sequences to keep outputs disjoint.
func referenceAssemble(g *bipartite.Graph, A []int32, B map[int32]bool, p Params, claimed map[int32]bool) []int32 {
	switch g.Kind {
	case bipartite.Duplicate:
		// A and B index the same sequence universe; require A ≈ B.
		union := map[int32]bool{}
		inter := 0
		for _, v := range A {
			union[v] = true
			if B[v] {
				inter++
			}
		}
		for v := range B {
			union[v] = true
		}
		if len(union) == 0 || float64(inter)/float64(len(union)) < p.Tau {
			return nil
		}
		out := make([]int32, 0, len(union))
		for v := range union {
			id := g.RightSeq[v] // LeftSeq == RightSeq for B_d
			if !claimed[id] {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	default: // Match: report B directly.
		out := make([]int32, 0, len(B))
		for v := range B {
			id := g.RightSeq[v]
			if !claimed[id] {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
}

// referenceDensity computes the mean within-family degree and the paper's
// density measure (mean degree / (m-1)) over the similarity edges of a
// B_d graph.
func referenceDensity(g *bipartite.Graph, members []int32) (meanDeg, density float64) {
	if len(members) < 2 {
		return 0, 0
	}
	// members hold original sequence IDs; map back to local indices.
	local := map[int32]bool{}
	idToLocal := map[int32]int32{}
	for li, id := range g.RightSeq {
		idToLocal[id] = int32(li)
	}
	for _, id := range members {
		if li, ok := idToLocal[id]; ok {
			local[li] = true
		}
	}
	var degSum int
	for li := range local {
		for _, nb := range g.Adj[li] {
			if nb != li && local[nb] { // ignore B_d self edges
				degSum++
			}
		}
	}
	meanDeg = float64(degSum) / float64(len(local))
	density = meanDeg / float64(len(members)-1)
	return meanDeg, density
}
