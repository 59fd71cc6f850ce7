// Package gos implements the comparison baseline: the GOS project's
// protein-family methodology as outlined in Section II of the paper
// (Yooseph et al., PLoS Biology 2007), reduced to its sequence-similarity
// core:
//
//  1. Redundancy removal by all-versus-all containment testing
//     (BLASTP stands in for our Smith–Waterman aligner).
//  2. Full similarity-graph construction over all remaining pairs with a
//     strict similarity cutoff (GOS used 70 %).
//  3. Dense-subgraph detection by bounded core-set creation (two vertices
//     join a core when they share at least K neighbours — the paper
//     criticises the fixed K=10), relaxed expansion, and merging of
//     intersecting expanded sets.
//
// The deliberate Θ(n²) structure of steps 1–2 is the cost baseline the
// paper's suffix-tree filter is measured against; the Alignments/Cells
// counters expose it.
package gos

import (
	"sort"

	"profam/internal/align"
	"profam/internal/blastish"
	"profam/internal/seq"
	"profam/internal/unionfind"
)

// Config parameterises the baseline.
type Config struct {
	// Contain is the redundancy-removal rule (default 95 %/95 %).
	Contain align.ContainParams
	// Edge is the similarity-graph cutoff (default: 70 % positives over
	// 80 % of the longer sequence, after GOS).
	Edge align.OverlapParams
	// K is the shared-neighbour threshold for core membership
	// (default 10, the GOS restriction the paper critiques).
	K int
	// CoreMax bounds core-set size (default 100).
	CoreMax int
	// MinSize drops clusters smaller than this (default 2).
	MinSize int
	// Scoring for all alignments (default BLOSUM62 11/1).
	Scoring *align.Scoring
	// Seeded replaces the exhaustive all-versus-all pair enumeration
	// with the BLAST-style cascade (word index → two-hit → ungapped
	// X-drop → banded confirmation), which is how the real GOS pipeline
	// used BLASTP. The exhaustive mode remains the cost reference.
	Seeded bool
	// SeedMinScore is the minimum banded score for a seeded candidate
	// pair (default 35).
	SeedMinScore int32
	// Seed tunes the cascade (zero value = blastish defaults).
	Seed blastish.Params
}

func (c Config) withDefaults() Config {
	if c.Contain == (align.ContainParams{}) {
		c.Contain = align.DefaultContainParams()
	}
	if c.Edge == (align.OverlapParams{}) {
		c.Edge = align.OverlapParams{MinSimilarity: 0.70, MinLongCoverage: 0.80}
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.CoreMax == 0 {
		c.CoreMax = 100
	}
	if c.MinSize == 0 {
		c.MinSize = 2
	}
	if c.Scoring == nil {
		c.Scoring = align.DefaultScoring()
	}
	if c.SeedMinScore == 0 {
		c.SeedMinScore = 35
	}
	return c
}

// Result is the baseline's output.
type Result struct {
	// Keep[id] is false for sequences eliminated as redundant.
	Keep []bool
	// Clusters are the final families (sequence IDs), largest first.
	Clusters [][]int
	// Alignments and Cells count the all-versus-all work performed.
	Alignments int64
	Cells      int64
}

// Run executes the baseline pipeline serially.
func Run(set *seq.Set, cfg Config) Result {
	cfg = cfg.withDefaults()
	al := align.NewAligner(cfg.Scoring)
	n := set.Len()
	res := Result{Keep: make([]bool, n)}
	for i := range res.Keep {
		res.Keep[i] = true
	}

	pairs, seedAligns := candidatePairs(set, cfg)
	res.Alignments += seedAligns

	// Step 1: redundancy removal over the candidate pairs.
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		if !res.Keep[i] || !res.Keep[j] {
			continue
		}
		res.Alignments++
		ok, which := al.EitherContained(set.Get(i).Res, set.Get(j).Res, cfg.Contain)
		if ok {
			if which == 0 {
				res.Keep[i] = false
			} else {
				res.Keep[j] = false
			}
		}
	}

	// Step 2: similarity graph over surviving sequences.
	adj := make([][]int, n)
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		if !res.Keep[i] || !res.Keep[j] {
			continue
		}
		res.Alignments++
		if al.Overlaps(set.Get(i).Res, set.Get(j).Res, cfg.Edge) {
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], i)
		}
	}
	res.Cells = al.Cells

	// Step 3: core sets, expansion, merge.
	res.Clusters = coreSetClusters(adj, res.Keep, cfg)
	return res
}

// candidatePairs enumerates the ordered pairs (i < j) the baseline will
// evaluate: every pair in exhaustive mode, or the seeded cascade's
// survivors. The second return value counts banded alignments the
// cascade itself performed.
func candidatePairs(set *seq.Set, cfg Config) ([][2]int, int64) {
	n := set.Len()
	if !cfg.Seeded {
		pairs := make([][2]int, 0, n*(n-1)/2)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		return pairs, 0
	}
	sp := cfg.Seed
	sp.Scoring = cfg.Scoring
	ix, err := blastish.NewIndex(set, sp)
	if err != nil {
		// Parameter errors degrade to exhaustive mode rather than
		// failing the whole baseline.
		cfg.Seeded = false
		return candidatePairs(set, cfg)
	}
	var st blastish.Stats
	seen := map[int64]bool{}
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for _, h := range ix.Search(set.Get(i).Res, int32(i), cfg.SeedMinScore, &st) {
			a, b := i, int(h.Seq)
			if a > b {
				a, b = b, a
			}
			key := int64(a)<<32 | int64(b)
			if !seen[key] {
				seen[key] = true
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x][0] != pairs[y][0] {
			return pairs[x][0] < pairs[y][0]
		}
		return pairs[x][1] < pairs[y][1]
	})
	return pairs, st.Banded
}

// coreSetClusters runs the GOS-style heuristic over an adjacency list.
func coreSetClusters(adj [][]int, keep []bool, cfg Config) [][]int {
	n := len(adj)
	neighbours := make([]map[int]bool, n)
	for i, a := range adj {
		m := make(map[int]bool, len(a))
		for _, j := range a {
			m[j] = true
		}
		neighbours[i] = m
	}
	sharedCount := func(a, b int) int {
		x, y := neighbours[a], neighbours[b]
		if len(y) < len(x) {
			x, y = y, x
		}
		c := 0
		for v := range x {
			if y[v] {
				c++
			}
		}
		return c
	}
	// kFor adapts the fixed K to small graphs: two vertices can share at
	// most min(deg)-ish neighbours, so tiny families still form cores.
	kFor := func(a, b int) int {
		lim := len(neighbours[a])
		if len(neighbours[b]) < lim {
			lim = len(neighbours[b])
		}
		k := cfg.K
		if lim < k {
			k = lim - 1
		}
		if k < 1 {
			k = 1
		}
		return k
	}

	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if keep[i] && len(adj[i]) > 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if len(adj[order[a]]) != len(adj[order[b]]) {
			return len(adj[order[a]]) > len(adj[order[b]])
		}
		return order[a] < order[b]
	})

	inCore := make([]bool, n)
	var cores [][]int
	for _, v := range order {
		if inCore[v] {
			continue
		}
		core := []int{v}
		inCore[v] = true
		for _, u := range adj[v] {
			if inCore[u] || len(core) >= cfg.CoreMax {
				continue
			}
			if sharedCount(v, u) >= kFor(v, u) || neighbours[v][u] && len(core) < 3 {
				core = append(core, u)
				inCore[u] = true
			}
		}
		cores = append(cores, core)
	}

	// Expansion: attach vertices adjacent to at least half a core.
	expanded := make([][]int, len(cores))
	for ci, core := range cores {
		members := map[int]bool{}
		for _, v := range core {
			members[v] = true
		}
		for u := 0; u < n; u++ {
			if members[u] || !keep[u] {
				continue
			}
			links := 0
			for _, v := range core {
				if neighbours[u][v] {
					links++
				}
			}
			if links*2 >= len(core) && links > 0 {
				members[u] = true
			}
		}
		lst := make([]int, 0, len(members))
		for v := range members {
			lst = append(lst, v)
		}
		sort.Ints(lst)
		expanded[ci] = lst
	}

	// Merge intersecting expanded sets.
	uf := unionfind.New(len(expanded))
	owner := map[int]int{}
	for ci, lst := range expanded {
		for _, v := range lst {
			if prev, ok := owner[v]; ok {
				uf.Union(prev, ci)
			} else {
				owner[v] = ci
			}
		}
	}
	merged := map[int]map[int]bool{}
	for ci, lst := range expanded {
		r := uf.Find(ci)
		if merged[r] == nil {
			merged[r] = map[int]bool{}
		}
		for _, v := range lst {
			merged[r][v] = true
		}
	}

	var out [][]int
	for _, m := range merged {
		if len(m) < cfg.MinSize {
			continue
		}
		lst := make([]int, 0, len(m))
		for v := range m {
			lst = append(lst, v)
		}
		sort.Ints(lst)
		out = append(out, lst)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}
