// Package bipartite builds the paper's two bipartite-graph reductions of
// a connected component, the inputs to dense-subgraph detection:
//
//   - B_d ("duplicate", global-similarity): Vl = Vr = the component's
//     sequences; each similarity edge (i,j) of the component graph
//     becomes the two directed entries (i→j) and (j→i). Dense subgraphs
//     (A ⊆ Vl, B ⊆ Vr) are protein families when |A∩B|/|A∪B| ≥ τ.
//   - B_m ("match", domain-based): Vl = the w-length words occurring in
//     at least two member sequences, Vr = the sequences; a word links to
//     every sequence containing it. The right-hand set B of a dense
//     subgraph is reported as the family directly.
//
// Edges for B_d are discovered with the same maximal-match filter the
// clustering phases use (a modified PaCE pass without clustering, per the
// paper): only pairs sharing a ≥ψ maximal match are aligned against the
// edge similarity cutoff.
package bipartite

import (
	"fmt"
	"sort"

	"profam/internal/align"
	"profam/internal/esa"
	"profam/internal/seq"
	"profam/internal/suffixtree"
)

// Kind distinguishes the two reductions.
type Kind int

const (
	// Duplicate is the global-similarity reduction B_d.
	Duplicate Kind = iota
	// Match is the domain-based reduction B_m.
	Match
)

func (k Kind) String() string {
	if k == Duplicate {
		return "Bd"
	}
	return "Bm"
}

// Graph is an undirected bipartite graph in adjacency-list form.
// Left vertices are 0..NLeft-1, right vertices 0..NRight-1; Adj[l] lists
// the right neighbours of left vertex l, sorted ascending.
//
// RightSeq maps right vertices to original sequence IDs. For Duplicate
// graphs LeftSeq does the same for left vertices (and left index i and
// right index i denote the same sequence); for Match graphs LeftWord
// holds the w-mer of each left vertex and LeftSeq is nil.
type Graph struct {
	Kind          Kind
	NLeft, NRight int
	Adj           [][]int32
	LeftSeq       []int32
	LeftWord      []string
	RightSeq      []int32
}

// Edges returns the total number of bipartite edges.
func (g *Graph) Edges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n
}

// Degree statistics over left vertices with at least one edge.
func (g *Graph) MeanLeftDegree() float64 {
	if g.NLeft == 0 {
		return 0
	}
	return float64(g.Edges()) / float64(g.NLeft)
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s graph: %d left, %d right, %d edges", g.Kind, g.NLeft, g.NRight, g.Edges())
}

// Config controls graph construction.
type Config struct {
	// Psi is the maximal-match filter length for B_d edge discovery
	// (default 8).
	Psi int
	// Scoring for edge alignments (default BLOSUM62 11/1).
	Scoring *align.Scoring
	// Edge is the similarity cutoff defining graph edges (the paper's
	// "user-specified similarity cutoff"; default = the CCD overlap
	// definition, 30 % similarity over 80 % of the longer sequence).
	Edge align.OverlapParams
	// W is the word length for B_m (default 10, per the paper's w ≈ 10).
	W int
}

func (c Config) withDefaults() Config {
	if c.Psi == 0 {
		c.Psi = 8
	}
	if c.Scoring == nil {
		c.Scoring = align.DefaultScoring()
	}
	if c.Edge == (align.OverlapParams{}) {
		c.Edge = align.DefaultOverlapParams()
	}
	if c.W == 0 {
		c.W = 10
	}
	return c
}

// BuildStats records the work spent constructing a graph, for the
// virtual-time accounting and metrics of the distributed pipeline.
// PairsAligned and Cells are B_d quantities; Chars and Words are B_m
// quantities (characters scanned for word extraction, shared words kept
// as left vertices).
type BuildStats struct {
	PairsAligned int64
	Cells        int64
	Chars        int64
	Words        int64
}

// BuildBd constructs the global-similarity reduction of one connected
// component. members lists the component's sequence IDs within set.
func BuildBd(set *seq.Set, members []int, cfg Config) (*Graph, BuildStats, error) {
	cfg = cfg.withDefaults()
	m := len(members)
	g := &Graph{
		Kind:     Duplicate,
		NLeft:    m,
		NRight:   m,
		Adj:      make([][]int32, m),
		LeftSeq:  make([]int32, m),
		RightSeq: make([]int32, m),
	}
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	for i, id := range sorted {
		g.LeftSeq[i] = int32(id)
		g.RightSeq[i] = int32(id)
	}

	sub, _ := set.Subset(sorted)
	trees, err := esa.Build(sub, suffixtree.Options{MinMatch: cfg.Psi})
	if err != nil {
		return nil, BuildStats{}, err
	}
	al := align.NewAligner(cfg.Scoring)
	seen := map[int64]bool{}
	var st BuildStats
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		key := int64(p.SeqA)<<32 | int64(uint32(p.SeqB))
		if seen[key] {
			return true
		}
		seen[key] = true
		st.PairsAligned++
		a, b := sub.Get(int(p.SeqA)).Res, sub.Get(int(p.SeqB)).Res
		if ok, _ := al.Overlaps(a, b, cfg.Edge); ok {
			g.Adj[p.SeqA] = append(g.Adj[p.SeqA], p.SeqB)
			g.Adj[p.SeqB] = append(g.Adj[p.SeqB], p.SeqA)
		}
		return true
	})
	// Add a self edge to every non-isolated vertex. In B_d the two sides
	// duplicate the same sequences, and without (i,i) the out-link sets
	// of two family members always differ by exactly their own two
	// entries — for families of size ≤ s+1 no shingle can ever be
	// shared, making small dense subgraphs undetectable. With self
	// edges, the members of a k-clique have identical neighbourhoods and
	// collapse onto the same shingles for any k ≥ s.
	for i := range g.Adj {
		if len(g.Adj[i]) > 0 {
			g.Adj[i] = append(g.Adj[i], int32(i))
		}
	}
	for _, a := range g.Adj {
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	}
	st.Cells = al.Cells
	return g, st, nil
}

// BuildBm constructs the domain-based reduction of one connected
// component: left vertices are the W-length words shared by at least two
// member sequences.
func BuildBm(set *seq.Set, members []int, cfg Config) (*Graph, BuildStats, error) {
	cfg = cfg.withDefaults()
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)

	g := &Graph{
		Kind:     Match,
		NRight:   len(sorted),
		RightSeq: make([]int32, len(sorted)),
	}
	for i, id := range sorted {
		g.RightSeq[i] = int32(id)
	}

	// word -> set of right vertices containing it (deduplicated per
	// sequence, kept in ascending right order by construction).
	var st BuildStats
	occ := map[string][]int32{}
	for ri, id := range sorted {
		res := set.Get(id).Res
		st.Chars += int64(len(res))
		if len(res) < cfg.W {
			continue
		}
		lastSeen := map[string]bool{}
		for off := 0; off+cfg.W <= len(res); off++ {
			w := string(res[off : off+cfg.W])
			if lastSeen[w] {
				continue
			}
			lastSeen[w] = true
			occ[w] = append(occ[w], int32(ri))
		}
	}

	words := make([]string, 0, len(occ))
	for w, rs := range occ {
		if len(rs) >= 2 {
			words = append(words, w)
		}
	}
	sort.Strings(words) // deterministic left ordering

	g.NLeft = len(words)
	g.LeftWord = words
	g.Adj = make([][]int32, len(words))
	for li, w := range words {
		g.Adj[li] = occ[w]
	}
	st.Words = int64(len(words))
	return g, st, nil
}

// DistributeComponents greedily assigns components (given as member-ID
// lists) to p ranks balancing the estimated dense-subgraph workload,
// which grows superlinearly with component size; weight |C|^2 mirrors the
// paper's batching of components "of roughly the same size".
// Returns, per rank, the indices of its components.
func DistributeComponents(comps [][]int, p int) [][]int {
	type wc struct {
		idx int
		w   int64
	}
	ws := make([]wc, len(comps))
	for i, c := range comps {
		ws[i] = wc{i, int64(len(c)) * int64(len(c))}
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].w != ws[b].w {
			return ws[a].w > ws[b].w
		}
		return ws[a].idx < ws[b].idx
	})
	own := make([][]int, p)
	load := make([]int64, p)
	for _, c := range ws {
		best := 0
		for r := 1; r < p; r++ {
			if load[r] < load[best] {
				best = r
			}
		}
		own[best] = append(own[best], c.idx)
		load[best] += c.w
	}
	return own
}
