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
// paper): only pairs sharing a ≥ψ maximal match are tested against the
// edge similarity cutoff. The pipeline hands each component the pairs it
// enumerated for clustering, and a pair whose overlap counts are already
// known (from CCD, or an earlier epoch) is not aligned again.
package bipartite

import (
	"fmt"
	"sort"

	"profam/internal/align"
	"profam/internal/esa"
	"profam/internal/pace"
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

func (g *Graph) String() string {
	return fmt.Sprintf("%s graph: %d left, %d right, %d edges", g.Kind, g.NLeft, g.NRight, g.Edges())
}

// Config controls graph construction.
type Config struct {
	// Psi is the maximal-match filter length for B_d edge discovery
	// (default 8).
	Psi int
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
// PairsAligned, PairsReused, Cells and Fresh are B_d quantities; Chars
// and Words are B_m quantities (characters scanned for word extraction,
// shared words kept as left vertices).
type BuildStats struct {
	PairsAligned int64 // promising pairs aligned here
	PairsReused  int64 // promising pairs decided from known counts, without DP
	Cells        int64
	Chars        int64
	Words        int64
	// Fresh holds every pair aligned here with its counts (nil when
	// nothing was aligned).
	Fresh []pace.Verdict
}

// BuildBd constructs the global-similarity reduction of one connected
// component. members lists the component's sequence IDs within set. It
// enumerates the component's promising pairs over an index of its own;
// the pipeline, which already holds them, calls BuildBdFrom.
func BuildBd(set *seq.Set, members []int, cfg Config) (*Graph, BuildStats, error) {
	cfg = cfg.withDefaults()
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	sub, _ := set.Subset(sorted)
	trees, err := esa.Build(sub, suffixtree.Options{MinMatch: cfg.Psi})
	if err != nil {
		return nil, BuildStats{}, err
	}
	var pairs []pace.Verdict
	seen := map[int64]bool{}
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		if key := int64(p.SeqA)<<32 | int64(uint32(p.SeqB)); !seen[key] {
			seen[key] = true
			// Sub-IDs ascend with set IDs, so the pair stays lower-first.
			pairs = append(pairs, pace.Verdict{A: int32(sorted[p.SeqA]), B: int32(sorted[p.SeqB])})
		}
		return true
	})
	g, st := BuildBdFrom(set, members, pairs, cfg)
	return g, st, nil
}

// BuildBdFrom is BuildBd over pairs, the component's promising pairs,
// each once: a pair with counts is decided by cfg.Edge.Accept, and a
// pair without (zero counts) is aligned. It builds BuildBd's graph,
// since stored counts are those BuildBd would compute. pairs is only
// read.
func BuildBdFrom(set *seq.Set, members []int, pairs []pace.Verdict, cfg Config) (*Graph, BuildStats) {
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
	local := make(map[int32]int32, m)
	for i, id := range sorted {
		g.LeftSeq[i] = int32(id)
		g.RightSeq[i] = int32(id)
		local[int32(id)] = int32(i)
	}

	al := align.NewAligner(align.DefaultScoring())
	var st BuildStats
	for _, p := range pairs {
		counts := p.Overlap
		if counts.LongLen > 0 {
			st.PairsReused++
		} else {
			st.PairsAligned++
			a, b := set.Get(int(p.A)).Res, set.Get(int(p.B)).Res
			counts = al.LocalCounts(a, b)
			st.Fresh = append(st.Fresh, pace.Verdict{A: p.A, B: p.B, Overlap: counts})
		}
		if cfg.Edge.Accept(counts) {
			i, j := local[p.A], local[p.B]
			g.Adj[i] = append(g.Adj[i], j)
			g.Adj[j] = append(g.Adj[j], i)
		}
	}
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
	return g, st
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

	// word -> set of right vertices containing it, kept in ascending
	// right order by construction, so a word already seen in the current
	// sequence is the one whose set ends with it.
	var st BuildStats
	index := map[string]int32{} // word -> its position in occ
	var occ [][]int32
	for ri, id := range sorted {
		res := set.Get(id).Res
		st.Chars += int64(len(res))
		for off := 0; off+cfg.W <= len(res); off++ {
			w := res[off : off+cfg.W]
			i, ok := index[string(w)]
			if !ok {
				i = int32(len(occ))
				index[string(w)] = i
				occ = append(occ, nil)
			}
			if rs := occ[i]; len(rs) > 0 && rs[len(rs)-1] == int32(ri) {
				continue
			}
			occ[i] = append(occ[i], int32(ri))
		}
	}

	words := make([]string, 0, len(index))
	for w, i := range index {
		if len(occ[i]) >= 2 {
			words = append(words, w)
		}
	}
	sort.Strings(words) // deterministic left ordering

	g.NLeft = len(words)
	g.LeftWord = words
	g.Adj = make([][]int32, len(words))
	for li, w := range words {
		g.Adj[li] = occ[index[w]]
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
