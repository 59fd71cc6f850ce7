package shingle

import (
	"fmt"
	"math/rand"
	"testing"

	"profam/internal/bipartite"
)

// denseBd builds a B_d-style graph with planted dense blocks: block k has
// blockSize vertices, each connected to every other vertex in the block
// with probability density, plus sparse random cross edges.
func denseBd(rng *rand.Rand, blocks, blockSize int, density, noise float64) *bipartite.Graph {
	n := blocks * blockSize
	adjSet := make([]map[int32]bool, n)
	for i := range adjSet {
		adjSet[i] = map[int32]bool{}
	}
	addEdge := func(i, j int) {
		if i == j {
			return
		}
		adjSet[i][int32(j)] = true
		adjSet[j][int32(i)] = true
	}
	for b := 0; b < blocks; b++ {
		base := b * blockSize
		for i := 0; i < blockSize; i++ {
			for j := i + 1; j < blockSize; j++ {
				if rng.Float64() < density {
					addEdge(base+i, base+j)
				}
			}
		}
	}
	for k := 0; k < int(noise*float64(n)); k++ {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	g := &bipartite.Graph{
		Kind: bipartite.Duplicate, NLeft: n, NRight: n,
		Adj:      make([][]int32, n),
		LeftSeq:  make([]int32, n),
		RightSeq: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		g.LeftSeq[i] = int32(i)
		g.RightSeq[i] = int32(i)
		for j := range adjSet[i] {
			g.Adj[i] = append(g.Adj[i], j)
		}
		a := g.Adj[i]
		for x := 1; x < len(a); x++ {
			for y := x; y > 0 && a[y] < a[y-1]; y-- {
				a[y], a[y-1] = a[y-1], a[y]
			}
		}
	}
	return g
}

func TestDetectRecoversPlantedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := denseBd(rng, 4, 20, 0.9, 0.1)
	subs, st := Detect(g, Params{S1: 4, C1: 120, S2: 4, C2: 60, Tau: 0.4, MinSize: 5})
	if len(subs) < 3 {
		t.Fatalf("recovered only %d/4 planted blocks (stats %+v)", len(subs), st)
	}
	// Each reported subgraph should be dominated by one block.
	for _, d := range subs {
		blockCount := map[int32]int{}
		for _, id := range d.Members {
			blockCount[id/20]++
		}
		best, total := 0, 0
		for _, c := range blockCount {
			total += c
			if c > best {
				best = c
			}
		}
		if best*10 < total*8 {
			t.Errorf("subgraph mixes blocks: %v", blockCount)
		}
		if d.Density < 0.5 {
			t.Errorf("planted block reported with low density %.2f", d.Density)
		}
	}
	if st.WorkOps == 0 || st.ShinglesPass1 == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestDetectDisjointOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := denseBd(rng, 3, 15, 0.85, 0.3)
	subs, _ := Detect(g, Params{S1: 3, C1: 80, S2: 3, C2: 40, Tau: 0.3, MinSize: 2})
	seen := map[int32]bool{}
	for _, d := range subs {
		for _, id := range d.Members {
			if seen[id] {
				t.Fatalf("sequence %d reported in two dense subgraphs", id)
			}
			seen[id] = true
		}
	}
}

func TestDetectDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := denseBd(rng, 3, 12, 0.9, 0.2)
	p := Params{S1: 3, C1: 60, S2: 3, C2: 30, MinSize: 3}
	a, _ := Detect(g, p)
	b, _ := Detect(g, p)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("Detect not deterministic for identical input and seed")
	}
	p2 := p
	p2.Seed = 999
	c, _ := Detect(g, p2)
	_ = c // different seed may or may not differ; just must not crash
}

func TestDetectEmptyAndTiny(t *testing.T) {
	empty := &bipartite.Graph{Kind: bipartite.Duplicate}
	subs, st := Detect(empty, Params{})
	if len(subs) != 0 || st.LeftVertices != 0 {
		t.Errorf("empty graph: %v %+v", subs, st)
	}
	// Two isolated vertices: no subgraphs.
	g := &bipartite.Graph{
		Kind: bipartite.Duplicate, NLeft: 2, NRight: 2,
		Adj: [][]int32{{}, {}}, LeftSeq: []int32{0, 1}, RightSeq: []int32{0, 1},
	}
	subs, _ = Detect(g, Params{MinSize: 2})
	if len(subs) != 0 {
		t.Errorf("isolated vertices yielded subgraphs: %v", subs)
	}
}

func TestTauFilter(t *testing.T) {
	// A star: one hub connected to many leaves. A (hub side) and B
	// (leaves) barely intersect, so a high tau must reject it.
	n := 12
	g := &bipartite.Graph{
		Kind: bipartite.Duplicate, NLeft: n, NRight: n,
		Adj: make([][]int32, n), LeftSeq: make([]int32, n), RightSeq: make([]int32, n),
	}
	for i := 0; i < n; i++ {
		g.LeftSeq[i], g.RightSeq[i] = int32(i), int32(i)
	}
	for i := 1; i < n; i++ {
		g.Adj[0] = append(g.Adj[0], int32(i))
		g.Adj[i] = []int32{0}
	}
	strict, _ := Detect(g, Params{S1: 1, C1: 40, S2: 2, C2: 20, Tau: 0.9, MinSize: 2})
	if len(strict) != 0 {
		t.Errorf("tau=0.9 accepted a star: %v", strict)
	}
}

func TestBmReportsRightSide(t *testing.T) {
	// Words 0..4 each link the same 6 sequences: B should be those
	// sequences.
	nw, ns := 5, 6
	g := &bipartite.Graph{
		Kind: bipartite.Match, NLeft: nw, NRight: ns,
		Adj:      make([][]int32, nw),
		LeftWord: make([]string, nw),
		RightSeq: make([]int32, ns),
	}
	for i := 0; i < ns; i++ {
		g.RightSeq[i] = int32(100 + i) // original IDs offset to catch mapping bugs
	}
	for w := 0; w < nw; w++ {
		g.LeftWord[w] = fmt.Sprintf("W%d", w)
		for s := 0; s < ns; s++ {
			g.Adj[w] = append(g.Adj[w], int32(s))
		}
	}
	subs, _ := Detect(g, Params{S1: 3, C1: 40, S2: 2, C2: 20, MinSize: 3})
	if len(subs) != 1 {
		t.Fatalf("got %d subgraphs, want 1: %v", len(subs), subs)
	}
	if subs[0].Size() != ns {
		t.Errorf("family size %d, want %d", subs[0].Size(), ns)
	}
	for i, id := range subs[0].Members {
		if id != int32(100+i) {
			t.Errorf("member %d = %d, want %d (RightSeq mapping)", i, id, 100+i)
		}
	}
	if subs[0].Density != 0 {
		t.Error("Bm subgraph should not report Bd density")
	}
}

func TestSizeHistogram(t *testing.T) {
	subs := []DenseSubgraph{
		{Members: make([]int32, 5)},
		{Members: make([]int32, 7)},
		{Members: make([]int32, 12)},
		{Members: make([]int32, 13)},
	}
	bounds, counts := SizeHistogram(subs, 5)
	if len(bounds) != 2 || bounds[0] != 5 || bounds[1] != 10 {
		t.Fatalf("bounds = %v", bounds)
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	b2, _ := SizeHistogram(subs, 0) // default width
	if len(b2) == 0 {
		t.Error("default width failed")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.S1 != 5 || p.C1 != 300 || p.S2 != 5 || p.C2 != 100 {
		t.Errorf("defaults wrong: %+v", p)
	}
	if p.Tau != 0.5 || p.MinSize != 2 || p.Seed == 0 {
		t.Errorf("defaults wrong: %+v", p)
	}
}

func BenchmarkDetect(b *testing.B) {
	for _, size := range []int{200, 800} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			g := denseBd(rng, size/20, 20, 0.8, 0.2)
			p := Params{S1: 5, C1: 100, S2: 5, C2: 50, MinSize: 5}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Detect(g, p)
			}
		})
	}
}
