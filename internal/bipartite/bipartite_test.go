package bipartite

import (
	"runtime"
	"sort"
	"testing"

	"profam/internal/align"
	"profam/internal/seq"
	"profam/internal/workload"
)

func TestBuildBdSymmetricAndLabelled(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 1, MeanFamilySize: 8, MeanLength: 100,
		Divergence: 0.08, Singletons: 0, Seed: 5,
	})
	members := make([]int, set.Len())
	for i := range members {
		members[i] = i
	}
	g, bst, err := BuildBd(set, members, Config{Psi: 6})
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != Duplicate || g.NLeft != set.Len() || g.NRight != set.Len() {
		t.Fatalf("graph shape wrong: %s", g)
	}
	if bst.PairsAligned == 0 || bst.Cells == 0 || g.Edges() == 0 {
		t.Fatalf("no edges found in a planted family (stats=%+v)", bst)
	}
	// Symmetry: i in Adj[j] iff j in Adj[i]; no self loops.
	adjSet := func(l int) map[int32]bool {
		m := map[int32]bool{}
		for _, r := range g.Adj[l] {
			m[r] = true
		}
		return m
	}
	for i := 0; i < g.NLeft; i++ {
		if len(g.Adj[i]) > 0 && !adjSet(i)[int32(i)] {
			t.Fatalf("non-isolated vertex %d missing its self edge", i)
		}
		for _, j := range g.Adj[i] {
			if !adjSet(int(j))[int32(i)] {
				t.Fatalf("asymmetric edge %d-%d", i, j)
			}
		}
		if !sort.SliceIsSorted(g.Adj[i], func(a, b int) bool { return g.Adj[i][a] < g.Adj[i][b] }) {
			t.Fatalf("Adj[%d] not sorted", i)
		}
	}
	// LeftSeq == RightSeq for Bd.
	for i := range g.LeftSeq {
		if g.LeftSeq[i] != g.RightSeq[i] {
			t.Fatal("Bd left/right sequence mapping differs")
		}
	}
}

// TestBuildBdAllocationBound pins what a small component costs: the
// recursive suffix-tree builder grabbed a 256 KB child-bounds arena per
// recorded bucket (16.6 MB here), the suffix-array builder phase 3 now
// calls allocates 0.13 MB for the whole call. The service rebuilds B_d
// for many such components every epoch, so a per-bucket allocation that
// does not scale with the bucket is what this guards against.
func TestBuildBdAllocationBound(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 1, MeanFamilySize: 5, MeanLength: 130,
		Divergence: 0.08, Singletons: 0, Seed: 11,
	})
	members := make([]int, min(5, set.Len()))
	for i := range members {
		members[i] = i
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := BuildBd(set, members, Config{Psi: 7}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Errorf("BuildBd on %d members allocated %.1f MB, want <= 2 MB", len(members), float64(got)/(1<<20))
	}
}

func TestBuildBdEdgesMatchPredicate(t *testing.T) {
	// Hand-built component: three similar sequences plus one distant.
	set := seq.NewSet()
	base := "MKWVTFISLLFLFSSAYSRGVFRRDTHKSEIAHRFKDLGEEHFKGLVLIAFSQYLQ"
	set.MustAdd("a", base)
	set.MustAdd("b", base[:50]+"AAAAAA")
	set.MustAdd("c", "G"+base[1:])
	set.MustAdd("d", "PPPPPPPPPPGGGGGGGGGGYYYYYYYYYYHHHHHHHHHHKKKKKKKKKKLLLLLL")
	g, _, err := BuildBd(set, []int{0, 1, 2, 3}, Config{Psi: 6})
	if err != nil {
		t.Fatal(err)
	}
	al := align.NewAligner(nil)
	p := align.DefaultOverlapParams()
	// Every edge must satisfy the predicate; every predicate-passing pair
	// sharing a >=6 match must be an edge.
	has := func(i, j int) bool {
		for _, r := range g.Adj[i] {
			if int(r) == j {
				return true
			}
		}
		return false
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			ok := al.Overlaps(set.Get(i).Res, set.Get(j).Res, p)
			if has(i, j) && !ok {
				t.Errorf("edge %d-%d fails the overlap predicate", i, j)
			}
			if ok && !has(i, j) {
				t.Errorf("predicate-passing pair %d-%d missing (no >=psi match?)", i, j)
			}
		}
	}
	if len(g.Adj[3]) != 0 {
		t.Error("distant sequence acquired edges")
	}
}

func TestBuildBm(t *testing.T) {
	set := seq.NewSet()
	dom := "WWHKNMEFRW" // exactly w=10
	set.MustAdd("a", "AAAA"+dom+"CCCC")
	set.MustAdd("b", "GGG"+dom+"TTTT")
	set.MustAdd("c", "PPPPPPPPPPPPPP") // no shared words
	g, _, err := BuildBm(set, []int{0, 1, 2}, Config{W: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind != Match || g.NRight != 3 {
		t.Fatalf("graph shape: %s", g)
	}
	if g.NLeft != 1 {
		t.Fatalf("expected exactly 1 shared word, got %d (%v)", g.NLeft, g.LeftWord)
	}
	if g.LeftWord[0] != dom {
		t.Errorf("shared word = %q, want %q", g.LeftWord[0], dom)
	}
	if len(g.Adj[0]) != 2 || g.Adj[0][0] != 0 || g.Adj[0][1] != 1 {
		t.Errorf("word adjacency = %v", g.Adj[0])
	}
}

func TestBuildBmRepeatedWordCountedOnce(t *testing.T) {
	set := seq.NewSet()
	dom := "WWHKNMEFRW"
	set.MustAdd("a", dom+"AAAA"+dom) // word appears twice in one sequence
	set.MustAdd("b", dom)
	g, _, err := BuildBm(set, []int{0, 1}, Config{W: 10})
	if err != nil {
		t.Fatal(err)
	}
	for li, w := range g.LeftWord {
		if w == dom {
			if len(g.Adj[li]) != 2 {
				t.Errorf("word %q adjacency = %v, want one entry per sequence", w, g.Adj[li])
			}
		}
	}
}

func TestBuildBmDomainFamily(t *testing.T) {
	set, truth := workload.Generate(workload.Params{
		Families: 1, DomainFamilies: 1, DomainSize: 6, Singletons: 0, Seed: 9,
	})
	var members []int
	for id := range truth.Label {
		if truth.Label[id] == 1 { // the domain family
			members = append(members, id)
		}
	}
	if len(members) != 6 {
		t.Fatalf("expected 6 domain members, got %d", len(members))
	}
	g, _, err := BuildBm(set, members, Config{W: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.NLeft == 0 {
		t.Fatal("domain family produced no shared words")
	}
	// At least one word must be shared by most members.
	best := 0
	for _, a := range g.Adj {
		if len(a) > best {
			best = len(a)
		}
	}
	if best < 4 {
		t.Errorf("most-shared word covers only %d/6 members", best)
	}
}

func TestDistributeComponents(t *testing.T) {
	comps := [][]int{
		make([]int, 100), make([]int, 10), make([]int, 10),
		make([]int, 10), make([]int, 10), make([]int, 10),
	}
	own := DistributeComponents(comps, 3)
	covered := map[int]bool{}
	for _, idxs := range own {
		for _, i := range idxs {
			if covered[i] {
				t.Fatalf("component %d assigned twice", i)
			}
			covered[i] = true
		}
	}
	if len(covered) != len(comps) {
		t.Fatalf("assigned %d/%d components", len(covered), len(comps))
	}
	// The big component must be alone on its rank under w=|C|^2.
	for _, idxs := range own {
		for _, i := range idxs {
			if i == 0 && len(idxs) != 1 {
				t.Errorf("huge component shares a rank: %v", idxs)
			}
		}
	}
}

func TestGraphStats(t *testing.T) {
	g := &Graph{Kind: Match, NLeft: 2, NRight: 3, Adj: [][]int32{{0, 1}, {2}}}
	if g.Edges() != 3 {
		t.Errorf("Edges = %d", g.Edges())
	}
}
