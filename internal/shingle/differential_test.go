package shingle

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"profam/internal/bipartite"
	"profam/internal/workload"
)

// matchesReference runs the production detector and the reference on one
// graph and fails unless the families and every counter but WorkOps are
// identical. WorkOps counts hash evaluations actually performed, so it
// may only fall.
func matchesReference(t testing.TB, name string, g *bipartite.Graph, p Params) {
	t.Helper()
	want, wantSt := detectReference(g, p)
	got, gotSt := Detect(g, p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: families differ from the reference\nreference: %v\ndetect:    %v", name, want, got)
	}
	if gotSt.WorkOps > wantSt.WorkOps {
		t.Errorf("%s: WorkOps %d exceeds the reference's %d", name, gotSt.WorkOps, wantSt.WorkOps)
	}
	gotSt.WorkOps, wantSt.WorkOps = 0, 0
	if gotSt != wantSt {
		t.Fatalf("%s: stats differ from the reference\nreference: %+v\ndetect:    %+v", name, wantSt, gotSt)
	}
}

// sharedAdjacency builds a graph whose left vertices come in groups with
// one adjacency list each; every near-th vertex then gets one right
// vertex swapped, so lists are duplicates and near-duplicates of each
// other. In a Duplicate graph both sides have n vertices.
func sharedAdjacency(rng *rand.Rand, kind bipartite.Kind, groups, perGroup, degree, near int) *bipartite.Graph {
	nLeft := groups * perGroup
	nRight := nLeft
	if kind == bipartite.Match {
		nRight = groups * degree / 2 // neighbouring groups overlap
	}
	g := &bipartite.Graph{
		Kind: kind, NLeft: nLeft, NRight: nRight,
		Adj: make([][]int32, nLeft), RightSeq: make([]int32, nRight),
	}
	for i := range g.RightSeq {
		g.RightSeq[i] = int32(1000 + 3*i)
	}
	if kind == bipartite.Duplicate {
		g.LeftSeq = g.RightSeq
	}
	for grp := 0; grp < groups; grp++ {
		base := make([]int32, 0, degree)
		for len(base) < degree {
			r := int32((grp*degree/2 + rng.Intn(degree)) % nRight)
			if !slices.Contains(base, r) {
				base = append(base, r)
			}
		}
		slices.Sort(base)
		for i := 0; i < perGroup; i++ {
			v := grp*perGroup + i
			adj := slices.Clone(base)
			if near > 0 && v%near == near-1 {
				adj[rng.Intn(len(adj))] = int32(rng.Intn(nRight))
				slices.Sort(adj)
				adj = slices.Compact(adj)
			}
			g.Adj[v] = adj
		}
	}
	return g
}

// generated builds the B_d and the B_m reduction of one workload corpus
// taken as a single component, the way the pipeline hands components to
// phase 3.
func generated(t testing.TB, p workload.Params) (bd, bm *bipartite.Graph) {
	t.Helper()
	set, _ := workload.Generate(p)
	members := make([]int, set.Len())
	for i := range members {
		members[i] = i
	}
	bd, _, err := bipartite.BuildBd(set, members, bipartite.Config{Psi: 7})
	if err != nil {
		t.Fatal(err)
	}
	bm, _, err = bipartite.BuildBm(set, members, bipartite.Config{W: 10})
	if err != nil {
		t.Fatal(err)
	}
	return bd, bm
}

func TestDetectMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := denseBd(rng, 2+rng.Intn(4), 8+rng.Intn(14), 0.6+0.4*rng.Float64(), 0.3*rng.Float64())
		matchesReference(t, fmt.Sprintf("denseBd seed %d", seed), g,
			Params{S1: 2 + rng.Intn(4), C1: 40 + rng.Intn(80), S2: 2 + rng.Intn(4), C2: 20 + rng.Intn(40),
				Tau: 0.3, MinSize: 2 + rng.Intn(4), Seed: seed})
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		for _, kind := range []bipartite.Kind{bipartite.Duplicate, bipartite.Match} {
			for _, near := range []int{0, 3} {
				g := sharedAdjacency(rng, kind, 5, 9, 12, near)
				matchesReference(t, fmt.Sprintf("shared %v near=%d seed %d", kind, near, seed), g,
					Params{S1: 4, C1: 60, S2: 3, C2: 30, Tau: 0.2, MinSize: 3})
			}
		}
	}
	// Adjacency lists, and first-level member lists, shorter than s: the
	// shingle is the whole image.
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		g := sharedAdjacency(rng, bipartite.Match, 6, 3, 3, 2)
		matchesReference(t, fmt.Sprintf("short lists seed %d", seed), g,
			Params{S1: 5, C1: 30, S2: 5, C2: 20, MinSize: 2})
	}
}

func TestDetectMatchesReferenceOnGeneratedCorpora(t *testing.T) {
	if testing.Short() {
		t.Skip("builds bipartite graphs from generated corpora")
	}
	p := Params{S1: 5, C1: 120, S2: 5, C2: 50, MinSize: 5}
	bd, _ := generated(t, workload.Params{
		Families: 2, MeanFamilySize: 30, MeanLength: 110, UniformSizes: true,
		Subfamilies: 2, Singletons: 2, Seed: 31,
	})
	matchesReference(t, "BuildBd", bd, p)
	_, bm := generated(t, workload.Params{
		Families: 1, MeanFamilySize: 2, DomainFamilies: 3, DomainSize: 10,
		MeanLength: 120, UniformSizes: true, Seed: 32,
	})
	matchesReference(t, "BuildBm", bm, p)
}

// encodeGraph is the inverse of decodeGraph for graphs of at most 255
// vertices a side, so that hand-built and generated graphs can seed the
// fuzzer.
func encodeGraph(g *bipartite.Graph, p Params) ([]byte, bool) {
	if g.NLeft > 255 || g.NRight > 255 || g.NRight == 0 {
		return nil, false
	}
	b := []byte{byte(g.Kind), byte(g.NRight), byte(p.S1), byte(p.C1), byte(p.S2), byte(p.C2), byte(p.MinSize), byte(100 * p.Tau)}
	for _, adj := range g.Adj {
		if len(adj) > 255 {
			return nil, false
		}
		b = append(b, byte(len(adj)))
		for _, r := range adj {
			b = append(b, byte(r))
		}
	}
	return b, true
}

// decodeGraph reads a header (kind, right vertices, the Shingle
// parameters) and then one length-prefixed adjacency list per left
// vertex. Any byte string decodes to a well-formed graph.
func decodeGraph(data []byte) (*bipartite.Graph, Params, bool) {
	if len(data) < 9 || data[1] == 0 {
		return nil, Params{}, false
	}
	kind := bipartite.Duplicate
	if data[0]&1 == 1 {
		kind = bipartite.Match
	}
	nRight := int(data[1])
	p := Params{
		S1: 1 + int(data[2])%6, C1: 1 + int(data[3])%64,
		S2: 1 + int(data[4])%6, C2: 1 + int(data[5])%32,
		MinSize: int(data[6]) % 6, Tau: float64(data[7]%100) / 100,
	}
	var adjs [][]int32
	for rest := data[8:]; len(rest) > 0 && len(adjs) < 255; {
		n := min(int(rest[0]), len(rest)-1)
		adj := make([]int32, n)
		for i, b := range rest[1 : 1+n] {
			adj[i] = int32(int(b) % nRight)
		}
		slices.Sort(adj)
		adjs = append(adjs, slices.Compact(adj))
		rest = rest[1+n:]
	}
	g := &bipartite.Graph{Kind: kind, NRight: nRight, RightSeq: make([]int32, nRight)}
	for i := range g.RightSeq {
		g.RightSeq[i] = int32(7 * i)
	}
	if kind == bipartite.Duplicate {
		// Both sides index the same sequences.
		if len(adjs) > nRight {
			adjs = adjs[:nRight]
		}
		for len(adjs) < nRight {
			adjs = append(adjs, nil)
		}
		g.LeftSeq = g.RightSeq
	}
	g.NLeft, g.Adj = len(adjs), adjs
	return g, p, true
}

func FuzzDetectMatchesReference(f *testing.F) {
	p := Params{S1: 3, C1: 40, S2: 3, C2: 20, Tau: 0.3, MinSize: 2}
	rng := rand.New(rand.NewSource(77))
	seeds := []*bipartite.Graph{
		denseBd(rng, 3, 10, 0.9, 0.2),
		sharedAdjacency(rng, bipartite.Duplicate, 4, 6, 8, 0),
		sharedAdjacency(rng, bipartite.Match, 4, 6, 8, 3),
		sharedAdjacency(rng, bipartite.Match, 5, 3, 2, 2),
	}
	bd, _ := generated(f, workload.Params{
		Families: 2, MeanFamilySize: 12, MeanLength: 100, UniformSizes: true, Singletons: 1, Seed: 5,
	})
	_, bm := generated(f, workload.Params{
		Families: 1, MeanFamilySize: 2, DomainFamilies: 2, DomainSize: 6, MeanLength: 100, UniformSizes: true, Seed: 6,
	})
	seeds = append(seeds, bd, bm)
	for _, g := range seeds {
		if b, ok := encodeGraph(g, p); ok {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, ok := decodeGraph(data)
		if !ok {
			return
		}
		matchesReference(t, "fuzz", g, p)
	})
}

// allocated reports the heap objects and bytes one call of fn allocates.
func allocated(fn func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestDetectorReuse runs one Detector over graphs of both kinds whose
// sizes shrink and grow: every result must equal a fresh Detect's and
// stay unchanged by the calls after it, and a repeat on a graph the
// storage has already held must allocate well under a fresh call.
func TestDetectorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := Params{S1: 4, C1: 60, S2: 3, C2: 30, Tau: 0.2, MinSize: 3}
	graphs := []*bipartite.Graph{
		sharedAdjacency(rng, bipartite.Match, 30, 12, 24, 3),
		denseBd(rng, 3, 10, 0.9, 0.2),
		sharedAdjacency(rng, bipartite.Match, 6, 3, 3, 2),
		{Kind: bipartite.Match, NRight: 1, RightSeq: []int32{0}},
		sharedAdjacency(rng, bipartite.Duplicate, 6, 9, 12, 0),
		sharedAdjacency(rng, bipartite.Match, 40, 14, 30, 4),
	}
	var d Detector
	var got [][]DenseSubgraph
	for i, g := range graphs {
		want, wantSt := Detect(g, p)
		subs, st := d.Detect(g, p)
		if !reflect.DeepEqual(subs, want) || st != wantSt {
			t.Fatalf("graph %d: reused detector gave %v %+v, a fresh one %v %+v", i, subs, st, want, wantSt)
		}
		got = append(got, subs)
	}
	for i, g := range graphs {
		if want, _ := Detect(g, p); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("graph %d: result changed by later calls on the same detector", i)
		}
	}
	g := graphs[len(graphs)-1]
	_, fresh := allocated(func() { Detect(g, p) })
	_, reused := allocated(func() { d.Detect(g, p) })
	t.Logf("bytes allocated: fresh %d, reused %d", fresh, reused)
	if 3*reused > fresh {
		t.Errorf("a reused detector allocates %d bytes, more than a third of a fresh one's %d", reused, fresh)
	}
}

// TestMemoBoundedWithoutSharing is the worst case for the memos: no two
// adjacency lists are equal, so every pass-I lookup misses and that memo
// is pure overhead (pass II still finds the single-vertex member lists
// equal). The memos hold one key and one position per distinct list,
// which must stay within a tenth of what the unmemoised detector
// allocates.
func TestMemoBoundedWithoutSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 150
	g := &bipartite.Graph{
		Kind: bipartite.Match, NLeft: n, NRight: 400,
		Adj: make([][]int32, n), RightSeq: make([]int32, 400),
	}
	for i := range g.RightSeq {
		g.RightSeq[i] = int32(i)
	}
	distinct := map[string]bool{}
	for v := range g.Adj {
		for len(g.Adj[v]) < 20 {
			if r := int32(rng.Intn(g.NRight)); !slices.Contains(g.Adj[v], r) {
				g.Adj[v] = append(g.Adj[v], r)
			}
		}
		slices.Sort(g.Adj[v])
		distinct[fmt.Sprint(g.Adj[v])] = true
	}
	if len(distinct) != n {
		t.Fatalf("only %d of %d adjacency lists are distinct", len(distinct), n)
	}
	p := Params{S1: 5, C1: 100, S2: 5, C2: 50, MinSize: 2}
	matchesReference(t, "all distinct", g, p)
	if _, st := Detect(g, p); st.WorkOps < n*20*int64(p.C1) {
		t.Errorf("WorkOps %d is below pass I's %d with no adjacency list shared", st.WorkOps, n*20*p.C1)
	}

	refObjects, refBytes := allocated(func() { detectReference(g, p) })
	objects, bytes := allocated(func() { Detect(g, p) })
	t.Logf("objects %d (reference %d), bytes %d (reference %d)", objects, refObjects, bytes, refBytes)
	if float64(objects) > 1.1*float64(refObjects) {
		t.Errorf("Detect allocates %d objects without sharing, the reference %d", objects, refObjects)
	}
	if float64(bytes) > 1.1*float64(refBytes) {
		t.Errorf("Detect allocates %d bytes without sharing, the reference %d", bytes, refBytes)
	}
}
