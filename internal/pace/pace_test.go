package pace

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"profam/internal/align"
	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/seq"
	"profam/internal/suffixtree"
	"profam/internal/unionfind"
	"profam/internal/workload"
)

// runRR executes redundancy removal on p simulated ranks.
func runRR(t *testing.T, set *seq.Set, cfg Config, p int) ([]bool, Stats) {
	t.Helper()
	keep, st, _ := runRRRaw(t, set, cfg, p)
	return keep, st
}

// runRRRaw is runRR that also returns pace_pairs_raw{phase=rr} summed
// over the ranks' registries.
func runRRRaw(t *testing.T, set *seq.Set, cfg Config, p int) ([]bool, Stats, int64) {
	t.Helper()
	var keep []bool
	var st Stats
	regs := make([]*metrics.Registry, p)
	_, err := mpi.RunSim(p, mpi.BlueGeneLike(), func(c *mpi.Comm) {
		rcfg := cfg
		rcfg.Metrics = metrics.New(c.Rank(), c.Time)
		regs[c.Rank()] = rcfg.Metrics
		k, s, err := RedundancyRemoval(c, set, rcfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			keep, st = k, s
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var raw int64
	for _, reg := range regs {
		raw += reg.Counter("pace_pairs_raw{phase=rr}").Value()
	}
	return keep, st, raw
}

// runCCD executes connected-component detection on p simulated ranks.
func runCCD(t *testing.T, set *seq.Set, keep []bool, cfg Config, p int) ([]int32, Stats) {
	t.Helper()
	var comp []int32
	var st Stats
	_, err := mpi.RunSim(p, mpi.BlueGeneLike(), func(c *mpi.Comm) {
		cp, s, err := ConnectedComponents(c, set, keep, cfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			comp, st = cp, s
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return comp, st
}

// bruteComponents computes the reference CCD answer: the connected
// components of the graph whose edges are pairs that share a maximal
// match >= psi AND satisfy Definition 2.
func bruteComponents(set *seq.Set, keep []bool, cfg Config) []int32 {
	cfg = cfg.withDefaults()
	al := align.NewAligner(align.DefaultScoring())
	uf := unionfind.New(set.Len())
	trees, err := suffixtree.Build(set, suffixtree.Options{MinMatch: cfg.Psi})
	if err != nil {
		panic(err)
	}
	seen := map[int64]bool{}
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		if keep != nil && (!keep[p.SeqA] || !keep[p.SeqB]) {
			return true
		}
		key := pairKey(p.SeqA, p.SeqB)
		if seen[key] {
			return true
		}
		seen[key] = true
		if al.Overlaps(set.Get(int(p.SeqA)).Res, set.Get(int(p.SeqB)).Res, cfg.Overlap) {
			uf.Union(int(p.SeqA), int(p.SeqB))
		}
		return true
	})
	comp := make([]int32, set.Len())
	label := map[int]int32{}
	for i := range comp {
		if keep != nil && !keep[i] {
			comp[i] = -1
			continue
		}
		r := uf.Find(i)
		if _, ok := label[r]; !ok {
			label[r] = int32(i)
		}
		comp[i] = label[r]
	}
	return comp
}

func famSet(t *testing.T) (*seq.Set, *workload.Truth) {
	t.Helper()
	set, truth := workload.Generate(workload.Params{
		Families: 5, MeanFamilySize: 8, MeanLength: 120,
		Divergence: 0.10, IndelRate: 0.005, ContainedFrac: 0.3,
		Singletons: 4, Seed: 17,
	})
	return set, truth
}

func TestRRRemovesPlantedFragments(t *testing.T) {
	set, truth := famSet(t)
	keep, st, raw := runRRRaw(t, set, Config{Psi: 6}, 1)
	planted, removed := 0, 0
	for id, red := range truth.Redundant {
		if red {
			planted++
			if !keep[id] {
				removed++
			}
		}
	}
	if planted == 0 {
		t.Fatal("no planted fragments")
	}
	if removed < planted*8/10 {
		t.Errorf("removed %d/%d planted fragments", removed, planted)
	}
	// Non-redundant sequences should mostly survive.
	lost := 0
	for id, red := range truth.Redundant {
		if !red && !keep[id] {
			lost++
		}
	}
	if lost > set.Len()/20 {
		t.Errorf("%d non-redundant sequences wrongly removed", lost)
	}
	if st.PairsAligned == 0 || st.PairsGenerated == 0 {
		t.Errorf("stats empty: %+v", st)
	}
	if raw < st.PairsGenerated {
		t.Errorf("raw pairs %d < generated %d", raw, st.PairsGenerated)
	}
}

func TestRRParallelMatchesSerial(t *testing.T) {
	set, _ := famSet(t)
	cfg := Config{Psi: 6, BatchPairs: 64, BatchTasks: 16}
	keep1, st1, raw1 := runRRRaw(t, set, cfg, 1)
	for _, p := range []int{2, 4, 7} {
		keepP, stP, rawP := runRRRaw(t, set, cfg, p)
		for i := range keep1 {
			if keep1[i] != keepP[i] {
				t.Fatalf("p=%d: keep[%d] differs (serial %v, parallel %v)", p, i, keep1[i], keepP[i])
			}
		}
		// Raw enumeration is partition-invariant (each maximal-match
		// occurrence lives in exactly one bucket); the shipped-pair
		// count is not, because worker-local dedup sees only one
		// worker's buckets.
		if raw1 != rawP {
			t.Errorf("p=%d: raw pairs %d vs serial %d", p, rawP, raw1)
		}
		if stP.PairsGenerated < st1.PairsGenerated {
			t.Errorf("p=%d: generated %d < serial %d", p, stP.PairsGenerated, st1.PairsGenerated)
		}
	}
}

// TestStatsOnRankZeroOnly: rank 0 alone holds a phase's Stats. At p = 2
// the worker gets zero Stats from both phases, while rank 0's RR counts
// the alignments the p = 1 run counts.
func TestStatsOnRankZeroOnly(t *testing.T) {
	set, _ := famSet(t)
	cfg := Config{Psi: 6}
	var serial Stats
	var rr, ccd [2]Stats
	for _, p := range []int{1, 2} {
		_, err := mpi.RunSim(p, mpi.BlueGeneLike(), func(c *mpi.Comm) {
			keep, st, err := RedundancyRemoval(c, set, cfg)
			if err != nil {
				panic(err)
			}
			if p == 1 {
				serial = st
				return
			}
			rr[c.Rank()] = st
			if _, ccd[c.Rank()], err = ConnectedComponents(c, set, keep, cfg); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if rr[1] != (Stats{}) || ccd[1] != (Stats{}) {
		t.Errorf("worker stats not zero: RR %+v, CCD %+v", rr[1], ccd[1])
	}
	if rr[0].PairsAligned == 0 || rr[0].PairsAligned != serial.PairsAligned {
		t.Errorf("rank 0 RR aligned %d pairs, the p = 1 run %d", rr[0].PairsAligned, serial.PairsAligned)
	}
	if ccd[0].PairsAligned == 0 || ccd[0].Rounds == 0 {
		t.Errorf("rank 0 CCD stats empty: %+v", ccd[0])
	}
}

func TestCCDMatchesBruteForce(t *testing.T) {
	set, _ := famSet(t)
	cfg := Config{Psi: 6}
	keep, _ := runRR(t, set, cfg, 1)
	want := bruteComponents(set, keep, cfg)
	for _, p := range []int{1, 3, 6} {
		comp, st := runCCD(t, set, keep, cfg, p)
		if !samePartition(comp, want) {
			t.Errorf("p=%d: components differ from brute force", p)
		}
		if p > 1 && st.PairsAligned == 0 {
			t.Errorf("p=%d: no alignments recorded", p)
		}
	}
}

// samePartition checks two labelings induce the same partition (labels
// may differ, -1 must match exactly).
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for i := range a {
		if (a[i] < 0) != (b[i] < 0) {
			return false
		}
		if a[i] < 0 {
			continue
		}
		if v, ok := fwd[a[i]]; ok && v != b[i] {
			return false
		}
		if v, ok := bwd[b[i]]; ok && v != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

func TestCCDRecoversPlantedFamilies(t *testing.T) {
	set, truth := famSet(t)
	cfg := Config{Psi: 6}
	keep, _ := runRR(t, set, cfg, 1)
	comp, _ := runCCD(t, set, keep, cfg, 1)
	// Count, per planted family, how many distinct components its kept
	// members land in; most families should be mostly intact.
	perFam := map[int]map[int32]int{}
	for id, l := range truth.Label {
		if l >= truth.NumFamilies || comp[id] < 0 {
			continue
		}
		if perFam[l] == nil {
			perFam[l] = map[int32]int{}
		}
		perFam[l][comp[id]]++
	}
	intact := 0
	for fam, comps := range perFam {
		largest, total := 0, 0
		for _, n := range comps {
			total += n
			if n > largest {
				largest = n
			}
		}
		if largest*10 >= total*7 {
			intact++
		} else {
			t.Logf("family %d fragmented: %v", fam, comps)
		}
	}
	if intact < len(perFam)*7/10 {
		t.Errorf("only %d/%d planted families mostly intact", intact, len(perFam))
	}
}

func TestClosureFilterReducesWork(t *testing.T) {
	set, _ := famSet(t)
	cfg := Config{Psi: 6}
	keep, _ := runRR(t, set, cfg, 1)
	_, on := runCCD(t, set, keep, cfg, 1)
	cfgOff := cfg
	cfgOff.DisableClosureFilter = true
	compOff, off := runCCD(t, set, keep, cfgOff, 1)
	compOn, _ := runCCD(t, set, keep, cfg, 1)
	if !samePartition(compOn, compOff) {
		t.Error("closure filter changed the resulting components")
	}
	if on.PairsAligned >= off.PairsAligned {
		t.Errorf("closure filter did not reduce alignments: %d vs %d", on.PairsAligned, off.PairsAligned)
	}
	if on.PairsClosure == 0 {
		t.Error("no pairs eliminated by closure")
	}
}

func TestDecreasingOrderHelps(t *testing.T) {
	// With FIFO (random-ish) ordering the closure filter should fire no
	// more often than with the decreasing-match-length policy.
	set, _ := workload.Generate(workload.Params{
		Families: 3, MeanFamilySize: 15, MeanLength: 150,
		Divergence: 0.08, Singletons: 2, Seed: 31,
	})
	cfg := Config{Psi: 6}
	_, ordered := runCCD(t, set, nil, cfg, 1)
	cfgFifo := cfg
	cfgFifo.RandomPairOrder = true
	_, fifo := runCCD(t, set, nil, cfgFifo, 1)
	if ordered.PairsAligned > fifo.PairsAligned {
		t.Logf("note: ordered=%d fifo=%d aligned", ordered.PairsAligned, fifo.PairsAligned)
	}
	// Both must produce identical counts of generated pairs.
	if ordered.PairsGenerated != fifo.PairsGenerated {
		t.Errorf("pair generation differs: %d vs %d", ordered.PairsGenerated, fifo.PairsGenerated)
	}
}

func TestWorkReductionSubstantial(t *testing.T) {
	// The paper reports ~99% of promising pairs eliminated before
	// alignment on real data; our synthetic families should show a
	// strong (if smaller) reduction too.
	set, _ := workload.Generate(workload.Params{
		Families: 4, MeanFamilySize: 20, MeanLength: 150,
		Divergence: 0.08, Singletons: 2, Seed: 13,
	})
	cfg := Config{Psi: 6}
	_, st := runCCD(t, set, nil, cfg, 1)
	if st.WorkReduction() < 0.5 {
		t.Errorf("work reduction only %.2f (aligned %d of %d)", st.WorkReduction(), st.PairsAligned, st.PairsGenerated)
	}
}

func TestComponentsBySize(t *testing.T) {
	comp := []int32{0, 0, 0, 3, 3, -1, 6}
	got := ComponentsBySize(comp, 2)
	if len(got) != 2 {
		t.Fatalf("got %d components, want 2", len(got))
	}
	if len(got[0]) != 3 || got[0][0] != 0 {
		t.Errorf("largest component wrong: %v", got[0])
	}
	if len(got[1]) != 2 || got[1][0] != 3 {
		t.Errorf("second component wrong: %v", got[1])
	}
	if n := len(ComponentsBySize(comp, 1)); n != 3 {
		t.Errorf("minSize 1 gave %d components, want 3", n)
	}
}

func TestPairSourceOrderAndDedup(t *testing.T) {
	set := seq.NewSet()
	set.MustAdd("a", "ACDEFGHIKLM")
	set.MustAdd("b", "ACDEFGHIKLM")
	set.MustAdd("c", "CDEFGHIKWWWCDEFGHIK") // motif twice: repeated raw pairs
	reg := metrics.New(0, nil)
	var pairs []PairItem
	_, err := mpi.RunSim(1, mpi.CostModel{}, func(c *mpi.Comm) {
		var err error
		if pairs, err = Enumerate(c, set, 0, Config{Psi: 3, Metrics: reg}, "rr"); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []PairItem
	for rest := pairs; ; {
		batch, done := nextBatch(&rest, 2)
		all = append(all, batch...)
		if done {
			break
		}
	}
	seen := map[int64]bool{}
	last := int32(1 << 30)
	for _, p := range all {
		key := pairKey(p.A, p.B)
		if seen[key] {
			t.Fatalf("duplicate pair %+v delivered", p)
		}
		seen[key] = true
		if p.Len > last {
			t.Fatalf("pair lengths not non-increasing")
		}
		last = p.Len
	}
	if len(all) != 3 { // (a,b), (a,c), (b,c)
		t.Errorf("got %d pairs, want 3: %v", len(all), all)
	}
	if raw := reg.Counter("pace_pairs_raw{phase=rr}").Value(); raw <= int64(len(all)) {
		t.Errorf("raw count %d should exceed deduped %d", raw, len(all))
	}
}

func TestSimScalingShape(t *testing.T) {
	// More simulated processors must not slow the phase down much, and
	// should speed it up meaningfully from 2 to 16 ranks.
	set, _ := workload.Generate(workload.Params{
		Families: 6, MeanFamilySize: 12, MeanLength: 130,
		Divergence: 0.10, Singletons: 4, Seed: 8,
	})
	cfg := Config{Psi: 6, BatchPairs: 512, BatchTasks: 64}
	times := map[int]float64{}
	for _, p := range []int{2, 16} {
		mk, err := mpi.RunSim(p, mpi.BlueGeneLike(), func(c *mpi.Comm) {
			if _, _, err := RedundancyRemoval(c, set, cfg); err != nil {
				panic(err)
			}
			if _, _, err := ConnectedComponents(c, set, nil, cfg); err != nil {
				panic(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		times[p] = mk
	}
	if times[16] >= times[2] {
		t.Errorf("no speedup: T(2)=%v T(16)=%v", times[2], times[16])
	}
	t.Logf("T(2)=%.3fs T(16)=%.3fs speedup=%.2f", times[2], times[16], times[2]/times[16])
}

func TestRunsOnInprocAndTCP(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 3, MeanFamilySize: 5, MeanLength: 80, Singletons: 2, Seed: 4,
	})
	cfg := Config{Psi: 6, BatchPairs: 128, BatchTasks: 32}
	ref, _ := runRR(t, set, cfg, 1)

	var inprocKeep []bool
	err := mpi.Run(3, func(c *mpi.Comm) {
		k, _, err := RedundancyRemoval(c, set, cfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 2 {
			inprocKeep = k
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(inprocKeep) != fmt.Sprint(ref) {
		t.Error("inproc result differs from serial")
	}

	var tcpKeep []bool
	err = mpi.RunTCP(3, 0, func(c *mpi.Comm) {
		k, _, err := RedundancyRemoval(c, set, cfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 1 {
			tcpKeep = k
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tcpKeep) != fmt.Sprint(ref) {
		t.Error("tcp result differs from serial")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{PairsGenerated: 10, PairsAligned: 2}
	if !strings.Contains(s.String(), "10 generated") {
		t.Errorf("stats string: %s", s)
	}
	if s.WorkReduction() != 0.8 {
		t.Errorf("work reduction = %v", s.WorkReduction())
	}
	if (Stats{}).WorkReduction() != 0 {
		t.Error("empty stats work reduction should be 0")
	}
}

func TestTaskHeapOrdering(t *testing.T) {
	h := &taskHeap{}
	items := []PairItem{
		{A: 1, B: 2, Len: 5}, {A: 1, B: 3, Len: 9},
		{A: 2, B: 3, Len: 7}, {A: 2, B: 4, Len: 9},
	}
	for i, it := range items {
		h.entries = append(h.entries, taskEntry{PairItem: it, seq: int64(i)})
	}
	sort.Sort(h)
	// Descending by Len, FIFO within equal lengths.
	wantLens := []int32{9, 9, 7, 5}
	for i, e := range h.entries {
		if e.Len != wantLens[i] {
			t.Fatalf("heap order wrong at %d: %+v", i, h.entries)
		}
	}
	if h.entries[0].seq > h.entries[1].seq {
		t.Error("FIFO tie-break violated")
	}
}
