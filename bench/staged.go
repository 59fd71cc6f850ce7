package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"profam"
	"profam/internal/align"
	"profam/internal/bipartite"
	"profam/internal/esa"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/report"
	"profam/internal/seq"
	"profam/internal/shingle"
	"profam/internal/spgemm"
	"profam/internal/suffixtree"
)

// layerConfigs are the per-layer parameters the pipeline derives from a
// profam.Config. The staged run hands them to the layers itself, which
// is why specs spell every default out; the replay-equals-RunSet check
// fails if the two ever drift apart.
type layerConfigs struct {
	pace    pace.Config
	bip     bipartite.Config
	shingle shingle.Params
	minComp int
	domain  bool
}

func layersOf(cfg profam.Config) layerConfigs {
	return layerConfigs{
		pace: pace.Config{
			Psi:     cfg.Psi,
			Threads: cfg.ThreadsPerRank,
			Contain: align.ContainParams{MinIdentity: cfg.ContainIdentity, MinCoverage: cfg.ContainCoverage},
			Overlap: align.OverlapParams{MinSimilarity: cfg.OverlapSimilarity, MinLongCoverage: cfg.OverlapCoverage},
		},
		bip: bipartite.Config{
			Psi:  cfg.Psi,
			Edge: align.OverlapParams{MinSimilarity: cfg.EdgeSimilarity, MinLongCoverage: cfg.OverlapCoverage},
			W:    cfg.W,
		},
		shingle: shingle.Params{
			S1: cfg.S1, C1: cfg.C1, S2: cfg.S2, C2: cfg.C2,
			Tau: cfg.Tau, MinSize: cfg.MinFamilySize, Seed: cfg.Seed,
		},
		minComp: cfg.MinComponentSize,
		domain:  cfg.Reduction == profam.DomainBased,
	}
}

// Span names of the staged run, one per layer call.
const (
	spanIteration  = "iteration"
	spanParse      = "seq.ReadFASTA"
	spanRR         = "pace.RedundancyRemoval"
	spanCCD        = "pace.ConnectedComponents"
	spanComponents = "pace.ComponentsBySize"
	spanBuildBd    = "bipartite.BuildBd"
	spanBuildBm    = "bipartite.BuildBm"
	spanDetect     = "shingle.Detect"
	spanReport     = "report.Families"
)

// stagedRun is what one staged pass yields besides its spans: the
// output, and the work counts the layers return.
type stagedRun struct {
	text     []byte
	residues int
	rr, ccd  pace.Stats
	build    bipartite.BuildStats
	edges    int
	shingle  shingle.Stats
	wall     float64
	// alloc is MB allocated per layer; filled only on a single rank,
	// where nothing else allocates at the same time.
	alloc map[string]float64
}

// runStaged re-composes the cold pipeline from the layers' public
// functions on p ranks, with a span around each call. It does what
// profam.RunSet does between FASTA bytes and families text, minus the
// orchestration RunSet adds (gather and broadcast of families, metrics
// and trace merging), which is what profam.unattributed_share measures.
func runStaged(rec *recorder, iter int, fasta []byte, lc layerConfigs, p int) (stagedRun, error) {
	out := stagedRun{alloc: map[string]float64{}}
	t0 := time.Now()
	root := rec.begin(spanIteration, -1, iter, 0)
	// timed runs f under a span; on a single rank it also charges f's
	// allocations to the layer.
	timed := func(name, layer string, rank int, f func()) {
		var a0 float64
		if p == 1 {
			a0 = allocatedMB()
		}
		id := rec.begin(name, root, iter, rank)
		f()
		rec.end(id)
		if p == 1 {
			out.alloc[layer] += allocatedMB() - a0
		}
	}

	var set *seq.Set
	var err error
	timed(spanParse, "seq", 0, func() { set, err = seq.ReadFASTA(bytes.NewReader(fasta)) })
	if err != nil {
		return out, fmt.Errorf("parsing corpus: %w", err)
	}
	out.residues = set.TotalResidues()

	// One slot per component, written by the rank that owns it.
	type compResult struct {
		subs    []shingle.DenseSubgraph
		build   bipartite.BuildStats
		edges   int
		shingle shingle.Stats
	}
	var keep []bool
	var comps [][]int
	var results []compResult
	err = mpi.Run(p, func(c *mpi.Comm) {
		rank := c.Rank()
		must := func(err error) {
			if err != nil {
				panic(err) // mpi.Run turns a rank's panic into its error and unblocks the others
			}
		}
		var k []bool
		var comp []int32
		timed(spanRR, "pace", rank, func() {
			var st pace.Stats
			var err error
			k, st, err = pace.RedundancyRemoval(c, set, lc.pace)
			must(err)
			if rank == 0 {
				out.rr = st
			}
		})
		timed(spanCCD, "pace", rank, func() {
			var st pace.Stats
			var err error
			comp, st, err = pace.ConnectedComponents(c, set, k, lc.pace)
			must(err)
			if rank == 0 {
				out.ccd = st
			}
		})
		var cs [][]int
		timed(spanComponents, "pace", rank, func() { cs = pace.ComponentsBySize(comp, lc.minComp) })
		if rank == 0 {
			keep, comps, results = k, cs, make([]compResult, len(cs))
		}
		c.Barrier() // results is allocated before any rank writes its slots
		for _, ci := range bipartite.DistributeComponents(cs, c.Size())[rank] {
			var g *bipartite.Graph
			name, build := spanBuildBd, bipartite.BuildBd
			if lc.domain {
				name, build = spanBuildBm, bipartite.BuildBm
			}
			cr := &results[ci]
			timed(name, "bipartite", rank, func() {
				var err error
				g, cr.build, err = build(set, cs[ci], lc.bip)
				must(err)
				cr.edges = g.Edges()
			})
			timed(spanDetect, "shingle", rank, func() { cr.subs, cr.shingle = shingle.Detect(g, lc.shingle) })
		}
	})
	if err != nil {
		return out, fmt.Errorf("staged pipeline: %w", err)
	}

	res := &profam.Result{NumInput: set.Len(), Keep: keep, Components: comps}
	for _, k := range keep {
		if k {
			res.NumNonRedundant++
		}
	}
	for _, cr := range results {
		out.build.PairsAligned += cr.build.PairsAligned
		out.build.Cells += cr.build.Cells
		out.build.Words += cr.build.Words
		out.edges += cr.edges
		out.shingle.WorkOps += cr.shingle.WorkOps
		out.shingle.ShinglesPass1 += cr.shingle.ShinglesPass1
		out.shingle.ShinglesPass2 += cr.shingle.ShinglesPass2
		out.shingle.Candidates += cr.shingle.Candidates
		out.shingle.Reported += cr.shingle.Reported
		for _, d := range cr.subs {
			f := profam.Family{Members: make([]int, len(d.Members)), MeanDegree: d.MeanDegree, Density: d.Density}
			for i, id := range d.Members {
				f.Members[i] = int(id)
			}
			res.Families = append(res.Families, f)
		}
	}
	sortFamilies(res.Families)
	var buf bytes.Buffer
	timed(spanReport, "report", 0, func() { err = report.Families(&buf, set, res) })
	if err != nil {
		return out, fmt.Errorf("rendering families: %w", err)
	}
	rec.end(root)
	out.text, out.wall = buf.Bytes(), time.Since(t0).Seconds()
	return out, nil
}

// sortFamilies is the pipeline's output order: largest first, ties by
// member list.
func sortFamilies(fams []profam.Family) {
	sort.Slice(fams, func(i, j int) bool {
		mi, mj := fams[i].Members, fams[j].Members
		if len(mi) != len(mj) {
			return len(mi) > len(mj)
		}
		for k := range mi {
			if mi[k] != mj[k] {
				return mi[k] < mj[k]
			}
		}
		return false
	})
}

// measureBackends times each promising-pair backend alone, on one
// goroutine, over the whole corpus at the workload's ψ: index build and
// pair enumeration, with the allocation each causes. The suffix trees
// are returned for measureAlign to draw seed pairs from.
func measureBackends(rec *recorder, set *seq.Set, psi int, v map[string]float64) ([]*suffixtree.SubTree, error) {
	opt := suffixtree.Options{MinMatch: psi, PrefixLen: min(2, psi)}
	timed := func(name string, f func() error) (secs, mb float64, err error) {
		a0 := allocatedMB()
		id := rec.begin(name, -1, -1, 0)
		t0 := time.Now()
		err = f()
		secs = time.Since(t0).Seconds()
		rec.end(id)
		return secs, allocatedMB() - a0, err
	}
	treeBackend := func(prefix string, build func(*seq.Set, suffixtree.Options) ([]*suffixtree.SubTree, error)) (trees []*suffixtree.SubTree, pairs int64, err error) {
		bs, bmb, err := timed(prefix+".Build", func() (err error) { trees, err = build(set, opt); return err })
		if err != nil {
			return nil, 0, err
		}
		ps, pmb, _ := timed(prefix+".MergedPairs", func() error {
			suffixtree.MergedPairs(trees, func(suffixtree.Pair) bool { pairs++; return true })
			return nil
		})
		v[prefix+".build_s"], v[prefix+".pairs_s"], v[prefix+".alloc_mb"] = bs, ps, bmb+pmb
		return trees, pairs, nil
	}
	trees, gstPairs, err := treeBackend("suffixtree", suffixtree.Build)
	if err != nil {
		return nil, fmt.Errorf("suffix-tree backend: %w", err)
	}
	v["suffixtree.pairs"] = float64(gstPairs)
	_, esaPairs, err := treeBackend("esa", esa.Build)
	if err != nil {
		return nil, fmt.Errorf("suffix-array backend: %w", err)
	}
	if esaPairs != gstPairs {
		return nil, fmt.Errorf("suffix-array backend enumerated %d pairs, suffix tree %d", esaPairs, gstPairs)
	}

	var src *spgemm.Source
	secs, mb, err := timed("spgemm.NewSource+Next", func() error {
		buckets, err := suffixtree.Buckets(set, opt)
		if err != nil {
			return err
		}
		own := make([]int, len(buckets))
		for i := range own {
			own[i] = i
		}
		src, err = spgemm.NewSource(set, buckets, own, spgemm.Options{K: psi, PrefixLen: opt.PrefixLen}, spgemm.Hooks{})
		if err != nil {
			return err
		}
		for done := false; !done; {
			_, done = src.Next(4096)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sparse backend: %w", err)
	}
	v["spgemm.pairs_s"], v["spgemm.alloc_mb"] = secs, mb
	v["spgemm.index_peak_bytes"] = float64(src.Stats().PeakBytes)
	return trees, nil
}

// alignSample is the most seed pairs the align kernels are timed on.
const alignSample = 2000

// measureAlign times the two alignment predicates on seed pairs drawn
// from the corpus: the first alignSample distinct sequence pairs the
// suffix trees enumerate (longest matches first, as the phases see them).
func measureAlign(set *seq.Set, trees []*suffixtree.SubTree, lc layerConfigs, v map[string]float64) {
	var pairs []suffixtree.Pair
	seen := map[[2]int32]bool{}
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		key := [2]int32{min(p.SeqA, p.SeqB), max(p.SeqA, p.SeqB)}
		if !seen[key] {
			seen[key] = true
			pairs = append(pairs, p)
		}
		return len(pairs) < alignSample
	})
	if len(pairs) == 0 {
		return
	}
	al := align.NewAligner(align.DefaultScoring())
	n := float64(len(pairs))

	t0 := time.Now()
	for _, p := range pairs {
		a, b := set.Get(int(p.SeqA)).Res, set.Get(int(p.SeqB)).Res
		seed := align.SeedMatch{PosA: int(p.OffA), PosB: int(p.OffB), Len: int(p.Len)}
		if len(a) > len(b) { // shorter into longer, as the RR worker orients it
			a, b, seed = b, a, seed.Swapped()
		}
		al.ContainedCascade(a, b, lc.pace.Contain, seed)
	}
	v["align.contain_ns_per_pair"] = float64(time.Since(t0).Nanoseconds()) / n
	v["align.contain_cells_per_pair"] = float64(al.Cells) / n

	cells0, full := al.Cells, 0
	t0 = time.Now()
	for _, p := range pairs {
		a, b := set.Get(int(p.SeqA)).Res, set.Get(int(p.SeqB)).Res
		seed := align.SeedMatch{PosA: int(p.OffA), PosB: int(p.OffB), Len: int(p.Len)}
		if _, stage := al.OverlapsCascade(a, b, lc.pace.Overlap, seed); stage == align.StageFull {
			full++
		}
	}
	v["align.overlap_ns_per_pair"] = float64(time.Since(t0).Nanoseconds()) / n
	v["align.overlap_cells_per_pair"] = float64(al.Cells-cells0) / n
	v["align.full_dp_share"] = float64(full) / n
}

// pingPongs is how many round trips the in-process transport is timed over.
const pingPongs = 5000

// measurePingPong is the round-trip time of a small message between two
// in-process ranks.
func measurePingPong() (microseconds float64, err error) {
	err = mpi.Run(2, func(c *mpi.Comm) {
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < pingPongs; i++ {
			if c.Rank() == 0 {
				c.Send(1, 1, i)
				c.Recv(1, 2)
			} else {
				c.Recv(0, 1)
				c.Send(0, 2, i)
			}
		}
		if c.Rank() == 0 {
			microseconds = float64(time.Since(t0).Microseconds()) / pingPongs
		}
	})
	return microseconds, err
}
