// Benchmarks regenerating the paper's tables and figures (one benchmark
// per experiment; see DESIGN.md §4 for the index). They run the same
// code as cmd/benchtab at a reduced workload scale so `go test -bench=.`
// stays tractable; cmd/benchtab prints the full tables.
//
// Custom metrics attached to the relevant benchmarks report the paper's
// headline quantities (work reduction, speedup, precision) so the shape
// of each result is visible straight from the benchmark output.
package profam_test

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"profam"
	"profam/internal/align"
	"profam/internal/esa"
	"profam/internal/experiments"
	"profam/internal/gos"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/pool"
	"profam/internal/quality"
	"profam/internal/seq"
	"profam/internal/suffixtree"
	"profam/internal/workload"
)

const benchScale = 0.25

// BenchmarkTableI regenerates Table I (qualitative summary) on scaled
// 160K-like and 22K-like data sets.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[0].DenseSub), "denseSubgraphs")
			b.ReportMetric(100*rows[0].MeanDensity, "density%")
		}
	}
}

// BenchmarkQuality regenerates the PR/SE/OQ/CC comparison (paper:
// 95.75 / 56.89 / 55.49 / 73.04 on the 160K set).
func BenchmarkQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q, err := experiments.Quality(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*q.VsTruth.Precision(), "PR%")
			b.ReportMetric(100*q.VsTruth.Sensitivity(), "SE%")
		}
	}
}

// BenchmarkTableII regenerates Table II (RR/CCD virtual run-times at
// p = 32..512 on the 80K-like input).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].RR+rows[0].CCD, "simSec@p32")
			b.ReportMetric(rows[len(rows)-1].RR+rows[len(rows)-1].CCD, "simSec@p512")
		}
	}
}

// BenchmarkFig5 regenerates the dense-subgraph size histogram.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bounds, _, err := experiments.Fig5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(bounds)), "sizeBuckets")
		}
	}
}

// BenchmarkFig6Sweep regenerates the n × p scaling matrix behind
// Figures 6a, 6b and 7a.
func BenchmarkFig6Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(cells) >= 4 {
			last := cells[len(cells)-1] // largest n, p=512
			first := cells[len(cells)-4]
			if last.RR+last.CCD > 0 {
				b.ReportMetric((first.RR+first.CCD)/(last.RR+last.CCD), "speedup32to512")
			}
		}
	}
}

// BenchmarkFig7b regenerates the serial DSD time vs (n, c) matrix.
func BenchmarkFig7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7b(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkReduction regenerates the promising-pairs work-reduction
// measurement (paper: 99 % vs all-pairs on the 40K input).
func BenchmarkWorkReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.WorkReduction(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*r.VsAllPairs, "redVsAllPairs%")
		}
	}
}

// --- ablations of the design choices DESIGN.md calls out ------------------

// BenchmarkCCDClosureFilter measures connected-component detection with
// and without the transitive-closure pair elimination (the paper's main
// work-reduction heuristic).
func BenchmarkCCDClosureFilter(b *testing.B) {
	set, _ := experiments.SetOfSize(300, 9)
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var aligned int64
			for i := 0; i < b.N; i++ {
				_, err := mpi.RunSim(1, mpi.CostModel{}, func(c *mpi.Comm) {
					_, st, err := pace.ConnectedComponents(c, set, nil, pace.Config{Psi: 7, DisableClosureFilter: disabled})
					if err != nil {
						panic(err)
					}
					aligned = st.PairsAligned
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(aligned), "alignments")
		})
	}
}

// BenchmarkPairOrdering compares decreasing-match-length task ordering
// against FIFO (the ablation of the paper's on-demand ordering).
func BenchmarkPairOrdering(b *testing.B) {
	set, _ := experiments.SetOfSize(300, 11)
	for _, fifo := range []bool{false, true} {
		name := "descending"
		if fifo {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			var aligned int64
			for i := 0; i < b.N; i++ {
				_, err := mpi.RunSim(1, mpi.CostModel{}, func(c *mpi.Comm) {
					_, st, err := pace.ConnectedComponents(c, set, nil, pace.Config{Psi: 7, RandomPairOrder: fifo})
					if err != nil {
						panic(err)
					}
					aligned = st.PairsAligned
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(aligned), "alignments")
		})
	}
}

// BenchmarkPsi sweeps the maximal-match filter length ψ: smaller ψ
// admits more promising pairs (more alignments, higher sensitivity).
func BenchmarkPsi(b *testing.B) {
	set, _ := experiments.SetOfSize(300, 13)
	for _, psi := range []int{6, 8, 10, 12} {
		b.Run(fmt.Sprintf("psi=%02d", psi), func(b *testing.B) {
			var gen int64
			for i := 0; i < b.N; i++ {
				_, err := mpi.RunSim(1, mpi.CostModel{}, func(c *mpi.Comm) {
					_, st, err := pace.ConnectedComponents(c, set, nil, pace.Config{Psi: psi})
					if err != nil {
						panic(err)
					}
					gen = st.PairsGenerated
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(gen), "pairsGenerated")
		})
	}
}

// BenchmarkPipelineVsBaseline contrasts the suffix-tree-filtered
// pipeline against the Θ(n²) GOS-style baseline on identical input.
func BenchmarkPipelineVsBaseline(b *testing.B) {
	set, _ := workload.Generate(workload.Params{
		Families: 4, MeanFamilySize: 25, MeanLength: 110,
		Divergence: 0.08, ContainedFrac: 0.1, Singletons: 4, Seed: 17,
	})
	cfg := experiments.PipelineConfig()
	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _, err := profam.RunSet(set, 1, false, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.RR.PairsAligned+res.CCD.PairsAligned), "alignments")
			}
		}
	})
	b.Run("gos-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := gos.Run(set, gos.Config{})
			if i == 0 {
				b.ReportMetric(float64(res.Alignments), "alignments")
			}
		}
	})
}

// BenchmarkEndToEnd runs the complete pipeline at three input sizes.
func BenchmarkEndToEnd(b *testing.B) {
	for _, n := range []int{150, 300, 600} {
		set, _ := experiments.SetOfSize(n, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := experiments.PipelineConfig()
			for i := 0; i < b.N; i++ {
				if _, _, err := profam.RunSet(set, 1, false, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- hybrid rank×thread execution ----------------------------------------

// threadCounts returns the deduplicated ascending benchmark ladder
// {1, 2, 4, NumCPU} for threads-per-rank sweeps.
func threadCounts() []int {
	counts := []int{1, 2, 4, pool.DefaultThreads(1)}
	sort.Ints(counts)
	out := counts[:1]
	for _, c := range counts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// benchPairs returns a deterministic all-vs-all pair list over the set,
// truncated to maxPairs, for the batch-alignment benchmark.
func benchPairs(set *seq.Set, maxPairs int) [][2]int {
	var pairs [][2]int
	n := set.Len()
	for i := 0; i < n && len(pairs) < maxPairs; i++ {
		for j := i + 1; j < n && len(pairs) < maxPairs; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// alignBatchKernel is the worker-side hot path of the hybrid execution
// model in isolation: align one task batch on a bounded goroutine pool,
// each chunk with a recycled aligner. It returns the total DP cells (a
// work checksum, identical for every thread count).
func alignBatchKernel(set *seq.Set, pairs [][2]int, threads int) int64 {
	cache := pool.NewAlignerCache(nil)
	params := align.DefaultOverlapParams()
	var cells atomic.Int64
	pool.RunChunked(threads, len(pairs), func(lo, hi int) {
		al := cache.Get()
		before := al.Cells
		for i := lo; i < hi; i++ {
			a, b := set.Get(pairs[i][0]), set.Get(pairs[i][1])
			al.Overlaps(a.Res, b.Res, params)
		}
		cells.Add(al.Cells - before)
		cache.Put(al)
	})
	return cells.Load()
}

// seedPair is a promising pair together with its maximal-match seed —
// the input shape the alignment cascade consumes.
type seedPair struct {
	A, B int
	Seed align.SeedMatch
}

// benchSeedPairs enumerates deduplicated promising pairs (sharing a
// maximal match of length ≥ psi) with their seed coordinates, truncated
// to maxPairs, for the cascade benchmark.
func benchSeedPairs(set *seq.Set, psi, maxPairs int) ([]seedPair, error) {
	trees, err := esa.Build(set, suffixtree.Options{MinMatch: psi})
	if err != nil {
		return nil, err
	}
	seen := map[int64]bool{}
	var out []seedPair
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		key := int64(p.SeqA)<<32 | int64(uint32(p.SeqB))
		if seen[key] {
			return true
		}
		seen[key] = true
		out = append(out, seedPair{A: int(p.SeqA), B: int(p.SeqB),
			Seed: align.SeedMatch{PosA: int(p.OffA), PosB: int(p.OffB), Len: int(p.Len)}})
		return len(out) < maxPairs
	})
	return out, nil
}

// alignCascadeKernel runs the seed-anchored containment cascade (the
// redundancy-removal predicate, the pipeline's dominant aligned-pair
// volume and the stage where the certified rejects fire) over the pair
// batch on a bounded goroutine pool, each chunk with a recycled aligner,
// as the production worker path does. It returns (cells, fullCells): the
// DP cells actually computed and what the exact full-matrix predicate
// would have cost on the same pairs — fullCells/cells is the
// cells-eliminated ratio.
func alignCascadeKernel(set *seq.Set, pairs []seedPair, threads int) (int64, int64) {
	cache := pool.NewAlignerCache(nil)
	params := align.DefaultContainParams()
	var cells, full atomic.Int64
	pool.RunChunked(threads, len(pairs), func(lo, hi int) {
		al := cache.Get()
		before := al.Cells
		var f int64
		for i := lo; i < hi; i++ {
			a, b, seed := set.Get(pairs[i].A).Res, set.Get(pairs[i].B).Res, pairs[i].Seed
			if len(a) > len(b) {
				a, b, seed = b, a, seed.Swapped()
			}
			al.ContainedCascade(a, b, params, seed)
			f += int64(len(a)) * int64(len(b))
		}
		cells.Add(al.Cells - before)
		full.Add(f)
		cache.Put(al)
	})
	return cells.Load(), full.Load()
}

// BenchmarkAlignBatchParallel measures the worker-side batch-alignment
// kernel (pooled goroutines + recycled aligners) at 1, 2, 4 and NumCPU
// threads per rank. The cells metric is a work checksum: identical
// across thread counts by construction.
func BenchmarkAlignBatchParallel(b *testing.B) {
	set, _ := experiments.SetOfSize(120, 31)
	pairs := benchPairs(set, 2048)
	for _, th := range threadCounts() {
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			var cells int64
			for i := 0; i < b.N; i++ {
				cells = alignBatchKernel(set, pairs, th)
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkAlignCascade measures the seed-anchored cascade over the
// same promising-pair shape the workers see, sweeping the thread ladder.
// cells is the DP work actually done; cells_ratio is the factor of
// full-matrix cells the cascade eliminated (both are work checksums,
// identical across thread counts).
func BenchmarkAlignCascade(b *testing.B) {
	set, _ := experiments.SetOfSize(120, 31)
	pairs, err := benchSeedPairs(set, 6, 2048)
	if err != nil {
		b.Fatal(err)
	}
	for _, th := range threadCounts() {
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			var cells, full int64
			for i := 0; i < b.N; i++ {
				cells, full = alignCascadeKernel(set, pairs, th)
			}
			b.ReportMetric(float64(cells), "cells")
			b.ReportMetric(float64(full)/float64(cells), "cells_ratio")
		})
	}
}

// BenchmarkPipelineThreads runs the full wall-clock pipeline on one and
// on two in-process ranks while sweeping ThreadsPerRank, checking that
// the family list is invariant and reporting the family count.
func BenchmarkPipelineThreads(b *testing.B) {
	set, _ := experiments.SetOfSize(300, 47)
	var base string
	for _, p := range []int{1, 2} {
		for _, th := range threadCounts() {
			b.Run(fmt.Sprintf("p=%d/threads=%d", p, th), func(b *testing.B) {
				cfg := experiments.PipelineConfig()
				cfg.ThreadsPerRank = th
				var fams int
				for i := 0; i < b.N; i++ {
					res, _, err := profam.RunSet(set, p, false, cfg)
					if err != nil {
						b.Fatal(err)
					}
					fams = len(res.Families)
					if i == 0 {
						if s := fmt.Sprint(res.Families); base == "" {
							base = s
						} else if s != base {
							b.Fatal("families differ across rank and thread counts")
						}
					}
				}
				b.ReportMetric(float64(fams), "families")
			})
		}
	}
}

// BenchmarkQualityMetrics measures the pairwise confusion computation on
// large labelings (pure counting cost).
func BenchmarkQualityMetrics(b *testing.B) {
	n := 100000
	test := make([]int, n)
	bench := make([]int, n)
	for i := range test {
		test[i] = i % 1000
		bench[i] = i % 800
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quality.Compare(test, bench); err != nil {
			b.Fatal(err)
		}
	}
}
