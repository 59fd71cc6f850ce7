package experiments

import (
	"math"
	"sort"
	"sync/atomic"

	"profam/internal/align"
	"profam/internal/esa"
	"profam/internal/pool"
	"profam/internal/seq"
	"profam/internal/suffixtree"
)

// BenchPairs returns a deterministic all-vs-all pair list over the set,
// truncated to maxPairs, for the batch-alignment benchmarks.
func BenchPairs(set *seq.Set, maxPairs int) [][2]int {
	var pairs [][2]int
	n := set.Len()
	for i := 0; i < n && len(pairs) < maxPairs; i++ {
		for j := i + 1; j < n && len(pairs) < maxPairs; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// AlignBatchKernel is the worker-side hot path of the hybrid execution
// model in isolation: align one task batch on a bounded goroutine pool,
// each chunk with a recycled aligner. It returns the total DP cells (a
// work checksum, identical for every thread count).
func AlignBatchKernel(set *seq.Set, pairs [][2]int, threads int) int64 {
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

// SeedPair is a promising pair together with its maximal-match seed —
// the input shape the alignment cascade consumes.
type SeedPair struct {
	A, B int
	Seed align.SeedMatch
}

// BenchSeedPairs enumerates deduplicated promising pairs (sharing a
// maximal match of length ≥ psi) with their seed coordinates, truncated
// to maxPairs, for the cascade benchmarks.
func BenchSeedPairs(set *seq.Set, psi, maxPairs int) ([]SeedPair, error) {
	trees, err := esa.Build(set, suffixtree.Options{MinMatch: psi})
	if err != nil {
		return nil, err
	}
	seen := map[int64]bool{}
	var out []SeedPair
	suffixtree.MergedPairs(trees, func(p suffixtree.Pair) bool {
		key := int64(p.SeqA)<<32 | int64(uint32(p.SeqB))
		if seen[key] {
			return true
		}
		seen[key] = true
		out = append(out, SeedPair{A: int(p.SeqA), B: int(p.SeqB),
			Seed: align.SeedMatch{PosA: int(p.OffA), PosB: int(p.OffB), Len: int(p.Len)}})
		return len(out) < maxPairs
	})
	return out, nil
}

// PairGenKernel is the pair-generation path in isolation: build the
// maximal-match index, then drain the merged pair stream with
// first-occurrence dedup — the same enumeration the worker-side pair
// source performs. It returns the deduplicated pair count (a work
// checksum, identical across runs).
func PairGenKernel(set *seq.Set, psi int) (int, error) {
	pairs, err := BenchSeedPairs(set, psi, math.MaxInt)
	return len(pairs), err
}

// AlignCascadeKernel runs the seed-anchored containment cascade (the
// redundancy-removal predicate, the pipeline's dominant aligned-pair
// volume and the stage where the certified rejects fire) over the pair
// batch on a bounded goroutine pool, with the word-parallel kernels and
// batch-level profile reuse of the production worker path. It returns
// (cells, fullCells): the DP cells actually computed and what the exact
// full-matrix predicate would have cost on the same pairs — fullCells/
// cells is the cells-eliminated ratio.
func AlignCascadeKernel(set *seq.Set, pairs []SeedPair, threads int) (int64, int64) {
	return AlignCascadeKernelMode(set, pairs, threads, false)
}

// AlignCascadeKernelMode is AlignCascadeKernel with the kernel mode
// explicit: scalar == true is the scalar reference arm (int32 kernels,
// no profiles).
func AlignCascadeKernelMode(set *seq.Set, pairs []SeedPair, threads int, scalar bool) (int64, int64) {
	mode := align.KernelAuto
	if scalar {
		mode = align.KernelScalar
	}
	cache := pool.NewAlignerCacheKernels(nil, mode)
	var profs *pool.ProfileSet
	if !scalar {
		profs = pool.NewProfileCache(nil).NewSet()
		defer profs.Release()
	}
	params := align.DefaultContainParams()
	var cells, full atomic.Int64
	pool.RunChunked(threads, len(pairs), func(lo, hi int) {
		al := cache.Get()
		before := al.Cells
		var f int64
		for i := lo; i < hi; i++ {
			a, b := set.Get(pairs[i].A), set.Get(pairs[i].B)
			// Shorter-into-longer orientation, as in the RR worker: the
			// shared profile is fetched for the query (shorter) side.
			q, tg, seed := pairs[i].A, pairs[i].B, pairs[i].Seed
			if len(a.Res) > len(b.Res) {
				q, tg, seed = pairs[i].B, pairs[i].A, seed.Swapped()
			}
			qres, tres := set.Get(q).Res, set.Get(tg).Res
			var prof *align.Profile
			if profs != nil {
				prof = profs.Get(int32(q), qres)
			}
			al.ContainedCascadeProf(qres, tres, params, seed, prof)
			f += int64(len(a.Res)) * int64(len(b.Res))
		}
		cells.Add(al.Cells - before)
		full.Add(f)
		cache.Put(al)
	})
	return cells.Load(), full.Load()
}

// AlignStripedKernel runs the striped int16 local-score kernel over the
// pair batch with batch-level profile reuse, returning a score checksum.
// Against AlignLocalScalarKernel on the same pairs it isolates the
// striped kernel's win over the int32 scalar DP.
func AlignStripedKernel(set *seq.Set, pairs [][2]int, threads int) int64 {
	cache := pool.NewAlignerCacheKernels(nil, align.KernelAuto)
	profs := pool.NewProfileCache(nil).NewSet()
	defer profs.Release()
	var sum atomic.Int64
	pool.RunChunked(threads, len(pairs), func(lo, hi int) {
		al := cache.Get()
		var s int64
		for i := lo; i < hi; i++ {
			a, b := set.Get(pairs[i][0]), set.Get(pairs[i][1])
			prof := profs.Get(int32(pairs[i][0]), a.Res)
			v, ok := al.LocalScoreStripedProf(prof, b.Res)
			if !ok {
				v = al.LocalScore(a.Res, b.Res)
			}
			s += int64(v)
		}
		sum.Add(s)
		cache.Put(al)
	})
	return sum.Load()
}

// AlignLocalScalarKernel is AlignStripedKernel's reference arm: the
// exact int32 Smith–Waterman scores on the same pairs.
func AlignLocalScalarKernel(set *seq.Set, pairs [][2]int, threads int) int64 {
	cache := pool.NewAlignerCacheKernels(nil, align.KernelScalar)
	var sum atomic.Int64
	pool.RunChunked(threads, len(pairs), func(lo, hi int) {
		al := cache.Get()
		var s int64
		for i := lo; i < hi; i++ {
			a, b := set.Get(pairs[i][0]), set.Get(pairs[i][1])
			s += int64(al.LocalScore(a.Res, b.Res))
		}
		sum.Add(s)
		cache.Put(al)
	})
	return sum.Load()
}

// AlignBitParallelKernel runs the bit-parallel semi-global edit-distance
// kernel over the pair batch with batch-level profile reuse, returning a
// distance checksum. It is the cascade's cheapest certified-reject
// bound: ~64 DP cells per word operation.
func AlignBitParallelKernel(set *seq.Set, pairs [][2]int, threads int) int64 {
	cache := pool.NewAlignerCacheKernels(nil, align.KernelAuto)
	profs := pool.NewProfileCache(nil).NewSet()
	defer profs.Release()
	var sum atomic.Int64
	pool.RunChunked(threads, len(pairs), func(lo, hi int) {
		al := cache.Get()
		var s int64
		for i := lo; i < hi; i++ {
			a, b := set.Get(pairs[i][0]), set.Get(pairs[i][1])
			q, t := pairs[i][0], pairs[i][1]
			qres, tres := a.Res, b.Res
			if len(qres) > len(tres) {
				q, qres, tres = t, tres, qres
			}
			prof := profs.Get(int32(q), qres)
			s += int64(al.FitEditDistanceProf(prof, tres))
		}
		sum.Add(s)
		cache.Put(al)
	})
	return sum.Load()
}

// ThreadCounts returns the deduplicated ascending benchmark ladder
// {1, 2, 4, NumCPU} for threads-per-rank sweeps.
func ThreadCounts() []int {
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
