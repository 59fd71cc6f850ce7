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
// batch on a bounded goroutine pool, each chunk with a recycled aligner,
// as the production worker path does. It returns (cells, fullCells): the
// DP cells actually computed and what the exact full-matrix predicate
// would have cost on the same pairs — fullCells/cells is the
// cells-eliminated ratio.
func AlignCascadeKernel(set *seq.Set, pairs []SeedPair, threads int) (int64, int64) {
	cache := pool.NewAlignerCache(nil)
	params := align.DefaultContainParams()
	var cells, full atomic.Int64
	pool.RunChunked(threads, len(pairs), func(lo, hi int) {
		al := cache.Get()
		before := al.Cells
		var f int64
		for i := lo; i < hi; i++ {
			a, b := set.Get(pairs[i].A).Res, set.Get(pairs[i].B).Res
			al.EitherContainedCascade(a, b, params, pairs[i].Seed)
			f += int64(len(a)) * int64(len(b))
		}
		cells.Add(al.Cells - before)
		full.Add(f)
		cache.Put(al)
	})
	return cells.Load(), full.Load()
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
