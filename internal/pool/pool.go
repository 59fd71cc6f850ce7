// Package pool provides the bounded intra-rank goroutine parallelism
// behind the hybrid rank×thread execution model: each mpi rank fans its
// embarrassingly-parallel work units (alignment batches, per-component
// bipartite/shingle jobs, index-bucket construction) out over at most
// ThreadsPerRank goroutines.
//
// Determinism contract: Run and RunChunked only tell the caller *which*
// index (or index range) to process; callers write results into
// pre-sized slices indexed by job position, so the outcome is identical
// for every thread count. Virtual time under the simtime transport is
// charged by the rank goroutine after the join as ceil(work/threads) —
// the model of perfect intra-rank speedup — keeping simulated curves
// reproducible across hosts.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultThreads returns the auto thread count for one rank of a
// p-rank job on this host: max(1, NumCPU/p). Ranks of an in-process job
// share the machine, so the CPUs are divided between them.
func DefaultThreads(ranks int) int {
	if ranks < 1 {
		ranks = 1
	}
	t := runtime.NumCPU() / ranks
	if t < 1 {
		t = 1
	}
	return t
}

// CeilDiv returns ceil(work/threads), the virtual cost of work units
// executed with perfect speedup on `threads` threads.
func CeilDiv(work int64, threads int) int64 {
	if threads <= 1 || work <= 0 {
		return work
	}
	return (work + int64(threads) - 1) / int64(threads)
}

// Observer is notified at the start of a pool run with the number of
// queued work items and the thread bound the run will use. It lets the
// metrics layer record pool queue depth without the pool depending on
// it; a nil Observer is ignored.
type Observer func(queued, threads int)

// Run executes job(0..n-1) on at most `threads` goroutines and waits for
// all of them. With threads <= 1 (or a single job) it runs in the caller
// goroutine. A panic in any job is re-raised in the caller after all
// goroutines have stopped, matching the serial behaviour the mpi
// harnesses expect.
func Run(threads, n int, job func(i int)) {
	RunObserved(threads, n, nil, job)
}

// RunObserved is Run with an Observer notified of the queue depth before
// any job starts.
func RunObserved(threads, n int, obs Observer, job func(i int)) {
	if n <= 0 {
		return
	}
	if obs != nil {
		obs(n, min(threads, n))
	}
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Value
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					panicked.CompareAndSwap(nil, panicValue{e})
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() != nil {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
	if e := panicked.Load(); e != nil {
		panic(e.(panicValue).v)
	}
}

// panicValue wraps a recovered value so nil-interface panics still store
// a non-nil marker in the atomic.Value.
type panicValue struct{ v any }

// RunChunked splits [0, n) into contiguous chunks (a few per thread, for
// load balance without per-item scheduling overhead) and runs
// job(lo, hi) for each chunk on the pool. Chunk boundaries depend only
// on n and threads, never on timing.
func RunChunked(threads, n int, job func(lo, hi int)) {
	RunChunkedObserved(threads, n, nil, job)
}

// RunChunkedObserved is RunChunked with an Observer notified of the
// queue depth — the n work *items*, not the chunk count — before any
// chunk starts.
func RunChunkedObserved(threads, n int, obs Observer, job func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if obs != nil {
		obs(n, min(threads, n))
	}
	if threads <= 1 {
		job(0, n)
		return
	}
	chunks := threads * 4
	if chunks > n {
		chunks = n
	}
	Run(threads, chunks, func(ci int) {
		lo := ci * n / chunks
		hi := (ci + 1) * n / chunks
		if lo < hi {
			job(lo, hi)
		}
	})
}
