package pool

import (
	"sync/atomic"
	"testing"
)

func TestRunCoversAllJobsOnce(t *testing.T) {
	for _, threads := range []int{0, 1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]int32, n)
			Run(threads, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: job %d ran %d times", threads, n, i, h)
				}
			}
		}
	}
}

func TestRunChunkedCoversRange(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 5, 97, 1000} {
			hits := make([]int32, n)
			RunChunked(threads, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("threads=%d n=%d: index %d covered %d times", threads, n, i, h)
				}
			}
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if e := recover(); e != "boom" {
			t.Fatalf("want panic \"boom\", got %v", e)
		}
	}()
	Run(4, 32, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestCeilDiv(t *testing.T) {
	cases := []struct {
		work    int64
		threads int
		want    int64
	}{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {100, 1, 100}, {100, 0, 100}, {7, 2, 4},
	}
	for _, c := range cases {
		if got := CeilDiv(c.work, c.threads); got != c.want {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c.work, c.threads, got, c.want)
		}
	}
}

func TestDefaultThreadsFloor(t *testing.T) {
	if DefaultThreads(1<<20) != 1 {
		t.Error("DefaultThreads must never drop below 1")
	}
}

func TestAlignerCacheReuse(t *testing.T) {
	c := NewAlignerCache(nil)
	al := c.Get()
	a := []byte("ACDEFGHIKLMNPQRSTVWY")
	al.LocalScore(a, a)
	c.Put(al)
	got := c.Get()
	if got.Scoring() == nil {
		t.Fatal("cached aligner lost its scoring scheme")
	}
}
