package pool

import (
	"sync"

	"profam/internal/align"
)

// AlignerCache recycles align.Aligner instances across pooled
// goroutines. An Aligner owns six DP rows and a trace matrix that grow
// to the longest pair it has seen; recycling them through a sync.Pool
// means a burst of alignment chunks reuses warm buffers instead of
// reallocating per goroutine, while idle aligners stay reclaimable by
// the GC.
type AlignerCache struct {
	p sync.Pool
}

// NewAlignerCache returns a cache producing aligners with the given
// scoring scheme (align.DefaultScoring() if nil).
func NewAlignerCache(sc *align.Scoring) *AlignerCache {
	c := &AlignerCache{}
	c.p.New = func() any { return align.NewAligner(sc) }
	return c
}

// Get returns a ready aligner; pair with Put when the chunk is done.
func (c *AlignerCache) Get() *align.Aligner { return c.p.Get().(*align.Aligner) }

// Put returns an aligner to the cache for reuse.
func (c *AlignerCache) Put(al *align.Aligner) { c.p.Put(al) }
