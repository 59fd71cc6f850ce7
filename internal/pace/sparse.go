package pace

import (
	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/seq"
	"profam/internal/spgemm"
	"profam/internal/suffixtree"
)

// pairProvider abstracts the worker-side promising-pair stream so the
// master/worker/serial loops run unchanged over the tree-backed sources
// (GST/ESA subtrees) and the sparse-matrix multiply.
type pairProvider interface {
	// next returns up to k pairs and whether the provider is exhausted.
	next(k int) ([]PairItem, bool)
	// counts reports raw enumerated pairs and pairs suppressed by the
	// NewFrom epoch filter, for the phase counters.
	counts() (raw, prior int64)
}

func (s *pairSource) counts() (raw, prior int64) { return s.raw, s.prior }

// sparseSource adapts spgemm.Source to the pairProvider contract,
// converting the wire type and tracking the stream for the counters.
type sparseSource struct {
	src *spgemm.Source
}

func (s *sparseSource) next(k int) ([]PairItem, bool) {
	ps, done := s.src.Next(k)
	out := make([]PairItem, len(ps))
	for i, p := range ps {
		out[i] = PairItem{A: p.SeqA, B: p.SeqB, OffA: p.OffA, OffB: p.OffB, Len: p.Len}
	}
	return out, done
}

func (s *sparseSource) counts() (raw, prior int64) {
	st := s.src.Stats()
	return st.Raw, st.Prior
}

// newSource builds the configured backend's pair provider over the
// buckets this rank owns, charging index construction to the virtual
// clock and exporting the per-backend index metrics.
func newSource(c *mpi.Comm, set *seq.Set, own []int, buckets []suffixtree.Bucket, cfg Config, phase string) (pairProvider, error) {
	if cfg.Index != IndexSparse {
		trees, err := buildTrees(c, set, own, buckets, cfg, phase)
		if err != nil {
			return nil, err
		}
		var total int64
		for _, t := range trees {
			total += t.Stats().ApproxBytes
		}
		// The tree backends hold every subtree of the rank's assignment
		// alive for the whole phase, so their peak is the sum.
		indexBytesGauge(cfg, phase).SetMax(float64(total))
		return newPairSource(trees, int32(cfg.NewFrom)), nil
	}
	return newSparseSource(c, set, own, buckets, cfg, phase)
}

func indexBytesGauge(cfg Config, phase string) *metrics.Gauge {
	return cfg.Metrics.Gauge(metrics.Name("pace_index_bytes",
		"backend", cfg.Index.String(), "phase", phase))
}

// newSparseSource wires the spgemm multiply into the phase: the CSR
// build cost is charged per bucket (K residues examined per posting —
// the sort's comparison width) as the blocks stream, and the hooks feed
// the per-backend observability series. Hooks fire inside next(), which
// always runs on the rank's own goroutine, so touching the rank clock
// and registry is safe.
func newSparseSource(c *mpi.Comm, set *seq.Set, own []int, buckets []suffixtree.Bucket, cfg Config, phase string) (*sparseSource, error) {
	indexBytes := indexBytesGauge(cfg, phase)
	chars := cfg.Metrics.Counter(metrics.Name("pace_index_chars", "phase", phase))
	blocks := cfg.Metrics.Counter(metrics.Name("pace_spgemm_blocks", "phase", phase))
	accPeak := cfg.Metrics.Gauge(metrics.Name("pace_spgemm_accum_entries", "phase", phase))
	opt := spgemm.Options{
		K:         cfg.Psi,
		PrefixLen: cfg.PrefixLen,
		BlockNNZ:  cfg.SparseBlockNNZ,
		MaxRowOcc: cfg.SparseMaxRowOcc,
		NewFrom:   int32(cfg.NewFrom),
	}
	hooks := spgemm.Hooks{
		OnBucket: func(postings, rows int, footprint int64) {
			w := int64(postings) * int64(cfg.Psi)
			c.Advance(float64(w) * cfg.Costs.SecPerTreeChar)
			chars.Add(w)
			indexBytes.SetMax(float64(footprint))
		},
		OnBlock: func(entries int) {
			blocks.Inc()
			accPeak.SetMax(float64(entries))
		},
	}
	src, err := spgemm.NewSource(set, buckets, own, opt, hooks)
	if err != nil {
		return nil, err
	}
	return &sparseSource{src: src}, nil
}
