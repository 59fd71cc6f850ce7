package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"profam"
)

// metricDef names one reported number. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them with the
// regression bounds, and a test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is measured with tracing off, on every workload. For the
// batch workloads one operation is a cold iteration, FASTA bytes in to
// families text out; for service_waves it is a whole ingest session,
// first wave sent to last wave published.
var endToEnd = []metricDef{
	{"wall_s", "s"},          // median wall seconds per operation
	{"seqs_per_s", "1/s"},    // sequences put through ÷ wall_s (service: wave sequences only)
	{"cpu_s", "s"},           // process user+system CPU seconds per operation
	{"alloc_mb", "MB"},       // heap bytes allocated per operation
	{"peak_rss_mb", "MB"},    // ru_maxrss of the run
	{"family_f1", "ratio"},   // pairwise F1 of the final families against the planted truth
	{"publish_p50_ms", "ms"}, // sequences handed over → families that include them available, median (service: per wave)
	{"setup_s", "s"},         // corpus generation + FASTA encoding (+ service: boot and seed commit), median of repeats
}

// perLayer comes from the staged traced run. A metric that does not
// apply to a workload (server.* on a batch workload, bipartite.bm_* under
// B_d) is reported as 0: that layer did no such work.
var perLayer = []metricDef{
	{"seq.parse_s", "s"}, {"seq.residues", "count"},

	{"suffixtree.build_s", "s"}, {"suffixtree.pairs_s", "s"}, {"suffixtree.pairs", "count"}, {"suffixtree.alloc_mb", "MB"},
	{"esa.build_s", "s"}, {"esa.pairs_s", "s"}, {"esa.alloc_mb", "MB"},
	{"spgemm.pairs_s", "s"}, {"spgemm.alloc_mb", "MB"}, {"spgemm.index_peak_bytes", "bytes"},

	{"pace.rr_s", "s"}, {"pace.rr_pairs_generated", "count"}, {"pace.rr_pairs_aligned", "count"},
	{"pace.rr_pairs_positive", "count"}, {"pace.rr_cells", "count"},
	{"pace.ccd_s", "s"}, {"pace.ccd_pairs_generated", "count"}, {"pace.ccd_pairs_closure", "count"},
	{"pace.ccd_pairs_aligned", "count"}, {"pace.ccd_pairs_positive", "count"}, {"pace.ccd_cells", "count"},
	{"pace.ccd_useful_ratio", "ratio"}, {"pace.ccd_aligned_p2_over_p1", "ratio"},
	{"pace.alloc_mb", "MB"},

	{"align.contain_ns_per_pair", "ns"}, {"align.contain_cells_per_pair", "count"},
	{"align.overlap_ns_per_pair", "ns"}, {"align.overlap_cells_per_pair", "count"},
	{"align.full_dp_share", "ratio"},

	{"bipartite.bd_build_s", "s"}, {"bipartite.bd_pairs_aligned", "count"}, {"bipartite.bd_cells", "count"},
	{"bipartite.bm_build_s", "s"}, {"bipartite.bm_words", "count"}, {"bipartite.edges", "count"},
	{"bipartite.alloc_mb", "MB"},

	{"shingle.detect_s", "s"}, {"shingle.work_ops", "count"}, {"shingle.shingles_pass1", "count"},
	{"shingle.shingles_pass2", "count"}, {"shingle.candidates", "count"}, {"shingle.reported", "count"},
	{"shingle.alloc_mb", "MB"},

	{"mpi.msgs", "count"}, {"mpi.bytes", "bytes"}, {"mpi.inproc_rtt_us", "us"},

	{"report.write_s", "s"}, {"report.bytes_out", "bytes"},

	{"profam.staged_sum_s", "s"}, {"profam.untraced_wall_s", "s"}, {"profam.unattributed_share", "ratio"},
	{"profam.reported_bgg_s", "s"}, {"profam.reported_dsd_s", "s"},
	{"profam.serial_wall_s", "s"}, {"profam.trace_overhead_ratio", "ratio"},

	{"server.publish_p50_ms", "ms"}, {"server.publish_p75_ms", "ms"},
	{"server.epoch_build_p50_ms", "ms"}, {"server.queue_wait_p50_ms", "ms"},
	{"server.http_overhead_ms", "ms"}, {"server.components_cached_share", "ratio"},
	{"server.incremental_over_cold", "ratio"},
	{"server.query_p50_us", "us"}, {"server.query_p99_us", "us"}, {"server.reader_late_ms", "ms"},
	{"ledger.append_ms", "ms"},
}

// runResult is what one run of one workload produces. The four fields
// the driver contract names go on the last line of standard output; the
// whole struct goes to a side file for the report.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	// Samples is how many measurements stand behind each value that is
	// a median or a percentile.
	Samples map[string]int `json:"samples"`
	// Series keeps the individual measurements of the timed operations,
	// in order, so a slow run can be told from a slow host.
	Series    map[string][]float64 `json:"series,omitempty"`
	Failures  []string             `json:"failures,omitempty"`
	CorpusSHA string               `json:"corpus_sha256"`
	Sequences int                  `json:"sequences"`
	Env       envStamp             `json:"env"`
}

func newResult(sp spec, seed int64, trace int) *runResult {
	return &runResult{
		Workload: sp.name, Seed: seed, Trace: trace,
		Values: map[string]float64{}, Samples: map[string]int{}, Series: map[string][]float64{}, Env: stampEnv(),
	}
}

// op counts one attempted operation and, when err is not nil, one
// failed operation.
func (r *runResult) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Failures = append(r.Failures, err.Error())
	}
}

// check is op for a correctness condition.
func (r *runResult) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	r.op(err)
}

// checkF1 scores the families against the planted labels and holds the
// score against the floor.
func (r *runResult) checkF1(res *profam.Result, label []int) float64 {
	f1, err := familyF1(res, label)
	r.op(err)
	r.check(f1 >= f1Floor, "family_f1 %.4f is below the floor %.2f", f1, f1Floor)
	return f1
}

func (r *runResult) set(name string, v float64, samples int) {
	r.Values[name] = v
	if samples > 0 {
		r.Samples[name] = samples
	}
}

func (r *runResult) defs() []metricDef {
	if r.Trace == 1 {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the one JSON object the driver reads. Every
// metric of the run's kind must be present; per-layer metrics a
// workload does not exercise default to 0, end-to-end ones never do.
func (r *runResult) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range r.defs() {
		v, ok := r.Values[d.name]
		if !ok && r.Trace == 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		metrics[d.name] = mv{v, d.unit}
	}
	return json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
}

func (r *runResult) sidePath(outDir string) string {
	return filepath.Join(outDir, fmt.Sprintf("run_%s_trace%d.json", r.Workload, r.Trace))
}
