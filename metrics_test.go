package profam_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"profam"
	"profam/internal/metrics"
	"profam/internal/workload"
)

// TestRunMessageCounts pins the messages a simulated run sends. Rank 0
// alone holds a run's outputs, and every rank ends RR and CCD with the
// master's state in its replica, so only values another rank reads cross
// the wire: an output broadcast coming back shows up here as p−1 more.
// Each CCD round is two messages; when and where a worker's requests
// arrive sets the round count, so the count moves with the virtual time
// of the messages around it.
func TestRunMessageCounts(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 4, MeanFamilySize: 10, MeanLength: 100,
		Divergence: 0.08, ContainedFrac: 0.15, Singletons: 4, Seed: 7,
	})
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3}
	for p, want := range map[int]int64{2: 22, 3: 48, 5: 96} {
		res, _, err := profam.RunSet(set, p, true, cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if got := res.Metrics.CounterValue("mpi_msgs_sent{transport=sim}"); got != want {
			t.Errorf("p=%d: %d messages sent, want %d", p, got, want)
		}
		if res.BGGTime <= 0 || res.DSDTime <= 0 {
			t.Errorf("p=%d: BGGTime %v, DSDTime %v not read from the report", p, res.BGGTime, res.DSDTime)
		}
	}
}

// TestMetricsDeterministicAcrossThreads: under the simulator, the merged
// metrics report must be identical for ThreadsPerRank=1 and =4 once the
// clock-derived fields are stripped (Canonical). Counters, gauges and
// histograms are work-derived, and the hybrid model never changes the
// work — only its wall time.
func TestMetricsDeterministicAcrossThreads(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 4, MeanFamilySize: 10, MeanLength: 100,
		Divergence: 0.08, ContainedFrac: 0.15, Singletons: 4, Seed: 777,
	})
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3,
		BatchPairs: 256, BatchTasks: 64}

	var want []byte
	for _, threads := range []int{1, 4} {
		c := cfg
		c.ThreadsPerRank = threads
		res, _, err := profam.RunSet(set, 2, true, c)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if res.Metrics == nil {
			t.Fatalf("threads=%d: Result.Metrics is nil", threads)
		}
		got, err := json.Marshal(res.Metrics.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		if threads == 1 {
			want = got

			// Spot-check the report's load-bearing contents once.
			rep := res.Metrics
			if rep.NumRanks != 2 {
				t.Errorf("NumRanks = %d, want 2", rep.NumRanks)
			}
			gen := rep.CounterValue("pace_pairs_generated{phase=rr}")
			if gen != res.RR.PairsGenerated || gen == 0 {
				t.Errorf("rr generated counter = %d, Stats say %d", gen, res.RR.PairsGenerated)
			}
			al := rep.CounterValue("pace_pairs_aligned{phase=ccd}")
			if al != res.CCD.PairsAligned {
				t.Errorf("ccd aligned counter = %d, Stats say %d", al, res.CCD.PairsAligned)
			}
			if fams := rep.CounterValue("pipeline_families_emitted"); fams != int64(len(res.Families)) {
				t.Errorf("families counter = %d, result has %d", fams, len(res.Families))
			}
			wr := rep.GaugeValue("work_elimination_ratio{phase=ccd}")
			if wr != res.CCD.WorkReduction() {
				t.Errorf("work-elimination gauge = %v, Stats say %v", wr, res.CCD.WorkReduction())
			}
			phases := map[string]bool{}
			for _, ph := range rep.Phases {
				phases[ph.Name] = true
				if ph.MaxSeconds <= 0 {
					t.Errorf("phase %s has no time", ph.Name)
				}
			}
			for _, name := range []string{"rr", "ccd", "bgg", "dsd"} {
				if !phases[name] {
					t.Errorf("phase %q missing from report (have %v)", name, phases)
				}
			}
			if rep.CounterValue("mpi_msgs_sent{transport=sim}") == 0 {
				t.Error("no transport traffic recorded")
			}
			if _, ok := rep.Histograms["pipeline_component_size"]; !ok {
				t.Error("component-size histogram missing")
			}
			// The index footprint, the raw-pair counter the enumerating
			// ranks own, and the machine-derived heap probe (which the
			// canonical form must strip).
			if rep.GaugeValue("pace_index_bytes{phase=rr}") <= 0 {
				t.Error("no pace_index_bytes exported for rr")
			}
			if raw := rep.CounterValue("pace_pairs_raw{phase=rr}"); raw < res.RR.PairsGenerated || raw == 0 {
				t.Errorf("rr raw-pair counter = %d, below the %d pairs generated", raw, res.RR.PairsGenerated)
			}
			if rep.GaugeValue(metrics.HeapPeakGauge) <= 0 {
				t.Error("no pipeline_heap_peak_bytes probe recorded")
			}
			if rep.Canonical().GaugeValue(metrics.HeapPeakGauge) != 0 {
				t.Error("canonical report kept the machine-derived heap gauge")
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("canonical metrics differ between ThreadsPerRank=1 and =%d", threads)
		}
	}
}

// TestMetricsOnWallClockTransports: the inproc path must also produce a
// merged report, with the work counters matching the simulator exactly
// (the byte-identical-results contract extends to work-derived metrics).
func TestMetricsOnWallClockTransports(t *testing.T) {
	set, _ := workload.Generate(workload.Params{
		Families: 3, MeanFamilySize: 9, MeanLength: 90,
		Divergence: 0.07, ContainedFrac: 0.2, Singletons: 3, Seed: 515,
	})
	cfg := profam.Config{Psi: 6, MinComponentSize: 3, MinFamilySize: 3,
		ThreadsPerRank: 2}

	wall, _, err := profam.RunSet(set, 2, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, _, err := profam.RunSet(set, 2, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if wall.Metrics == nil || sim.Metrics == nil {
		t.Fatal("missing metrics report")
	}
	for _, name := range []string{
		"pace_pairs_generated{phase=rr}",
		"pace_pairs_aligned{phase=ccd}",
		"pace_pairs_closure{phase=ccd}",
		"pipeline_families_emitted",
	} {
		if w, s := wall.Metrics.CounterValue(name), sim.Metrics.CounterValue(name); w != s {
			t.Errorf("%s: inproc=%d sim=%d", name, w, s)
		}
	}
	// Transport labels must reflect the actual transport.
	if wall.Metrics.CounterValue("mpi_msgs_sent{transport=inproc}") == 0 {
		t.Error("no inproc traffic recorded")
	}
	if wall.Metrics.CounterValue("mpi_msgs_sent{transport=sim}") != 0 {
		t.Error("sim traffic recorded on a wall-clock run")
	}
}
