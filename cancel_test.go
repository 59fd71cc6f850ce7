package profam_test

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"strings"
	"testing"
	"time"

	"profam"
	"profam/internal/metrics"
	"profam/internal/workload"
)

// cancelOn is a slog.Handler that cancels a context on the first record
// carrying msg: a deterministic hook into the pipeline's progress.
type cancelOn struct {
	msg    string
	cancel context.CancelFunc
}

func (h cancelOn) Enabled(context.Context, slog.Level) bool { return true }
func (h cancelOn) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h cancelOn) WithGroup(string) slog.Handler            { return h }
func (h cancelOn) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg {
		h.cancel()
	}
	return nil
}

// counterSum sums a counter over per-rank snapshots.
func counterSum(snaps []metrics.Snapshot, name string) int64 {
	var n int64
	for _, s := range snaps {
		n += s.Counters[name]
	}
	return n
}

// waitGoroutines fails t unless the goroutine count drops back to base
// within a few seconds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, want %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// epochCorpus is the corpus the cancel tests split into a committed
// first half and an epoch over the second.
func epochCorpus() (names, seqs []string, half int) {
	set, _ := workload.Generate(workload.Params{
		Families: 6, MeanFamilySize: 16, MeanLength: 120, ContainedFrac: 0.4, Seed: 17,
	})
	names, seqs = setStrings(set)
	return names, seqs, len(seqs) / 2
}

// cancelledEpoch runs an epoch over the second half of epochCorpus on
// top of a committed first half, cancelling when the pipeline logs msg.
// It checks what every cancel must hold — ErrAborted wrapping the cause,
// the prior handed back unchanged, a return within 10 s and no goroutine
// left behind — and returns the run's per-rank snapshots.
func cancelledEpoch(t *testing.T, p int, cfg profam.Config, msg string) []metrics.Snapshot {
	t.Helper()
	names, seqs, half := epochCorpus()
	_, prior, err := profam.RunEpoch(context.Background(), nil, names[:half], seqs[:half], p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Logger = slog.New(cancelOn{msg: msg, cancel: cancel})
	type outcome struct {
		res  *profam.Result
		next *profam.EpochState
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		res, next, err := profam.RunEpoch(ctx, prior, names[half:], seqs[half:], p, cfg)
		done <- outcome{res, next, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled epoch did not return within 10 s")
	}
	if !errors.Is(out.err, profam.ErrAborted) || !errors.Is(out.err, context.Canceled) {
		t.Fatalf("err = %v, want profam.ErrAborted wrapping context.Canceled", out.err)
	}
	if out.res != nil || out.next != prior || prior.NumSequences() != half || prior.Epoch() != 1 {
		t.Error("cancelled epoch did not hand back the prior state unchanged")
	}
	waitGoroutines(t, base)
	var re *profam.RunError
	if !errors.As(out.err, &re) || len(re.Snapshots) != p {
		t.Fatalf("err = %#v, want a *profam.RunError with %d snapshots", out.err, p)
	}
	return re.Snapshots
}

// TestCancelDuringRR cancels on the master's first service round at
// p = 3: every rank blocked in a receive unwinds, so RR stops at the
// master's next receive, well before aligning what an uncancelled run
// aligns.
func TestCancelDuringRR(t *testing.T) {
	cfg := profam.Config{BatchPairs: 4, BatchTasks: 4}
	got := counterSum(cancelledEpoch(t, 3, cfg, "master service"), "pace_pairs_aligned{phase=rr}")

	names, seqs, half := epochCorpus()
	_, prior, err := profam.RunEpoch(context.Background(), nil, names[:half], seqs[:half], 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := profam.RunEpoch(context.Background(), prior, names[half:], seqs[half:], 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// RR's aligned count varies by a few percent from run to run at
	// p = 3, so a cancel that did not stop RR could still land below one
	// uncancelled run; half of it cannot.
	want := full.Metrics.CounterValue("pace_pairs_aligned{phase=rr}")
	if 2*got >= want {
		t.Errorf("cancelled RR aligned %d pairs, want fewer than half the uncancelled run's %d", got, want)
	}
}

// TestCancelAfterRR cancels when rank 0 reports RR done: the rank-local
// check after RR stops the run before CCD does any work. At p = 1 no
// CCD series appears at all. At p = 2 the worker may enter CCD before
// the poison reaches it, registering zero-valued series, but no series
// may count CCD work and no rank may end a ccd span.
func TestCancelAfterRR(t *testing.T) {
	for _, p := range []int{1, 2} {
		snaps := cancelledEpoch(t, p, profam.Config{}, "redundancy removal done")
		if counterSum(snaps, "pace_pairs_aligned{phase=rr}") == 0 {
			t.Errorf("p=%d: RR aligned nothing before the cancel", p)
		}
		for _, s := range snaps {
			if got := ccdSeries(s, p > 1); len(got) > 0 {
				t.Errorf("p=%d rank %d: CCD series %v after a cancel before CCD", p, s.Rank, got)
			}
			for _, sp := range s.Spans {
				if sp.Name == "ccd" {
					t.Errorf("p=%d rank %d: ccd span recorded", p, s.Rank)
				}
			}
		}
	}
}

// ccdSeries lists a snapshot's CCD-labeled series; with nonzeroOnly,
// just those holding a value.
func ccdSeries(s metrics.Snapshot, nonzeroOnly bool) []string {
	var out []string
	add := func(name string, zero bool) {
		if strings.Contains(name, "phase=ccd") && !(nonzeroOnly && zero) {
			out = append(out, name)
		}
	}
	for name, v := range s.Counters {
		add(name, v == 0)
	}
	for name, v := range s.Gauges {
		add(name, v == 0)
	}
	for name, h := range s.Histograms {
		add(name, h.Count == 0)
	}
	return out
}

// TestRunErrorOnFailure checks a failure that is not a cancel: RunSet
// returns a *RunError whose snapshots cover every rank and whose trace
// buffers reach the phase that failed.
func TestRunErrorOnFailure(t *testing.T) {
	set, _ := workload.Generate(workload.Params{Families: 2, MeanFamilySize: 4, MeanLength: 60, Seed: 9})
	_, _, err := profam.RunSet(set, 2, false, profam.Config{Psi: -1, TraceCapacity: 1 << 10})
	var re *profam.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want a *profam.RunError", err)
	}
	if errors.Is(err, profam.ErrAborted) {
		t.Errorf("a failed run reports ErrAborted: %v", err)
	}
	ranks := map[int]bool{}
	for _, s := range re.Snapshots {
		ranks[s.Rank] = true
	}
	if len(re.Snapshots) != 2 || !ranks[0] || !ranks[1] {
		t.Errorf("snapshots cover ranks %v, want 0 and 1", ranks)
	}
	if len(re.Traces) != 2 {
		t.Fatalf("%d trace buffers, want 2", len(re.Traces))
	}
	for _, rt := range re.Traces {
		sawRR := false
		for _, ev := range rt.Events {
			sawRR = sawRR || ev.Name == "phase:rr"
		}
		if !sawRR {
			t.Errorf("rank %d trace has no phase:rr instant", rt.Rank)
		}
	}
}
