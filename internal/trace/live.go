package trace

import (
	"context"
	"log/slog"
	"sync"
)

// A bounded graveyard keeps the final per-rank traces of failed runs so
// cmd/profam can still export a timeline when the pipeline errors
// partway.

var (
	failedMu sync.Mutex
	failed   []RankTrace
	maxDead  = 64 // graveyard bound: one failed 32-rank job, with slack
)

// StashFailed records the final per-rank traces of a failed run so they
// can still be exported. The graveyard is bounded: older entries are
// evicted first.
func StashFailed(rts []RankTrace) {
	failedMu.Lock()
	failed = append(failed, rts...)
	if len(failed) > maxDead {
		failed = append([]RankTrace(nil), failed[len(failed)-maxDead:]...)
	}
	failedMu.Unlock()
}

// TakeFailed drains and returns the failed-run graveyard.
func TakeFailed() []RankTrace {
	failedMu.Lock()
	out := failed
	failed = nil
	failedMu.Unlock()
	return out
}

// nopHandler is a slog.Handler that discards everything (slog.DiscardHandler
// arrives in go 1.24; the module targets 1.22).
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }

// NopLogger returns a logger that discards all records — the default
// sink wherever a *slog.Logger is optional.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

// ClockAttr returns a slog attribute carrying the tracer-clock reading,
// so structured logs and trace events share a timebase (virtual seconds
// under the simulator).
func ClockAttr(clock Clock) slog.Attr {
	if clock == nil {
		return slog.Float64("t", 0)
	}
	return slog.Float64("t", clock())
}
