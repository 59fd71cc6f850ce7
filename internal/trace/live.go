package trace

import (
	"context"
	"log/slog"
)

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
