package experiments

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"profam/internal/seq"
	"profam/internal/server"
)

// StatusHandler boots a resident service over a small committed
// corpus and returns its HTTP handler plus a shutdown func, for
// benchjson's status-request kernel.
func StatusHandler(set *seq.Set) (h http.Handler, shutdown func(), err error) {
	s := server.New(server.Config{
		BatchWait: 5 * time.Millisecond,
		// The pipeline config stays default: the benchmark only measures
		// the handler path, not epoch builds.
	})
	names := make([]string, set.Len())
	seqs := make([]string, set.Len())
	for id := 0; id < set.Len(); id++ {
		names[id], seqs[id] = set.Get(id).Name, string(set.Get(id).Res)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := s.Submit(ctx, names, seqs); err != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
		return nil, nil, fmt.Errorf("seeding service corpus: %w", err)
	}
	shutdown = func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	}
	return s.Handler(), shutdown, nil
}
