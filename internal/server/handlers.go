package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"profam"
	"profam/internal/ledger"
	"profam/internal/metrics"
	"profam/internal/report"
	"profam/internal/seq"
	"profam/internal/trace"
)

// httpError carries an HTTP status with its message.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// Handler returns the service's HTTP API, every route wrapped in the
// telemetry middleware (per-route request counters and latency
// histograms):
//
//	POST /v1/sequences              ingest (JSON or FASTA body)
//	GET  /v1/families               family list (?format=text for the canonical listing)
//	GET  /v1/families/{id}          one family
//	GET  /v1/sequences/{id}/family  family membership by sequence name or ID
//	GET  /v1/status                 service state
//	GET  /v1/epochs                 epoch provenance ledger records
//	GET  /v1/epochs/{n}             one epoch's provenance record
//	GET  /debug/epochs/{n}/trace    epoch timeline as Chrome trace JSON
//	GET  /healthz                   liveness
//	GET  /readyz                    readiness (503 once shutdown begins)
//	GET  /metrics                   Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(route, h))
	}
	handle("POST /v1/sequences", "ingest", s.handleIngest)
	handle("GET /v1/families", "families", s.handleFamilies)
	handle("GET /v1/families/{id}", "family", s.handleFamily)
	handle("GET /v1/sequences/{id}/family", "sequence_family", s.handleSequenceFamily)
	handle("GET /v1/status", "status", s.handleStatus)
	handle("GET /v1/epochs", "epochs", s.handleEpochs)
	handle("GET /v1/epochs/{n}", "epoch", s.handleEpoch)
	handle("GET /debug/epochs/{n}/trace", "epoch_trace", s.handleEpochTrace)
	handle("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	handle("GET /readyz", "readyz", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	handle("GET /metrics", "metrics", func(w http.ResponseWriter, r *http.Request) {
		rep := metrics.Merge(metrics.LiveSnapshots())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := rep.WritePrometheus(w); err != nil {
			s.log.Error("metrics endpoint", "err", err)
		}
	})
	return mux
}

// statusWriter captures the response code for the telemetry middleware.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route with request/latency telemetry:
// server_http_requests{route,code} counters and a
// server_http_latency_us{route} histogram. Route labels are fixed
// words, never raw paths, so the series set stays bounded.
//
// The histogram and the 200-code counter are resolved once at wrap
// time and other codes are cached after their first request, so the
// steady-state per-request cost is two clock reads and two atomic
// bumps — no name formatting or registry lock on the hot path.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	lat := s.reg.Histogram(metrics.Name("server_http_latency_us", "route", route))
	counterFor := func(code int) *metrics.Counter {
		return s.reg.Counter(metrics.Name("server_http_requests",
			"route", route, "code", strconv.Itoa(code)))
	}
	ok200 := counterFor(http.StatusOK)
	var mu sync.Mutex
	rare := make(map[int]*metrics.Counter)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		lat.Observe(time.Since(t0).Microseconds())
		if sw.code == http.StatusOK {
			ok200.Add(1)
			return
		}
		mu.Lock()
		c := rare[sw.code]
		if c == nil {
			c = counterFor(sw.code)
			rare[sw.code] = c
		}
		mu.Unlock()
		c.Add(1)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if he, ok := err.(*httpError); ok {
		status = he.status
	} else if errors.Is(err, ErrClosed) || errors.Is(err, profam.ErrAborted) {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// ingestRequest is the JSON ingest body.
type ingestRequest struct {
	Sequences []ingestSequence `json:"sequences"`
}

type ingestSequence struct {
	Name     string `json:"name"`
	Residues string `json:"residues"`
}

// maxIngestBytes caps one ingest body of either content type. A body
// past it is refused whole with 413, never committed truncated.
var maxIngestBytes int64 = 1 << 30

// bodyErr maps an ingest decode error to its HTTP error: 413 when the
// body overran maxIngestBytes, 400 otherwise.
func bodyErr(what string, err error) *httpError {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return &httpError{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
	}
	return &httpError{http.StatusBadRequest, "bad " + what + ": " + err.Error()}
}

// decodeIngestJSON reads a JSON ingest body into sequence names and
// residues. The body must hold exactly one JSON value: anything but
// whitespace after it is refused, so a second concatenated object is
// never silently dropped.
func decodeIngestJSON(body io.Reader) (names, seqs []string, err error) {
	dec := json.NewDecoder(body)
	var req ingestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, nil, err
		}
		return nil, nil, errors.New("trailing data after the JSON value")
	}
	for _, sq := range req.Sequences {
		names = append(names, sq.Name)
		seqs = append(seqs, sq.Residues)
	}
	return names, seqs, nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var names, seqs []string
	body := http.MaxBytesReader(w, r.Body, maxIngestBytes)
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		var err error
		if names, seqs, err = decodeIngestJSON(body); err != nil {
			writeErr(w, bodyErr("JSON", err))
			return
		}
	} else {
		// Anything else is treated as FASTA.
		set, err := seq.ReadFASTA(body)
		if err != nil {
			writeErr(w, bodyErr("FASTA", err))
			return
		}
		for _, sq := range set.Seqs {
			names = append(names, sq.Name)
			seqs = append(seqs, string(sq.Res))
		}
	}
	epoch, err := s.Submit(r.Context(), names, seqs)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"epoch": epoch, "sequences": len(seqs)})
}

// familyJSON is the wire form of one family.
type familyJSON struct {
	ID         int      `json:"id"`
	Size       int      `json:"size"`
	MeanDegree float64  `json:"mean_degree"`
	Density    float64  `json:"density"`
	Members    []string `json:"members"`
}

func familyToJSON(snap *Snapshot, fi int) familyJSON {
	f := snap.Res.Families[fi]
	members := make([]string, len(f.Members))
	for i, id := range f.Members {
		members[i] = snap.Set.Get(id).Name
	}
	return familyJSON{ID: fi, Size: f.Size(), MeanDegree: f.MeanDegree, Density: f.Density, Members: members}
}

func (s *Server) handleFamilies(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		writeErr(w, &httpError{http.StatusServiceUnavailable, "no epoch committed yet"})
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := report.Families(w, snap.Set, snap.Res); err != nil {
			s.log.Error("family listing", "err", err)
		}
		return
	}
	out := make([]familyJSON, len(snap.Res.Families))
	for fi := range snap.Res.Families {
		out[fi] = familyToJSON(snap, fi)
	}
	writeJSON(w, http.StatusOK, map[string]any{"epoch": snap.Epoch, "families": out})
}

func (s *Server) handleFamily(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		writeErr(w, &httpError{http.StatusServiceUnavailable, "no epoch committed yet"})
		return
	}
	fi, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || fi < 0 || fi >= len(snap.Res.Families) {
		writeErr(w, &httpError{http.StatusNotFound, fmt.Sprintf("no family %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, familyToJSON(snap, fi))
}

func (s *Server) handleSequenceFamily(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		writeErr(w, &httpError{http.StatusServiceUnavailable, "no epoch committed yet"})
		return
	}
	key := r.PathValue("id")
	id, ok := snap.IDByName[key]
	if !ok {
		if n, err := strconv.Atoi(key); err == nil && n >= 0 && n < snap.Set.Len() {
			id = n
		} else {
			writeErr(w, &httpError{http.StatusNotFound, fmt.Sprintf("no sequence %q", key)})
			return
		}
	}
	fi := snap.FamilyOf[id]
	resp := map[string]any{
		"sequence": snap.Set.Get(id).Name,
		"id":       id,
		"epoch":    snap.Epoch,
		"family":   fi,
	}
	if fi >= 0 {
		resp["family_detail"] = familyToJSON(snap, fi)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	epoch, sequences, families := 0, 0, 0
	if snap := s.snap.Load(); snap != nil {
		epoch, sequences, families = snap.Epoch, snap.Set.Len(), len(snap.Res.Families)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":              epoch,
		"sequences":          sequences,
		"families":           families,
		"building":           s.building.Load(),
		"queued":             len(s.subs),
		"pending_batch":      s.pendingBatch.Load(),
		"uptime_seconds":     time.Since(s.start).Seconds(),
		"pair_backend":       ledger.PairBackendESA,
		"last_epoch_seconds": s.lastEpochSeconds(),
	})
}

// handleEpochs serves the full provenance ledger in append order.
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	recs := s.led.Records()
	if recs == nil {
		recs = []ledger.Record{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(recs), "epochs": recs})
}

// handleEpoch serves one epoch's latest provenance record.
func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeErr(w, &httpError{http.StatusBadRequest, "epoch must be an integer"})
		return
	}
	rec, ok := s.led.Epoch(n)
	if !ok {
		writeErr(w, &httpError{http.StatusNotFound, fmt.Sprintf("no ledger record for epoch %d", n)})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleEpochTrace serves one retained epoch timeline as Chrome trace
// JSON (Perfetto-loadable). 404 covers both "tracing disabled" and
// "evicted from the ring".
func (s *Server) handleEpochTrace(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeErr(w, &httpError{http.StatusBadRequest, "epoch must be an integer"})
		return
	}
	tl := s.EpochTrace(n)
	if tl == nil {
		writeErr(w, &httpError{http.StatusNotFound,
			fmt.Sprintf("no trace retained for epoch %d (tracing disabled, or evicted; retained: %v)", n, s.TracedEpochs())})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteChromeJSON(w, tl); err != nil {
		s.log.Error("epoch trace", "epoch", n, "err", err)
	}
}
