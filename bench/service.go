package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"profam/internal/ledger"
	"profam/internal/metrics"
	"profam/internal/seq"
	"profam/internal/server"
)

// readInterval is the open-loop reader's schedule: 100 requests a second.
const readInterval = 10 * time.Millisecond

// serviceSetupRepeats is how many boot-and-seed set-ups stand behind
// setup_s on the service workload (each costs a cold run of the seed).
const serviceSetupRepeats = 3

// plan is a service session's input, all derived from the corpus before
// the clock starts: request bodies and the names the reader asks about.
type plan struct {
	final    corpus // the corpus in arrival order, as the daemon ends up holding it
	seedBody []byte
	waves    [][]byte
	waveSeqs []int
	queries  []string
}

func fastaOf(set *seq.Set, ids []int) ([]byte, error) {
	sub, _ := set.Subset(ids)
	var buf bytes.Buffer
	err := seq.WriteFASTA(&buf, sub, 60)
	return buf.Bytes(), err
}

func buildPlan(sp spec, seed int64) (plan, error) {
	c, err := buildCorpus(sp, seed)
	if err != nil {
		return plan{}, err
	}
	a := planArrival(c.label)
	var pl plan
	if pl.final, err = inArrivalOrder(c, a); err != nil {
		return plan{}, err
	}
	if pl.seedBody, err = fastaOf(c.set, a.seed); err != nil {
		return plan{}, err
	}
	for _, w := range a.waves {
		body, err := fastaOf(c.set, w)
		if err != nil {
			return plan{}, err
		}
		pl.waves = append(pl.waves, body)
		pl.waveSeqs = append(pl.waveSeqs, len(w))
	}
	// The reader asks about seed sequences, which exist from the first
	// wave on, in an order drawn from the run's seed.
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4096; i++ {
		pl.queries = append(pl.queries, c.set.Get(a.seed[rng.Intn(len(a.seed))]).Name)
	}
	return pl, nil
}

// session is one booted daemon: the service in this process behind a
// loopback HTTP listener, with a durable ledger on disk.
type session struct {
	srv    *server.Server
	ts     *httptest.Server
	led    *ledger.Ledger
	dir    string
	writer *http.Client
	reader *http.Client
}

// oneConn is a client that holds at most one connection, so writer and
// reader together never have more connections open than the host has cores.
func oneConn(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// boot starts the daemon and commits the seed corpus; seedSecs is the
// raw latency of that submission.
func boot(sp spec, pl plan, outDir string) (s *session, seedSecs float64, err error) {
	dir, err := os.MkdirTemp(outDir, "session-")
	if err != nil {
		return nil, 0, err
	}
	led, err := ledger.Open(filepath.Join(dir, "epochs.jsonl"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("opening ledger: %w", err)
	}
	srv := server.New(server.Config{
		Pipeline: sp.cfg, Ranks: ranks, Ledger: led,
		BatchSize: waveSizes[0], // every wave fills a batch, so each POST is one epoch
		BatchWait: 5 * time.Millisecond,
	})
	s = &session{
		srv: srv, ts: httptest.NewServer(srv.Handler()), led: led, dir: dir,
		writer: oneConn(2 * time.Minute), reader: oneConn(30 * time.Second),
	}
	seed, err := s.post(pl.seedBody)
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("seed submission: %w", err)
	}
	return s, seed.raw, nil
}

func (s *session) close() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // nothing is queued: every POST has returned
	_ = s.led.Close()       // the ledger file is deleted with the directory
	s.writer.CloseIdleConnections()
	s.reader.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// post submits FASTA and returns once the epoch that holds it is
// published, which is when the daemon answers.
func (s *session) post(body []byte) (interval, error) {
	sw := startWatch()
	resp, err := s.writer.Post(s.ts.URL+"/v1/sequences", "text/x-fasta", bytes.NewReader(body))
	if err != nil {
		return interval{}, err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return interval{}, fmt.Errorf("POST /v1/sequences: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return sw.elapsed(), nil
}

func (s *session) get(path string) ([]byte, error) {
	resp, err := s.reader.Get(s.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// ingest is what one session's measured part yields.
type ingest struct {
	publish  []float64 // seconds per wave, POST sent → 200, host steal taken out
	raw      []float64 // the same, plain wall clock
	total    interval  // first wave sent → last wave published
	queries  []float64 // seconds per read, from its due time
	late     []float64 // seconds each read was sent behind schedule
	cached   int64     // components answered from the family cache, over all waves
	comps    int64     // components over all waves
	readErrs []error
}

// runIngest drives the two clients: a closed-loop writer that sends the
// next wave once the previous one is published, and beside it an
// open-loop reader on a fixed schedule that stops with the writer.
// With inspect set it also looks at each published snapshot.
func (s *session) runIngest(rec *recorder, pl plan, inspect bool) (ingest, error) {
	var in ingest
	stop, readerDone := make(chan struct{}), make(chan struct{})
	sw, start := startWatch(), time.Now()
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			due := time.Duration(i) * readInterval
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(due))):
			}
			sent := time.Since(start)
			id := rec.begin("GET /v1/sequences/{id}/family", -1, i, 1)
			_, err := s.get("/v1/sequences/" + pl.queries[i%len(pl.queries)] + "/family")
			rec.end(id)
			if err != nil {
				in.readErrs = append(in.readErrs, err)
				continue
			}
			lat, late := openLoopSample(due, sent, time.Since(start))
			in.queries = append(in.queries, lat.Seconds())
			in.late = append(in.late, late.Seconds())
		}
	}()
	var werr error
	for i, body := range pl.waves {
		id := rec.begin("POST /v1/sequences", -1, i, 0)
		wave, err := s.post(body)
		rec.end(id)
		if err != nil {
			werr = fmt.Errorf("wave %d: %w", i, err)
			break
		}
		in.publish, in.raw = append(in.publish, wave.wall), append(in.raw, wave.raw)
		if inspect {
			snap := s.srv.Snapshot()
			in.comps += int64(len(snap.Res.Components))
			in.cached += snap.Res.Metrics.CounterValue("pipeline_components_cached")
		}
	}
	in.total = sw.elapsed()
	close(stop)
	<-readerDone
	return in, werr
}

// checkServed holds the daemon's final family listing against a cold
// run of the program over the same corpus in arrival order, and scores
// the families against the planted truth.
func checkServed(r *runResult, pl plan, served []byte, cold coldRun) {
	r.check(bytes.Equal(served, cold.text), "served families (digest %s) differ from a cold run on the final corpus (%s)",
		ledger.FamiliesTextDigest(served), ledger.FamiliesTextDigest(cold.text))
	r.set("family_f1", r.checkF1(cold.res, pl.final.label), 0)
}

const familiesText = "/v1/families?format=text"

func (r *runResult) countIngest(in ingest, err error) {
	r.Attempted += len(in.publish) + len(in.queries)
	for _, e := range in.readErrs {
		r.op(e)
	}
	if err != nil {
		r.op(err)
	}
}

// runService measures the end-to-end metrics of the service workload
// with tracing off: whole sessions, as many as the budget holds.
func runService(sp spec, seed int64, budget time.Duration, outDir string) (*runResult, error) {
	r := newResult(sp, seed, 0)
	var setup, walls, publish, cpus, allocs []float64
	var waveSeqs int
	start := time.Now()
	// setUp is the whole set-up, timed: corpus, plan, boot, seed commit.
	setUp := func() (plan, *session, error) {
		sw := startWatch()
		pl, err := buildPlan(sp, seed)
		if err != nil {
			return plan{}, nil, err
		}
		s, _, err := boot(sp, pl, outDir)
		r.op(err)
		setup = append(setup, sw.elapsed().wall)
		return pl, s, err
	}
	for n := 0; n == 0 || time.Since(start)+seconds(median(walls)) <= budget; n++ {
		pl, s, err := setUp()
		if err != nil {
			return r, err
		}
		r.CorpusSHA, r.Sequences = pl.final.sha, pl.final.set.Len()

		runtime.GC()
		a0 := allocatedMB()
		in, err := s.runIngest(nil, pl, false)
		cpus = append(cpus, in.total.cpu)
		allocs = append(allocs, allocatedMB()-a0)
		r.countIngest(in, err)
		var served []byte
		if err == nil {
			served, err = s.get(familiesText)
			r.op(err)
		}
		s.close()
		if err != nil {
			return r, err
		}
		cold, err := runCold(pl.final.fasta, sp.cfg, ranks)
		r.op(err)
		if err != nil {
			return r, err
		}
		checkServed(r, pl, served, cold)
		walls = append(walls, in.total.wall)
		publish = append(publish, in.publish...)
		for _, n := range pl.waveSeqs {
			waveSeqs += n
		}
	}
	for len(setup) < serviceSetupRepeats {
		_, s, err := setUp()
		if err != nil {
			return r, err
		}
		s.close()
	}

	var total float64
	for _, w := range walls {
		total += w
	}
	r.Series["wall_s"], r.Series["publish_s"] = walls, publish
	r.set("wall_s", median(walls), len(walls))
	r.set("seqs_per_s", float64(waveSeqs)/total, len(walls))
	r.set("publish_p50_ms", median(publish)*1e3, len(publish))
	r.set("cpu_s", median(cpus), len(cpus))
	r.set("alloc_mb", median(allocs), len(allocs))
	r.set("peak_rss_mb", readUsage().peakRSSMB, 0)
	r.set("setup_s", median(setup), len(setup))
	return r, nil
}

// ledgerAppends is how many isolated appends ledger.append_ms is the
// median of.
const ledgerAppends = 40

// measureLedgerAppend times the fsynced append on its own.
func measureLedgerAppend(outDir string) (ms float64, err error) {
	dir, err := os.MkdirTemp(outDir, "ledger-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	led, err := ledger.Open(filepath.Join(dir, "epochs.jsonl"))
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 1; i <= ledgerAppends; i++ {
		t0 := time.Now()
		if err := led.Append(ledger.Record{Epoch: i, Status: ledger.StatusCommitted, UnixNanos: t0.UnixNano()}); err != nil {
			led.Close()
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs) * 1e3, led.Close()
}

// runTracedService is the traced run of the service workload: one
// session observed from outside and through the counters the daemon
// already keeps, then the staged cold pipeline over the final corpus
// for the layer numbers.
func runTracedService(sp spec, seed int64, budget time.Duration, outDir string) (*runResult, error) {
	r := newResult(sp, seed, 1)
	rec := newRecorder()
	start := time.Now()
	pl, err := buildPlan(sp, seed)
	if err != nil {
		return nil, err
	}
	r.CorpusSHA, r.Sequences = pl.final.sha, pl.final.set.Len()
	s, seedLat, err := boot(sp, pl, outDir)
	r.op(err)
	if err != nil {
		return r, err
	}
	in, err := s.runIngest(rec, pl, true)
	r.countIngest(in, err)
	var served []byte
	if err == nil {
		served, err = s.get(familiesText)
		r.op(err)
	}
	if err != nil {
		s.close()
		return r, err
	}

	n := len(in.publish)
	r.set("server.publish_p50_ms", median(in.raw)*1e3, n)
	p, _ := highPercentile(n)
	r.check(p >= 75, "%d waves are too few to report a 75th percentile with ten samples beyond it", n)
	r.set("server.publish_p75_ms", percentile(in.raw, 75)*1e3, n)
	r.set("server.query_p50_us", median(in.queries)*1e6, len(in.queries))
	r.set("server.query_p99_us", percentile(in.queries, 99)*1e6, len(in.queries))
	r.set("server.reader_late_ms", mean(in.late)*1e3, len(in.late))
	if in.comps > 0 {
		r.set("server.components_cached_share", float64(in.cached)/float64(in.comps), n)
	}

	// What the daemon says about itself: epoch build times from its
	// ledger endpoint, queue wait and ingest-to-publish from its registry.
	var builds []float64
	body, err := s.get("/v1/epochs")
	r.op(err)
	if err == nil {
		var epochs struct {
			Epochs []ledger.Record `json:"epochs"`
		}
		if err := json.Unmarshal(body, &epochs); err != nil {
			r.op(fmt.Errorf("decoding /v1/epochs: %w", err))
		}
		for _, e := range epochs.Epochs {
			if e.Epoch > 1 { // epoch 1 is the seed
				builds = append(builds, e.BuildSeconds)
			}
		}
		r.check(len(builds) == n, "ledger lists %d wave epochs, %d waves were published", len(builds), n)
	}
	r.set("server.epoch_build_p50_ms", median(builds)*1e3, len(builds))
	hist := s.srv.Registry().Snapshot().Histograms
	r.set("server.queue_wait_p50_ms", hist["server_queue_wait_us"].P50/1e3, int(hist["server_queue_wait_us"].Count))
	if h := hist[metrics.Name("server_ingest_to_publish_us", "outcome", ledger.StatusCommitted)]; h.Count > 0 {
		client := seedLat
		for _, p := range in.raw {
			client += p
		}
		r.set("server.http_overhead_ms", (client*1e3-float64(h.Sum)/1e3)/float64(h.Count), int(h.Count))
	}
	s.close()

	ms, err := measureLedgerAppend(outDir)
	r.op(err)
	r.set("ledger.append_ms", ms, ledgerAppends)

	cold, err := measureLayers(r, rec, sp, pl.final, budget-time.Since(start), 1)
	if err != nil {
		return r, err
	}
	checkServed(r, pl, served, cold)
	if len(builds) > 0 {
		r.set("server.incremental_over_cold", builds[len(builds)-1]/r.Values["profam.untraced_wall_s"], 0)
	}
	return r, finishTrace(r, rec, outDir)
}
