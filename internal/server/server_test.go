package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"profam"
	"profam/internal/report"
	"profam/internal/seq"
	"profam/internal/workload"
)

func testCorpus(t *testing.T, seed int64) *seq.Set {
	t.Helper()
	set, _ := workload.Generate(workload.Params{
		Families: 3, MeanFamilySize: 8, MeanLength: 90,
		Divergence: 0.08, ContainedFrac: 0.15, Singletons: 3, Seed: seed,
	})
	return set
}

func fastaBody(set *seq.Set, from, to int) *bytes.Buffer {
	var b bytes.Buffer
	for id := from; id < to; id++ {
		fmt.Fprintf(&b, ">%s\n%s\n", set.Get(id).Name, set.Get(id).Res)
	}
	return &b
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func post(t *testing.T, url, contentType string, body io.Reader) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, contentType, body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// TestServerIngestAndQuery drives the whole surface: multi-wave FASTA
// ingest, then checks the served text families are byte-identical to a
// cold profam run over the union corpus and that per-sequence and
// per-family queries agree with it.
func TestServerIngestAndQuery(t *testing.T) {
	set := testCorpus(t, 21)
	_, ts := newTestServer(t, Config{BatchWait: 10 * time.Millisecond})

	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d before ingest", code)
	}
	if code, _ := get(t, ts.URL+"/v1/families"); code != http.StatusServiceUnavailable {
		t.Fatalf("families before first epoch = %d, want 503", code)
	}

	mid := set.Len() / 2
	for _, wave := range [][2]int{{0, mid}, {mid, set.Len()}} {
		code, out := post(t, ts.URL+"/v1/sequences", "application/x-fasta", fastaBody(set, wave[0], wave[1]))
		if code != http.StatusOK {
			t.Fatalf("ingest wave %v = %d (%v)", wave, code, out)
		}
	}

	// Cold reference over the union corpus.
	names := make([]string, set.Len())
	seqs := make([]string, set.Len())
	for id := 0; id < set.Len(); id++ {
		names[id], seqs[id] = set.Get(id).Name, string(set.Get(id).Res)
	}
	cold, err := profam.Run(names, seqs, profam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := report.Families(&want, set, cold); err != nil {
		t.Fatal(err)
	}

	code, got := get(t, ts.URL+"/v1/families?format=text")
	if code != http.StatusOK {
		t.Fatalf("families text = %d", code)
	}
	if string(got) != want.String() {
		t.Errorf("served families differ from cold run:\n--- cold ---\n%s--- served ---\n%s", want.String(), got)
	}

	// Per-sequence queries agree with the cold labels.
	labels := cold.FamilyLabels()
	for id := 0; id < set.Len(); id += 5 {
		code, body := get(t, ts.URL+"/v1/sequences/"+set.Get(id).Name+"/family")
		if code != http.StatusOK {
			t.Fatalf("sequence query %q = %d", set.Get(id).Name, code)
		}
		var resp struct {
			Family int `json:"family"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Family != labels[id] {
			t.Errorf("sequence %d: served family %d, cold %d", id, resp.Family, labels[id])
		}
	}

	// Family-by-ID round trip.
	if len(cold.Families) > 0 {
		code, body := get(t, ts.URL+"/v1/families/0")
		if code != http.StatusOK {
			t.Fatalf("family 0 = %d", code)
		}
		var f familyJSON
		if err := json.Unmarshal(body, &f); err != nil {
			t.Fatal(err)
		}
		if f.Size != cold.Families[0].Size() {
			t.Errorf("family 0 size %d, cold %d", f.Size, cold.Families[0].Size())
		}
	}

	if code, body := get(t, ts.URL+"/metrics"); code != http.StatusOK ||
		!bytes.Contains(body, []byte("server_epochs")) {
		t.Errorf("metrics endpoint missing server_epochs (code %d)", code)
	}
}

// TestServerBatchCoalescing submits many single-sequence requests
// concurrently and checks they coalesce into far fewer epochs.
func TestServerBatchCoalescing(t *testing.T) {
	set := testCorpus(t, 33)
	s, ts := newTestServer(t, Config{BatchWait: 150 * time.Millisecond, BatchSize: 1 << 20})

	n := min(set.Len(), 12)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"sequences":[{"name":%q,"residues":%q}]}`,
				set.Get(id).Name, set.Get(id).Res)
			code, out := post(t, ts.URL+"/v1/sequences", "application/json", strings.NewReader(body))
			if code != http.StatusOK {
				t.Errorf("submission %d = %d (%v)", id, code, out)
			}
		}(id)
	}
	wg.Wait()

	snap := s.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot after ingest")
	}
	if snap.Set.Len() != n {
		t.Errorf("corpus %d, want %d", snap.Set.Len(), n)
	}
	if snap.Epoch >= n {
		t.Errorf("%d submissions took %d epochs; expected coalescing", n, snap.Epoch)
	}
}

// TestServerRejectsBadSubmissions checks per-submission validation:
// invalid residues 400, duplicate names 409, and that batch-mates of a
// rejected submission still commit.
func TestServerRejectsBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{BatchWait: 10 * time.Millisecond})

	if code, _ := post(t, ts.URL+"/v1/sequences", "application/json",
		strings.NewReader(`{"sequences":[{"name":"bad","residues":"MKV123"}]}`)); code != http.StatusBadRequest {
		t.Errorf("invalid residues = %d, want 400", code)
	}
	if code, _ := post(t, ts.URL+"/v1/sequences", "application/json",
		strings.NewReader(`{"sequences":[{"name":"a","residues":"MKVLWAALLGAGARQWEDD"}]}`)); code != http.StatusOK {
		t.Fatalf("first submission rejected: %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/sequences", "application/json",
		strings.NewReader(`{"sequences":[{"name":"a","residues":"GHIKNNPQRSTVWYACDEF"}]}`)); code != http.StatusConflict {
		t.Errorf("duplicate name = %d, want 409", code)
	}
	if code, _ := post(t, ts.URL+"/v1/sequences", "application/json",
		strings.NewReader(`{"sequences":[]}`)); code != http.StatusBadRequest {
		t.Errorf("empty submission = %d, want 400", code)
	}

	// A name repeated inside one submission conflicts too, and the
	// rejected submission claims neither copy: a later "b" commits, and
	// so does a batch-mate "c" of a rejected submission holding two.
	const dup = `{"sequences":[{"name":"%s","residues":"GHIKNNPQRSTVWYACDEF"},{"name":"%[1]s","residues":"WWYYAACCDDEEFFGGHHKK"}]}`
	const one = `{"sequences":[{"name":"%s","residues":"WWYYAACCDDEEFFGGHHKK"}]}`
	if code, _ := post(t, ts.URL+"/v1/sequences", "application/json",
		strings.NewReader(fmt.Sprintf(dup, "b"))); code != http.StatusConflict {
		t.Errorf("name repeated within a submission = %d, want 409", code)
	}
	if code, _ := post(t, ts.URL+"/v1/sequences", "application/json",
		strings.NewReader(fmt.Sprintf(one, "b"))); code != http.StatusOK {
		t.Errorf("name of a rejected submission = %d, want 200", code)
	}
	// One batch of exactly two submissions, the duplicate first: the
	// batch flushes when its third sequence is pending.
	srv, slow := newTestServer(t, Config{BatchWait: time.Hour, BatchSize: 3})
	dupCode := make(chan int, 1)
	go func() {
		resp, err := http.Post(slow.URL+"/v1/sequences", "application/json", strings.NewReader(fmt.Sprintf(dup, "c")))
		if err != nil {
			t.Error(err)
			dupCode <- 0
			return
		}
		resp.Body.Close()
		dupCode <- resp.StatusCode
	}()
	for srv.pendingBatch.Load() != 2 {
		time.Sleep(time.Millisecond)
	}
	if code, _ := post(t, slow.URL+"/v1/sequences", "application/json",
		strings.NewReader(fmt.Sprintf(one, "c"))); code != http.StatusOK {
		t.Errorf("batch-mate of a rejected submission = %d, want 200", code)
	}
	if code := <-dupCode; code != http.StatusConflict {
		t.Errorf("name repeated within a batched submission = %d, want 409", code)
	}
	for hs, want := range map[*httptest.Server]int{ts: 2, slow: 1} {
		code, body := get(t, hs.URL+"/v1/status")
		if code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		var st struct {
			Sequences int `json:"sequences"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Sequences != want {
			t.Errorf("corpus has %d sequences, want %d", st.Sequences, want)
		}
	}
}

// TestServerNamesUnnamedSequences: an unnamed sequence is named
// seq<corpus ID> whether it arrives as a JSON record without a name or
// under a blank FASTA header, and that name takes part in the collision
// check like an explicit one, so the served corpus never holds a name
// twice.
func TestServerNamesUnnamedSequences(t *testing.T) {
	const r1, r2, r3 = "MKVLWAALLGAGARQWEDD", "GHIKNNPQRSTVWYACDEF", "WWYYAACCDDEEFFGGHHKK"
	requireNames := func(t *testing.T, s *Server, want ...string) {
		t.Helper()
		snap := s.Snapshot()
		var got []string
		for _, sq := range snap.Set.Seqs {
			got = append(got, sq.Name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || len(snap.IDByName) != len(want) {
			t.Errorf("served names %v (%d distinct), want %v", got, len(snap.IDByName), want)
		}
	}
	t.Run("json", func(t *testing.T) {
		s, ts := newTestServer(t, Config{BatchWait: 10 * time.Millisecond})
		if code, out := post(t, ts.URL+"/v1/sequences", "application/json",
			strings.NewReader(`{"sequences":[{"residues":"`+r1+`"}]}`)); code != http.StatusOK {
			t.Fatalf("unnamed sequence = %d (%v), want 200", code, out)
		}
		if code, _ := post(t, ts.URL+"/v1/sequences", "application/json",
			strings.NewReader(`{"sequences":[{"name":"seq0","residues":"`+r2+`"}]}`)); code != http.StatusConflict {
			t.Errorf("explicit name of an unnamed sequence = %d, want 409", code)
		}
		if code, out := post(t, ts.URL+"/v1/sequences", "application/json",
			strings.NewReader(`{"sequences":[{"name":"seq2","residues":"`+r2+`"},{"residues":"`+r3+`"}]}`)); code != http.StatusConflict {
			t.Errorf("unnamed sequence landing on a batch-mate's name = %d (%v), want 409", code, out)
		}
		requireNames(t, s, "seq0")
	})
	t.Run("fasta", func(t *testing.T) {
		s, ts := newTestServer(t, Config{BatchWait: 10 * time.Millisecond})
		for _, res := range []string{r1, r2} {
			if code, out := post(t, ts.URL+"/v1/sequences", "application/x-fasta",
				strings.NewReader(">\n"+res+"\n")); code != http.StatusOK {
				t.Fatalf("blank FASTA header = %d (%v), want 200", code, out)
			}
		}
		if code, out := post(t, ts.URL+"/v1/sequences", "application/json",
			strings.NewReader(`{"sequences":[{"residues":"`+r3+`"}]}`)); code != http.StatusOK {
			t.Fatalf("unnamed JSON sequence after FASTA = %d (%v), want 200", code, out)
		}
		requireNames(t, s, "seq0", "seq1", "seq2")
	})
}

// TestServerRejectsOversizedBody checks that a body past maxIngestBytes
// is refused whole with 413 under both content types: no truncated
// final record may commit as a shorter sequence.
func TestServerRejectsOversizedBody(t *testing.T) {
	defer func(n int64) { maxIngestBytes = n }(maxIngestBytes)
	maxIngestBytes = 64
	_, ts := newTestServer(t, Config{BatchWait: 10 * time.Millisecond})

	res := strings.Repeat("MKVLWAALLG", 5)
	fasta := ">a\n" + res + "\n>b\n" + res + "\n"
	if code, out := post(t, ts.URL+"/v1/sequences", "application/x-fasta", strings.NewReader(fasta)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized FASTA = %d (%v), want 413", code, out)
	}
	js := `{"sequences":[{"name":"c","residues":"` + res + `"}]}`
	if code, out := post(t, ts.URL+"/v1/sequences", "application/json", strings.NewReader(js)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized JSON = %d (%v), want 413", code, out)
	}
	if code, out := post(t, ts.URL+"/v1/sequences", "application/x-fasta", strings.NewReader(">d\n"+res+"\n")); code != http.StatusOK {
		t.Fatalf("in-limit FASTA = %d (%v), want 200", code, out)
	}
	code, body := get(t, ts.URL+"/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var st struct {
		Sequences int `json:"sequences"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Sequences != 1 {
		t.Errorf("corpus has %d sequences, want only the in-limit one", st.Sequences)
	}
}

// TestServerRejectsTrailingJSON checks that a JSON body holding more
// than one value is refused whole with 400 — the first object must not
// commit while the second is dropped — and that trailing whitespace is
// still accepted.
func TestServerRejectsTrailingJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{BatchWait: 10 * time.Millisecond})

	one := `{"sequences":[{"name":"a","residues":"MKVLWAALLGAGARQWEDD"}]}`
	two := `{"sequences":[{"name":"b","residues":"GHIKNNPQRSTVWYACDEF"}]}`
	for _, body := range []string{one + two, one + "\n" + two, one + " x"} {
		if code, out := post(t, ts.URL+"/v1/sequences", "application/json", strings.NewReader(body)); code != http.StatusBadRequest {
			t.Errorf("body %q = %d (%v), want 400", body, code, out)
		}
	}
	if code, out := post(t, ts.URL+"/v1/sequences", "application/json", strings.NewReader(two+" \n\t\r\n")); code != http.StatusOK {
		t.Fatalf("body with trailing whitespace = %d (%v), want 200", code, out)
	}
	code, body := get(t, ts.URL+"/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var st struct {
		Sequences int `json:"sequences"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Sequences != 1 {
		t.Errorf("corpus has %d sequences, want only the whitespace-trailed one", st.Sequences)
	}
}

// serverHammer is the shared body of the race-hammer tests: writers
// ingest while readers pound every query endpoint.
func serverHammer(t *testing.T, writers, queriesPerReader int) {
	set := testCorpus(t, 77)
	_, ts := newTestServer(t, Config{BatchWait: 5 * time.Millisecond, TraceCapacity: 1 << 12})

	per := (set.Len() + writers - 1) / writers
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		from, to := w*per, min((w+1)*per, set.Len())
		if from >= to {
			continue
		}
		wg.Add(1)
		go func(from, to int) {
			defer wg.Done()
			code, out := post(t, ts.URL+"/v1/sequences", "application/x-fasta", fastaBody(set, from, to))
			if code != http.StatusOK {
				t.Errorf("ingest [%d,%d) = %d (%v)", from, to, code, out)
			}
		}(from, to)
	}
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			paths := []string{"/v1/families", "/v1/status", "/v1/families/0",
				"/v1/sequences/" + set.Get(0).Name + "/family", "/readyz", "/metrics",
				"/v1/epochs", "/v1/epochs/1", "/debug/epochs/1/trace"}
			for q := 0; q < queriesPerReader; q++ {
				resp, err := http.Get(ts.URL + paths[(q+r)%len(paths)])
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(r)
	}
	wg.Wait()

	// After the dust settles, the served families must equal a cold run
	// over whatever arrived (all waves, arrival order unknown but the
	// corpus content fixed): check corpus size only here; byte identity
	// is covered by the deterministic tests.
	code, body := get(t, ts.URL+"/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var st struct {
		Sequences int  `json:"sequences"`
		Building  bool `json:"building"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Sequences != set.Len() {
		t.Errorf("corpus %d after hammer, want %d", st.Sequences, set.Len())
	}
}

// TestServerConcurrentIngestAndQuery is the race hammer: N ingest
// goroutines and M query goroutines running against one server under
// -race in CI.
func TestServerConcurrentIngestAndQuery(t *testing.T) {
	serverHammer(t, 4, 30)
}

// TestServerConcurrentIngestAndQueryLong is the extended hammer.
func TestServerConcurrentIngestAndQueryLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long race hammer skipped in -short mode")
	}
	serverHammer(t, 8, 200)
}

// TestServerGracefulShutdown checks the drain path: submissions queued
// before Shutdown commit their epochs; submissions after it are
// rejected with 503.
func TestServerGracefulShutdown(t *testing.T) {
	set := testCorpus(t, 55)
	s := New(Config{BatchWait: time.Hour, BatchSize: 1 << 20}) // only shutdown can flush
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	var out map[string]any
	go func() {
		defer wg.Done()
		code, out = post(t, ts.URL+"/v1/sequences", "application/x-fasta", fastaBody(set, 0, set.Len()))
	}()
	// Wait for the submission to be queued, then shut down: the drain
	// must flush the pending batch through a real epoch.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.subs) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("queued submission = %d (%v), want commit on drain", code, out)
	}
	snap := s.Snapshot()
	if snap == nil || snap.Set.Len() != set.Len() {
		t.Fatal("drain did not commit the pending batch")
	}

	if _, err := s.Submit(context.Background(), []string{"x"}, []string{"MKVLWAALLGAGARQWEDD"}); err != ErrClosed {
		t.Errorf("submit after shutdown: %v, want ErrClosed", err)
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz after shutdown = %d, want 503", code)
	}
}

// TestServerForcedShutdownAbortsEpoch checks the mid-epoch cancel: an
// already-expired drain context closes the abort channel, the in-flight
// or pending epoch returns ErrAborted, and its submissions get 503. The
// committed snapshot stays whatever it was.
func TestServerForcedShutdownAbortsEpoch(t *testing.T) {
	set := testCorpus(t, 91)
	s := New(Config{BatchWait: time.Hour, BatchSize: 1 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	go func() {
		defer wg.Done()
		code, _ = post(t, ts.URL+"/v1/sequences", "application/x-fasta", fastaBody(set, 0, set.Len()))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.subs) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the drain starts: force the abort path
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("forced shutdown err = %v, want context.Canceled", err)
	}
	wg.Wait()
	if code != http.StatusServiceUnavailable {
		t.Errorf("aborted submission = %d, want 503", code)
	}
	if s.Snapshot() != nil {
		t.Error("aborted epoch published a snapshot")
	}
}
