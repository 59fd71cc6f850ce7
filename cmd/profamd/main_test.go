package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonLifecycle boots the daemon on a free port, ingests a small
// FASTA payload, queries the result, and shuts down via SIGTERM,
// checking the drain commits and the final metrics flush happens.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	metricsFile := filepath.Join(dir, "metrics.json")
	ledgerFile := filepath.Join(dir, "ledger.jsonl")
	traceDir := filepath.Join(dir, "traces")

	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-batch-wait", "20ms",
			"-min-component", "2", "-min-family", "2",
			"-metrics-out", metricsFile,
			"-ledger", ledgerFile,
			"-trace-dir", traceDir,
			"-log-level", "error",
		}, io.Discard, io.Discard, sig)
	}()

	base := "http://" + waitAddr(t, addrFile)

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}

	fasta := ">a\nMKVLWAALLGAGARQWEDDAPQRSTKLMNH\n" +
		">b\nMKVLWAALLGAGARQWEDDAPQRSTKLMNH\n" +
		">c\nMKVLWAALLGAGARQWEDDAPQRSTKLMNQ\n"
	resp, err = http.Post(base+"/v1/sequences", "application/x-fasta", strings.NewReader(fasta))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/v1/sequences/a/family")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/epochs")
	if err != nil {
		t.Fatalf("epochs: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status":"committed"`) {
		t.Fatalf("epochs = %d: %s", resp.StatusCode, summarize(body))
	}
	resp, err = http.Get(base + "/debug/epochs/1/trace")
	if err != nil {
		t.Fatalf("epoch trace: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "traceEvents") {
		t.Fatalf("epoch trace = %d: %s", resp.StatusCode, summarize(body))
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	b, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatalf("metrics flush missing: %v", err)
	}
	if !strings.Contains(string(b), "server_epochs") {
		t.Errorf("final metrics report lacks server_epochs: %s", summarize(b))
	}

	// The durable observability artifacts survived the daemon.
	lb, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatalf("ledger missing: %v", err)
	}
	if !strings.Contains(string(lb), `"families_digest"`) {
		t.Errorf("ledger record incomplete: %s", summarize(lb))
	}
	tb, err := os.ReadFile(filepath.Join(traceDir, "epoch_0001.trace.json"))
	if err != nil {
		t.Fatalf("persisted epoch trace missing: %v", err)
	}
	if !strings.Contains(string(tb), "traceEvents") {
		t.Errorf("persisted trace is not Chrome JSON: %s", summarize(tb))
	}
}

// waitAddr polls the daemon's -addr-file until it holds the bound
// listen address.
func waitAddr(t *testing.T, addrFile string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return string(b)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never wrote its address file")
	return ""
}

// TestDaemonHeaderTimeout: a client that sends half a request line and
// then stalls must be disconnected once the header timeout expires,
// instead of holding its socket open indefinitely.
func TestDaemonHeaderTimeout(t *testing.T) {
	saved := readHeaderTimeout
	readHeaderTimeout = 200 * time.Millisecond
	t.Cleanup(func() { readHeaderTimeout = saved })

	addrFile := filepath.Join(t.TempDir(), "addr")
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-log-level", "error"},
			io.Discard, io.Discard, sig)
	}()
	defer func() {
		sig <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Errorf("daemon exited with error: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", waitAddr(t, addrFile))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/sta"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("server kept a stalled partial request open for 2s")
		}
	}
}

func summarize(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// TestDaemonFlagErrors checks flag validation fails fast.
func TestDaemonFlagErrors(t *testing.T) {
	sig := make(chan os.Signal)
	if err := run([]string{"-reduction", "nope"}, io.Discard, io.Discard, sig); err == nil {
		t.Error("bad -reduction accepted")
	}
	if err := run([]string{"-log-level", "nope"}, io.Discard, io.Discard, sig); err == nil {
		t.Error("bad -log-level accepted")
	}
}

// TestDaemonAddrInUse surfaces listener errors instead of hanging.
func TestDaemonAddrInUse(t *testing.T) {
	sig := make(chan os.Signal)
	err := run([]string{"-addr", "256.0.0.1:0"}, io.Discard, io.Discard, sig)
	if err == nil {
		t.Error("bad listen address accepted")
	}
	_ = fmt.Sprint(err)
}
