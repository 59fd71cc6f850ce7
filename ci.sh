#!/bin/sh
# ci.sh — the repo's verification gate.
#
#   ./ci.sh             gofmt + vet + build + tests + race-detector pass
#   ./ci.sh bench       additionally regenerate BENCH_results.json
#   ./ci.sh benchcheck  bench-regression gate: compare against the checked-in
#                       BENCH_results.json, failing on >20% kernel slowdown
#                       (skipped automatically when the host is too noisy)
#   ./ci.sh lint        staticcheck + govulncheck (skipped with a notice
#                       when the binaries are not installed)
#   ./ci.sh fuzz        coverage-guided fuzzing: every Fuzz* target in the
#                       module runs for 10 s (plain `go test` only replays
#                       their seed corpora)
#   ./ci.sh e2e         service gate: boot profamd, ingest a datagen corpus
#                       over HTTP in waves, diff the served families
#                       against a cold profam run on the union corpus, and
#                       validate the epoch provenance ledger (record count,
#                       schema round-trip, families digest vs the cold run)
#                       plus the per-epoch traces and telemetry series;
#                       artifacts land in e2e_artifacts/
#
# The race pass matters: the hybrid rank×thread execution model runs
# alignment batches, index construction and phase 3+4 component jobs on
# goroutine pools inside every rank, across the inproc and TCP
# transports (see TestThreadsPerRankDeterminism / TestThreadsTCPTransport),
# and every rank hammers its metrics registry from those pools.
set -eu

cd "$(dirname "$0")"

if [ "${1:-}" = "lint" ]; then
	status=0
	if command -v staticcheck >/dev/null 2>&1; then
		echo "== staticcheck =="
		staticcheck ./... || status=1
	else
		echo "== staticcheck not installed; skipping =="
	fi
	if command -v govulncheck >/dev/null 2>&1; then
		echo "== govulncheck =="
		govulncheck ./... || status=1
	else
		echo "== govulncheck not installed; skipping =="
	fi
	[ "$status" -eq 0 ] && echo "ci.sh: lint passed"
	exit "$status"
fi

if [ "${1:-}" = "fuzz" ]; then
	# -fuzzminimizetime keeps a new interesting input from spending the
	# default minute in the minimiser.
	for pkg in $(go list ./...); do
		for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
			echo "== fuzz $pkg $target =="
			go test -run '^$' -fuzz "^${target}\$" -fuzztime 10s \
				-fuzzminimizetime 2s "$pkg"
		done
	done
	echo "ci.sh: fuzz passed"
	exit 0
fi

if [ "${1:-}" = "e2e" ]; then
	echo "== service e2e: profamd vs cold profam =="
	tmp=$(mktemp -d)
	artifacts="e2e_artifacts"
	rm -rf "$artifacts"
	mkdir -p "$artifacts"
	daemon_pid=""
	cleanup() {
		[ -n "$daemon_pid" ] && kill -KILL "$daemon_pid" 2>/dev/null || true
		rm -rf "$tmp"
	}
	trap cleanup EXIT INT TERM

	echo "-- build binaries"
	go build -o "$tmp/profamd" ./cmd/profamd
	go build -o "$tmp/profam" ./cmd/profam
	go build -o "$tmp/datagen" ./cmd/datagen
	go build -o "$tmp/ledgercheck" ./cmd/ledgercheck

	echo "-- generate corpus"
	"$tmp/datagen" -families 6 -mean-size 10 -mean-length 110 \
		-contained 0.2 -singletons 4 -seed 7 -out "$tmp/orfs.fasta"

	# Split into 3 contiguous waves: arrival order over the waves equals
	# the FASTA order, which is what makes the cold run byte-comparable.
	total=$(grep -c '^>' "$tmp/orfs.fasta")
	per=$(( (total + 2) / 3 ))
	awk -v per="$per" -v dir="$tmp" \
		'/^>/{n++} {print > (dir "/wave" int((n-1)/per) ".fasta")}' "$tmp/orfs.fasta"

	echo "-- start profamd"
	"$tmp/profamd" -addr 127.0.0.1:0 -addr-file "$tmp/addr" -p 2 \
		-batch-wait 100ms -metrics-out "$artifacts/metrics_final.json" \
		-ledger "$artifacts/ledger.jsonl" -trace-dir "$artifacts/traces" \
		>"$artifacts/profamd.stdout" 2>"$artifacts/profamd.log" &
	daemon_pid=$!

	i=0
	while [ ! -s "$tmp/addr" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "profamd never wrote its address" >&2; exit 1; }
		kill -0 "$daemon_pid" 2>/dev/null || { echo "profamd died during startup" >&2; cat "$artifacts/profamd.log" >&2; exit 1; }
		sleep 0.1
	done
	base="http://$(cat "$tmp/addr")"
	i=0
	while ! curl -sf "$base/readyz" >/dev/null; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "profamd never became ready" >&2; exit 1; }
		sleep 0.1
	done

	echo "-- ingest $total sequences in 3 waves"
	for w in 0 1 2; do
		[ -f "$tmp/wave$w.fasta" ] || continue
		# Submit in the background, then show that queries keep answering
		# from the previous snapshot while the new epoch builds.
		curl -sf --data-binary "@$tmp/wave$w.fasta" "$base/v1/sequences" \
			>"$tmp/submit$w.json" &
		submit_pid=$!
		curl -sf "$base/v1/status" >/dev/null
		curl -s "$base/v1/families" >/dev/null
		wait "$submit_pid" || { echo "wave $w submission failed" >&2; cat "$artifacts/profamd.log" >&2; exit 1; }
		cat "$tmp/submit$w.json"
		echo
	done

	echo "-- compare served families against a cold run"
	curl -sf "$base/v1/families?format=text" >"$artifacts/served_families.txt"
	curl -sf "$base/metrics" >"$artifacts/metrics_scrape.txt"
	"$tmp/profam" -in "$tmp/orfs.fasta" -p 2 -out "$artifacts/cold_families.txt" \
		2>/dev/null
	if ! diff -u "$artifacts/cold_families.txt" "$artifacts/served_families.txt"; then
		echo "ci.sh e2e: served families differ from the cold run" >&2
		exit 1
	fi

	echo "-- epoch provenance and telemetry endpoints"
	epochs=$(curl -sf "$base/v1/epochs")
	echo "$epochs" | grep -q '"count":3' \
		|| { echo "ci.sh e2e: /v1/epochs does not list 3 committed epochs: $epochs" >&2; exit 1; }
	curl -sf "$base/v1/epochs/3" | grep -q '"status":"committed"' \
		|| { echo "ci.sh e2e: /v1/epochs/3 missing or not committed" >&2; exit 1; }
	curl -sf "$base/debug/epochs/3/trace" >"$artifacts/epoch3_trace.json"
	grep -q '"traceEvents"' "$artifacts/epoch3_trace.json" \
		|| { echo "ci.sh e2e: epoch trace is not Chrome JSON" >&2; exit 1; }
	grep -q '"otherData":{"epoch":"3"}' "$artifacts/epoch3_trace.json" \
		|| { echo "ci.sh e2e: epoch trace missing epoch metadata" >&2; exit 1; }
	for series in server_http_latency_us server_http_requests runtime_goroutines runtime_heap_inuse_bytes; do
		grep -q "$series" "$artifacts/metrics_scrape.txt" \
			|| { echo "ci.sh e2e: /metrics missing $series" >&2; exit 1; }
	done

	echo "-- graceful shutdown"
	kill -TERM "$daemon_pid"
	i=0
	while kill -0 "$daemon_pid" 2>/dev/null; do
		i=$((i + 1))
		[ "$i" -gt 300 ] && { echo "profamd did not exit after SIGTERM" >&2; exit 1; }
		sleep 0.1
	done
	wait "$daemon_pid" 2>/dev/null && rc=0 || rc=$?
	daemon_pid=""
	[ "$rc" -eq 0 ] || { echo "profamd exited with status $rc" >&2; cat "$artifacts/profamd.log" >&2; exit 1; }
	grep -q '^# ' "$artifacts/served_families.txt"
	[ -s "$artifacts/metrics_final.json" ] || { echo "no final metrics flush" >&2; exit 1; }

	echo "-- validate the epoch ledger against the cold run"
	"$tmp/ledgercheck" -ledger "$artifacts/ledger.jsonl" \
		-expect-committed 3 -expect-families "$artifacts/cold_families.txt"
	for w in 1 2 3; do
		[ -s "$artifacts/traces/epoch_000$w.trace.json" ] \
			|| { echo "ci.sh e2e: missing persisted trace for epoch $w" >&2; exit 1; }
	done

	echo "ci.sh: e2e service gate passed ($total sequences, byte-identical families, ledger verified)"
	exit 0
fi

echo "== gofmt =="
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$badfmt" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

if [ "${1:-}" = "bench" ]; then
	echo "== benchmarks -> BENCH_results.json =="
	go run ./cmd/benchjson -out BENCH_results.json
fi

if [ "${1:-}" = "benchcheck" ]; then
	echo "== bench regression gate vs BENCH_results.json =="
	go run ./cmd/benchjson -compare BENCH_results.json -tolerance 0.20 \
		-benchtime 200ms -timeout 10m
fi

echo "ci.sh: all checks passed"
