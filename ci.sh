#!/bin/sh
# ci.sh — the repo's verification gate.
#
#   ./ci.sh             gofmt + vet + build + tests + race-detector pass
#   ./ci.sh lint       staticcheck + govulncheck (skipped with a notice
#                       when the binaries are not installed)
#   ./ci.sh fuzz        coverage-guided fuzzing: every Fuzz* target in the
#                       module runs for 10 s (plain `go test` only replays
#                       their seed corpora)
#   ./ci.sh e2e         service gate: boot profamd, ingest a datagen corpus
#                       over HTTP in waves, diff the served families
#                       against a cold profam run on the union corpus, and
#                       validate the epoch provenance ledger (record count,
#                       schema round-trip, families digest vs the cold run,
#                       family-cache hits in epochs 2 and 3) plus the
#                       per-epoch traces and telemetry series; then a
#                       second profamd is SIGTERMed mid-epoch with a 1 ms
#                       drain budget and must abort that epoch promptly;
#                       a third ingests the corpus sorted shortest-first,
#                       so later waves demote kept fragments, and must
#                       serve the cold run's families, ledger a demotion
#                       and trace no ccd/index span (every epoch seeds
#                       CCD from the pair table's stored positives and
#                       replays its count-less pairs the seed leaves
#                       apart; none enumerates again);
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

	# wait_ready waits for the daemon started last to write its address
	# to $1 and answer /readyz, then sets base to its URL.
	wait_ready() {
		i=0
		while [ ! -s "$1" ]; do
			i=$((i + 1))
			[ "$i" -gt 100 ] && { echo "profamd never wrote its address" >&2; exit 1; }
			kill -0 "$daemon_pid" 2>/dev/null || { echo "profamd died during startup" >&2; exit 1; }
			sleep 0.1
		done
		base="http://$(cat "$1")"
		i=0
		while ! curl -sf "$base/readyz" >/dev/null; do
			i=$((i + 1))
			[ "$i" -gt 100 ] && { echo "profamd never became ready" >&2; exit 1; }
			sleep 0.1
		done
	}

	# wait_exit waits up to $1 tenths of a second for the daemon to exit
	# and sets rc to its exit status.
	wait_exit() {
		i=0
		while kill -0 "$daemon_pid" 2>/dev/null; do
			i=$((i + 1))
			[ "$i" -gt "$1" ] && { echo "profamd did not exit after SIGTERM" >&2; exit 1; }
			sleep 0.1
		done
		wait "$daemon_pid" 2>/dev/null && rc=0 || rc=$?
		daemon_pid=""
	}

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
	wait_ready "$tmp/addr"

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
	wait_exit 300
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
	# Waves 2 and 3 leave some components untouched, so both epochs must
	# serve those from the family cache rather than rebuild them.
	for e in 2 3; do
		grep "^{\"epoch\":$e," "$artifacts/ledger.jsonl" | grep -q '"components_cached":[1-9]' \
			|| { echo "ci.sh e2e: epoch $e reused no cached component (components_cached is 0)" >&2; exit 1; }
	done

	# Forced shutdown: a wave waits in the batcher (it would flush only
	# after an hour), SIGTERM starts the drain, and the 1 ms drain budget
	# expires while that epoch builds. The epoch must be cancelled
	# promptly, its submission answered 503 and ledgered as aborted, and
	# its ranks' metrics must still reach the final report: only pipeline
	# ranks register mpi_msgs_sent.
	echo "-- forced shutdown aborts the in-flight epoch"
	forced="$artifacts/forced"
	mkdir -p "$forced"
	"$tmp/profamd" -addr 127.0.0.1:0 -addr-file "$tmp/addr_forced" -p 2 \
		-batch-wait 1h -drain-timeout 1ms -metrics-out "$forced/metrics_final.json" \
		-ledger "$forced/ledger.jsonl" \
		>"$forced/profamd.stdout" 2>"$forced/profamd.log" &
	daemon_pid=$!
	wait_ready "$tmp/addr_forced"
	curl -s -o /dev/null -w '%{http_code}' --data-binary "@$tmp/orfs.fasta" \
		"$base/v1/sequences" >"$tmp/forced_code" &
	submit_pid=$!
	i=0
	until curl -sf "$base/v1/status" | grep -q '"pending_batch":[1-9]'; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "ci.sh e2e: the forced-shutdown wave never reached the batcher" >&2; exit 1; }
		sleep 0.1
	done
	kill -TERM "$daemon_pid"
	wait_exit 100
	wait "$submit_pid" || true
	code=$(cat "$tmp/forced_code")
	[ "$code" = 503 ] \
		|| { echo "ci.sh e2e: the aborted wave answered HTTP $code, want 503" >&2; cat "$forced/profamd.log" >&2; exit 1; }
	tail -n 1 "$forced/ledger.jsonl" | grep -q '"status":"aborted"' \
		|| { echo "ci.sh e2e: the last ledger record is not an aborted epoch" >&2; cat "$forced/ledger.jsonl" >&2; exit 1; }
	grep -q 'mpi_msgs_sent' "$forced/metrics_final.json" \
		|| { echo "ci.sh e2e: the final metrics lack the aborted epoch's mpi_msgs_sent" >&2; exit 1; }

	# Demotions: the same corpus sorted shortest-first, so contained
	# fragments arrive in an earlier wave than the sequences that contain
	# them and a later epoch demotes them. That epoch's CCD is every
	# epoch's: seeded from the committed pair table's stored positives,
	# it replays the table's count-less pairs the seed leaves apart
	# instead of enumerating the corpus again, so no epoch trace may hold
	# a ccd/index span.
	echo "-- demotion epochs replay the pair table"
	demo="$artifacts/demotion"
	mkdir -p "$demo"
	awk '/^>/{if (name != "") print length(res) "\t" n "\t" name "\t" res; name = $0; res = ""; n++; next}
		{res = res $0}
		END{if (name != "") print length(res) "\t" n "\t" name "\t" res}' "$tmp/orfs.fasta" \
		| sort -t "$(printf '\t')" -k1,1n -k2,2n \
		| awk -F '\t' '{print $3; print $4}' >"$tmp/sorted.fasta"
	awk -v per="$per" -v dir="$tmp" \
		'/^>/{n++} {print > (dir "/sorted" int((n-1)/per) ".fasta")}' "$tmp/sorted.fasta"
	"$tmp/profamd" -addr 127.0.0.1:0 -addr-file "$tmp/addr_demo" -p 2 \
		-batch-wait 100ms -ledger "$demo/ledger.jsonl" -trace-dir "$demo/traces" \
		>"$demo/profamd.stdout" 2>"$demo/profamd.log" &
	daemon_pid=$!
	wait_ready "$tmp/addr_demo"
	for w in 0 1 2; do
		[ -f "$tmp/sorted$w.fasta" ] || continue
		curl -sf --data-binary "@$tmp/sorted$w.fasta" "$base/v1/sequences" >/dev/null \
			|| { echo "sorted wave $w submission failed" >&2; cat "$demo/profamd.log" >&2; exit 1; }
	done
	curl -sf "$base/v1/families?format=text" >"$demo/served_families.txt"
	kill -TERM "$daemon_pid"
	wait_exit 300
	[ "$rc" -eq 0 ] || { echo "profamd exited with status $rc" >&2; cat "$demo/profamd.log" >&2; exit 1; }
	"$tmp/profam" -in "$tmp/sorted.fasta" -p 2 -out "$demo/cold_families.txt" 2>/dev/null
	if ! diff -u "$demo/cold_families.txt" "$demo/served_families.txt"; then
		echo "ci.sh e2e: served families differ from the cold run on the shortest-first corpus" >&2
		exit 1
	fi
	grep -q '"demotions":[1-9]' "$demo/ledger.jsonl" \
		|| { echo "ci.sh e2e: no epoch of the shortest-first corpus demoted a sequence" >&2; cat "$demo/ledger.jsonl" >&2; exit 1; }
	ls "$demo"/traces/epoch_*.trace.json >/dev/null \
		|| { echo "ci.sh e2e: the demotion leg persisted no epoch traces" >&2; exit 1; }
	if grep -l '"ccd/index"' "$demo"/traces/epoch_*.trace.json; then
		echo "ci.sh e2e: a demotion epoch built a CCD index instead of replaying the pair table" >&2
		exit 1
	fi

	echo "ci.sh: e2e service gate passed ($total sequences, byte-identical families, ledger verified, forced shutdown aborted, demotions replayed)"
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

echo "ci.sh: all checks passed"
