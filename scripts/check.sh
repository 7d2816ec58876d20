#!/usr/bin/env bash
# Tier-1 gate: formatting, vet, build, tests. Run before every commit.
# Wall-clock performance is measured separately by the repo benchmark
# (perfbench/, declared in BENCHMARK.json), which compares a change with its
# parent on one host; the perf quantities that do not depend on host speed
# (exact counts, allocation ceilings) are pinned by TestPerfPins below.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test ./...
# The benchmark module is nested (its own go.mod), so the root ./... above
# skips it; vet and test it here so a repro API change that breaks the
# benchmark fails this gate.
(cd perfbench && go vet ./... && go test ./...)
# The whole module must also be clean under the race detector: the compiler
# fans per-function analysis across a worker pool, units are driven from
# concurrent goroutines in tests, and the trace recorder and metrics
# registry are observed concurrently by the debug HTTP server — this
# catches any accidental sharing. This leg also runs the fault-injection /
# reliable-messaging tests (internal/earthsim, internal/harness) under the
# race detector.
go test -race ./...
# Perf pins: Figure 10 counts, guest instructions, halo event counts at
# 4..1024 nodes, and allocs/op + B/op ceilings for the root benchmarks'
# operations — the fault layer and telemetry must cost nothing when
# disabled. (Also part of `go test ./...` above; rerun by name so a
# perf-pin failure is unmistakable in CI logs.)
go test -run 'TestPerfPins|ZeroCostWhenDisabled|TestMetricsRegistryRunOverheadBounded' -count=1 .
# Sharded-engine determinism pin: the {benchmark x faults x SimWorkers}
# equivalence matrix — byte-identical Visible(), trace export, and telemetry
# series across worker counts — must hold under the race detector, where the
# worker pool's scheduling is at its most adversarial. (Also part of
# `go test -race ./...` above; rerun by name so a determinism failure is
# unmistakable in CI logs.)
go test -race -count=1 -run 'TestShardedEquivalenceMatrix|TestSharded256Nodes' ./internal/earthsim
# Compile-cache smoke leg: warm vs cold. The same source compiled twice
# under -cache-dir must serve the second run from the disk store (the
# compile is skipped entirely) with byte-identical output. Timing is not
# asserted here — the <10% warm/cold ratio is pinned by
# TestWarmRecompileUnderTenPercentOfCold.
cache_dir="$(mktemp -d)"
cache_src="$(mktemp)"
cold_out="$(mktemp)"
warm_out="$(mktemp)"
warm_log="$(mktemp)"
trap 'rm -rf "$cache_dir" "$cache_src" "$cold_out" "$warm_out" "$warm_log"' EXIT
cat > "$cache_src" <<'EOF'
struct Node { int v; struct Node *next; };
int main() {
	Node *head;
	Node *p;
	int i;
	int sum;
	head = NULL;
	for (i = 0; i < 10; i++) {
		p = alloc_on(Node, 1);
		p->v = i;
		p->next = head;
		head = p;
	}
	sum = 0;
	p = head;
	while (p != NULL) { sum = sum + p->v; p = p->next; }
	print_int(sum);
	return sum;
}
EOF
go run ./cmd/earthcc -O -dump=threaded -cache-dir "$cache_dir" "$cache_src" > "$cold_out" 2>/dev/null
go run ./cmd/earthcc -O -dump=threaded -cache-dir "$cache_dir" "$cache_src" > "$warm_out" 2> "$warm_log"
grep -q 'disk hit' "$warm_log" || {
    echo "cache smoke: second compile reported no cache hit:" >&2
    cat "$warm_log" >&2
    exit 1
}
cmp -s "$cold_out" "$warm_out" || {
    echo "cache smoke: warm output differs from cold" >&2
    diff "$cold_out" "$warm_out" >&2 || true
    exit 1
}
echo "cache smoke: disk hit + byte-identical warm output ok"
# Service smoke leg: boot a real earthd on an ephemeral port, submit one
# good job and one malformed job over HTTP, then verify SIGTERM produces a
# clean drain (exit 0, "drained cleanly" in the log). This exercises the
# binary end to end — flag parsing, listener bootstrap, the HTTP surface,
# and the signal path — which no in-process test does.
earthd_bin="$(mktemp)"
earthd_log="$(mktemp)"
trap 'rm -f "$earthd_bin" "$earthd_log"; rm -rf "$cache_dir" "$cache_src" "$cold_out" "$warm_out" "$warm_log"' EXIT
go build -o "$earthd_bin" ./cmd/earthd
"$earthd_bin" -addr 127.0.0.1:0 -shards 2 >"$earthd_log" 2>&1 &
earthd_pid=$!
for _ in $(seq 1 50); do
    grep -q 'listening on' "$earthd_log" && break
    sleep 0.1
done
port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$earthd_log")
if [ -z "$port" ]; then
    echo "earthd smoke: server never announced its port" >&2
    cat "$earthd_log" >&2
    exit 1
fi
ok_code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    "http://127.0.0.1:$port/jobs" -d '{"benchmark":"power","quick":true,"nodes":4}')
bad_code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    "http://127.0.0.1:$port/jobs" -d '{"benchmark":"no-such-benchmark"}')
# Observability smoke: the binary reports its identity, a completed job's
# host-side timeline is retained with the queue.wait and sim.run stages,
# and /debug/jobs serves the attribution tables.
curl -s "http://127.0.0.1:$port/buildinfo" | grep -q '"go_version"' || {
    echo "earthd smoke: /buildinfo missing go_version" >&2
    exit 1
}
curl -s -o /dev/null -X POST "http://127.0.0.1:$port/jobs" \
    -d '{"id":"smoke-tl","benchmark":"power","quick":true,"nodes":4}'
timeline=$(curl -s "http://127.0.0.1:$port/jobs/smoke-tl/timeline?format=text")
for stage in queue.wait sim.run; do
    echo "$timeline" | grep -q "$stage" || {
        echo "earthd smoke: timeline missing $stage span:" >&2
        echo "$timeline" >&2
        exit 1
    }
done
curl -s "http://127.0.0.1:$port/debug/jobs" | grep -q 'tail-latency attribution' || {
    echo "earthd smoke: /debug/jobs missing attribution table" >&2
    exit 1
}
kill -TERM "$earthd_pid"
if ! wait "$earthd_pid"; then
    echo "earthd smoke: dirty exit after SIGTERM" >&2
    cat "$earthd_log" >&2
    exit 1
fi
if [ "$ok_code" != 200 ] || [ "$bad_code" != 400 ]; then
    echo "earthd smoke: good job -> $ok_code (want 200), malformed -> $bad_code (want 400)" >&2
    cat "$earthd_log" >&2
    exit 1
fi
grep -q 'drained cleanly' "$earthd_log" || {
    echo "earthd smoke: no clean-drain message in log:" >&2
    cat "$earthd_log" >&2
    exit 1
}
echo "earthd smoke: 200/400/timeline/clean drain ok"
# Timeline concurrency leg: live snapshot reads racing job execution and
# completion filing, under the race detector, rerun by name so a data race
# in the observability layer is unmistakable in CI logs. (Also part of
# `go test -race ./...` above.)
go test -race -count=1 -run 'TestTimeline' ./internal/server
# Journal-recovery unit leg: the durability contract's unit surface —
# corruption matrix, restart recovery, exactly-once re-submission,
# cancellation — rerun by name under the race detector so a recovery
# regression is unmistakable in CI logs. (Also part of `go test -race ./...`
# above.)
go test -race -count=1 -run 'TestCorruptionMatrix|TestJournalRecovery|TestCancel' \
    ./internal/journal ./internal/server
# Chaos smoke leg: one seeded SIGKILL/restart cycle against a real earthd
# with a journal. The harness asserts zero lost accepted jobs and that every
# replayed payload is byte-identical to a clean run — the crash-safety
# contract, end to end through the real binary and real fsyncs.
chaos_bin="$(mktemp)"
trap 'rm -f "$earthd_bin" "$earthd_log" "$chaos_bin"; rm -rf "$cache_dir" "$cache_src" "$cold_out" "$warm_out" "$warm_log"' EXIT
go build -o "$chaos_bin" ./cmd/earthchaos
"$chaos_bin" -earthd "$earthd_bin" -n 8 -cycles 1 -seed 7
echo "chaos smoke: kill/restart cycle ok"
# Load-generator smoke leg: a short earthload sweep against self-hosted
# earthd instances at 1 and 2 shards; earthload exits 1 if any job fails.
go run ./cmd/earthload -sweep 1,2 -c 8 -n 16 >/dev/null
# Native-fuzz smoke leg: ten seconds of parser fuzzing, seeded from
# testdata/ (including the malformed-input corpus). Catches panics the
# hand-written corpus misses; a real finding lands in testdata/fuzz/.
go test -fuzz=FuzzParse -fuzztime=10s -run '^$' ./internal/earthc
