#!/bin/sh
# check.sh — the full verification gate, run from the repo root (or any
# subdirectory: it cd's to the module root first). Mirrors what CI runs:
#
#   1. gofmt      — no unformatted files
#   2. go vet     — stdlib static checks
#   3. gislint    — project invariant analyzers: syntactic (errdrop,
#                   valuecompare, exhaustive), CFG-based flow-sensitive
#                   (iterclose, spanfinish, ctxflow, lockheld),
#                   interprocedural/summary-based (sqlship, goleak),
#                   concurrency-safety (lockguard, atomicmix,
#                   wglifecycle, chanmisuse; see DESIGN.md
#                   "Concurrency model & guard inference"),
#                   and hot-path perf (hotalloc, boxing, hotdefer,
#                   valcopy); ratcheted against lint.baseline.json —
#                   known perf findings are absorbed, anything NEW
#                   fails the gate. After fixing findings, shrink the
#                   snapshot and commit it:
#                     go run ./cmd/gislint -baseline lint.baseline.json \
#                       -update-baseline ./...
#                   see DESIGN.md "Static analysis & invariants" and
#                   "Hot-path model & perf lint"
#   3a. concurrency — the four concurrency-safety analyzers once more
#                   in isolation at their native error severity (no
#                   baseline: a lock-protocol finding is a bug, not
#                   ratcheted debt) — a clean run proves the guard
#                   model still infers zero violations module-wide
#   3a'. deadlock — the three deadlock analyzers (lockorder,
#                   selfdeadlock, blockcycle; see DESIGN.md "Lock
#                   order & deadlock analysis") in isolation, same
#                   no-baseline policy: a lock-order cycle is a hang
#                   waiting for its interleaving, so any finding
#                   fails the gate outright
#   3b. fixtures  — each analyzer must still fire on its fixture
#                   package (an analyzer that stops finding its own
#                   fixture has gone blind); any unexpected-finding
#                   diff here is a hard FAILURE, not a warning, and
#                   the gate covers the sqlship/goleak, concurrency-
#                   safety, and perf-lint fixtures plus the call-graph/
#                   summary/hotness/baseline/changed-mode unit tests
#   4. go build   — everything compiles
#   5. go test    — full suite under the race detector, including the
#                   race-stress and seeded-chaos tests (both skipped
#                   under -short)
#   5b. chaos     — the TestChaos* fault-injection suite once more in
#                   isolation (wire, parallel union, bind join, 2PC,
#                   breaker shedding; see DESIGN.md "Resilience &
#                   fault model")
#   5c. fuzz      — a bounded run of each native fuzz target: the wire
#                   decoders and frame reader, and the SQL parser (make
#                   fuzz; new crashers land in the package's
#                   testdata/fuzz/ and replay in every go test)
#   6. gisbench   — quick JSON smoke run, schema-validated by
#                   scripts/benchjson (see EXPERIMENTS.md)
#   7. query log  — demo-federation query with -query-log-sample 1,
#                   lines schema-validated by scripts/querylogjson
#
# Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo '== gofmt =='
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '== go vet =='
go vet ./...

echo '== gislint (ratchet) =='
# make lint-ratchet exactly, so this gate and the Makefile target can
# never drift apart. The baseline absorbs known perf-lint findings;
# any finding not in lint.baseline.json fails the build.
if ! make --no-print-directory lint-ratchet; then
    echo 'check: FAIL — new lint findings not in lint.baseline.json (fix them, or if intentional rerun gislint with -update-baseline and commit the snapshot)' >&2
    exit 1
fi

echo '== gislint concurrency (error severity, no baseline) =='
# make lint-concurrency exactly, so this gate and the Makefile target
# can never drift apart. The concurrency-safety analyzers are never
# ratcheted: any finding fails the build outright.
if ! make --no-print-directory lint-concurrency; then
    echo 'check: FAIL — concurrency-safety findings (lockguard/atomicmix/wglifecycle/chanmisuse); fix the race or add a reasoned //lint:ignore' >&2
    exit 1
fi

echo '== gislint deadlock (error severity, no baseline) =='
# make lint-deadlock exactly, so this gate and the Makefile target can
# never drift apart. Deadlock findings are never ratcheted: restore the
# canonical lock order (DESIGN.md "Lock order & deadlock analysis") or
# add a reasoned //lint:ignore at the witness site.
if ! make --no-print-directory lint-deadlock; then
    echo 'check: FAIL — deadlock findings (lockorder/selfdeadlock/blockcycle); restore the canonical lock order in DESIGN.md or add a reasoned //lint:ignore' >&2
    exit 1
fi

echo '== gislint fixtures =='
# make lint-fixtures exactly, so this gate and the Makefile target can
# never drift apart; an unexpected-finding diff fails the whole check.
if ! make --no-print-directory lint-fixtures; then
    echo 'check: FAIL — analyzer fixtures diverged (unexpected or missing findings above)' >&2
    exit 1
fi

echo '== go build =='
go build ./...

echo '== go test -race =='
go test -race ./...

echo '== chaos (seeded fault injection) =='
go test -race -run TestChaos -count=1 ./internal/wire ./internal/core

echo '== overload (admission, quotas, backpressure) =='
# make overload exactly, so this gate and the Makefile target can never
# drift apart: the multi-tenant overload chaos suite plus a quick OV1
# bench run validated against the gisbench JSON schema.
if ! make --no-print-directory overload; then
    echo 'check: FAIL — overload robustness gate (admission control / backpressure / quota enforcement)' >&2
    exit 1
fi

echo '== fuzz (bounded) =='
# make fuzz exactly, so this gate and the Makefile target can never
# drift apart.
if ! make --no-print-directory fuzz; then
    echo 'check: FAIL — a fuzz target found a crasher (it was written under testdata/fuzz/; fix the code and commit the input)' >&2
    exit 1
fi

echo '== gisbench -json -quick =='
go run ./cmd/gisbench -json -quick | go run ./scripts/benchjson

echo '== query-log schema =='
# Run a demo-federation query with every statement sampled into the
# structured log, then validate the emitted lines against the
# obs.QueryLogRecord schema (see DESIGN.md "Distributed tracing & plan
# telemetry").
qlog=$(mktemp)
trap 'rm -f "$qlog"' EXIT
go run ./cmd/gisql -demo -query-log "$qlog" -query-log-sample 1 \
    -e "SELECT c.name, SUM(o.amount) FROM customers c JOIN orders o ON c.id = o.cust_id WHERE c.region = 'east' GROUP BY c.name" >/dev/null
go run ./scripts/querylogjson < "$qlog"

echo 'check: all gates passed'
