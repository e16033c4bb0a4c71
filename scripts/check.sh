#!/bin/sh
# Local verification gate (tier-1+): build, vet, format, race-enabled tests.
# Run from the repository root: ./scripts/check.sh  (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== perfbench tests (cross-tier digests, result-line schema)"
# perfbench is its own module (replace exokernel => ../), so the root
# \`go test ./...\` above skips it. Same module settings as perfbench/run.sh.
(cd perfbench && GOWORK=off GOFLAGS= go test .)

echo "== bench smoke (BENCH JSON + benchdiff self-compare)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/aegisbench -only table2 -format json > "$tmp/bench.json"
go run ./cmd/benchdiff -validate "$tmp/bench.json"
go run ./cmd/benchdiff -threshold 0 "$tmp/bench.json" "$tmp/bench.json"

echo "== engine invariance smoke (fast vs EXO_SLOWPATH=1)"
# The fast execution engine must be invisible in simulated time: text
# tables byte-identical, JSON metrics clean under benchdiff at threshold
# 0 (host wall-clock metrics are informational and never gated). Full
# sweep: make invariance.
go run ./cmd/aegisbench -only table2 > "$tmp/fast.txt"
EXO_SLOWPATH=1 go run ./cmd/aegisbench -only table2 > "$tmp/slow.txt"
cmp "$tmp/fast.txt" "$tmp/slow.txt"
EXO_SLOWPATH=1 go run ./cmd/aegisbench -only table2 -format json > "$tmp/bench_slow.json"
go run ./cmd/benchdiff -threshold 0 "$tmp/bench_slow.json" "$tmp/bench.json"

echo "== jit smoke (Table 9 under EXO_NOJIT=1 vs default)"
# The trace-JIT tier must be invisible in simulated time: Table 9 — the
# matmul workload whose inner loops the JIT compiles — renders byte-
# identical simulated output with the tier on (default) and off
# (EXO_NOJIT=1). Small matrix keeps the smoke fast; the full sweep is
# covered by make invariance and the vm engine-equivalence quickcheck.
go run ./cmd/aegisbench -only table9 -n 32 > "$tmp/jit.txt"
EXO_NOJIT=1 go run ./cmd/aegisbench -only table9 -n 32 > "$tmp/nojit.txt"
cmp "$tmp/jit.txt" "$tmp/nojit.txt"

echo "== chaos smoke (fixed-seed fault schedule + invariant gate + replay)"
# Smaller than \`make chaos\` (300 events / 25 reboots vs 1000 / 100)
# but the same gate: seeded faults on every device, power-fail
# kill-and-reboot rounds on the journaled-FS machine, invariants after
# every step, and a replay that must reproduce the identical fault
# logs, traces, clocks, and crash census.
go run ./cmd/chaos -seed 1 -target 300 -reboots 25 -verify -q

echo "== soak smoke (10^4 events, fixed seeds, SOAK JSON round-trip)"
# Smaller than \`make soak\` (4 rounds x 2500 events vs 100 x 10000) but
# the same gate: rotating seeds, invariants after every step, the fleet
# bus aggregating both machines, SOAK JSON out. The committed
# SOAK_baseline.json is the same configuration (make soakbaseline).
go run ./cmd/soak -seed 1 -rounds 4 -events 2500 -q -o "$tmp/soak.json"
grep -q '"schema": "aegis-soak"' "$tmp/soak.json"

echo "== soakdiff gate (witnesses vs committed SOAK_baseline.json)"
# The smoke soak above uses the baseline's exact configuration, so every
# simulated-side determinism witness (seed, fault count, steps, sim
# cycles, trace hash per window) must match the committed file bit for
# bit — soakdiff gates witnesses at zero tolerance regardless of
# -threshold. The huge trend threshold keeps host wall-clock noise on a
# loaded CI box out of the gate; trend regressions are for
# \`make soakdiff\` runs on a quiet machine.
go run ./cmd/soakdiff -validate "$tmp/soak.json"
go run ./cmd/soakdiff -threshold 0 "$tmp/soak.json" "$tmp/soak.json"
go run ./cmd/soakdiff -threshold 1000 SOAK_baseline.json "$tmp/soak.json"

echo "== exoflow smoke (causal span trees, byte-stable vs golden)"
# The default scenario's text rendering is a function of simulated state
# and seeded span identities only, so it must reproduce the committed
# golden byte for byte (same file the cmd/exoflow golden test pins).
go run ./cmd/exoflow > "$tmp/flow.txt"
cmp "$tmp/flow.txt" cmd/exoflow/testdata/flow_seed1.golden
grep -q 'orphans=0' "$tmp/flow.txt"

echo "== exotop smoke (one-shot fleet snapshot over a scripted run)"
go run ./cmd/exotop -once -seed 1 -target 200 > "$tmp/top.txt"
grep -q 'fleet  machines=3' "$tmp/top.txt"

echo "== exoprof smoke (PROF JSON + pprof export + profile self-diff)"
# Cycle profiles are exact and deterministic: the PROF JSON must
# validate, the pprof protobuf must load in \`go tool pprof\`, and a
# profile diffed against itself must show zero per-site deltas. The
# committed PROF_baseline.json (make prof) must stay valid too; it is
# not cycle-gated here because table9/table10 are too slow for a smoke.
go run ./cmd/exoprof -format json -o "$tmp/prof.json" table2
go run ./cmd/benchdiff -prof -validate "$tmp/prof.json"
go run ./cmd/benchdiff -prof "$tmp/prof.json" "$tmp/prof.json" | grep -q 'no per-site cycle deltas'
go run ./cmd/exoprof -format pprof -o "$tmp/prof.pb.gz" table2
go tool pprof -top "$tmp/prof.pb.gz" | grep -q 'Type: cycles'
go run ./cmd/benchdiff -prof -validate PROF_baseline.json

echo "check: OK"
