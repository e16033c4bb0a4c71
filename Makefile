# Local development gate. `make check` is the tier-1+ verify command
# recorded in ROADMAP.md; tier-1 proper is build + test.

GO ?= go

.PHONY: all build test check fmt vet race bench results baseline benchdiff invariance profile prof profdiff chaos soak soakbaseline soakdiff top flow

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

check:
	./scripts/check.sh

bench:
	$(GO) run ./cmd/aegisbench

# Regenerate the committed human-readable results.
results:
	$(GO) run ./cmd/aegisbench > results_aegisbench.txt

# Regenerate the committed BENCH JSON baseline the regression gate
# compares against (see cmd/benchdiff; schema in internal/bench/json.go).
baseline:
	$(GO) run ./cmd/aegisbench -format json -trials 3 > BENCH_aegisbench.json

# Gate the current tree against the committed baseline (default 5%).
benchdiff:
	$(GO) run ./cmd/aegisbench -format json -trials 3 > /tmp/bench_new.json
	$(GO) run ./cmd/benchdiff BENCH_aegisbench.json /tmp/bench_new.json

# Full engine-invariance gate: every simulated number must be identical
# across all three engine tiers — fast+JIT (default), the fast
# interpreter (EXO_NOJIT=1), and the reference engine (EXO_SLOWPATH=1) —
# byte-identical text tables, zero-threshold JSON diff. Host wall-clock
# metrics are informational and never gated.
invariance:
	$(GO) run ./cmd/aegisbench > /tmp/bench_fast.txt
	EXO_NOJIT=1 $(GO) run ./cmd/aegisbench > /tmp/bench_nojit.txt
	cmp /tmp/bench_fast.txt /tmp/bench_nojit.txt
	EXO_SLOWPATH=1 $(GO) run ./cmd/aegisbench > /tmp/bench_slow.txt
	cmp /tmp/bench_fast.txt /tmp/bench_slow.txt
	$(GO) run ./cmd/aegisbench -format json -trials 1 > /tmp/bench_fast.json
	EXO_SLOWPATH=1 $(GO) run ./cmd/aegisbench -format json -trials 1 > /tmp/bench_slow.json
	$(GO) run ./cmd/benchdiff -threshold 0 /tmp/bench_slow.json /tmp/bench_fast.json
	@echo "invariance: OK"

# Chaos gate: fixed-seed randomized fault schedule (1000+ injected
# faults across wire/disk/NIC plus forced revocations and env kills,
# and at least 100 power-fail kill-and-reboot rounds on the
# journaled-FS machine), kernel invariants checked after every step,
# and the whole run replayed to prove the seed reproduces it
# bit-identically — crash census included (see cmd/chaos).
chaos:
	$(GO) run ./cmd/chaos -seed 1 -target 1000 -reboots 100 -verify

# Continuous soak gate: a 10⁶-event long-horizon chaos run (100 rounds
# of 10⁴ fault events under rotating seeds, invariants checked after
# every step) through the fleet observability bus, writing versioned
# SOAK JSON that trends invariant-check latency, events/sec, and host
# wall time per 10⁵ events (see internal/chaos/soak.go; cmd/soak -h for
# knobs). scripts/check.sh runs a 10⁴-event smoke of the same gate.
soak:
	$(GO) run ./cmd/soak -seed 1 -rounds 100 -events 10000 -o SOAK_soak.json
	@echo "wrote SOAK_soak.json"

# Regenerate the committed SOAK baseline (small fixed config so the
# trend file is cheap to refresh and diff).
soakbaseline:
	$(GO) run ./cmd/soak -seed 1 -rounds 4 -events 2500 -q -o SOAK_baseline.json
	@echo "wrote SOAK_baseline.json"

# Gate a fresh soak run against the committed SOAK baseline: simulated
# determinism witnesses (seeds, fault counts, steps, reboots, sim
# cycles, trace hashes) at zero tolerance, host-side trend metrics
# (ev/sec, wall_ns/100k, invariant-latency percentiles) at
# SOAKDIFF_THRESHOLD (default 30%; CI uses a huge value to keep
# shared-runner wall-clock noise out of the gate — witnesses are
# never relaxed). See cmd/soakdiff.
SOAKDIFF_THRESHOLD ?= 30
soakdiff:
	$(GO) run ./cmd/soak -seed 1 -rounds 4 -events 2500 -q -o /tmp/soak_new.json
	$(GO) run ./cmd/soakdiff -threshold $(SOAKDIFF_THRESHOLD) SOAK_baseline.json /tmp/soak_new.json

# Causal trace of the built-in cross-machine request scenario: span
# trees, critical paths, and queue/handler/wire breakdowns
# (cmd/exoflow; -format json|perfetto for machine-readable output).
flow:
	$(GO) run ./cmd/exoflow

# Live fleet view of a chaos run (cmd/exotop; -once for one snapshot).
top:
	$(GO) run ./cmd/exotop -seed 1 -target 2000

# CPU-profile the hottest workload (Table 9) for host-speed work:
# go tool pprof cpu.pprof
profile:
	$(GO) run ./cmd/aegisbench -only table9 -cpuprofile cpu.pprof > /dev/null
	@echo "wrote cpu.pprof; inspect with: go tool pprof cpu.pprof"

# Regenerate the committed simulated-cycle profile baseline: exact
# per-PC attribution of the matrix workload (Table 9) and the Appel-Li
# protection-primitive suite (Table 10), kernel time split out by
# operation class (cmd/exoprof; schema in internal/prof/json.go).
prof:
	$(GO) run ./cmd/exoprof -format json -o PROF_baseline.json table9,table10
	@echo "wrote PROF_baseline.json"

# Root-cause a bench regression: profile the same workloads now and
# rank the largest per-site cycle deltas against the committed baseline.
profdiff:
	$(GO) run ./cmd/exoprof -format json -o /tmp/prof_new.json table9,table10
	$(GO) run ./cmd/benchdiff -prof PROF_baseline.json /tmp/prof_new.json
