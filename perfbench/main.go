// Command perfbench measures how fast the simulator produces simulated
// work on the host. It drives the simulator's public API with one of
// three seeded workloads — matmul (guest compute under the JIT),
// kernel-ops (one call of each of eight kernel-crossing classes) and
// crash-reboot (power-fail, reboot and journal recovery) — and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics from a
// traced run. README.md in this directory describes the workloads, their
// input properties and which layer metric should move which end-to-end
// metric.
//
//	bash perfbench/run.sh --workload matmul --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"exokernel/internal/aegis"
	"exokernel/internal/hw"
)

const (
	// setupRuns is how many times a run sets its workload up from
	// scratch; setup_s is their median and the last one is timed.
	setupRuns = 5
	// minOps is the least number of ops a timed phase runs, however
	// long that takes; digestOps is the window (the first ops of the
	// timed phase) that the digest and sim_us_per_op cover, so both are
	// exact for a seed whatever the host's speed.
	minOps    = 1000
	digestOps = 1000
	// A timed phase is cut into windows of at least windowLen of CPU
	// time and minWindowOps ops; ops_per_s, op_p50_us and op_p99_us are
	// medians over the windows, so a few seconds of host contention move
	// them less than they move whole-run figures. minWindowOps puts at
	// least ten samples above each window's 99th percentile.
	windowLen    = 3 * time.Second
	minWindowOps = 1000
	// spanCap bounds the traced phase's in-memory span buffer.
	spanCap = 1 << 18
	// stretch is the length of each alternating stretch of the traced
	// run's untraced and traced phases.
	stretch = 250 * time.Millisecond
)

// tier is a simulator execution engine: the default (fast interpreter
// plus trace JIT), the fast interpreter alone, or the reference engine.
type tier int

const (
	tierJIT tier = iota
	tierFast
	tierRef
)

func (t tier) String() string { return [...]string{"jit", "nojit", "slowpath"}[t] }

// newMachine boots a DEC5000/125 on tier t. The tier is always set
// explicitly, so the benchmark measures the engine it names whatever the
// environment says.
func newMachine(t tier, tr *tracer) *hw.Machine {
	s := tr.begin(spHWNewMachine)
	m := hw.NewMachine(hw.DEC5000)
	tr.end(s)
	m.SetSlowPath(t == tierRef)
	m.SetNoJIT(t == tierFast)
	return m
}

// newKernel boots Aegis on m.
func newKernel(m *hw.Machine, tr *tracer) *aegis.Kernel {
	s := tr.begin(spAegisBoot)
	k := aegis.New(m)
	tr.end(s)
	return k
}

// counters are a workload's cumulative public counters; the harness
// reports their deltas per op.
type counters struct {
	instrs       uint64 // simulated instructions retired
	simCycles    uint64 // simulated cycles the ops took
	diskWrites   uint64
	diskFlushes  uint64
	tlbMisses    uint64
	stlbHits     uint64
	ashRuns      uint64
	pktDelivered uint64
	frames       uint64 // frames classified
	matched      uint64 // of which matched a filter
	cacheHits    uint64
	cacheMisses  uint64
	rounds       uint64 // crash-reboot rounds
	replayed     uint64 // mounts that replayed a transaction
	rolledBack   uint64 // mounts that rolled one back
	midIO        uint64 // rounds whose armed power failure fired
}

// zip combines c and o field by field.
func (c counters) zip(o counters, f func(a, b uint64) uint64) counters {
	return counters{
		instrs: f(c.instrs, o.instrs), simCycles: f(c.simCycles, o.simCycles),
		diskWrites: f(c.diskWrites, o.diskWrites), diskFlushes: f(c.diskFlushes, o.diskFlushes),
		tlbMisses: f(c.tlbMisses, o.tlbMisses), stlbHits: f(c.stlbHits, o.stlbHits),
		ashRuns: f(c.ashRuns, o.ashRuns), pktDelivered: f(c.pktDelivered, o.pktDelivered),
		frames: f(c.frames, o.frames), matched: f(c.matched, o.matched),
		cacheHits: f(c.cacheHits, o.cacheHits), cacheMisses: f(c.cacheMisses, o.cacheMisses),
		rounds: f(c.rounds, o.rounds), replayed: f(c.replayed, o.replayed),
		rolledBack: f(c.rolledBack, o.rolledBack), midIO: f(c.midIO, o.midIO),
	}
}

func (c counters) sub(o counters) counters {
	return c.zip(o, func(a, b uint64) uint64 { return a - b })
}

func (c counters) add(o counters) counters {
	return c.zip(o, func(a, b uint64) uint64 { return a + b })
}

// instance is one set-up workload.
type instance interface {
	// op runs op i (ops run in order, from 0) and writes its simulated
	// results to d. A non-nil error is a failed output check: the op
	// counts as failed and the run goes on.
	op(i int, d *digest) error
	counters() counters
}

// workload is one named set of seeded inputs.
type workload struct {
	name string
	// warmup is the number of ops in set-up's warm-up pass, which
	// compiles JIT traces and fills caches before timing starts.
	warmup int
	setup  func(seed uint64, t tier, tr *tracer) (instance, error)
}

var workloads = []workload{
	{name: "matmul", warmup: matmulN, setup: setupMatmul},
	{name: "kernel-ops", warmup: 256, setup: setupKernelOps},
	{name: "crash-reboot", warmup: 16, setup: setupCrashReboot},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// prepare sets w up and runs its warm-up pass with the tracer paused.
// Warm-up failures are returned as errors: a workload that cannot pass
// its own warm-up is broken, not slow.
func prepare(w workload, seed uint64, t tier, tr *tracer) (instance, error) {
	inst, err := w.setup(seed, t, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if tr != nil {
		tr.off = true
		defer func() { tr.off = false }()
	}
	d := newDigest()
	for i := 0; i < w.warmup; i++ {
		if err := inst.op(i, d); err != nil {
			return nil, fmt.Errorf("%s warm-up op %d: %w", w.name, i, err)
		}
	}
	return inst, nil
}

// phase is a timed closed loop — one client, each op issued when the
// previous one returned — made of one stretch of ops or, in the traced
// run, of several stretches interleaved with another phase's. Op
// latencies, window lengths and elapsed are CPU time of the driving
// thread (see threadCPU); wall is wall-clock time, which bounds each
// stretch.
type phase struct {
	ops, failed int
	firstErr    error
	elapsed     time.Duration
	wall        time.Duration
	lat         latencies
	delta       counters // counter deltas summed over the stretches
	first       counters // counter deltas over the first digestOps ops
	digest      uint64   // digest after the first digestOps ops
	windows     []window
	gcs         uint32 // host garbage collections
	pauseNs     uint64 // host GC pause time
	allocBytes  uint64 // host bytes allocated
}

// window is a run of ops [from, to) of a phase and its CPU time.
type window struct {
	from, to int
	dur      time.Duration
}

// run adds a stretch of ops from *next on, lasting dur of wall time (and
// at least least ops), that ends early only when a tracer's buffer fills.
// digest and first are taken in the stretch that reaches digestOps ops,
// which for a one-stretch phase is its start.
func (p *phase) run(inst instance, next *int, d *digest, tr *tracer, dur time.Duration, least int) {
	before := inst.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(dur)
	c0 := threadCPU()
	cpuStart := c0
	win := window{from: p.ops}
	for n := 0; ; n++ {
		if p.ops == digestOps {
			p.first = inst.counters().sub(before)
			p.digest = d.sum()
		}
		if (n >= least && !time.Now().Before(deadline)) || tr.full() {
			break
		}
		i := *next
		*next++
		if tr != nil {
			tr.op = int32(i)
		}
		s := tr.begin(spOp)
		err := inst.op(i, d)
		tr.end(s)
		c1 := threadCPU()
		p.lat.add(uint32(c1 - c0))
		win.dur += c1 - c0
		c0 = c1
		p.ops++
		if win.dur >= windowLen && p.ops-win.from >= minWindowOps {
			win.to = p.ops
			p.windows = append(p.windows, win)
			win = window{from: p.ops}
		}
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	p.elapsed += c0 - cpuStart
	p.wall += time.Since(start)
	runtime.ReadMemStats(&m1)
	p.delta = p.delta.add(inst.counters().sub(before))
	p.gcs += m1.NumGC - m0.NumGC
	p.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
}

func (p *phase) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// windowMedians returns the medians over p's windows of ops per second,
// p50 and p99 latency (us); a phase too short for a full window counts
// as one.
func (p *phase) windowMedians() (opsPerSec, p50, p99 float64) {
	ws := p.windows
	if len(ws) == 0 {
		ws = []window{{from: 0, to: p.ops, dur: p.elapsed}}
	}
	var rate, q50, q99 []float64
	for _, w := range ws {
		lat := p.lat.sorted(w.from, w.to)
		rate = append(rate, float64(w.to-w.from)/w.dur.Seconds())
		q50 = append(q50, sortedQuantile(lat, 0.5)/1e3)
		q99 = append(q99, sortedQuantile(lat, 0.99)/1e3)
	}
	return median(rate), median(q50), median(q99)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	runtime.LockOSThread() // threadCPU times this thread
	defer runtime.UnlockOSThread()
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "matmul", "workload: matmul, kernel-ops or crash-reboot")
	seed := fl.Uint64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 30, "length of the timed phase in host seconds")
	traced := fl.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	out := fl.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d %s GOMAXPROCS=%d\n",
		w.name, *seed, *seconds, *traced, runtime.Version(), runtime.GOMAXPROCS(0))
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed, dur, *out, stdout)
	} else {
		res, err = endToEnd(w, *seed, dur, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupAll sets w up setupRuns times from scratch and returns the last
// instance with each set-up's CPU time. Each set-up starts from a
// collected heap, so no set-up pays for its predecessor's garbage.
func setupAll(w workload, seed uint64, tr *tracer) (instance, []float64, error) {
	var inst instance
	times := make([]float64, 0, setupRuns)
	for r := 0; r < setupRuns; r++ {
		inst = nil
		runtime.GC()
		t0 := threadCPU()
		var err error
		inst, err = prepare(w, seed, tierJIT, tr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, (threadCPU() - t0).Seconds())
	}
	return inst, times, nil
}

// endToEnd is the untraced run: set-up, then one timed phase.
func endToEnd(w workload, seed uint64, dur time.Duration, stdout io.Writer) (*result, error) {
	inst, setups, err := setupAll(w, seed, nil)
	if err != nil {
		return nil, err
	}
	next := w.warmup
	d := newDigest()
	p := &phase{}
	p.run(inst, &next, d, nil, dur, minOps)
	if p.firstErr != nil {
		fmt.Fprintf(stdout, "first failed check: %v\n", p.firstErr)
	}
	setupS := median(append([]float64(nil), setups...))
	instrs := p.delta.instrs
	simMIPS := float64(instrs) / p.elapsed.Seconds() / 1e6
	simUS := hw.DEC5000.Micros(p.first.simCycles) / digestOps
	rss := peakRSSMiB() // before the quantiles' sort buffers exist
	rate, p50, p99 := p.windowMedians()
	nw, perWin := max(len(p.windows), 1), p.ops/max(len(p.windows), 1)
	errRate := float64(p.failed) / float64(p.ops)

	fmt.Fprintf(stdout, "set-up: %d runs, times %s s (boot, inputs and a %d-op warm-up pass each)\n",
		len(setups), fmtList(setups), w.warmup)
	fmt.Fprintf(stdout, "timed: %d ops in %.3f s CPU, %.3f s wall (%.4f op/s overall), closed loop, one client; %d windows of about %d ops\n",
		p.ops, p.elapsed.Seconds(), p.wall.Seconds(), p.opsPerSec(), nw, perWin)
	fmt.Fprintf(stdout, "  %-14s %14.4f %-12s median of %d windows\n", "ops_per_s", rate, "op/s", nw)
	fmt.Fprintf(stdout, "  %-14s %14.4f %-12s median of %d window medians, %d samples each\n", "op_p50_us", p50, "us", nw, perWin)
	fmt.Fprintf(stdout, "  %-14s %14.4f %-12s median of %d window p99s, %d samples, %d above, each\n", "op_p99_us", p99, "us", nw, perWin, perWin/100)
	if instrs > 0 {
		fmt.Fprintf(stdout, "  %-14s %14.4f %-12s %d instructions\n", "sim_mips", simMIPS, "M instr/s", instrs)
	} else {
		fmt.Fprintf(stdout, "  %-14s %14s %-12s no guest instructions on this workload\n", "sim_mips", "n/a", "M instr/s")
	}
	fmt.Fprintf(stdout, "  %-14s %14.4f %-12s first %d ops\n", "sim_us_per_op", simUS, "sim us", digestOps)
	fmt.Fprintf(stdout, "  %-14s %14.4f %-12s median of %d set-ups\n", "setup_s", setupS, "s", len(setups))
	fmt.Fprintf(stdout, "  %-14s %14.4f %-12s whole run\n", "peak_rss_mb", rss, "MiB")
	fmt.Fprintf(stdout, "  %-14s %14.4f %-12s %d failed of %d attempted\n", "error_rate", errRate, "fraction", p.failed, p.ops)
	fmt.Fprintf(stdout, "digest: %016x (first %d ops)\n", p.digest, digestOps)

	return &result{
		Correct:   p.failed == 0,
		Attempted: p.ops,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"ops_per_s":   {rate, "op/s"},
			"op_p99_us":   {p99, "us"},
			"setup_s":     {setupS, "s"},
			"peak_rss_mb": {rss, "MiB"},
		},
	}, nil
}

// tracedRun is the per-layer run: set-up with spans on, then an untraced
// and a traced phase, interleaved in stretches so host drift hits both
// alike (their throughput ratio is the tracing overhead). The traced
// phase gets half the time or until the span buffer fills, the untraced
// one the rest. On matmul a few rows on the two slower engine tiers
// follow. Spans are written to out when the run ends.
func tracedRun(w workload, seed uint64, dur time.Duration, out string, stdout io.Writer) (*result, error) {
	tr := newTracer(spanCap)
	inst, _, err := setupAll(w, seed, tr)
	if err != nil {
		return nil, err
	}
	next := w.warmup
	d := newDigest()
	plain, traced := &phase{}, &phase{}
	for plain.wall+traced.wall < dur {
		tr.off = true
		plain.run(inst, &next, d, tr, stretch, 1)
		if traced.wall < dur/2 && !tr.full() {
			tr.off = false
			traced.run(inst, &next, d, tr, stretch, 1)
		}
	}
	tr.off = false
	tr.op = setupOp
	failed := plain.failed + traced.failed
	for _, p := range []*phase{plain, traced} {
		if p.firstErr != nil {
			fmt.Fprintf(stdout, "first failed check: %v\n", p.firstErr)
		}
	}
	if w.name == "matmul" {
		if err := matmulTiers(seed, tr); err != nil {
			failed++
			fmt.Fprintf(stdout, "engine tiers: %v\n", err)
		}
	}

	stats := tr.analyse()
	fmt.Fprintf(stdout, "untraced: %d ops in %.3f s CPU; traced: %d ops in %.3f s CPU, %d spans\n",
		plain.ops, plain.elapsed.Seconds(), traced.ops, traced.elapsed.Seconds(), len(tr.spans))
	printLayers(stdout, stats)
	ms := layerMetrics(w, stats, plain, traced)
	printLayerMetrics(stdout, ms)

	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(out, "spans-"+w.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	err = tr.writeSpans(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans: %s\n", path)

	metrics := make(map[string]metric, len(ms))
	for _, m := range ms {
		metrics[m.name] = metric{m.value, m.unit}
	}
	return &result{
		Correct:   failed == 0,
		Attempted: plain.ops + traced.ops,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", x)
	}
	return s
}
