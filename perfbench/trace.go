package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// spanName identifies what a span times: the op itself, or one call from
// the benchmark into a layer's public function.
type spanName uint8

const (
	spOp spanName = iota
	spHWNewMachine
	spHWReboot
	spHWDiskCrash
	spVMRun
	spVMRunFast
	spVMRunRef
	spAegisBoot
	spAegisSyscall
	spAegisCheckInvariants
	spDPFInsert
	spDPFClassify
	spSandboxVerify
	spExosBoot
	spExosProtTrap
	spExosSTLBRefill
	spExosLRPC
	spExosUDPASH
	spExosUDPApp
	spExosFSReadHit
	spExosFSReadMiss
	spExosFSOpen
	spExosFormat
	spExosMount
	spExosAudit
	spExosFSWrite
	spExosFSSync
	spExosSnapshot
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spOp:                   "op",
	spHWNewMachine:         "hw.NewMachine",
	spHWReboot:             "hw.Machine.Reboot",
	spHWDiskCrash:          "hw.Disk.Crash",
	spVMRun:                "vm.Interp.Run",
	spVMRunFast:            "vm.Interp.Run/nojit",
	spVMRunRef:             "vm.Interp.Run/slowpath",
	spAegisBoot:            "aegis.New",
	spAegisSyscall:         "aegis.syscall",
	spAegisCheckInvariants: "aegis.Kernel.CheckInvariants",
	spDPFInsert:            "dpf.Engine.Insert",
	spDPFClassify:          "dpf.Engine.Classify/batch",
	spSandboxVerify:        "sandbox.Verify",
	spExosBoot:             "exos.Boot",
	spExosProtTrap:         "exos.prot_trap",
	spExosSTLBRefill:       "exos.LibOS.Touch",
	spExosLRPC:             "exos.Client.Call",
	spExosUDPASH:           "exos.udp_rtt/ash",
	spExosUDPApp:           "exos.udp_rtt/app",
	spExosFSReadHit:        "exos.FS.ReadAt/hit",
	spExosFSReadMiss:       "exos.FS.ReadAt/miss",
	spExosFSOpen:           "exos.NewAegisDev+NewFSCache",
	spExosFormat:           "exos.Format",
	spExosMount:            "exos.Mount",
	spExosAudit:            "exos.FS.Audit",
	spExosFSWrite:          "exos.FS.mutate",
	spExosFSSync:           "exos.FS.Sync",
	spExosSnapshot:         "exos.FS.List+ReadAt",
}

// setupOp is the op id spans recorded during set-up carry.
const setupOp = -1

// span is one timed call. Times are host nanoseconds since the tracer's
// epoch; arg carries the call's unit count where a metric divides by one
// (instructions for vm runs, frames for a classify batch).
type span struct {
	name   spanName
	parent int32
	op     int32
	start  int64
	end    int64
	arg    uint64
}

// tracer records spans in memory, from the benchmark's own files only,
// around the calls each workload makes into the simulator's layers. A nil
// tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	epoch time.Time
	spans []span
	cur   int32 // innermost open span, -1 at top level
	op    int32
	off   bool // paused: begin records nothing
}

// newTracer preallocates room for capacity spans; full reports when a
// recording tracer's buffer is nearly used, and the traced phase stops
// there.
func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), cur: -1, op: setupOp}
}

func (t *tracer) full() bool { return t != nil && !t.off && len(t.spans)+4096 > cap(t.spans) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open one and returns its index
// (-1 on a nil or paused tracer; closing -1 is a no-op).
func (t *tracer) begin(n spanName) int32 {
	if t == nil || t.off {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: n, parent: t.cur, op: t.op, start: t.now()})
	t.cur = id
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.end = t.now()
	t.cur = s.parent
}

// endArg closes span id with its unit count.
func (t *tracer) endArg(id int32, arg uint64) {
	if id < 0 {
		return
	}
	t.end(id)
	t.spans[id].arg = arg
}

// endAs closes span id under a name only known once the call returned
// (a buffer-cache hit or miss).
func (t *tracer) endAs(id int32, n spanName) {
	if id < 0 {
		return
	}
	t.end(id)
	t.spans[id].name = n
}

// layerStats is the per-name digest of a span set.
type layerStats struct {
	dur    []float64 // ns per call
	self   []float64 // ns per call, children excluded
	perArg []float64 // ns per unit of arg, where arg > 0
	total  float64   // summed self time, ns
}

// analyse computes each span's self time — its duration minus the part
// its child spans cover — and groups durations by name.
func (t *tracer) analyse() [numSpanNames]*layerStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numSpanNames]*layerStats
	for i, s := range t.spans {
		ls := out[s.name]
		if ls == nil {
			ls = &layerStats{}
			out[s.name] = ls
		}
		d := float64(s.end - s.start)
		self := d - float64(child[i])
		ls.dur = append(ls.dur, d)
		ls.self = append(ls.self, self)
		ls.total += self
		if s.arg > 0 {
			ls.perArg = append(ls.perArg, d/float64(s.arg))
		}
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for i, s := range t.spans {
		buf = append(buf[:0], `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, spanNames[s.name]...)
		buf = append(buf, `","parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"op":`...)
		buf = strconv.AppendInt(buf, int64(s.op), 10)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.end, 10)
		if s.arg > 0 {
			buf = append(buf, `,"arg":`...)
			buf = strconv.AppendUint(buf, s.arg, 10)
		}
		buf = append(buf, "}\n"...)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// printLayers prints the per-name table: calls, median duration, median
// self time, and each name's share of all self time.
func printLayers(w io.Writer, stats [numSpanNames]*layerStats) {
	var all float64
	for _, ls := range stats {
		if ls != nil {
			all += ls.total
		}
	}
	order := make([]spanName, 0, numSpanNames)
	for n, ls := range stats {
		if ls != nil {
			order = append(order, spanName(n))
		}
	}
	sort.Slice(order, func(i, j int) bool { return stats[order[i]].total > stats[order[j]].total })
	fmt.Fprintf(w, "  %-30s %9s %12s %12s %7s\n", "span", "calls", "p50 ns", "self p50 ns", "self %")
	for _, n := range order {
		ls := stats[n]
		fmt.Fprintf(w, "  %-30s %9d %12.0f %12.0f %6.1f%%\n", spanNames[n], len(ls.dur),
			median(ls.dur), median(ls.self), 100*ls.total/all)
	}
}
