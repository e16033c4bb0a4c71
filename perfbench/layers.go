package main

import (
	"fmt"
	"io"
)

// layerMetric is one per-layer number of the traced run. base, where
// set, gives a ratio's numerator and denominator.
type layerMetric struct {
	name  string
	value float64
	unit  string
	base  string
}

// layerMetrics derives the per-layer metrics: span medians per call (set-up
// spans included), public counters as deltas per op over the traced
// phase, host memory statistics over the untraced phase, and the op's
// self time and tracing overhead. A layer the workload does not call
// reads 0.
func layerMetrics(w workload, st [numSpanNames]*layerStats, plain, traced *phase) []layerMetric {
	med := func(n spanName, scale float64) float64 {
		if st[n] == nil {
			return 0
		}
		return median(st[n].dur) / scale
	}
	perArg := func(n spanName) float64 {
		if st[n] == nil {
			return 0
		}
		return median(st[n].perArg)
	}
	c := traced.delta
	ops := float64(traced.ops)
	per := func(v uint64) float64 { return float64(v) / ops }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	lookups := c.cacheHits + c.cacheMisses
	ms := []layerMetric{
		{name: "hw.new_machine_us", value: med(spHWNewMachine, 1e3), unit: "us"},
		{name: "hw.reboot_us", value: med(spHWReboot, 1e3), unit: "us"},
		{name: "hw.disk_crash_us", value: med(spHWDiskCrash, 1e3), unit: "us"},
		{name: "hw.disk_writes_per_op", value: per(c.diskWrites), unit: "count"},
		{name: "hw.disk_flushes_per_op", value: per(c.diskFlushes), unit: "count"},
		{name: "vm.jit_ns_per_instr", value: perArg(spVMRun), unit: "ns"},
		{name: "vm.fast_ns_per_instr", value: perArg(spVMRunFast), unit: "ns"},
		{name: "vm.ref_ns_per_instr", value: perArg(spVMRunRef), unit: "ns"},
		{name: "vm.instrs_per_op", value: per(c.instrs), unit: "count"},
		{name: "aegis.boot_us", value: med(spAegisBoot, 1e3), unit: "us"},
		{name: "aegis.syscall_ns", value: med(spAegisSyscall, 1), unit: "ns"},
		{name: "aegis.check_invariants_us", value: med(spAegisCheckInvariants, 1e3), unit: "us"},
		{name: "aegis.tlb_misses_per_op", value: per(c.tlbMisses), unit: "count"},
		{name: "aegis.stlb_hits_per_op", value: per(c.stlbHits), unit: "count"},
		{name: "aegis.ash_runs_per_op", value: per(c.ashRuns), unit: "count"},
		{name: "aegis.pkt_delivered_per_op", value: per(c.pktDelivered), unit: "count"},
		{name: "dpf.classify_ns", value: perArg(spDPFClassify), unit: "ns"},
		{name: "dpf.insert_us", value: med(spDPFInsert, 1e3), unit: "us"},
		{name: "dpf.match_ratio", value: ratio(c.matched, c.frames), unit: "fraction",
			base: fmt.Sprintf("%d matched / %d frames", c.matched, c.frames)},
		{name: "sandbox.verify_us", value: med(spSandboxVerify, 1e3), unit: "us"},
		{name: "exos.boot_us", value: med(spExosBoot, 1e3), unit: "us"},
		{name: "exos.prot_trap_ns", value: med(spExosProtTrap, 1), unit: "ns"},
		{name: "exos.stlb_refill_ns", value: med(spExosSTLBRefill, 1), unit: "ns"},
		{name: "exos.lrpc_ns", value: med(spExosLRPC, 1), unit: "ns"},
		{name: "exos.udp_ash_rtt_us", value: med(spExosUDPASH, 1e3), unit: "us"},
		{name: "exos.udp_app_rtt_us", value: med(spExosUDPApp, 1e3), unit: "us"},
		{name: "exos.fs_read_hit_ns", value: med(spExosFSReadHit, 1), unit: "ns"},
		{name: "exos.fs_read_miss_us", value: med(spExosFSReadMiss, 1e3), unit: "us"},
		{name: "exos.cache_hit_ratio", value: ratio(c.cacheHits, lookups), unit: "fraction",
			base: fmt.Sprintf("%d hits / %d lookups", c.cacheHits, lookups)},
		{name: "exos.mount_us", value: med(spExosMount, 1e3), unit: "us"},
		{name: "exos.audit_us", value: med(spExosAudit, 1e3), unit: "us"},
		{name: "exos.fs_write_us", value: med(spExosFSWrite, 1e3), unit: "us"},
		{name: "exos.fs_sync_us", value: med(spExosFSSync, 1e3), unit: "us"},
		{name: "exos.journal_replayed_frac", value: ratio(c.replayed, c.rounds), unit: "fraction",
			base: fmt.Sprintf("%d replays / %d mounts", c.replayed, c.rounds)},
		{name: "exos.journal_rolled_back_frac", value: ratio(c.rolledBack, c.rounds), unit: "fraction",
			base: fmt.Sprintf("%d rollbacks / %d mounts", c.rolledBack, c.rounds)},
		{name: "fault.midio_crash_frac", value: ratio(c.midIO, c.rounds), unit: "fraction",
			base: fmt.Sprintf("%d fired / %d rounds", c.midIO, c.rounds)},
		{name: "host.gc_pause_ms", value: float64(plain.pauseNs) / 1e6, unit: "ms",
			base: fmt.Sprintf("%d collections over the %.1f s wall untraced phase", plain.gcs, plain.wall.Seconds())},
		{name: "host.alloc_bytes_per_op", value: float64(plain.allocBytes) / float64(plain.ops), unit: "B",
			base: fmt.Sprintf("untraced phase, %d ops", plain.ops)},
	}
	for _, o := range workloads {
		self, overhead := layerMetric{name: o.name + ".op_self_us", unit: "us"},
			layerMetric{name: o.name + ".trace_overhead_frac", unit: "fraction"}
		if o.name == w.name {
			if st[spOp] != nil {
				self.value = median(st[spOp].self) / 1e3
			}
			overhead.value = 1 - traced.opsPerSec()/plain.opsPerSec()
			overhead.base = fmt.Sprintf("1 - %.1f traced / %.1f untraced ops_per_s", traced.opsPerSec(), plain.opsPerSec())
		}
		ms = append(ms, self, overhead)
	}
	return ms
}

func printLayerMetrics(w io.Writer, ms []layerMetric) {
	fmt.Fprintln(w, "per-layer metrics:")
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %14.4f %-9s %s\n", m.name, m.value, m.unit, m.base)
	}
}
