package hw

import "os"

// TrapHandler is implemented by a kernel (Aegis, or the monolithic
// baseline). The machine calls it whenever an exception or interrupt is
// raised; the CPU's Cause/EPC/BadVAddr registers describe the event.
type TrapHandler interface {
	HandleTrap(m *Machine)
}

// microTLB is a last-translation cache in front of the hardware TLB: a
// pure memo of TLB.Lookup results under a TLB epoch. It keeps the two
// most recent translations, MRU first — one entry thrashes on the
// commonest hot loop of all, alternating loads from two arrays on
// different pages (matmul's A and B). Permission checks are NOT
// memoized — Translate re-runs them on every reference against the
// cached entry, so a mode switch needs no explicit invalidation; a TLB
// mutation invalidates via the epoch, and an ASID change simply misses
// the tag. Host-side state only: it never charges cycles and holds
// nothing the TLB does not.
type microTLB struct {
	way [2]microWay
}

// microWay is one cached translation with its validity tag.
type microWay struct {
	valid bool
	asid  uint8
	vpn   uint32
	epoch uint64
	entry TLBEntry
}

// lookup returns the memoized entry for (vpn, asid) if one is cached
// under the given TLB epoch, promoting a second-way hit to MRU.
func (mc *microTLB) lookup(vpn uint32, asid uint8, epoch uint64) (TLBEntry, bool) {
	w := &mc.way[0]
	if w.valid && w.vpn == vpn && w.asid == asid && w.epoch == epoch {
		return w.entry, true
	}
	w = &mc.way[1]
	if w.valid && w.vpn == vpn && w.asid == asid && w.epoch == epoch {
		hit := *w
		mc.way[1] = mc.way[0]
		mc.way[0] = hit
		return hit.entry, true
	}
	return TLBEntry{}, false
}

// fill records a fresh Lookup result as the MRU translation.
func (mc *microTLB) fill(vpn uint32, asid uint8, epoch uint64, e TLBEntry) {
	mc.way[1] = mc.way[0]
	mc.way[0] = microWay{valid: true, asid: asid, vpn: vpn, epoch: epoch, entry: e}
}

// Machine is one simulated computer: CPU, clock, physical memory, hardware
// TLB, and devices. A kernel installs itself as the trap handler; library
// operating systems and applications only ever touch the machine through
// the kernel's exported interface.
type Machine struct {
	Config Config
	Clock  *Clock
	Phys   *PhysMem
	TLB    *TLB
	CPU    CPU
	Timer  *Timer
	NIC    *NIC
	FB     *FrameBuffer
	Disk   *Disk

	handler TrapHandler

	// Host-speed fast path (see DESIGN.md "Host speed vs simulated
	// time"): split load/store last-translation caches — the analogue of
	// an iTLB/dTLB pair for a machine whose instruction fetch does not
	// translate — and the switch forcing the reference paths.
	mcLoad  microTLB
	mcStore microTLB
	slow    bool
	nojit   bool
}

// NewMachine builds a machine from a configuration.
func NewMachine(cfg Config) *Machine {
	clock := &Clock{}
	m := &Machine{
		Config: cfg,
		Clock:  clock,
		Phys:   NewPhysMem(clock, cfg.MemPages, cfg.MissRate),
		TLB:    NewTLB(clock, cfg.TLBSize),
	}
	m.Timer = NewTimer(m)
	m.NIC = NewNIC(m)
	m.FB = NewFrameBuffer(64)
	m.Disk = NewDisk(clock, cfg.DiskBlocks)
	m.CPU.Mode = ModeKernel
	m.CPU.IntrOn = true
	m.SetSlowPath(os.Getenv("EXO_SLOWPATH") == "1")
	m.SetNoJIT(os.Getenv("EXO_NOJIT") == "1")
	return m
}

// Reboot models a whole-machine power cycle after a crash. Two things
// survive: the clock (simulated time does not rewind because a machine
// died) and the disk's stable image (power is restored via
// Disk.PowerOn; the volatile write cache was already resolved by
// Disk.Crash). Everything else returns to its power-on state — every
// physical frame reading zero again, fresh TLB/timer/NIC/frame buffer,
// CPU in kernel mode with interrupts on, no trap handler. A fresh kernel
// must install itself exactly as at first boot, and any external NIC
// wiring (ether segment attachment) must be re-established by the
// harness.
func (m *Machine) Reboot() {
	m.Phys.Reset()
	m.TLB = NewTLB(m.Clock, m.Config.TLBSize)
	m.TLB.slow = m.slow
	m.Timer = NewTimer(m)
	m.NIC = NewNIC(m)
	m.FB = NewFrameBuffer(64)
	m.Disk.PowerOn()
	m.CPU = CPU{Mode: ModeKernel, IntrOn: true}
	m.handler = nil
	m.mcLoad = microTLB{}
	m.mcStore = microTLB{}
}

// SetTrapHandler installs the kernel.
func (m *Machine) SetTrapHandler(h TrapHandler) { m.handler = h }

// SlowPath reports whether the host-side fast paths are disabled.
func (m *Machine) SlowPath() bool { return m.slow }

// SetSlowPath forces (on=true) or re-enables (on=false) the reference
// execution paths: linear TLB probe, no translation micro-cache, and the
// unconditional per-step interrupt polling in vm.Interp.Run. The two
// settings are cycle-identical by contract; the switch exists so the
// invariance tests can prove it. Micro-caches are dropped on every
// transition.
func (m *Machine) SetSlowPath(on bool) {
	m.slow = on
	m.TLB.slow = on
	m.mcLoad = microTLB{}
	m.mcStore = microTLB{}
}

// NoJIT reports whether the trace-JIT execution tier is disabled on this
// machine (EXO_NOJIT=1, or SetNoJIT). The slow path disables it too —
// runRef never compiles — so EXO_SLOWPATH=1 subsumes EXO_NOJIT=1.
func (m *Machine) NoJIT() bool { return m.nojit }

// SetNoJIT forces (on=true) or re-enables (on=false) the interpreter-only
// fast engine: vm.Interp consults the flag at every Run entry, so a change
// takes effect at the next quantum. Like EXO_SLOWPATH, the setting is
// invisible in simulated time by contract; the invariance tests prove it.
func (m *Machine) SetNoJIT(on bool) { m.nojit = on }

// Micros converts cycles elapsed on this machine's clock to microseconds.
func (m *Machine) Micros(cycles uint64) float64 { return m.Config.Micros(cycles) }

// RaiseException records an exception in the CPU report registers, charges
// the hardware exception-entry cost, switches to kernel mode, and invokes
// the kernel. The kernel decides where execution continues by rewriting the
// CPU state before returning.
func (m *Machine) RaiseException(cause Exc, epc, badva uint32) {
	m.Clock.Tick(CostExcEntry)
	m.CPU.Cause = cause
	m.CPU.EPC = epc
	m.CPU.BadVAddr = badva
	m.CPU.Mode = ModeKernel
	if m.handler != nil {
		m.handler.HandleTrap(m)
	}
}

// PollInterrupts raises a pending interrupt if any line is asserted and
// interrupts are enabled. The VM calls this between instructions; native
// (Go-modelled) code paths call it at their loop boundaries.
func (m *Machine) PollInterrupts() {
	if !m.CPU.IntrOn || m.CPU.Pending == 0 {
		return
	}
	m.RaiseException(ExcInterrupt, m.CPU.PC, 0)
}

// Translate performs the MMU fast path for a data reference: virtual page
// lookup in the hardware TLB under the current ASID. On a hit it returns
// the physical address; on a miss or permission failure it returns the
// exception the hardware would raise. Alignment is the caller's problem
// (the VM checks it per access width).
//
// The split load/store micro-caches memoize only the TLB.Lookup result;
// the kernel-page and write-permission checks below run on every
// reference, so the outcome is identical to an uncached lookup for any
// CPU mode and any access kind.
func (m *Machine) Translate(va uint32, write bool) (uint32, Exc) {
	vpn := va >> PageShift
	var e TLBEntry
	if m.slow {
		var ok bool
		e, ok = m.TLB.Lookup(vpn, m.CPU.ASID)
		if !ok {
			return 0, missExc(write)
		}
	} else {
		mc := &m.mcLoad
		if write {
			mc = &m.mcStore
		}
		var hit bool
		e, hit = mc.lookup(vpn, m.CPU.ASID, m.TLB.epoch)
		if !hit {
			var ok bool
			e, ok = m.TLB.Lookup(vpn, m.CPU.ASID)
			if !ok {
				return 0, missExc(write)
			}
			mc.fill(vpn, m.CPU.ASID, m.TLB.epoch, e)
		}
	}
	return m.EntryTranslate(e, va, write)
}

// EntryTranslate applies the per-reference MMU checks to a memoized TLB
// entry and composes the physical address: the tail of Translate, split
// out for callers that cache TLB.Lookup results themselves under the TLB
// epoch (the vm trace-JIT tier keeps one such cache per compiled memory
// site). Permission checks run on every reference — never memoize them —
// so a cached entry behaves identically to a fresh lookup under any CPU
// mode and access kind.
func (m *Machine) EntryTranslate(e TLBEntry, va uint32, write bool) (uint32, Exc) {
	if e.Perms&PermKernel != 0 && m.CPU.Mode != ModeKernel {
		return 0, missExc(write)
	}
	if write && e.Perms&PermWrite == 0 {
		return 0, ExcTLBMod
	}
	return e.PFN<<PageShift | va&(PageSize-1), Exc(ExcNone)
}

// missExc is the exception a TLB miss raises for the access kind.
func missExc(write bool) Exc {
	if write {
		return ExcTLBMissS
	}
	return ExcTLBMissL
}

// TimerDue reports whether the interval timer's deadline has passed —
// exactly the condition under which Timer.Check fires. The execution
// cores use it to skip the Check call entirely while the clock is short
// of the deadline.
func (m *Machine) TimerDue() bool {
	return m.Timer.armed && m.Clock.Cycles() >= m.Timer.deadline
}

// EventHorizon returns the earliest cycle at which an asynchronous event
// can require service: the current cycle if an interrupt is already
// deliverable, the timer deadline if armed, and "never" (^uint64(0))
// otherwise. Any clock-advancing operation — a device delivery, a timer
// re-arm inside a trap handler — can shrink the horizon, so callers must
// re-derive it after every instruction rather than cache it across them.
func (m *Machine) EventHorizon() uint64 {
	if m.CPU.IntrOn && m.CPU.Pending != 0 {
		return m.Clock.Cycles()
	}
	if m.Timer.armed {
		return m.Timer.deadline
	}
	return ^uint64(0)
}
