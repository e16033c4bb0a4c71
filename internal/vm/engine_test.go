package vm

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"exokernel/internal/asm"
	"exokernel/internal/hw"
	"exokernel/internal/isa"
	"exokernel/internal/prof"
)

// Tests for the two-engine contract: runFast and runRef must be
// indistinguishable in simulated time and in every architectural effect.
// See DESIGN.md "Host speed vs simulated time".

// TestRequestStopFromInterruptHandler is the regression test for the
// collapsed stop check: a RequestStop issued by an interrupt handler must
// stop the engine before the next instruction executes, on both engines.
func TestRequestStopFromInterruptHandler(t *testing.T) {
	for _, slow := range []bool{false, true} {
		m := hw.NewMachine(hw.DEC5000)
		m.SetSlowPath(slow)
		m.CPU.Mode = hw.ModeUser
		code := asm.MustAssemble(`
		loop:
			addiu t0, t0, 1
			j loop
		`)
		in := New(m, FixedCode(code))
		var stepsAtStop uint64
		h := &trapLog{}
		h.fix = func(m *hw.Machine) {
			if m.CPU.Cause != hw.ExcInterrupt {
				t.Fatalf("slow=%v: unexpected trap %v", slow, m.CPU.Cause)
			}
			m.CPU.Pending &^= hw.IRQTimer
			stepsAtStop = in.Steps
			in.RequestStop()
			m.CPU.PC = m.CPU.EPC
			m.CPU.Mode = hw.ModeUser
		}
		m.SetTrapHandler(h)
		m.Timer.Arm(10)
		if r := in.Run(1000); r != StopRequested {
			t.Fatalf("slow=%v: Run = %v, want requested", slow, r)
		}
		if in.Steps != stepsAtStop {
			t.Errorf("slow=%v: %d instruction(s) ran after the handler requested stop",
				slow, in.Steps-stepsAtStop)
		}
		if m.Timer.Fired == 0 {
			t.Errorf("slow=%v: timer never fired", slow)
		}
	}
}

// genProgram builds a random but well-formed program from a seed: every
// opcode the interpreter implements that a user-mode program can reach,
// with branch targets confined to the program and memory operands around
// the mapped test pages. Faults are expected and fine — the harness
// skips them — the property under test is that both engines fault, trap,
// and resume identically.
func genProgram(seed uint64) isa.Code {
	r := seed
	next := func(n uint32) uint32 {
		r = r*6364136223846793005 + 1442695040888963407
		return uint32(r>>33) % n
	}
	ops := []isa.Op{
		isa.NOP, isa.ADD, isa.ADDI, isa.ADDU, isa.ADDIU, isa.SUB, isa.MUL,
		isa.DIV, isa.REM, isa.AND, isa.ANDI, isa.OR, isa.ORI, isa.XOR,
		isa.XORI, isa.NOR, isa.SLT, isa.SLTU, isa.SLTI, isa.LUI, isa.SLL,
		isa.SRL, isa.SRA,
		isa.LW, isa.LH, isa.LHU, isa.LB, isa.LBU, isa.SW, isa.SH, isa.SB,
		isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.BLTZ, isa.BGEZ,
		isa.J, isa.JAL,
		isa.SYSCALL, isa.BREAK, isa.COP1, isa.TLBWR, isa.RFE,
	}
	n := 24 + next(40)
	code := make(isa.Code, 0, n+1)
	reg := func() uint8 { return uint8(8 + next(16)) } // t0..s7, leave zero/ra/sp alone
	for i := uint32(0); i < n; i++ {
		inst := isa.Inst{Op: ops[next(uint32(len(ops)))], Rd: reg(), Rs: reg(), Rt: reg()}
		switch inst.Op {
		case isa.LW, isa.LH, isa.LHU, isa.LB, isa.LBU, isa.SW, isa.SH, isa.SB:
			// Base register t0 is seeded inside the mapped region; small
			// offsets keep most references on the three test pages while
			// still producing misses and alignment faults.
			inst.Rs = hw.RegT0
			inst.Imm = int32(next(3*hw.PageSize)) - hw.PageSize/2
		case isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.BLTZ, isa.BGEZ, isa.J, isa.JAL:
			inst.Imm = int32(next(n + 1)) // branch anywhere in the program
		default:
			inst.Imm = int32(next(1 << 16))
		}
		code = append(code, inst)
	}
	return append(code, isa.Inst{Op: isa.HALT})
}

// engineRun executes a generated program on a fresh machine with the
// given engine and returns every architectural observable.
type engineResult struct {
	stop   StopReason
	steps  uint64
	cycles uint64
	regs   [hw.NumRegs]uint32
	pc     uint32
	pages  [3][]byte
	causes []hw.Exc
	badvas []uint32
	fired  uint64
	// profile is the attached profiler's snapshot rendered as PROF JSON:
	// both engines must drive the hooks identically, byte for byte.
	profile []byte
}

// engineCfg selects an engine variant for engineRun. The zero value is
// the default fast engine with the JIT tier at its normal threshold.
type engineCfg struct {
	name    string
	slow    bool   // EXO_SLOWPATH: reference engine
	nojit   bool   // EXO_NOJIT: fast interpreter only
	hotAt   uint32 // JITThreshold override (1 compiles on first entry)
	quantum uint64 // run in micro-quanta of this many steps (0 = one call)
	noProf  bool   // run without a profiler (exercises the deferred JIT runner)
}

// engineVariants is every engine configuration the equivalence property
// quantifies over. All architectural observables must match across the
// whole set; profiles must match across the profiled subset. The hostile
// variants force deopt at each guard class: quantum=7 trips the step-
// budget guard at nearly every block dispatch, hotAt=1 compiles every
// block so even cold paths run jitted, and the generated programs
// (TLBWR, SYSCALL, BREAK, faults, a short timer) cover the epoch, trap,
// and event-horizon guards.
var engineVariants = []engineCfg{
	{name: "ref", slow: true},
	{name: "fast-nojit", nojit: true},
	{name: "jit-prof", hotAt: 1},
	{name: "jit", hotAt: 1, noProf: true},
	{name: "jit-microbudget", hotAt: 1, quantum: 7, noProf: true},
	{name: "jit-default-threshold", noProf: true},
}

func engineRun(seed uint64, cfg engineCfg) engineResult {
	m := hw.NewMachine(hw.DEC5000)
	m.SetSlowPath(cfg.slow)
	m.SetNoJIT(cfg.nojit)
	h := &trapLog{}
	h.fix = func(m *hw.Machine) {
		if m.CPU.Cause == hw.ExcInterrupt {
			m.CPU.Pending = 0
			m.CPU.PC = m.CPU.EPC
		} else {
			m.CPU.PC = m.CPU.EPC + 1
		}
		m.CPU.Mode = hw.ModeUser
	}
	m.SetTrapHandler(h)
	// Three pages: two writable, one read-only (store faults exercise the
	// Mod path and the store micro-cache's permission recheck).
	m.CPU.ASID = 1
	m.TLB.WriteRandom(hw.TLBEntry{VPN: 8, ASID: 1, PFN: 3, Perms: hw.PermValid | hw.PermWrite})
	m.TLB.WriteRandom(hw.TLBEntry{VPN: 9, ASID: 1, PFN: 4, Perms: hw.PermValid})
	m.TLB.WriteRandom(hw.TLBEntry{VPN: 10, ASID: 1, PFN: 5, Perms: hw.PermValid | hw.PermWrite})
	m.CPU.Mode = hw.ModeUser
	m.CPU.SetReg(hw.RegT0, 8<<hw.PageShift+hw.PageSize/2)
	m.CPU.SetReg(hw.RegT1, uint32(seed))
	m.CPU.SetReg(hw.RegT2, uint32(seed>>32))
	m.Timer.Arm(97) // prime-ish period: interrupts land on varied PCs
	in := New(m, FixedCode(genProgram(seed)))
	in.JITThreshold = cfg.hotAt
	if !cfg.noProf {
		in.Prof = prof.New("quick", nil)
	}

	// Splitting the step budget into micro-quanta is behaviour-identical
	// on every engine — each Run entry re-derives exactly the per-
	// iteration checks — but forces the JIT's budget guard to deopt at
	// nearly every dispatch.
	const budget = 2000
	var res engineResult
	if cfg.quantum == 0 {
		res.stop = in.Run(budget)
	} else {
		for left := uint64(budget); ; {
			q := cfg.quantum
			if q > left {
				q = left
			}
			before := in.Steps
			res.stop = in.Run(q)
			left -= in.Steps - before
			if res.stop != StopSteps || left == 0 {
				break
			}
		}
	}
	if in.Prof != nil {
		var pbuf bytes.Buffer
		snap := in.Prof.Snapshot()
		if err := prof.Collect("quick", nil, []prof.Profile{snap}, 0).Write(&pbuf); err != nil {
			panic(err)
		}
		res.profile = pbuf.Bytes()
	}
	res.steps = in.Steps
	res.cycles = m.Clock.Cycles()
	res.regs = m.CPU.Regs
	res.pc = m.CPU.PC
	for i, f := range []uint32{3, 4, 5} {
		res.pages[i] = append([]byte(nil), m.Phys.Page(f)...)
	}
	res.causes = h.causes
	res.badvas = h.badvas
	res.fired = m.Timer.Fired
	return res
}

// checkEquivalence runs one seed under every engine variant and reports
// the first divergence from the reference run. Architectural observables
// must match everywhere; PROF bytes must match across the profiled
// variants.
func checkEquivalence(t *testing.T, seed uint64) bool {
	t.Helper()
	ref := engineRun(seed, engineVariants[0])
	ok := true
	for _, cfg := range engineVariants[1:] {
		got := engineRun(seed, cfg)
		if got.stop != ref.stop || got.steps != ref.steps ||
			got.cycles != ref.cycles || got.pc != ref.pc ||
			got.regs != ref.regs || got.fired != ref.fired {
			t.Logf("seed %d: %s {stop %v steps %d cycles %d pc %d} ref {stop %v steps %d cycles %d pc %d}",
				seed, cfg.name, got.stop, got.steps, got.cycles, got.pc,
				ref.stop, ref.steps, ref.cycles, ref.pc)
			ok = false
			continue
		}
		if len(got.causes) != len(ref.causes) {
			t.Logf("seed %d: %s: trap counts %d, ref %d", seed, cfg.name, len(got.causes), len(ref.causes))
			ok = false
			continue
		}
		for i := range got.causes {
			if got.causes[i] != ref.causes[i] || got.badvas[i] != ref.badvas[i] {
				t.Logf("seed %d: %s: trap %d: %v@%#x, ref %v@%#x", seed, cfg.name, i,
					got.causes[i], got.badvas[i], ref.causes[i], ref.badvas[i])
				ok = false
			}
		}
		for p := range got.pages {
			if !bytes.Equal(got.pages[p], ref.pages[p]) {
				t.Logf("seed %d: %s: memory diverged on page %d", seed, cfg.name, p)
				ok = false
			}
		}
		if got.profile != nil && !bytes.Equal(got.profile, ref.profile) {
			t.Logf("seed %d: %s: profiles diverged:\n%s:\n%s\nref:\n%s",
				seed, cfg.name, cfg.name, got.profile, ref.profile)
			ok = false
		}
	}
	return ok
}

// TestQuickEngineEquivalence is the property-test half of the invariance
// contract: for random programs, every engine variant — reference, fast
// interpreter, and the JIT tier under each forced-deopt regime — finishes
// with identical registers, memory image, simulated clock, trap log, and
// (where profiled) PROF bytes.
func TestQuickEngineEquivalence(t *testing.T) {
	f := func(seed uint64) bool { return checkEquivalence(t, seed) }
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// FuzzEngineEquivalence is the same property under the coverage-guided
// fuzzer: `go test -fuzz FuzzEngineEquivalence ./internal/vm` explores
// program seeds the LCG sweep above never reaches. The seed corpus pins a
// few regimes permanently (dense loops, trap storms, the zero seed).
func FuzzEngineEquivalence(f *testing.F) {
	for _, seed := range []uint64{0, 1, 2, 42, 97, 1 << 33, ^uint64(0)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if !checkEquivalence(t, seed) {
			t.Errorf("seed %d: engines diverged", seed)
		}
	})
}

// stalePageRun runs a hot loop that loads from and stores to one page
// while the "kernel" (the trap handler, entered by syscall every 16
// iterations) first frees the page's frame, reallocates it, and writes a
// new value, then reboots the machine and rewrites the same mapping and a
// third value. The TLB mapping is identical each time, so only the
// physical-memory generation tells a compiled trace that its cached page
// pointer is stale.
func stalePageRun(t *testing.T, nojit, slow bool) engineResult {
	t.Helper()
	const vpn, pfn = 8, 3
	m := hw.NewMachine(hw.DEC5000)
	m.SetNoJIT(nojit)
	m.SetSlowPath(slow)
	mapPage := func() {
		m.CPU.ASID = 1
		m.TLB.WriteRandom(hw.TLBEntry{VPN: vpn, ASID: 1, PFN: pfn, Perms: hw.PermValid | hw.PermWrite})
	}
	code := asm.MustAssemble(`
	loop:
		lw    t1, 0(t0)
		addu  t2, t2, t1
		sw    t2, 8(t0)
		addiu t3, t3, 1
		andi  t4, t3, 15
		bne   t4, zero, loop
		syscall
		j     loop
	`)
	in := New(m, FixedCode(code))
	in.JITThreshold = 1
	h := &trapLog{}
	syscalls := 0
	h.fix = func(m *hw.Machine) {
		if m.CPU.Cause != hw.ExcSyscall {
			t.Fatalf("unexpected trap %v at pc %d", m.CPU.Cause, m.CPU.EPC)
		}
		syscalls++
		switch syscalls {
		case 1:
			if err := m.Phys.FreeFrame(pfn); err != nil {
				t.Fatal(err)
			}
			if f, ok := m.Phys.AllocFrame(); !ok || f != pfn {
				t.Fatalf("AllocFrame = %d, %v; want the freed frame %d", f, ok, pfn)
			}
			m.Phys.WriteWord(pfn<<hw.PageShift, 1000)
		case 2:
			regs, epc := m.CPU.Regs, m.CPU.EPC
			m.Reboot()
			m.SetTrapHandler(h)
			if !m.Phys.AllocFrameAt(pfn) {
				t.Fatal("AllocFrameAt after reboot failed")
			}
			mapPage()
			m.Phys.WriteWord(pfn<<hw.PageShift, 2000)
			m.CPU.Regs, m.CPU.EPC = regs, epc
		default:
			in.RequestStop()
		}
		m.CPU.PC = m.CPU.EPC + 1
		m.CPU.Mode = hw.ModeUser
	}
	m.SetTrapHandler(h)
	if f, ok := m.Phys.AllocFrame(); !ok || f != 0 {
		t.Fatalf("first AllocFrame = %d, %v", f, ok)
	}
	if !m.Phys.AllocFrameAt(pfn) {
		t.Fatal("AllocFrameAt failed")
	}
	mapPage()
	m.Phys.WriteWord(pfn<<hw.PageShift, 7)
	m.CPU.Mode = hw.ModeUser
	m.CPU.SetReg(hw.RegT0, vpn<<hw.PageShift)
	if r := in.Run(10000); r != StopRequested {
		t.Fatalf("Run = %v, want requested", r)
	}
	if !nojit && !slow && !jitCompiledAny(in) {
		t.Fatal("the JIT compiled nothing; the test exercises no trace")
	}
	return engineResult{
		steps:  in.Steps,
		cycles: m.Clock.Cycles(),
		regs:   m.CPU.Regs,
		pc:     m.CPU.PC,
		pages:  [3][]byte{append([]byte(nil), m.Phys.Page(pfn)...)},
	}
}

// jitCompiledAny reports whether the current segment has a compiled block.
func jitCompiledAny(in *Interp) bool {
	for _, b := range in.jitSeg.blocks {
		if b != nil {
			return true
		}
	}
	return false
}

// TestJITSeesFreedAndRebootedFrames: a compiled trace must observe a
// frame freed and rewritten under an unchanged TLB mapping, and a machine
// reboot, exactly as the interpreters do — same registers, memory,
// clock, and step count on the JIT, the fast interpreter, and the
// reference engine.
func TestJITSeesFreedAndRebootedFrames(t *testing.T) {
	jit := stalePageRun(t, false, false)
	// 16 iterations each of 7, 1000, then 2000 summed into t2 and stored.
	const want = 16*7 + 16*1000 + 16*2000
	if got := jit.regs[hw.RegT2]; got != want {
		t.Fatalf("t2 = %d, want %d: a trace read a dropped page", got, want)
	}
	if got := binary.LittleEndian.Uint32(jit.pages[0][8:]); got != want {
		t.Fatalf("stored word = %d, want %d: a trace wrote a dropped page", got, want)
	}
	for _, v := range []struct {
		name        string
		nojit, slow bool
	}{{"nojit", true, false}, {"slowpath", false, true}} {
		got := stalePageRun(t, v.nojit, v.slow)
		if got.regs != jit.regs || got.steps != jit.steps || got.cycles != jit.cycles ||
			got.pc != jit.pc || !bytes.Equal(got.pages[0], jit.pages[0]) {
			t.Errorf("%s: {steps %d cycles %d pc %d t2 %d} differs from jit {steps %d cycles %d pc %d t2 %d}",
				v.name, got.steps, got.cycles, got.pc, got.regs[hw.RegT2],
				jit.steps, jit.cycles, jit.pc, jit.regs[hw.RegT2])
		}
	}
}
