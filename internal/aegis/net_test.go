package aegis

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"exokernel/internal/asm"
	"exokernel/internal/cap"
	"exokernel/internal/hw"
	"exokernel/internal/isa"
)

// byteFilter accepts frames whose first byte matches.
type byteFilter byte

func (f byteFilter) Match(frame []byte) (bool, uint64) {
	return len(frame) > 0 && frame[0] == byte(f), 2
}

func TestFilterDemuxAndQueue(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	b, _ := k.NewEnv(nil)
	epA, err := k.InstallFilter(a, byteFilter(1))
	if err != nil {
		t.Fatal(err)
	}
	epB, err := k.InstallFilter(b, byteFilter(2))
	if err != nil {
		t.Fatal(err)
	}
	m.NIC.Deliver(hw.Packet{Data: []byte{1, 10}})
	m.NIC.Deliver(hw.Packet{Data: []byte{2, 20}})
	m.NIC.Deliver(hw.Packet{Data: []byte{9, 90}}) // matches nobody
	if len(epA.Queue) != 1 || epA.Queue[0][1] != 10 {
		t.Errorf("epA queue = %v", epA.Queue)
	}
	if len(epB.Queue) != 1 || epB.Queue[0][1] != 20 {
		t.Errorf("epB queue = %v", epB.Queue)
	}
	if k.Stats.PktDropped != 1 {
		t.Errorf("dropped = %d", k.Stats.PktDropped)
	}
	if epA.Delivered != 1 || epB.Delivered != 1 {
		t.Error("delivery counters wrong")
	}
}

func TestDeliverHook(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	ep, _ := k.InstallFilter(a, byteFilter(5))
	var got []byte
	ep.Deliver = func(k *Kernel, frame []byte) { got = append([]byte(nil), frame...) }
	m.NIC.Deliver(hw.Packet{Data: []byte{5, 55}})
	if len(got) != 2 || got[1] != 55 {
		t.Errorf("deliver hook got %v", got)
	}
	if len(ep.Queue) != 0 {
		t.Error("frame queued despite hook")
	}
}

func TestSharedDemuxOverridesLinearWalk(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	epWrong, _ := k.InstallFilter(a, byteFilter(1))
	epRight, _ := k.InstallFilter(a, byteFilter(1)) // same predicate, later in line
	k.SetDemux(func(frame []byte) (*Endpoint, uint64, bool) {
		return epRight, 3, true
	})
	m.NIC.Deliver(hw.Packet{Data: []byte{1}})
	if epRight.Delivered != 1 || epWrong.Delivered != 0 {
		t.Error("shared demux not consulted")
	}
	k.SetDemux(nil)
	m.NIC.Deliver(hw.Packet{Data: []byte{1}})
	if epWrong.Delivered != 1 {
		t.Error("linear walk not restored")
	}
}

func TestRemoveEndpoint(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	ep, _ := k.InstallFilter(a, byteFilter(1))
	k.RemoveEndpoint(ep)
	m.NIC.Deliver(hw.Packet{Data: []byte{1}})
	if ep.Delivered != 0 {
		t.Error("removed endpoint still receives")
	}
	if k.Stats.PktDropped != 1 {
		t.Error("frame not dropped after removal")
	}
}

func TestInstallFilterRejectsDeadEnv(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	k.NewEnv(nil)
	k.Kill(a, TrapInfo{})
	if _, err := k.InstallFilter(a, byteFilter(1)); err == nil {
		t.Error("filter installed for dead env")
	}
}

func TestASHInstallVerification(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	ep, _ := k.InstallFilter(a, byteFilter(1))
	frame, guard, _ := k.AllocPage(a, AnyFrame)

	// Looping code is rejected at download time.
	loop := asm.MustAssemble("loop:\n j loop\n")
	if _, err := k.InstallASH(ep, loop, frame, guard); err == nil {
		t.Error("looping ASH accepted")
	}
	// Privileged code is rejected.
	priv := isa.Code{{Op: isa.TLBWR}, {Op: isa.HALT}}
	if _, err := k.InstallASH(ep, priv, frame, guard); err == nil {
		t.Error("privileged ASH accepted")
	}
	// A forged sandbox capability is rejected.
	ok := asm.MustAssemble("pktlen t0\nhalt\n")
	forged := cap.Capability{Resource: uint64(frame), Rights: cap.Write}
	if _, err := k.InstallASH(ep, ok, frame, forged); err == nil {
		t.Error("forged sandbox capability accepted")
	}
	// Unallocated sandbox frame is rejected.
	if _, err := k.InstallASH(ep, ok, 9999, guard); err == nil {
		t.Error("bad sandbox frame accepted")
	}
	// And the good case.
	ash, err := k.InstallASH(ep, ok, frame, guard)
	if err != nil {
		t.Fatal(err)
	}
	if ash.Budget != 2 {
		t.Errorf("budget = %d", ash.Budget)
	}
}

func TestASHRunsInInterruptContextAndReplies(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	ep, _ := k.InstallFilter(a, byteFilter(7))
	frame, guard, _ := k.AllocPage(a, AnyFrame)
	// Echo ASH: copy first word, transmit 4 bytes.
	code := asm.MustAssemble(`
		pktlw t0, 0(zero)
		sw    t0, 0(zero)
		addiu t1, zero, 4
		xmit  zero, t1
		halt
	`)
	if _, err := k.InstallASH(ep, code, frame, guard); err != nil {
		t.Fatal(err)
	}
	var sent []hw.Packet
	m.NIC.ConnectTx(func(p hw.Packet) { sent = append(sent, p) })

	// Preserve the interrupted computation's registers.
	m.CPU.SetReg(hw.RegT0, 0xAAAA)
	pcBefore := m.CPU.PC
	m.NIC.Deliver(hw.Packet{Data: []byte{7, 1, 2, 3}})

	if len(sent) != 1 {
		t.Fatalf("ASH sent %d frames", len(sent))
	}
	if sent[0].Data[0] != 7 || sent[0].Data[3] != 3 {
		t.Errorf("echo payload = %v", sent[0].Data)
	}
	if m.CPU.Reg(hw.RegT0) != 0xAAAA || m.CPU.PC != pcBefore {
		t.Error("ASH execution clobbered the interrupted context")
	}
	if k.Stats.ASHRuns != 1 {
		t.Errorf("ASHRuns = %d", k.Stats.ASHRuns)
	}
	// The sandbox page belongs to the application: the ASH's store is
	// visible there (direct, dynamic message vectoring).
	if got := m.Phys.ReadWord(frame << hw.PageShift); got != 0x03020107 {
		t.Errorf("sandbox word = %#x", got)
	}
}

func TestRevocationVisiblePhase(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	frame, guard, _ := k.AllocPage(a, AnyFrame)
	released := false
	a.NativeRevoke = func(k *Kernel, f uint32) bool {
		released = true
		return k.DeallocPage(f, guard) == nil
	}
	out, err := k.RevokePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != RevokeComplied || !released {
		t.Errorf("outcome = %v, released = %v", out, released)
	}
	if len(a.Repossessed) != 0 {
		t.Error("compliant revocation filled the repossession vector")
	}
	if k.Stats.Aborts != 0 {
		t.Error("abort counted despite compliance")
	}
}

func TestRevocationAbortProtocol(t *testing.T) {
	m, k := boot(t)
	a, _ := k.NewEnv(nil)
	frame, guard, _ := k.AllocPage(a, AnyFrame)
	const va = 0x5000_0000
	if err := k.InstallMapping(a, va, frame, hw.PermWrite, guard); err != nil {
		t.Fatal(err)
	}
	// The library OS refuses to cooperate.
	a.NativeRevoke = func(k *Kernel, f uint32) bool { return false }
	out, err := k.RevokePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != RevokeAborted {
		t.Errorf("outcome = %v", out)
	}
	if len(a.Repossessed) != 1 || a.Repossessed[0] != frame {
		t.Errorf("repossession vector = %v", a.Repossessed)
	}
	// All secure bindings are broken: the old mapping is gone.
	m.CPU.ASID = a.ASID
	if _, exc := m.Translate(va, false); exc == hw.ExcNone {
		t.Error("abort left a live translation")
	}
	// The frame is reusable.
	if f2, _, err := k.AllocPage(a, frame); err != nil || f2 != frame {
		t.Errorf("frame not reusable after abort: %v", err)
	}
	if out, _ := k.RevokePage(9999); out != RevokeNoOwner {
		t.Error("revoking unallocated frame misreported")
	}
}

func TestRevocationWithoutHandlerAborts(t *testing.T) {
	_, k := boot(t)
	a, _ := k.NewEnv(nil)
	frame, _, _ := k.AllocPage(a, AnyFrame)
	out, err := k.RevokePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != RevokeAborted {
		t.Errorf("outcome = %v", out)
	}
	if len(a.Repossessed) != 1 {
		t.Error("loss not recorded")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []RevokeOutcome{RevokeComplied, RevokeAborted, RevokeNoOwner} {
		if o.String() == "revoke?" {
			t.Errorf("outcome %d unnamed", o)
		}
	}
}

// ashWorld boots a kernel with one running environment that owns two
// endpoints, each with its own verified handler and sandbox page:
// handler A echoes the message's first word; handler B keeps a running
// sum of bytes 1 and 2 in its sandbox and transmits it.
func ashWorld(t *testing.T, tier func(*hw.Machine)) (*hw.Machine, *Kernel, [2]uint32, *[]hw.Packet) {
	t.Helper()
	m := hw.NewMachine(hw.DEC5000)
	tier(m)
	k := New(m)
	e, err := k.NewEnv(nil)
	if err != nil {
		t.Fatal(err)
	}
	handlers := [2]string{`
		pktlw t0, 0(zero)
		sw    t0, 0(zero)
		addiu t1, zero, 4
		xmit  zero, t1
		halt
	`, `
		pktlb t0, 1(zero)
		pktlb t1, 2(zero)
		addu  t2, t0, t1
		lw    t3, 8(zero)
		addu  t3, t3, t2
		sw    t3, 8(zero)
		sw    t3, 0(zero)
		addiu t4, zero, 4
		xmit  zero, t4
		halt
	`}
	var sandboxes [2]uint32
	for i, src := range handlers {
		ep, err := k.InstallFilter(e, byteFilter(i+1))
		if err != nil {
			t.Fatal(err)
		}
		frame, guard, err := k.AllocPage(e, AnyFrame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.InstallASH(ep, asm.MustAssemble(src), frame, guard); err != nil {
			t.Fatal(err)
		}
		sandboxes[i] = frame
	}
	sent := new([]hw.Packet)
	m.NIC.ConnectTx(func(p hw.Packet) { *sent = append(*sent, p) })
	return m, k, sandboxes, sent
}

// The kernel runs every handler on one reused interpreter and message
// context. Alternating two handlers must give each its own code, sandbox
// and message on every dispatch, restore the interrupted environment's
// processor state each time, and produce the same replies, memory, clock
// and counters in every execution engine.
func TestASHReuseAlternatingHandlers(t *testing.T) {
	type outcome struct {
		replies   [][]byte
		sandboxes [2][]byte
		cycles    uint64
		stats     Stats
		acct      EnvAccount
	}
	run := func(t *testing.T, tier func(*hw.Machine)) outcome {
		m, k, sandboxes, sent := ashWorld(t, tier)
		cpu := &m.CPU
		for i := range cpu.Regs {
			cpu.SetReg(uint8(i), 0x1000+uint32(i))
		}
		cpu.PC, cpu.Mode, cpu.IntrOn = 5, hw.ModeUser, true
		regs := cpu.Regs
		for i := 0; i < 12; i++ {
			k.deliver([]byte{byte(i%2 + 1), byte(3 * i), byte(i + 40), byte(i)})
			if cpu.Regs != regs || cpu.PC != 5 || cpu.Mode != hw.ModeUser || !cpu.IntrOn {
				t.Fatalf("dispatch %d left regs=%v pc=%d mode=%v intr=%v", i, cpu.Regs, cpu.PC, cpu.Mode, cpu.IntrOn)
			}
		}
		if len(*sent) != 12 {
			t.Fatalf("handlers sent %d replies, want 12", len(*sent))
		}
		if k.Stats.ASHRuns != 12 {
			t.Fatalf("ASHRuns = %d, want 12", k.Stats.ASHRuns)
		}
		var o outcome
		for _, p := range *sent {
			o.replies = append(o.replies, p.Data)
		}
		for i, f := range sandboxes {
			o.sandboxes[i] = append([]byte(nil), m.Phys.Page(f)...)
		}
		o.cycles = m.Clock.Cycles()
		o.stats = k.GlobalStats()
		o.acct = k.Account(1)
		return o
	}
	want := run(t, func(*hw.Machine) {})
	// Handler A echoes message 10's first word; handler B's running sum
	// after messages 1, 3, ..., 11 is Σ(3i + i + 40) over those i.
	if got := want.replies[10]; !bytes.Equal(got, []byte{1, 30, 50, 10}) {
		t.Errorf("handler A reply = %v", got)
	}
	if got := binary.LittleEndian.Uint32(want.sandboxes[1][8:]); got != 4*36+6*40 {
		t.Errorf("handler B sum = %d, want %d", got, 4*36+6*40)
	}
	for _, tier := range []struct {
		name string
		set  func(*hw.Machine)
	}{
		{"nojit", func(m *hw.Machine) { m.SetNoJIT(true) }},
		{"slowpath", func(m *hw.Machine) { m.SetSlowPath(true) }},
	} {
		t.Run(tier.name, func(t *testing.T) {
			if got := run(t, tier.set); !reflect.DeepEqual(got, want) {
				t.Errorf("%s engine differs from the default:\n got %+v\nwant %+v", tier.name, got, want)
			}
		})
	}
}

// Handlers run with interrupts off, so one dispatch never begins inside
// another. The shared runner enforces that rather than trusting it: a
// handler whose transmit re-enters the kernel's delivery path panics
// instead of clobbering the running handler's context.
func TestASHNestedDispatchPanics(t *testing.T) {
	m, k, _, _ := ashWorld(t, func(*hw.Machine) {})
	m.NIC.ConnectTx(func(p hw.Packet) { k.deliver([]byte{2, 0, 0, 0}) })
	defer func() {
		if recover() == nil {
			t.Error("nested ASH dispatch did not panic")
		}
	}()
	k.deliver([]byte{1, 0, 0, 0})
}
