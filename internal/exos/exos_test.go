package exos

import (
	"testing"
	"testing/quick"

	"exokernel/internal/aegis"
	"exokernel/internal/hw"
)

func boot2(t *testing.T) (*hw.Machine, *aegis.Kernel, *LibOS) {
	t.Helper()
	m := hw.NewMachine(hw.DEC5000)
	k := aegis.New(m)
	os, err := Boot(k)
	if err != nil {
		t.Fatal(err)
	}
	return m, k, os
}

func TestMapTouchLazyFault(t *testing.T) {
	_, k, os := boot2(t)
	const va = 0x1000_0000
	if _, err := os.AllocAndMap(va); err != nil {
		t.Fatal(err)
	}
	if k.Stats.TLBUpcalls != 0 {
		t.Fatal("mapping was not lazy")
	}
	if err := os.Touch(va); err != nil {
		t.Fatal(err)
	}
	if k.Stats.TLBUpcalls != 1 {
		t.Errorf("TLBUpcalls = %d, want 1 (first touch)", k.Stats.TLBUpcalls)
	}
	if err := os.Touch(va); err != nil {
		t.Fatal(err)
	}
	if k.Stats.TLBUpcalls != 1 {
		t.Error("second touch took an upcall; binding should be cached")
	}
}

func TestUnalignedMapRejected(t *testing.T) {
	_, _, os := boot2(t)
	frame, guard, err := os.K.AllocPage(os.Env, aegis.AnyFrame)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Map(0x1000_0004, frame, guard, true); err == nil {
		t.Error("unaligned map accepted")
	}
}

func TestDirtyTracking(t *testing.T) {
	_, _, os := boot2(t)
	const va = 0x1000_0000
	if _, err := os.AllocAndMap(va); err != nil {
		t.Fatal(err)
	}
	if os.IsDirty(va) {
		t.Error("fresh page dirty")
	}
	if err := os.Touch(va); err != nil { // read does not dirty
		t.Fatal(err)
	}
	if os.IsDirty(va) {
		t.Error("read marked the page dirty")
	}
	if err := os.TouchWrite(va); err != nil {
		t.Fatal(err)
	}
	if !os.IsDirty(va) {
		t.Error("write did not mark the page dirty")
	}
	if os.IsDirty(0x7777_0000) {
		t.Error("unmapped page reported dirty")
	}
}

func TestProtectFaultUnprotect(t *testing.T) {
	_, k, os := boot2(t)
	const va = 0x1000_0000
	if _, err := os.AllocAndMap(va); err != nil {
		t.Fatal(err)
	}
	if err := os.TouchWrite(va); err != nil {
		t.Fatal(err)
	}
	if err := os.Protect(va); err != nil {
		t.Fatal(err)
	}
	// Reads still work on a write-protected page.
	if err := os.Touch(va); err != nil {
		t.Fatalf("read of protected page failed: %v", err)
	}
	faults := 0
	os.OnFault = func(o *LibOS, fva uint32, write bool) bool {
		faults++
		if !write || fva&^(hw.PageSize-1) != va {
			t.Errorf("fault va=%#x write=%v", fva, write)
		}
		return o.Unprotect(va) == nil
	}
	if err := os.TouchWrite(va); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Errorf("faults = %d", faults)
	}
	if os.Faults != 1 {
		t.Errorf("os.Faults = %d", os.Faults)
	}
	// Now writable without faulting.
	if err := os.TouchWrite(va); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Error("extra fault after unprotect")
	}
	if err := os.Protect(0x9999_0000); err == nil {
		t.Error("protect of unmapped page accepted")
	}
	if err := os.Unprotect(0x9999_0000); err == nil {
		t.Error("unprotect of unmapped page accepted")
	}
	_ = k
}

func TestUnhandledFaultKills(t *testing.T) {
	_, _, os := boot2(t)
	if err := os.Touch(0x4444_0000); err == nil {
		t.Fatal("unmapped touch succeeded")
	}
	if !os.Env.Dead {
		t.Error("env survived unhandled fault")
	}
}

func TestUnmapReturnsEntryAndSevers(t *testing.T) {
	_, _, os := boot2(t)
	const va = 0x1000_0000
	frame, err := os.AllocAndMap(va)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Touch(va); err != nil {
		t.Fatal(err)
	}
	old := os.Unmap(va)
	if old.Frame != frame || old.Perms&PTValid == 0 {
		t.Errorf("Unmap returned %+v", old)
	}
	if os.PT.Lookup(va) != nil {
		t.Error("entry survived unmap")
	}
}

func TestPageTableFindFrame(t *testing.T) {
	_, _, os := boot2(t)
	const va = 0x2000_0000
	frame, err := os.AllocAndMap(va)
	if err != nil {
		t.Fatal(err)
	}
	pte, got := os.PT.FindFrame(frame)
	if pte == nil || got != va {
		t.Errorf("FindFrame = %v, %#x", pte, got)
	}
	if pte, _ := os.PT.FindFrame(99999); pte != nil {
		t.Error("FindFrame found a ghost")
	}
}

func TestRevocationDefaultComplies(t *testing.T) {
	_, k, os := boot2(t)
	const va = 0x2000_0000
	frame, err := os.AllocAndMap(va)
	if err != nil {
		t.Fatal(err)
	}
	out, err := k.RevokePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != aegis.RevokeComplied {
		t.Errorf("outcome = %v", out)
	}
	if os.PT.Lookup(va) != nil {
		t.Error("page table still maps revoked page")
	}
}

func TestOnExcUpcall(t *testing.T) {
	m, _, os := boot2(t)
	hits := 0
	os.OnExc = func(o *LibOS, tr aegis.TrapInfo) aegis.Resume {
		hits++
		return aegis.ResumeSkip
	}
	m.RaiseException(hw.ExcOverflow, 10, 0)
	if hits != 1 {
		t.Errorf("OnExc hits = %d", hits)
	}
	if m.CPU.PC != 11 {
		t.Errorf("resume PC = %d, want 11 (skip)", m.CPU.PC)
	}
}

func TestTimerDefaultSavesAndYields(t *testing.T) {
	m, k, os := boot2(t)
	os2, err := Boot(k)
	if err != nil {
		t.Fatal(err)
	}
	k.SetQuantum(100)
	m.Clock.Tick(101)
	m.Timer.Check()
	m.PollInterrupts()
	if os.Yields != 1 {
		t.Errorf("Yields = %d", os.Yields)
	}
	if k.CurEnv() != os2.Env {
		t.Error("slice not donated to the next environment")
	}
}

// Property: dirty bit iff a write happened since mapping, across random
// op sequences.
func TestQuickDirtyBitSoundness(t *testing.T) {
	f := func(ops []uint8) bool {
		_, _, os := boot2t()
		const va = 0x3000_0000
		if _, err := os.AllocAndMap(va); err != nil {
			return false
		}
		wrote := false
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if os.Touch(va) != nil {
					return false
				}
			case 1:
				if os.TouchWrite(va) != nil {
					return false
				}
				wrote = true
			case 2:
				if os.IsDirty(va) != wrote {
					return false
				}
			}
		}
		return os.IsDirty(va) == wrote
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func boot2t() (*hw.Machine, *aegis.Kernel, *LibOS) {
	m := hw.NewMachine(hw.DEC5000)
	k := aegis.New(m)
	os, err := Boot(k)
	if err != nil {
		panic(err)
	}
	return m, k, os
}

// TestBootTouchesFewFrames pins the sparse physical-memory layout from the
// library OS's side: booting Aegis plus ExOS writes at most a handful of
// the DEC5000's 8192 frames, so only those cost the host a page.
func TestBootTouchesFewFrames(t *testing.T) {
	m, _, _ := boot2(t)
	if got := m.Phys.Resident(); got > 64 {
		t.Fatalf("boot left %d of %d frames resident, want at most 64", got, m.Phys.NumPages())
	}
}
