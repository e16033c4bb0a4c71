package aegis

import (
	"strings"
	"testing"

	"exokernel/internal/hw"
	"exokernel/internal/ktrace"
)

// The abort protocol (§3.4): when the library OS fails the visible
// revocation request, the kernel must break the secure bindings by force,
// reclaim the frame, fix the books, and tell the owner through its
// repossession vector. These tests pin every one of those obligations for
// the three ways an owner can be uncooperative: no handler installed,
// handler refuses, handler lies (returns true without releasing).

func revokeWorld(t *testing.T) (*Kernel, *Env, uint32) {
	t.Helper()
	m := hw.NewMachine(hw.DEC5000)
	k := New(m)
	e, err := k.NewEnv(nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, guard, err := k.AllocPage(e, AnyFrame)
	if err != nil {
		t.Fatal(err)
	}
	// Map it so there are cached translations to break.
	if err := k.InstallMapping(e, 0x4000, frame, hw.PermWrite, guard); err != nil {
		t.Fatal(err)
	}
	return k, e, frame
}

// checkAborted asserts the full post-abort contract.
func checkAborted(t *testing.T, k *Kernel, e *Env, frame uint32, framesBefore uint64) {
	t.Helper()
	if k.Stats.Aborts != 1 {
		t.Errorf("Aborts = %d, want 1", k.Stats.Aborts)
	}
	// Binding gone, frame back on the free list.
	if k.FrameOwner(frame) != 0 {
		t.Errorf("frame %d still owned by env %d after abort", frame, k.FrameOwner(frame))
	}
	if !k.M.Phys.AllocFrameAt(frame) {
		t.Errorf("frame %d not reallocatable after abort", frame)
	}
	_ = k.M.Phys.FreeFrame(frame)
	// Cached translations broken: no valid TLB entry may name the frame.
	for _, te := range k.M.TLB.Entries() {
		if te.Perms&hw.PermValid != 0 && te.PFN == frame {
			t.Errorf("TLB still maps repossessed frame %d (vpn %#x)", frame, te.VPN)
		}
	}
	// Repossession vector informed.
	if len(e.Repossessed) != 1 || e.Repossessed[0] != frame {
		t.Errorf("repossession vector = %v, want [%d]", e.Repossessed, frame)
	}
	// Account decremented by exactly the repossessed frame.
	if got := k.Stats.EnvAccount(e.ID).Frames; got != framesBefore-1 {
		t.Errorf("account Frames = %d, want %d", got, framesBefore-1)
	}
	// And the books still balance.
	if err := k.CheckInvariants(); err != nil {
		t.Errorf("post-abort invariants: %v", err)
	}
}

func TestRevokeAbortNoHandler(t *testing.T) {
	k, e, frame := revokeWorld(t)
	framesBefore := k.Stats.EnvAccount(e.ID).Frames
	e.NativeRevoke = nil

	out, err := k.RevokePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != RevokeAborted {
		t.Fatalf("outcome = %v, want aborted", out)
	}
	checkAborted(t, k, e, frame, framesBefore)
}

func TestRevokeAbortHandlerRefuses(t *testing.T) {
	k, e, frame := revokeWorld(t)
	framesBefore := k.Stats.EnvAccount(e.ID).Frames
	upcalls := 0
	e.NativeRevoke = func(*Kernel, uint32) bool { upcalls++; return false }

	out, err := k.RevokePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != RevokeAborted {
		t.Fatalf("outcome = %v, want aborted", out)
	}
	if upcalls != 1 {
		t.Errorf("visible phase ran %d times, want 1", upcalls)
	}
	checkAborted(t, k, e, frame, framesBefore)
}

// A handler that claims compliance without actually releasing the frame
// must not be believed: the kernel checks the binding, not the return
// value, and repossesses anyway.
func TestRevokeAbortHandlerLies(t *testing.T) {
	k, e, frame := revokeWorld(t)
	framesBefore := k.Stats.EnvAccount(e.ID).Frames
	e.NativeRevoke = func(*Kernel, uint32) bool { return true }

	out, err := k.RevokePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != RevokeAborted {
		t.Fatalf("outcome = %v, want aborted (handler lied)", out)
	}
	checkAborted(t, k, e, frame, framesBefore)
}

// Every revocation must resolve: the trace stream shows request →
// (comply | abort), never a dangling request.
func TestRevokeTraceResolves(t *testing.T) {
	k, e, frame := revokeWorld(t)
	rec := ktrace.New(64)
	k.SetTracer(rec)
	e.NativeRevoke = func(*Kernel, uint32) bool { return false }

	if _, err := k.RevokePage(frame); err != nil {
		t.Fatal(err)
	}
	var requests, resolutions int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case ktrace.KindRevokeRequest:
			requests++
		case ktrace.KindRevokeComply, ktrace.KindRevokeAbort:
			resolutions++
		}
	}
	if requests != 1 || resolutions != 1 {
		t.Errorf("trace: %d requests, %d resolutions; want 1 and 1", requests, resolutions)
	}
}

// CheckInvariants itself must detect cooked books: corrupt each table the
// checker audits and confirm it notices.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	t.Run("leaked-frame", func(t *testing.T) {
		k, _, frame := revokeWorld(t)
		// Free the frame behind the binding table's back.
		_ = k.M.Phys.FreeFrame(frame)
		if err := k.CheckInvariants(); err == nil {
			t.Error("leaked frame not detected")
		}
	})
	t.Run("account-drift", func(t *testing.T) {
		k, e, _ := revokeWorld(t)
		k.Stats.acct(e.ID).Frames += 3
		if err := k.CheckInvariants(); err == nil {
			t.Error("account drift not detected")
		}
	})
	t.Run("stale-tlb", func(t *testing.T) {
		k, e, frame := revokeWorld(t)
		// Tear the binding down without breaking translations.
		k.frames[frame] = frameBinding{}
		_ = k.M.Phys.FreeFrame(frame)
		if a := k.Stats.acct(e.ID); a.Frames > 0 {
			a.Frames--
		}
		if err := k.CheckInvariants(); err == nil {
			t.Error("stale TLB entry not detected")
		}
	})
	t.Run("dead-env-in-slices", func(t *testing.T) {
		k, e, _ := revokeWorld(t)
		e.Dead = true // marked dead without going through kill()
		if err := k.CheckInvariants(); err == nil {
			t.Error("dead env in slice vector not detected")
		}
	})
	// A binding whose owner names no environment must be flagged even
	// when every account still balances: each forgery below moves one
	// resource to an unknown owner and takes it off its real owner's
	// books, so only the owner check can catch it.
	const ghost = EnvID(99)
	for _, tc := range []struct {
		name  string
		forge func(t *testing.T, k *Kernel, e *Env, frame uint32)
	}{
		{"unknown-frame-owner", func(_ *testing.T, k *Kernel, e *Env, frame uint32) {
			k.frames[frame].owner = ghost
			k.Stats.acct(e.ID).Frames--
		}},
		{"unknown-extent-owner", func(t *testing.T, k *Kernel, e *Env, _ uint32) {
			if _, _, err := k.AllocExtent(e, 4); err != nil {
				t.Fatal(err)
			}
			k.extents[len(k.extents)-1].owner = ghost
			k.Stats.acct(e.ID).Extents--
		}},
		{"unknown-endpoint-owner", func(t *testing.T, k *Kernel, e *Env, _ uint32) {
			ep, err := k.InstallFilter(e, byteFilter(1))
			if err != nil {
				t.Fatal(err)
			}
			ep.Owner = ghost
			k.Stats.acct(e.ID).Endpoints--
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, e, frame := revokeWorld(t)
			tc.forge(t, k, e, frame)
			err := k.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), "no environment") {
				t.Errorf("owner naming no environment not detected: %v", err)
			}
		})
	}
	t.Run("clean", func(t *testing.T) {
		k, _, _ := revokeWorld(t)
		if err := k.CheckInvariants(); err != nil {
			t.Errorf("clean kernel flagged: %v", err)
		}
	})
}
