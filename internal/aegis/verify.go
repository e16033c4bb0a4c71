package aegis

import (
	"fmt"

	"exokernel/internal/hw"
)

// Kernel self-verification. The exokernel contract is a set of
// bookkeeping invariants — secure bindings, the accounting registry, and
// the cached translations must all tell the same story about who holds
// what. The chaos harness (internal/chaos) calls CheckInvariants after
// every step of a randomized fault/kill/revoke schedule; tests call it
// after targeted scenarios. The check is host-side only: it never ticks
// the simulated clock, so running it cannot change a measurement.

// CheckInvariants audits the kernel's resource bookkeeping and returns
// the first violation found (nil if consistent):
//
//  1. Frame conservation: every physical frame is either on the free
//     list or carries exactly one secure binding — no leaked, no
//     double-booked frames. Every frame binding, extent and endpoint
//     names a live or dead environment the kernel created, never an
//     unknown one.
//  2. Registry accuracy: each environment's account (frames, extents,
//     endpoints held) equals what the binding tables actually record,
//     and a dead-and-reclaimed environment holds nothing.
//  3. Translation consistency: every valid hardware TLB and software
//     TLB entry maps a bound frame — a revoked or freed page can leave
//     no cached translation behind (the abort protocol's "break all
//     existing secure bindings" made real).
//  4. Schedule sanity: the time-slice vector names only live
//     environments.
func (k *Kernel) CheckInvariants() error {
	// One sweep over each binding table counts what every environment
	// holds; an owner that names no environment is itself a violation.
	type held struct{ frames, extents, endpoints uint64 }
	count := make([]held, len(k.envs)) // index = EnvID-1
	known := func(id EnvID) bool { return id != 0 && int(id) <= len(k.envs) }
	bound := 0
	for f, b := range k.frames {
		if !b.bound {
			continue
		}
		if !known(b.owner) {
			return fmt.Errorf("invariant: frame %d bound to no environment (owner %d)", f, b.owner)
		}
		bound++
		count[b.owner-1].frames++
	}
	for _, x := range k.extents {
		if !known(x.owner) {
			return fmt.Errorf("invariant: extent at block %d owned by no environment (owner %d)", x.start, x.owner)
		}
		count[x.owner-1].extents++
	}
	for _, ep := range k.endpoints {
		if !known(ep.Owner) {
			return fmt.Errorf("invariant: endpoint owned by no environment (owner %d)", ep.Owner)
		}
		count[ep.Owner-1].endpoints++
	}

	// 1. Frame conservation against the physical free list.
	allocated := k.M.Phys.NumPages() - k.M.Phys.FreeFrames()
	if bound != allocated {
		return fmt.Errorf("invariant: %d frames bound but %d allocated (leak or double-book)",
			bound, allocated)
	}

	// 2. Per-environment accounts vs the binding tables.
	for i, c := range count {
		id := EnvID(i + 1)
		a := k.Stats.EnvAccount(id)
		if a.Frames != c.frames {
			return fmt.Errorf("invariant: env %d account says %d frames, binding table says %d",
				id, a.Frames, c.frames)
		}
		if a.Extents != c.extents {
			return fmt.Errorf("invariant: env %d account says %d extents, extent table says %d",
				id, a.Extents, c.extents)
		}
		if a.Endpoints != c.endpoints {
			return fmt.Errorf("invariant: env %d account says %d endpoints, endpoint list says %d",
				id, a.Endpoints, c.endpoints)
		}
	}

	// 3. No cached translation may outlive its binding.
	for _, te := range k.M.TLB.Entries() {
		if te.Perms&hw.PermValid == 0 {
			continue
		}
		if int(te.PFN) >= len(k.frames) || !k.frames[te.PFN].bound {
			return fmt.Errorf("invariant: TLB maps vpn %#x to unbound frame %d (asid %d)",
				te.VPN, te.PFN, te.ASID)
		}
	}
	for _, se := range k.stlb.entries {
		if se.Perms&hw.PermValid == 0 {
			continue
		}
		if int(se.PFN) >= len(k.frames) || !k.frames[se.PFN].bound {
			return fmt.Errorf("invariant: STLB maps vpn %#x to unbound frame %d (asid %d)",
				se.VPN, se.PFN, se.ASID)
		}
	}

	// 4. The slice vector names only live environments.
	for _, id := range k.slices {
		e, ok := k.Env(id)
		if !ok {
			return fmt.Errorf("invariant: slice vector names unknown env %d", id)
		}
		if e.Dead {
			return fmt.Errorf("invariant: slice vector still holds dead env %d", id)
		}
	}
	return nil
}
