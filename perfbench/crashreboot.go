package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"exokernel/internal/aegis"
	"exokernel/internal/exos"
	"exokernel/internal/fault"
	"exokernel/internal/hw"
)

// crash-reboot: one op is one power-fail round on a machine running the
// journaled file system — seeded file operations each followed by Sync
// and an invariant sweep, a power failure armed at a seeded write
// boundary (or a power cut after the last operation), the disk's cache
// fate, a reboot, a fresh kernel and library OS, journal recovery in
// Mount, the audit and the two-model content check.

const (
	crFSBlocks  = 128
	crFSJournal = 34 // 32 copy slots ≥ the 31-frame cache capacity
	crFSInodes  = 16
	crFSFrames  = 32 // holds the whole working set: only Sync writes
	// crCrashSpan is the range of write boundaries a round's power
	// failure is armed at; a round of 2–4 synced operations performs
	// about as many writes, so most armed failures fire mid-I/O.
	crCrashSpan = 48
)

// crNames is the file-name pool.
var crNames = [...]string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"}

type fsModel map[string][]byte

type crashReboot struct {
	tr    *tracer
	m     *hw.Machine
	inj   *fault.Injector
	k     *aegis.Kernel
	fs    *exos.FS
	acked fsModel // state as of the last completed Sync
	work  fsModel // state including the operation in progress

	ops, crash *rng
	retired    aegis.Stats // counters of kernels lost to reboots
	c          counters
}

func setupCrashReboot(seed uint64, t tier, tr *tracer) (instance, error) {
	cr := &crashReboot{tr: tr, m: newMachine(t, tr), ops: newRNG(seed, streamFSOps),
		crash: newRNG(seed, streamCrash), acked: fsModel{}, work: fsModel{}}
	// Fail-stop only: the injector's rates are zero, so power fails
	// exactly where a round arms it and nowhere else.
	cr.inj = fault.New(fault.Config{Seed: seed})
	cr.m.Disk.Power = cr.inj
	cr.k = newKernel(cr.m, tr)
	os, err := boot(cr.k, tr)
	if err != nil {
		return nil, err
	}
	dev, cache, err := cr.openDev(os)
	if err != nil {
		return nil, err
	}
	s := tr.begin(spExosFormat)
	cr.fs, err = exos.FormatJournaled(dev, cache, crFSInodes, crFSJournal)
	tr.end(s)
	return cr, err
}

// openDev claims the FS extent (first fit: the same one every boot) and
// the buffer cache.
func (cr *crashReboot) openDev(os *exos.LibOS) (*exos.AegisDev, *exos.BufCache, error) {
	s := cr.tr.begin(spExosFSOpen)
	defer cr.tr.end(s)
	dev, err := exos.NewAegisDev(os, crFSBlocks)
	if err != nil {
		return nil, nil, err
	}
	cache, err := exos.NewFSCache(os, dev, crFSFrames, exos.NewLRU())
	return dev, cache, err
}

func (cr *crashReboot) op(i int, d *digest) error {
	cyc := cr.m.Clock.Cycles()
	nops := 2 + cr.ops.intn(3)
	cr.inj.ArmPowerFail(uint64(1 + cr.crash.intn(crCrashSpan)))
	fate := cr.crash.next()
	var failed error
	fired := false
	for j := 0; j < nops; j++ {
		err := cr.fsOp(d)
		if errors.Is(err, hw.ErrPowerFail) {
			fired = true
			break
		}
		if err != nil {
			failed = err
			break
		}
	}
	cr.inj.ArmPowerFail(0) // recovery must not trip a leftover trigger
	if fired {
		cr.c.midIO++
	} else {
		cr.m.Disk.PowerOff()
	}
	err := cr.recover(fate, d)
	d.u64(boolBit(fired))
	d.u64(cr.m.Clock.Cycles() - cyc)
	cr.c.rounds++
	if failed != nil {
		return failed
	}
	return err
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fsOp performs one seeded create, overwrite, rename or unlink, then
// Sync, then the kernel invariant sweep. The work model changes only when
// the operation completed; acked only when its Sync did.
func (cr *crashReboot) fsOp(d *digest) error {
	g, tr := cr.ops, cr.tr
	name := crNames[g.intn(len(crNames))]
	to := crNames[g.intn(len(crNames))]
	kind := g.intn(12)
	data := make([]byte, 1+g.intn(2*hw.PageSize))
	g.fill(data)
	d.bytes([]byte(name))
	d.u64(uint64(kind))

	s := tr.begin(spExosFSWrite)
	err := cr.mutate(name, to, kind, data)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(spExosFSSync)
	err = cr.fs.Sync()
	tr.end(s)
	if err != nil {
		return err
	}
	cr.acked = cloneModel(cr.work)
	s = tr.begin(spAegisCheckInvariants)
	err = cr.k.CheckInvariants()
	tr.end(s)
	return err
}

// mutate applies one operation to the FS and, on success, to the work
// model: create-and-fill when name is absent; otherwise unlink (kind
// 0–2), rename onto to (3–5, possibly replacing it) or overwrite from
// offset 0 (6–11, a longer old tail survives).
func (cr *crashReboot) mutate(name, to string, kind int, data []byte) error {
	fs := cr.fs
	in, err := fs.Lookup(name)
	switch {
	case err != nil:
		if in, err = fs.Create(name); err != nil {
			return err
		}
		if err := fs.WriteAt(in, 0, data); err != nil {
			return err
		}
		cr.work[name] = data
	case kind < 3:
		if err := fs.Unlink(name); err != nil {
			return err
		}
		delete(cr.work, name)
	case kind < 6:
		if err := fs.Rename(name, to); err != nil {
			return err
		}
		if to != name {
			cr.work[to] = cr.work[name]
			delete(cr.work, name)
		}
	default:
		if err := fs.WriteAt(in, 0, data); err != nil {
			return err
		}
		if old := cr.work[name]; len(old) > len(data) {
			data = append(data, old[len(data):]...)
		}
		cr.work[name] = data
	}
	return nil
}

// recover resolves the disk cache's fate, reboots the hardware, boots a
// fresh kernel and library OS, remounts (journal recovery), and checks
// the audit, the recovered tree against the two models, and the kernel
// invariants. The recovered tree is the next round's starting state.
func (cr *crashReboot) recover(fate uint64, d *digest) error {
	tr := cr.tr
	s := tr.begin(spHWDiskCrash)
	kept, lost := cr.m.Disk.Crash(fate)
	tr.end(s)
	st := cr.k.GlobalStats()
	cr.retired.TLBMisses += st.TLBMisses
	cr.retired.STLBHits += st.STLBHits
	s = tr.begin(spHWReboot)
	cr.m.Reboot()
	tr.end(s)
	d.u64(uint64(kept))
	d.u64(uint64(lost))

	cr.k = newKernel(cr.m, tr)
	os, err := boot(cr.k, tr)
	if err != nil {
		return fmt.Errorf("boot after crash: %w", err)
	}
	dev, cache, err := cr.openDev(os)
	if err != nil {
		return fmt.Errorf("fs open after crash: %w", err)
	}
	s = tr.begin(spExosMount)
	cr.fs, err = exos.Mount(dev, cache)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("mount after crash: %w", err)
	}
	if jn := cr.fs.Journal(); jn != nil {
		d.u64(jn.Replayed)
		d.u64(jn.RolledBack)
		d.u64(jn.ReplayedBlocks)
		if jn.Replayed > 0 {
			cr.c.replayed++
		}
		if jn.RolledBack > 0 {
			cr.c.rolledBack++
		}
	}
	s = tr.begin(spExosAudit)
	bad, err := cr.fs.Audit()
	tr.end(s)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if len(bad) > 0 {
		return fmt.Errorf("audit: %d violations, first: %s", len(bad), bad[0])
	}
	s = tr.begin(spExosSnapshot)
	got, err := cr.snapshot(d)
	tr.end(s)
	if err != nil {
		return err
	}
	if !modelEq(got, cr.acked) && !modelEq(got, cr.work) {
		return errors.New("recovered tree matches neither the acknowledged nor the interrupted Sync")
	}
	s = tr.begin(spAegisCheckInvariants)
	err = cr.k.CheckInvariants()
	tr.end(s)
	if err != nil {
		return fmt.Errorf("after reboot: %w", err)
	}
	cr.acked, cr.work = got, cloneModel(got)
	return nil
}

// snapshot reads the whole recovered tree back, in name order, into the
// digest and a model.
func (cr *crashReboot) snapshot(d *digest) (fsModel, error) {
	ents, err := cr.fs.List()
	if err != nil {
		return nil, err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	st := make(fsModel, len(ents))
	for _, e := range ents {
		buf := make([]byte, e.Size)
		if n, err := cr.fs.ReadAt(e.Inum, 0, buf); err != nil || uint32(n) != e.Size {
			return nil, fmt.Errorf("read %q: %d bytes, %v", e.Name, n, err)
		}
		d.bytes([]byte(e.Name))
		d.bytes(buf)
		st[e.Name] = buf
	}
	return st, nil
}

func (cr *crashReboot) counters() counters {
	c := cr.c
	st := cr.k.GlobalStats()
	c.simCycles = cr.m.Clock.Cycles()
	c.diskWrites = cr.m.Disk.Writes
	c.diskFlushes = cr.m.Disk.Flushes
	c.tlbMisses = cr.retired.TLBMisses + st.TLBMisses
	c.stlbHits = cr.retired.STLBHits + st.STLBHits
	return c
}

func cloneModel(s fsModel) fsModel {
	c := make(fsModel, len(s))
	for k, v := range s {
		c[k] = v // contents are replaced wholesale, never edited in place
	}
	return c
}

func modelEq(a, b fsModel) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !bytes.Equal(v, w) {
			return false
		}
	}
	return true
}
