package main

import (
	"encoding/binary"
	"fmt"

	"exokernel/internal/aegis"
	"exokernel/internal/asm"
	"exokernel/internal/exos"
	"exokernel/internal/hw"
	"exokernel/internal/vm"
)

// matmul: one op is one row of C = A×B for 150×150 int32 matrices,
// computed by guest code (Table 9's loop nest with the i loop driven
// from the host) in one Aegis environment on ExOS-mapped pages.

const matmulN = 150

// matmulRowSource computes row s0 of C: a0=A, a1=B, a2=C, a3=n.
const matmulRowSource = `
		nop
	entry:
		addiu s1, zero, 0      ; j
	jloop:
		addiu s2, zero, 0      ; k
		addiu t7, zero, 0      ; acc
	kloop:
		mul   t1, s0, a3       ; t0 = A[i*n+k]
		addu  t1, t1, s2
		sll   t1, t1, 2
		addu  t1, t1, a0
		lw    t0, 0(t1)
		mul   t3, s2, a3       ; t2 = B[k*n+j]
		addu  t3, t3, s1
		sll   t3, t3, 2
		addu  t3, t3, a1
		lw    t2, 0(t3)
		mul   t4, t0, t2
		addu  t7, t7, t4
		addiu s2, s2, 1
		bne   s2, a3, kloop
		mul   t5, s0, a3       ; C[i*n+j] = acc
		addu  t5, t5, s1
		sll   t5, t5, 2
		addu  t5, t5, a2
		sw    t7, 0(t5)
		addiu s1, s1, 1
		bne   s1, a3, jloop
		halt
`

// matmulBases are the virtual bases of A, B and C.
var matmulBases = [3]uint32{0x0100_0000, 0x0200_0000, 0x0300_0000}

type matmul struct {
	m      *hw.Machine
	k      *aegis.Kernel
	env    *aegis.Env
	entry  uint32
	frames [3][]uint32 // physical frame of each page of A, B, C
	want   []uint32    // host-computed C
	order  []int       // this pass's row order
	rows   *rng
	runSp  spanName
	tr     *tracer
	row    []byte // scratch: one row of C as read back
}

func setupMatmul(seed uint64, t tier, tr *tracer) (instance, error) {
	n := matmulN
	mm := &matmul{m: newMachine(t, tr), rows: newRNG(seed, streamRowOrder), tr: tr,
		runSp: [...]spanName{spVMRun, spVMRunFast, spVMRunRef}[t], row: make([]byte, 4*n)}
	mm.k = newKernel(mm.m, tr)
	code, labels, err := asm.AssembleWithLabels(matmulRowSource)
	if err != nil {
		return nil, err
	}
	if mm.env, err = mm.k.NewEnv(code); err != nil {
		return nil, err
	}
	mm.entry = uint32(labels["entry"])
	os := exos.Attach(mm.k, mm.env)
	pages := (n*n*4 + hw.PageSize - 1) / hw.PageSize
	for i, base := range matmulBases {
		for p := 0; p < pages; p++ {
			f, err := os.AllocAndMap(base + uint32(p*hw.PageSize))
			if err != nil {
				return nil, err
			}
			mm.frames[i] = append(mm.frames[i], f)
		}
	}
	// Seeded A and B, written straight into their frames (free in
	// simulated time, like a DMA), and C = A×B on the host.
	g := newRNG(seed, streamMatrix)
	a := make([]uint32, n*n)
	b := make([]uint32, n*n)
	for i := range a {
		a[i] = uint32(g.next())
		b[i] = uint32(g.next())
		mm.store(0, i, a[i])
		mm.store(1, i, b[i])
	}
	mm.want = make([]uint32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc uint32
			for k := 0; k < n; k++ {
				acc += a[i*n+k] * b[k*n+j]
			}
			mm.want[i*n+j] = acc
		}
	}
	return mm, nil
}

// word returns the host bytes of word w of matrix x.
func (mm *matmul) word(x, w int) []byte {
	off := w * 4
	return mm.m.Phys.Page(mm.frames[x][off/hw.PageSize])[off%hw.PageSize:][:4]
}

func (mm *matmul) store(x, w int, v uint32) { binary.LittleEndian.PutUint32(mm.word(x, w), v) }

func (mm *matmul) op(i int, d *digest) error {
	n := matmulN
	if i%n == 0 {
		mm.order = mm.rows.perm(n)
	}
	row := mm.order[i%n]
	for j := 0; j < n; j++ {
		mm.store(2, row*n+j, 0) // a row the guest fails to write reads as zeros
	}
	cpu := &mm.m.CPU
	mm.env.PC = mm.entry
	cpu.PC = mm.entry
	cpu.SetReg(hw.RegA0, matmulBases[0])
	cpu.SetReg(hw.RegA1, matmulBases[1])
	cpu.SetReg(hw.RegA2, matmulBases[2])
	cpu.SetReg(hw.RegA3, uint32(n))
	cpu.SetReg(hw.RegS0, uint32(row))
	steps, cycles := mm.k.Interp.Steps, mm.m.Clock.Cycles()
	s := mm.tr.begin(mm.runSp)
	stop := mm.k.Interp.Run(uint64(n*n*16 + 4096))
	mm.tr.endArg(s, mm.k.Interp.Steps-steps)
	for j := 0; j < n; j++ {
		copy(mm.row[4*j:], mm.word(2, row*n+j))
	}
	d.u64(uint64(row))
	d.u64(mm.k.Interp.Steps - steps)
	d.u64(mm.m.Clock.Cycles() - cycles)
	d.bytes(mm.row)
	if stop != vm.StopHalt {
		return fmt.Errorf("matmul row %d: guest stopped with %v", row, stop)
	}
	for j := 0; j < n; j++ {
		if got := binary.LittleEndian.Uint32(mm.row[4*j:]); got != mm.want[row*n+j] {
			return fmt.Errorf("matmul C[%d][%d] = %#x, want %#x", row, j, got, mm.want[row*n+j])
		}
	}
	return nil
}

func (mm *matmul) counters() counters {
	st := mm.k.GlobalStats()
	return counters{
		instrs:    mm.k.Interp.Steps,
		simCycles: mm.m.Clock.Cycles(),
		tlbMisses: st.TLBMisses,
		stlbHits:  st.STLBHits,
	}
}

// matmulTiers runs a few rows of the same seeded multiply on the fast
// interpreter and on the reference engine, under their own span names,
// so the traced run reports host ns per instruction for all three tiers.
func matmulTiers(seed uint64, tr *tracer) error {
	for _, tc := range []struct {
		t    tier
		rows int
	}{{tierFast, 24}, {tierRef, 8}} {
		tr.off = true
		inst, err := setupMatmul(seed, tc.t, tr)
		tr.off = false
		if err != nil {
			return err
		}
		d := newDigest()
		for i := 0; i < tc.rows; i++ {
			if err := inst.op(i, d); err != nil {
				return fmt.Errorf("%v tier: %w", tc.t, err)
			}
		}
	}
	return nil
}
