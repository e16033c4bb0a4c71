package hw

import (
	"bytes"
	"testing"
)

// Physical memory is a sparse frame table: untouched frames share one
// read-only zero page, a frame gets a page of its own on its first write,
// and FreeFrame/Reset drop pages instead of zeroing them. These tests pin
// the observable contract — every byte reads as a flat, zero-initialised
// array would — and the host-side residency that makes the layout pay.

func TestPhysMemUntouchedFramesReadZero(t *testing.T) {
	var c Clock
	m := NewPhysMem(&c, 4, 0)
	for f := uint32(0); f < 4; f++ {
		base := f * PageSize
		if m.ReadWord(base) != 0 || m.ReadHalf(base+PageSize-2) != 0 ||
			m.LoadByte(base+7) != 0 || m.ReadWordUncached(base+8) != 0 {
			t.Fatalf("untouched frame %d reads nonzero", f)
		}
	}
	buf := []byte{1, 2, 3}
	m.CopyOut(buf, PageSize-1)
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatalf("CopyOut of untouched frames = %v", buf)
	}
	if got := m.Resident(); got != 0 {
		t.Fatalf("reads made %d frames resident, want 0", got)
	}
	if m.Gen() == 0 {
		t.Fatal("Gen is zero; a zero-valued cache tag would match it")
	}
}

func TestPhysMemFreeAllocReadsZero(t *testing.T) {
	var c Clock
	m := NewPhysMem(&c, 4, 0)
	f, _ := m.AllocFrame()
	m.WriteWord(f*PageSize+16, 0xCAFEF00D)
	m.StoreByte(f*PageSize+PageSize-1, 0xAA)
	gen := m.Gen()
	if err := m.FreeFrame(f); err != nil {
		t.Fatal(err)
	}
	if m.Gen() == gen {
		t.Fatal("FreeFrame did not advance the generation")
	}
	g, _ := m.AllocFrame()
	if g != f {
		t.Fatalf("LIFO free list returned frame %d, want %d", g, f)
	}
	if m.ReadWord(g*PageSize+16) != 0 || m.LoadByte(g*PageSize+PageSize-1) != 0 {
		t.Fatal("reallocated frame still holds the old contents")
	}
	if m.Resident() != 0 {
		t.Fatalf("freed frame still resident: %d", m.Resident())
	}
}

func TestPhysMemResetEmptiesEveryFrame(t *testing.T) {
	var c Clock
	m := NewPhysMem(&c, 8, 0)
	for f := uint32(0); f < 8; f++ {
		m.AllocFrame()
		m.WriteWord(f*PageSize+4*f, f+1)
	}
	if m.Resident() != 8 {
		t.Fatalf("Resident = %d after writing every frame, want 8", m.Resident())
	}
	gen := m.Gen()
	m.Reset()
	if m.Gen() == gen {
		t.Fatal("Reset did not advance the generation")
	}
	if m.Resident() != 0 || m.FreeFrames() != 8 {
		t.Fatalf("after Reset: %d resident, %d free; want 0, 8", m.Resident(), m.FreeFrames())
	}
	for f := uint32(0); f < 8; f++ {
		if !bytes.Equal(m.Page(f), zeroPage[:]) {
			t.Fatalf("frame %d not empty after Reset", f)
		}
	}
}

func TestPhysMemCopyAcrossFrames(t *testing.T) {
	var c Clock
	m := NewPhysMem(&c, 4, 0)
	src := make([]byte, 2*PageSize+100)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	pa := uint32(PageSize - 50) // starts in frame 0, ends in frame 3
	before := c.Cycles()
	m.CopyIn(pa, src)
	if got, want := c.Cycles()-before, uint64(len(src)+WordSize-1)/WordSize*CostMemWord; got != want {
		t.Errorf("CopyIn charged %d, want %d", got, want)
	}
	dst := make([]byte, len(src))
	m.CopyOut(dst, pa)
	if !bytes.Equal(dst, src) {
		t.Fatal("CopyIn/CopyOut across frame boundaries did not round-trip")
	}
	if m.LoadByte(pa-1) != 0 || m.LoadByte(pa+uint32(len(src))) != 0 {
		t.Fatal("copy spilled outside its range")
	}
	if m.Resident() != 4 {
		t.Fatalf("Resident = %d, want 4 (the copy touches frames 0-3)", m.Resident())
	}
}

func TestPhysMemPageWriteVisibleToReads(t *testing.T) {
	var c Clock
	m := NewPhysMem(&c, 2, 0)
	pg := m.Page(1)
	copy(pg[12:], []byte{0x78, 0x56, 0x34, 0x12})
	if got := m.ReadWord(PageSize + 12); got != 0x12345678 {
		t.Fatalf("ReadWord after a write through Page = %#x", got)
	}
	m.WriteWord(PageSize+12, 0xDEADBEEF)
	if got := m.Frame(1); &got[0] != &pg[0] {
		t.Fatal("Frame and Page disagree on the frame's page")
	}
	if pg[12] != 0xEF {
		t.Fatal("WriteWord not visible through an earlier Page slice")
	}
}

// TestPhysMemMatchesFlatModel drives the frame table and a flat byte
// array through one seeded random sequence of every access kind plus
// frees and resets, comparing every read, and finally checks that no path
// ever wrote the shared zero page.
func TestPhysMemMatchesFlatModel(t *testing.T) {
	const npages = 6
	var c Clock
	m := NewPhysMem(&c, npages, 0)
	flat := make([]byte, npages*PageSize)
	r := lcgT(42)
	for step := 0; step < 20000; step++ {
		pa := r.next() % (npages * PageSize)
		switch r.next() % 12 {
		case 0:
			v := r.next()
			pa &^= 3
			m.WriteWord(pa, v)
			flat[pa], flat[pa+1], flat[pa+2], flat[pa+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		case 1:
			v := uint16(r.next())
			pa &^= 1
			m.WriteHalf(pa, v)
			flat[pa], flat[pa+1] = byte(v), byte(v>>8)
		case 2:
			v := byte(r.next())
			m.StoreByte(pa, v)
			flat[pa] = v
		case 3:
			v := r.next()
			pa &^= 3
			m.WriteWordUncached(pa, v)
			flat[pa], flat[pa+1], flat[pa+2], flat[pa+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		case 4:
			n := min(int(r.next()%(2*PageSize)), len(flat)-int(pa))
			src := make([]byte, n)
			for i := range src {
				src[i] = byte(r.next())
			}
			m.CopyIn(pa, src)
			copy(flat[pa:], src)
		case 5:
			f := pa >> PageShift
			v := byte(r.next())
			m.Page(f)[pa&(PageSize-1)] = v
			flat[pa] = v
		case 6:
			f := pa >> PageShift
			m.AllocFrameAt(f)
			if err := m.FreeFrame(f); err != nil {
				t.Fatal(err)
			}
			clear(flat[f*PageSize : (f+1)*PageSize])
		case 7:
			if r.next()%50 == 0 {
				m.Reset()
				clear(flat)
			}
		case 8:
			pa &^= 3
			want := uint32(flat[pa]) | uint32(flat[pa+1])<<8 | uint32(flat[pa+2])<<16 | uint32(flat[pa+3])<<24
			if got := m.ReadWord(pa); got != want {
				t.Fatalf("step %d: ReadWord(%#x) = %#x, want %#x", step, pa, got, want)
			}
		case 9:
			pa &^= 1
			want := uint16(flat[pa]) | uint16(flat[pa+1])<<8
			if got := m.ReadHalf(pa); got != want {
				t.Fatalf("step %d: ReadHalf(%#x) = %#x, want %#x", step, pa, got, want)
			}
		case 10:
			if got := m.LoadByte(pa); got != flat[pa] {
				t.Fatalf("step %d: LoadByte(%#x) = %#x, want %#x", step, pa, got, flat[pa])
			}
		case 11:
			n := min(int(r.next()%(2*PageSize)), len(flat)-int(pa))
			dst := make([]byte, n)
			m.CopyOut(dst, pa)
			if !bytes.Equal(dst, flat[pa:int(pa)+n]) {
				t.Fatalf("step %d: CopyOut(%#x, %d) differs from the flat model", step, pa, n)
			}
		}
	}
	for f := uint32(0); f < npages; f++ {
		dst := make([]byte, PageSize)
		m.CopyOut(dst, f*PageSize)
		if !bytes.Equal(dst, flat[f*PageSize:(f+1)*PageSize]) {
			t.Fatalf("frame %d differs from the flat model at the end", f)
		}
	}
	if !bytes.Equal(zeroPage[:], make([]byte, PageSize)) {
		t.Fatal("the shared zero page was written")
	}
}

func TestMachineResidentAfterNewAndReboot(t *testing.T) {
	m := NewMachine(DEC5000)
	if got := m.Phys.Resident(); got != 0 {
		t.Fatalf("fresh machine has %d resident frames, want 0", got)
	}
	for f := uint32(0); f < 32; f++ {
		m.Phys.WriteWord(f*PageSize, f+1)
	}
	m.Reboot()
	if got := m.Phys.Resident(); got != 0 {
		t.Fatalf("rebooted machine has %d resident frames, want 0", got)
	}
	if m.Phys.ReadWord(5*PageSize) != 0 {
		t.Fatal("reboot left memory contents behind")
	}
}
