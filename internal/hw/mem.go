package hw

import (
	"encoding/binary"
	"fmt"
)

// zeroPage backs every frame that has never been written. It is shared by
// all machines and never written: every store path gives a frame its own
// page first, so a read of an untouched frame sees zeros at no host cost.
var zeroPage [PageSize]byte

// PhysMem is the machine's physical memory: a frame table plus a free-frame
// list. The exokernel exposes *physical* page numbers to library operating
// systems ("expose names", §2.3 of the paper); nothing in here knows about
// ownership — secure bindings live in the kernel.
//
// The table is sparse: an entry points at the shared zeroPage until the
// frame is first written, so a machine costs the host only the frames its
// software touches. Simulated costs do not depend on residency.
type PhysMem struct {
	clock  *Clock
	frames []*[PageSize]byte
	// touched lists, once each, the frames that got a page of their own
	// since the last Reset (listed marks them), so Reset drops exactly
	// those. A frame freed and re-touched stays listed once.
	touched  []uint32
	listed   []uint64 // bitset over frames
	gen      uint64   // bumped whenever a frame's page is dropped; see Gen
	free     []uint32 // free frame numbers, LIFO
	missRate int
	lcg      uint32 // deterministic pseudo-random state for the miss model
}

// NewPhysMem creates physical memory with npages frames.
func NewPhysMem(clock *Clock, npages, missRate int) *PhysMem {
	m := &PhysMem{
		clock:    clock,
		frames:   make([]*[PageSize]byte, npages),
		listed:   make([]uint64, (npages+63)/64),
		missRate: missRate,
		free:     make([]uint32, 0, npages),
	}
	for i := range m.frames {
		m.frames[i] = &zeroPage
	}
	m.Reset()
	return m
}

// Reset returns physical memory to its power-on state: every frame reads
// zero and is free, the miss-model PRNG is reseeded. It drops the pages of
// the frames touched since the last Reset, so its cost follows what the
// machine touched, plus one store per frame to refill the free list.
func (m *PhysMem) Reset() {
	for _, f := range m.touched {
		m.frames[f] = &zeroPage
		m.listed[f/64] = 0 // every frame marked in this word is listed
	}
	m.touched = m.touched[:0]
	m.gen++
	free := m.free[:len(m.frames)]
	for i := range free {
		free[i] = uint32(len(free) - 1 - i)
	}
	m.free = free
	m.lcg = 0x2545F491
}

// NumPages reports the number of physical frames.
func (m *PhysMem) NumPages() int { return len(m.frames) }

// FreeFrames reports how many frames are unallocated.
func (m *PhysMem) FreeFrames() int { return len(m.free) }

// Resident reports how many frames have a page of their own, i.e. the
// host memory the machine's physical memory occupies, in pages. It is a
// host-side measure: the JIT takes a frame's page on a read as well, so
// the count depends on the execution engine and belongs in no simulated
// output.
func (m *PhysMem) Resident() int {
	n := 0
	for _, p := range m.frames {
		if p != &zeroPage {
			n++
		}
	}
	return n
}

// AllocFrame removes a frame from the free list and returns its number.
func (m *PhysMem) AllocFrame() (uint32, bool) {
	if len(m.free) == 0 {
		return 0, false
	}
	f := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	return f, true
}

// AllocFrameAt removes a specific frame from the free list; it fails if the
// frame is already allocated. This implements "expose allocation": a library
// OS may request specific physical pages (e.g. for cache coloring [29]).
func (m *PhysMem) AllocFrameAt(frame uint32) bool {
	for i, f := range m.free {
		if f == frame {
			m.free[i] = m.free[len(m.free)-1]
			m.free = m.free[:len(m.free)-1]
			return true
		}
	}
	return false
}

// FreeFrame returns a frame to the free list; its contents read as zero
// from then on.
func (m *PhysMem) FreeFrame(frame uint32) error {
	if int(frame) >= len(m.frames) {
		return fmt.Errorf("hw: free of invalid frame %d", frame)
	}
	m.frames[frame] = &zeroPage
	m.gen++
	m.free = append(m.free, frame)
	return nil
}

// Gen reports the frame-table generation. It changes whenever a frame's
// page is dropped (FreeFrame, Reset), so a page pointer taken from Frame
// stays valid exactly as long as Gen is unchanged. It is never zero, so a
// zero tag matches no generation.
func (m *PhysMem) Gen() uint64 { return m.gen }

// Frame returns frame's own writable page, giving it one if it has none.
// Callers that cache the pointer (the JIT's per-site translation caches)
// must tag it with Gen. It charges nothing.
func (m *PhysMem) Frame(frame uint32) *[PageSize]byte {
	p := m.frames[frame]
	if p == &zeroPage {
		p = new([PageSize]byte)
		m.frames[frame] = p
		if bit := uint64(1) << (frame % 64); m.listed[frame/64]&bit == 0 {
			m.listed[frame/64] |= bit
			m.touched = append(m.touched, frame)
		}
	}
	return p
}

// ChargeRef charges the cost of one cached data reference, applying the
// pseudo-random cache-miss model. Every charged accessor below calls it
// once; the JIT calls it directly before touching a page from Frame.
func (m *PhysMem) ChargeRef() {
	m.clock.Tick(CostMemWord)
	if m.missRate > 0 {
		m.lcg = m.lcg*1664525 + 1013904223
		if int(m.lcg%uint32(m.missRate)) == 0 {
			m.clock.Tick(CostCacheMiss)
		}
	}
}

// writable returns the page holding physical address pa and pa's offset
// in it, giving the frame a page of its own first.
func (m *PhysMem) writable(pa uint32) (*[PageSize]byte, uint32) {
	return m.Frame(pa >> PageShift), pa & (PageSize - 1)
}

// ReadWord reads a 32-bit word at physical address pa (must be in range).
// Word and halfword accesses are aligned (the ISA enforces it), so none
// crosses a frame boundary.
func (m *PhysMem) ReadWord(pa uint32) uint32 {
	m.ChargeRef()
	return binary.LittleEndian.Uint32(m.frames[pa>>PageShift][pa&(PageSize-1):])
}

// WriteWord writes a 32-bit word at physical address pa.
func (m *PhysMem) WriteWord(pa uint32, v uint32) {
	m.ChargeRef()
	p, off := m.writable(pa)
	binary.LittleEndian.PutUint32(p[off:], v)
}

// LoadByte reads one byte at physical address pa.
func (m *PhysMem) LoadByte(pa uint32) byte {
	m.ChargeRef()
	return m.frames[pa>>PageShift][pa&(PageSize-1)]
}

// StoreByte writes one byte at physical address pa.
func (m *PhysMem) StoreByte(pa uint32, v byte) {
	m.ChargeRef()
	p, off := m.writable(pa)
	p[off] = v
}

// ReadHalf reads a 16-bit halfword at physical address pa.
func (m *PhysMem) ReadHalf(pa uint32) uint16 {
	m.ChargeRef()
	return binary.LittleEndian.Uint16(m.frames[pa>>PageShift][pa&(PageSize-1):])
}

// WriteHalf writes a 16-bit halfword at physical address pa.
func (m *PhysMem) WriteHalf(pa uint32, v uint16) {
	m.ChargeRef()
	p, off := m.writable(pa)
	binary.LittleEndian.PutUint16(p[off:], v)
}

// ReadWordUncached reads a word with uncached (physical-path) cost. The
// Aegis exception path uses physical addresses to avoid nested TLB faults.
func (m *PhysMem) ReadWordUncached(pa uint32) uint32 {
	m.clock.Tick(CostUncached)
	return binary.LittleEndian.Uint32(m.frames[pa>>PageShift][pa&(PageSize-1):])
}

// WriteWordUncached writes a word with uncached cost.
func (m *PhysMem) WriteWordUncached(pa uint32, v uint32) {
	m.clock.Tick(CostUncached)
	p, off := m.writable(pa)
	binary.LittleEndian.PutUint32(p[off:], v)
}

// chargeCopy charges one reference per word of an n-byte copy.
func (m *PhysMem) chargeCopy(n int) {
	for i := (n + WordSize - 1) / WordSize; i > 0; i-- {
		m.ChargeRef()
	}
}

// CopyIn copies host bytes into physical memory, charging per word. Used by
// device DMA and kernel copy paths; the charge makes copy costs visible in
// measurements (copies are "the bane of fast networking systems"). The
// copy may span frames.
func (m *PhysMem) CopyIn(pa uint32, src []byte) {
	m.chargeCopy(len(src))
	for len(src) > 0 {
		p, off := m.writable(pa)
		n := copy(p[off:], src)
		src = src[n:]
		pa += uint32(n)
	}
}

// CopyOut copies physical memory into a host buffer, charging per word.
// The copy may span frames.
func (m *PhysMem) CopyOut(dst []byte, pa uint32) {
	m.chargeCopy(len(dst))
	for len(dst) > 0 {
		n := copy(dst, m.frames[pa>>PageShift][pa&(PageSize-1):])
		dst = dst[n:]
		pa += uint32(n)
	}
}

// Page returns the raw byte slice of a physical frame. It charges nothing:
// callers are device models or test assertions, which account (or need not
// account) for costs themselves. The slice is writable, so the frame gets
// a page of its own.
func (m *PhysMem) Page(frame uint32) []byte {
	return m.Frame(frame)[:]
}
