package main

import (
	"bytes"
	"fmt"

	"exokernel/internal/aegis"
	"exokernel/internal/dpf"
	"exokernel/internal/ether"
	"exokernel/internal/exos"
	"exokernel/internal/hw"
	"exokernel/internal/pkt"
	"exokernel/internal/sandbox"
)

// kernel-ops: one op is one call of each of eight kernel-crossing
// classes, in a seeded order with seeded arguments, on machine A of a
// two-machine ether segment (machine B answers the UDP round trips).

const (
	classSyscall = iota
	classProtTrap
	classSTLB
	classLRPC
	classUDPASH
	classUDPApp
	classDPF
	classFSRead
	numClasses
)

const (
	stlbPages  = 256 // 4× the 64-entry hardware TLB, well inside the STLB
	protPages  = 16
	stlbBase   = 0x4000_0000
	protBase   = 0x5000_0000
	udpPayload = 18 // 60-byte frames before the trace trailer, as Table 11
	portA      = 9000
	portASH    = 7
	portApp    = 8
	spinners   = 2
	dpfFilters = 64
	dpfBatch   = 64
	dpfPool    = 4096 // frames; every fourth matches no filter
	fsFiles    = 8
	fsBlocks   = 64 // file data, twice the buffer cache
	fsCache    = 32 // buffer-cache frames
	fsExtent   = 96 // blocks: data plus superblock, bitmap, inodes, directory
	fsReadLen  = 512
)

var (
	macA = pkt.Addr{0x02, 0, 0, 0, 0, 0xA}
	macB = pkt.Addr{0x02, 0, 0, 0, 0, 0xB}
	ipA  = pkt.IP(18, 26, 4, 10)
	ipB  = pkt.IP(18, 26, 4, 11)
)

type kernelOps struct {
	tr     *tracer
	seg    *ether.Segment
	ma     *hw.Machine
	ka, kb *aegis.Kernel
	osA    *exos.LibOS
	stlb   []uint32
	prot   []uint32
	cli    *exos.Client
	sockA  *exos.UDPSocket
	ashLen uint64 // instructions per echo-ASH run (the handler is straight-line)

	eng     *dpf.Engine
	frames  [][]byte
	wantID  []dpf.FilterID // per frame; dpf.None for no match
	dpfCyc  uint64
	nFrames uint64
	matched uint64

	fs    *exos.FS
	cache *exos.BufCache
	files []exos.Inum
	data  [][]byte
	buf   []byte

	order *rng // class order
	args  *rng // per-class arguments
	cls   [numClasses]int
	pay   []byte
}

func setupKernelOps(seed uint64, t tier, tr *tracer) (instance, error) {
	ko := &kernelOps{tr: tr, seg: ether.NewSegment(), order: newRNG(seed, streamClassOrder),
		args: newRNG(seed, streamArgs), buf: make([]byte, fsReadLen), pay: make([]byte, udpPayload)}
	ko.ma = newMachine(t, tr)
	ko.ka = newKernel(ko.ma, tr)
	mb := newMachine(t, tr)
	ko.kb = newKernel(mb, tr)
	ko.seg.Attach(ko.ma)
	ko.seg.Attach(mb)
	ko.ka.SetQuantum(6250) // 250 us slices, as Figure 2
	ko.kb.SetQuantum(6250)
	netA := exos.NewNet(ko.ka, macA, ipA)
	netB := exos.NewNet(ko.kb, macB, ipB)
	var err error
	if ko.osA, err = boot(ko.ka, tr); err != nil {
		return nil, err
	}

	// Pages for the STLB and protection-trap classes, each touched once.
	for i := 0; i < stlbPages+protPages; i++ {
		va := uint32(stlbBase + i*hw.PageSize)
		if i >= stlbPages {
			va = uint32(protBase + (i-stlbPages)*hw.PageSize)
		}
		if _, err := ko.osA.AllocAndMap(va); err != nil {
			return nil, err
		}
		if err := ko.osA.TouchWrite(va); err != nil {
			return nil, err
		}
		if i < stlbPages {
			ko.stlb = append(ko.stlb, va)
		} else {
			ko.prot = append(ko.prot, va)
		}
	}
	ko.osA.OnFault = func(o *exos.LibOS, va uint32, write bool) bool {
		return o.Unprotect(va&^(hw.PageSize-1)) == nil
	}

	// LRPC: a server returning arg+1 to an untrusting client.
	srvOS, err := boot(ko.ka, tr)
	if err != nil {
		return nil, err
	}
	cliOS, err := boot(ko.ka, tr)
	if err != nil {
		return nil, err
	}
	srv := exos.NewServer(srvOS)
	srv.Register(1, func(a [4]uint32) [2]uint32 { return [2]uint32{a[0] + 1, 0} })
	ko.cli = exos.NewClient(cliOS, srv, false)

	// UDP: A's socket; on B an echo ASH on one port and an
	// application-level echo beside spinner environments on another.
	if ko.sockA, err = netA.Bind(ko.osA, portA); err != nil {
		return nil, err
	}
	ashOS, err := boot(ko.kb, tr)
	if err != nil {
		return nil, err
	}
	ashSock, err := netB.Bind(ashOS, portASH)
	if err != nil {
		return nil, err
	}
	ash := exos.EchoASH()
	s := tr.begin(spSandboxVerify)
	_, err = sandbox.Verify(ash, sandbox.PolicyASH)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	ko.ashLen = uint64(len(ash))
	if err := ashSock.AttachEchoASH(); err != nil {
		return nil, err
	}
	appOS, err := boot(ko.kb, tr)
	if err != nil {
		return nil, err
	}
	appSock, err := netB.Bind(appOS, portApp)
	if err != nil {
		return nil, err
	}
	appOS.Env.NativeRun = func(k *aegis.Kernel) {
		for {
			data, flow, ok := appSock.TryRecv()
			if !ok {
				return
			}
			appSock.SendTo(macA, flow.SrcIP, flow.SrcPort, data)
		}
	}
	for i := 0; i < spinners; i++ {
		if _, err := exos.NewSpinner(ko.kb); err != nil {
			return nil, err
		}
	}

	if err := ko.setupDPF(seed); err != nil {
		return nil, err
	}
	if err := ko.setupFS(seed); err != nil {
		return nil, err
	}
	return ko, nil
}

// boot starts a library OS in a fresh environment.
func boot(k *aegis.Kernel, tr *tracer) (*exos.LibOS, error) {
	s := tr.begin(spExosBoot)
	os, err := exos.Boot(k)
	tr.end(s)
	return os, err
}

// setupDPF installs 64 seeded UDP flow filters and builds the frame pool.
// Filter flows come from 10/8; frames that must match nothing come from
// 192.168/16, so none can match by accident.
func (ko *kernelOps) setupDPF(seed uint64) error {
	g := newRNG(seed, streamFlows)
	ko.eng = dpf.NewEngine()
	flows := make([]pkt.Flow, 0, dpfFilters)
	ids := make([]dpf.FilterID, 0, dpfFilters)
	seen := map[pkt.Flow]bool{}
	for len(flows) < dpfFilters {
		f := pkt.Flow{Proto: pkt.ProtoUDP, SrcIP: 10<<24 | uint32(g.next())&0xFFFFFF, DstIP: ipA,
			SrcPort: uint16(1024 + g.intn(64512)), DstPort: uint16(1 + g.intn(1023))}
		if seen[f] {
			continue
		}
		seen[f] = true
		s := ko.tr.begin(spDPFInsert)
		id, err := ko.eng.Insert(dpf.FlowFilter(f))
		ko.tr.end(s)
		if err != nil {
			return err
		}
		flows = append(flows, f)
		ids = append(ids, id)
	}
	payload := make([]byte, 32)
	for j := 0; j < dpfPool; j++ {
		var f pkt.Flow
		want := dpf.None
		if j%4 == 3 {
			f = pkt.Flow{Proto: pkt.ProtoUDP, SrcIP: 192<<24 | 168<<16 | uint32(g.next())&0xFFFF, DstIP: ipA,
				SrcPort: uint16(1024 + g.intn(64512)), DstPort: uint16(1 + g.intn(1023))}
		} else {
			k := g.intn(dpfFilters)
			f, want = flows[k], ids[k]
		}
		n := g.intn(len(payload) + 1)
		g.fill(payload[:n])
		ko.frames = append(ko.frames, pkt.Build(macA, macB, f, payload[:n]))
		ko.wantID = append(ko.wantID, want)
	}
	return nil
}

// setupFS formats a file system on A's disk and writes fsFiles seeded
// files totalling fsBlocks blocks — twice the buffer cache.
func (ko *kernelOps) setupFS(seed uint64) error {
	g := newRNG(seed, streamFiles)
	s := ko.tr.begin(spExosFSOpen)
	dev, err := exos.NewAegisDev(ko.osA, fsExtent)
	if err == nil {
		ko.cache, err = exos.NewFSCache(ko.osA, dev, fsCache, exos.NewLRU())
	}
	ko.tr.end(s)
	if err != nil {
		return err
	}
	s = ko.tr.begin(spExosFormat)
	ko.fs, err = exos.Format(dev, ko.cache, 16)
	ko.tr.end(s)
	if err != nil {
		return err
	}
	// Sizes: fsBlocks blocks split into 4..12-block files by seeded
	// one-block moves, each file then trimmed by up to half a block.
	blocks := make([]int, fsFiles)
	for i := range blocks {
		blocks[i] = fsBlocks / fsFiles
	}
	for moves := 0; moves < 4*fsFiles; moves++ {
		from, to := g.intn(fsFiles), g.intn(fsFiles)
		if from != to && blocks[from] > 4 && blocks[to] < 12 {
			blocks[from]--
			blocks[to]++
		}
	}
	names := map[string]bool{}
	for i := 0; i < fsFiles; i++ {
		name := fmt.Sprintf("k%04x", g.intn(1<<16))
		if names[name] {
			i--
			continue
		}
		names[name] = true
		data := make([]byte, blocks[i]*hw.PageSize-g.intn(hw.PageSize/2))
		g.fill(data)
		in, err := ko.fs.Create(name)
		if err != nil {
			return err
		}
		if err := ko.fs.WriteAt(in, 0, data); err != nil {
			return err
		}
		ko.files = append(ko.files, in)
		ko.data = append(ko.data, data)
	}
	return ko.fs.Sync()
}

func (ko *kernelOps) op(i int, d *digest) error {
	for c := range ko.cls {
		ko.cls[c] = c
	}
	ko.order.shuffle(ko.cls[:])
	for _, c := range ko.cls {
		cyc0, dpf0 := ko.ma.Clock.Cycles(), ko.dpfCyc
		err := ko.class(c, d)
		d.u64(uint64(c))
		d.u64(ko.ma.Clock.Cycles() - cyc0 + ko.dpfCyc - dpf0)
		if err != nil {
			return err
		}
	}
	return nil
}

// class runs one call of class c with seeded arguments and checks its
// output.
func (ko *kernelOps) class(c int, d *digest) error {
	tr, g := ko.tr, ko.args
	switch c {
	case classSyscall:
		ko.osA.Enter()
		before := ko.ka.GlobalStats().Syscalls
		cpu := &ko.ma.CPU
		cpu.SetReg(hw.RegV0, aegis.SysNull)
		cpu.SetReg(hw.RegA0, uint32(g.next()))
		s := tr.begin(spAegisSyscall)
		ko.ma.RaiseException(hw.ExcSyscall, cpu.PC, 0)
		tr.end(s)
		if n := ko.ka.GlobalStats().Syscalls - before; n != 1 {
			return fmt.Errorf("null syscall counted %d times", n)
		}
	case classProtTrap:
		ko.osA.Enter()
		va := ko.prot[g.intn(protPages)]
		faults := ko.osA.Faults
		s := tr.begin(spExosProtTrap)
		err := ko.osA.Protect(va)
		if err == nil {
			err = ko.osA.TouchWrite(va)
		}
		tr.end(s)
		if err != nil {
			return fmt.Errorf("protection trap at %#x: %w", va, err)
		}
		if n := ko.osA.Faults - faults; n != 1 {
			return fmt.Errorf("protection trap at %#x delivered %d faults", va, n)
		}
	case classSTLB:
		ko.osA.Enter()
		va := ko.stlb[g.intn(stlbPages)]
		s := tr.begin(spExosSTLBRefill)
		err := ko.osA.Touch(va)
		tr.end(s)
		if err != nil {
			return fmt.Errorf("touch %#x: %w", va, err)
		}
	case classLRPC:
		arg := uint32(g.next())
		s := tr.begin(spExosLRPC)
		res, err := ko.cli.Call(1, [4]uint32{arg, 0, 0, 0})
		tr.end(s)
		d.u64(uint64(res[0]))
		if err != nil {
			return fmt.Errorf("lrpc: %w", err)
		}
		if res[0] != arg+1 {
			return fmt.Errorf("lrpc(%d) returned %d", arg, res[0])
		}
	case classUDPASH, classUDPApp:
		port, sp := uint16(portASH), spExosUDPASH
		if c == classUDPApp {
			port, sp = portApp, spExosUDPApp
		}
		g.fill(ko.pay)
		s := tr.begin(sp)
		reply, err := ko.roundTrip(port)
		tr.end(s)
		ko.seg.Sync()
		d.bytes(reply)
		if err != nil {
			return err
		}
		if !bytes.Equal(reply, ko.pay) {
			return fmt.Errorf("udp echo on port %d returned %x, sent %x", port, reply, ko.pay)
		}
	case classDPF:
		off := 4 * g.intn((dpfPool-dpfBatch)/4+1)
		var bad error
		s := tr.begin(spDPFClassify)
		for j, f := range ko.frames[off : off+dpfBatch] {
			id, cyc, ok := ko.eng.Classify(f)
			ko.dpfCyc += cyc
			if !ok {
				id = dpf.None
			} else {
				ko.matched++
			}
			if want := ko.wantID[off+j]; id != want && bad == nil {
				bad = fmt.Errorf("frame %d classified as %d, want %d", off+j, id, want)
			}
			d.u64(uint64(id))
		}
		tr.endArg(s, dpfBatch)
		ko.nFrames += dpfBatch
		if bad != nil {
			return bad
		}
	case classFSRead:
		f := g.intn(fsFiles)
		off := uint32(g.intn(len(ko.data[f]) - fsReadLen + 1))
		misses := ko.cache.Misses
		s := tr.begin(spExosFSReadHit)
		n, err := ko.fs.ReadAt(ko.files[f], off, ko.buf)
		if ko.cache.Misses != misses {
			tr.endAs(s, spExosFSReadMiss)
		} else {
			tr.end(s)
		}
		d.bytes(ko.buf[:n])
		if err != nil {
			return fmt.Errorf("fs read: %w", err)
		}
		if !bytes.Equal(ko.buf[:n], ko.data[f][off:off+fsReadLen]) {
			return fmt.Errorf("fs read of file %d at %d returned wrong bytes (%d)", f, off, n)
		}
	}
	return nil
}

// roundTrip sends the payload from A to port on B and drives B's
// scheduler until the echo lands back at A.
func (ko *kernelOps) roundTrip(port uint16) ([]byte, error) {
	ko.sockA.SendTo(macB, ipB, port, ko.pay)
	for rounds := 0; ko.sockA.Pending() == 0; rounds++ {
		if rounds > 10000 || !ko.kb.DispatchNative() {
			return nil, fmt.Errorf("udp echo on port %d: no reply", port)
		}
	}
	data, _, _ := ko.sockA.TryRecv()
	return data, nil
}

func (ko *kernelOps) counters() counters {
	a, b := ko.ka.GlobalStats(), ko.kb.GlobalStats()
	return counters{
		instrs:       ko.ka.Interp.Steps + ko.kb.Interp.Steps + (a.ASHRuns+b.ASHRuns)*ko.ashLen,
		simCycles:    ko.ma.Clock.Cycles() + ko.dpfCyc,
		diskWrites:   ko.ma.Disk.Writes,
		diskFlushes:  ko.ma.Disk.Flushes,
		tlbMisses:    a.TLBMisses + b.TLBMisses,
		stlbHits:     a.STLBHits + b.STLBHits,
		ashRuns:      a.ASHRuns + b.ASHRuns,
		pktDelivered: a.PktDelivered + b.PktDelivered,
		frames:       ko.nFrames,
		matched:      ko.matched,
		cacheHits:    ko.cache.Hits,
		cacheMisses:  ko.cache.Misses,
	}
}
