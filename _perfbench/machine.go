package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/causes"
	"splitio/internal/core"
	"splitio/internal/cpusim"
	"splitio/internal/device"
	"splitio/internal/fs"
	"splitio/internal/ioctx"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/ssd"
	"splitio/internal/trace"
	"splitio/internal/vfs"
)

// machineSeed is core.Options.Seed for every run. The workload seed only
// shapes the drivers' inputs, so the machine itself never changes.
const machineSeed = 1

// ramMiB is the page-cache size, the splitio default.
const ramMiB = 256

func kernelOptions(disk core.DiskKind) core.Options {
	opts := core.DefaultOptions()
	opts.Seed = machineSeed
	opts.Disk = disk
	cc := cache.DefaultConfig()
	cc.TotalPages = ramMiB << 20 / cache.PageSize
	opts.Cache = &cc
	return opts
}

// newTracedKernel assembles the machine core.NewKernelOn builds for opts,
// from the same public constructors in the same order, with the timing
// decorators at the three non-blocking seams: the page cache handed to the
// file system, the elevator handed to the block layer, and the disk handed
// to the block layer. Kernel.Cache and Kernel.Disk stay the raw models.
func newTracedKernel(opts core.Options, factory core.Factory, maxSpans int) (*core.Kernel, *tracer) {
	env := sim.NewEnv(opts.Seed)
	t := newTracer(env, maxSpans)
	var disk device.Disk
	switch opts.Disk {
	case core.SSD:
		disk = device.NewSSD()
	case core.FTLSSD:
		disk = ssd.New(env, ssd.DefaultConfig())
	default:
		disk = device.NewHDD()
	}
	sch := timedFactory(factory, t)(env)
	blk := block.NewLayer(env, wrapDisk(disk, t), sch.Elevator())
	wbCtx := &ioctx.Ctx{PID: 2, Name: "pdflush", Prio: 4}
	jctx := &ioctx.Ctx{PID: 3, Name: "jbd", Prio: 4}
	pc := cache.New(env, *opts.Cache, wbCtx)
	filesystem := fs.New(env, fs.Ext4Config(), &timedCache{inner: pc, t: t}, blk, jctx, wbCtx)
	cpu := cpusim.New(opts.Cores)
	v := vfs.New(env, filesystem, cpu)
	tr := trace.New()
	blk.SetTracer(tr)
	if sd, ok := disk.(*ssd.Device); ok {
		sd.SetTracer(tr)
	}
	pc.SetTracer(tr)
	filesystem.SetTracer(tr)
	v.SetTracer(tr)
	k := &core.Kernel{
		Env: env, CPU: cpu, Disk: disk, Block: blk, Cache: pc, FS: filesystem,
		VFS: v, Sched: sch, Trace: tr, Metrics: metrics.NewRegistry(),
		WBCtx: wbCtx, JCtx: jctx,
	}
	sch.Attach(k)
	return k, t
}

// opKind is a driver syscall.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opFsync
	nKinds
)

var kindNames = [nKinds]string{"read", "write", "fsync"}

// call is one generated syscall.
type call struct {
	kind opKind
	file *fs.File
	off  int64
	n    int64
}

// driver is one simulated process running a closed loop: it issues its
// next syscall only when the previous one has returned.
type driver struct {
	name string
	pr   *vfs.Process
	next func() call

	ops  int64
	errs int64
}

// machine is one kernel running one workload.
type machine struct {
	k       *core.Kernel
	t       *tracer // nil in untraced runs
	drivers []*driver
	live    int
	stop    bool

	// Window tallies: syscalls completed while measuring, and their
	// virtual latencies per kind.
	measuring bool
	winOps    int64
	winBytes  int64
	winLat    [nKinds][]time.Duration
}

// subRNG returns the input stream of driver i under the workload seed.
func subRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7_919 + 1))
}

func (m *machine) spawn(name string, prio int, next func() call) {
	d := &driver{name: name, next: next}
	m.drivers = append(m.drivers, d)
	m.live++
	d.pr = m.k.Spawn(name, prio, func(p *sim.Proc, pr *vfs.Process) {
		if m.t != nil {
			m.t.bind(pr.Ctx.PID)
		}
		for !m.stop {
			m.issue(p, d, d.next())
		}
		m.live--
	})
}

// issue performs one syscall through the kernel's public VFS entry points
// and checks that the call accounted exactly the bytes it was asked for.
func (m *machine) issue(p *sim.Proc, d *driver, c call) {
	pr := d.pr
	pid := pr.Ctx.PID
	if m.t != nil {
		var reads *pageRange
		if c.kind == opRead {
			reads = &pageRange{c.file.Ino, c.off / cache.PageSize, (c.off + c.n - 1) / cache.PageSize}
		}
		m.t.syscallBegin(pid, "syscall."+kindNames[c.kind], reads)
	}
	t0 := p.Now()
	var ok bool
	switch c.kind {
	case opRead:
		before := pr.BytesRead.Total()
		m.k.VFS.Read(p, pr, c.file, c.off, c.n)
		ok = pr.BytesRead.Total()-before == c.n && c.off+c.n <= c.file.Size()
	case opWrite:
		before := pr.BytesWritten.Total()
		m.k.VFS.Write(p, pr, c.file, c.off, c.n)
		ok = pr.BytesWritten.Total()-before == c.n
	case opFsync:
		before := pr.Fsyncs.Count()
		m.k.VFS.Fsync(p, pr, c.file)
		ok = pr.Fsyncs.Count() == before+1
	}
	if m.t != nil {
		m.t.syscallEnd(pid)
	}
	d.ops++
	if !ok {
		d.errs++
	}
	if m.measuring {
		m.winOps++
		if c.kind != opFsync {
			m.winBytes += c.n
		}
		m.winLat[c.kind] = append(m.winLat[c.kind], p.Now().Sub(t0))
	}
}

// drainLimit bounds the virtual time the drain after the window may take.
const drainLimit = 600 * time.Second

// drain stops the drivers, waits for each to return from its last syscall,
// then runs FS.SyncAll from a benchmark process and waits until the block
// layer is empty.
func (m *machine) drain() error {
	m.stop = true
	k := m.k
	deadline := k.Now().Add(drainLimit)
	step := 10 * time.Millisecond
	for m.live > 0 {
		if k.Now() >= deadline {
			return fmt.Errorf("%d drivers still in a syscall %v after the window", m.live, drainLimit)
		}
		k.Run(step)
	}
	synced := false
	k.Spawn("bench-sync", 4, func(p *sim.Proc, pr *vfs.Process) {
		k.FS.SyncAll(p, pr.Ctx)
		synced = true
	})
	for !synced || k.Block.QueueDepth() > 0 {
		if k.Now() >= deadline {
			return fmt.Errorf("sync not done %v after the window (queue depth %d)", drainLimit, k.Block.QueueDepth())
		}
		k.Run(step)
	}
	return nil
}

// check verifies the drained machine: nothing dirty, a consistent cache,
// every block request dispatched and completed, no driver syscall error.
func (m *machine) check() error {
	k := m.k
	if n := k.Cache.DirtyPagesCount(); n != 0 {
		return fmt.Errorf("%d dirty pages after sync", n)
	}
	if err := k.Cache.CheckConsistency(); err != nil {
		return err
	}
	st := k.Block.Stats()
	if st.Requests != st.Dispatched || k.Block.QueueDepth() != 0 {
		return fmt.Errorf("block layer: %d requests, %d dispatched, queue depth %d",
			st.Requests, st.Dispatched, k.Block.QueueDepth())
	}
	for _, d := range m.drivers {
		if d.errs > 0 {
			return fmt.Errorf("driver %s (pid %d): %d of %d syscalls failed", d.name, d.pr.Ctx.PID, d.errs, d.ops)
		}
	}
	return nil
}

func (m *machine) ops() int64 {
	var n int64
	for _, d := range m.drivers {
		n += d.ops
	}
	return n
}

// digest hashes every simulated outcome: per-process bytes, op counts and
// virtual-latency histograms, block-layer stats, journal commits, cache
// hits and misses, event-loop stats, the FTL's GC trace and the final
// virtual time. A change that only speeds up the simulator leaves it
// unchanged.
func (m *machine) digest() uint64 {
	k := m.k
	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	for _, pr := range k.VFS.Processes() {
		put(int64(pr.Ctx.PID), pr.BytesRead.Total(), pr.BytesWritten.Total())
		for _, hist := range []*metrics.Histogram{&pr.Reads, &pr.Writes, &pr.Fsyncs} {
			put(int64(hist.Count()))
			for _, s := range hist.Samples() {
				put(int64(s))
			}
		}
	}
	for _, d := range m.drivers {
		put(d.ops)
	}
	st := k.Block.Stats()
	put(st.Requests, st.Dispatched, st.BlocksRead, st.BlocksWrite, int64(st.BusyTime))
	put(k.FS.Commits(), k.FS.JournalBlocksWritten())
	put(k.Cache.Hits(), k.Cache.Misses())
	es := k.Env.Stats()
	put(es.Events, es.Switches, int64(es.HeapMax))
	if sd, ok := k.Disk.(*ssd.Device); ok {
		put(int64(sd.GCTraceHash()))
	}
	put(int64(k.Now()))
	return h.Sum64()
}

// laneNames names the span lanes of a traced run.
func (m *machine) laneNames() map[causes.PID]string {
	names := map[causes.PID]string{
		laneEventLoop: "event loop",
		m.k.WBCtx.PID: m.k.WBCtx.Name,
		m.k.JCtx.PID:  m.k.JCtx.Name,
	}
	for _, d := range m.drivers {
		names[d.pr.Ctx.PID] = fmt.Sprintf("%s pid %d prio %d", d.name, d.pr.Ctx.PID, d.pr.Ctx.Prio)
	}
	return names
}
