package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"splitio/internal/block"
	"splitio/internal/causes"
	"splitio/internal/core"
	"splitio/internal/device"
	"splitio/internal/fs"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
)

// op names one host-timed call at a layer seam. Only calls that never block
// in virtual time are timed: their host interval is their own work.
type op int

const (
	opMarkDirty op = iota
	opTakeDirty
	opLookup
	opInsertClean
	opAdd
	opNext
	opCompleted
	opService
	nOps
)

var opNames = [nOps]string{
	"cache.markdirty", "cache.takedirty", "cache.lookup", "cache.insertclean",
	"sched.add", "sched.next", "sched.completed",
	"device.service",
}

// Layer of each op, for the self-time shares.
const (
	layerCache = iota
	layerSched
	layerDevice
	nLayers
)

var opLayer = [nOps]int{
	layerCache, layerCache, layerCache, layerCache,
	layerSched, layerSched, layerSched,
	layerDevice,
}

var layerNames = [nLayers]string{"cache", "sched", "device"}

// counters are the decorators' tallies. The struct is copied at the window
// edges and the two copies subtracted, so it holds only plain values.
type counters struct {
	calls  [nOps]int64
	selfNS [nOps]int64

	takeDirtyPages int64
	lookupHits     int64
	nextNil        int64

	throttleCalls int64
	throttleVWait time.Duration
	wbCalls       int64
	wbVWait       time.Duration
	wbPages       int64

	serviceV  time.Duration
	queueWait time.Duration
}

func (c counters) sub(o counters) counters {
	for i := range c.calls {
		c.calls[i] -= o.calls[i]
		c.selfNS[i] -= o.selfNS[i]
	}
	c.takeDirtyPages -= o.takeDirtyPages
	c.lookupHits -= o.lookupHits
	c.nextNil -= o.nextNil
	c.throttleCalls -= o.throttleCalls
	c.throttleVWait -= o.throttleVWait
	c.wbCalls -= o.wbCalls
	c.wbVWait -= o.wbVWait
	c.wbPages -= o.wbPages
	c.serviceV -= o.serviceV
	c.queueWait -= o.queueWait
	return c
}

// laneEventLoop is the span lane of event handlers with no PID to
// attribute to. Every other span sits on the lane of the PID it belongs to:
// a driver's, or a kernel task's such as pdflush or jbd.
const laneEventLoop = 0

// span is one recorded interval. Host times are offsets from the tracer's
// epoch; parent is the driver syscall span that caused it (0 for none, in
// which case the lane names the kernel task).
type span struct {
	name       string
	lane       causes.PID
	start, end time.Duration
	vt         sim.Time
	id, parent int32
}

// tracer times the calls the decorators forward and records spans while
// recording is on. The simulation is single-threaded (one goroutine runs at
// a time), so the tracer needs no locking.
type tracer struct {
	env *sim.Env
	c   counters

	// open holds the child host time accumulated by each timed call in
	// progress, innermost last, so a call's self time excludes nested calls.
	open []int64

	recording bool
	epoch     time.Time
	spans     []span
	maxSpans  int
	dropped   int64
	inflight  map[causes.PID]int32 // driver PID -> open syscall span id
	reading   map[causes.PID]pageRange
	gidPID    map[uint64]causes.PID
	// lastPicked is the submitter of the request the elevator returned last:
	// the dispatcher serves it next, so the device call belongs to it.
	lastPicked causes.PID
}

func newTracer(env *sim.Env, maxSpans int) *tracer {
	return &tracer{
		env:      env,
		maxSpans: maxSpans,
		inflight: make(map[causes.PID]int32),
		reading:  make(map[causes.PID]pageRange),
		gidPID:   make(map[uint64]causes.PID),
	}
}

func (t *tracer) begin() time.Time {
	t.open = append(t.open, 0)
	return time.Now()
}

// end closes the innermost timed call, adds its self time to o, and
// returns its end time.
func (t *tracer) end(o op, start time.Time) time.Time {
	now := time.Now()
	dur := int64(now.Sub(start))
	n := len(t.open) - 1
	child := t.open[n]
	t.open = t.open[:n]
	if n > 0 {
		t.open[n-1] += dur
	}
	t.c.calls[o]++
	t.c.selfNS[o] += dur - child
	return now
}

// spanOf records a call that carries the PID it runs for
// (ioctx.Ctx.PID, block.Request.Submitter).
func (t *tracer) spanOf(o op, start, end time.Time, pid causes.PID) {
	if t.recording {
		t.record(opNames[o], start, end, pid, true)
	}
}

// spanRunner records a call that carries no PID: it belongs to the driver
// whose simulated process runs it, if any.
func (t *tracer) spanRunner(o op, start, end time.Time) {
	if t.recording {
		pid, ok := t.runningDriver()
		t.record(opNames[o], start, end, pid, ok)
	}
}

// spanPage records a call on page idx of ino that carries no PID. Run on
// an event handler, as read completions are, it belongs to the driver whose
// in-flight read covers the page.
func (t *tracer) spanPage(o op, start, end time.Time, ino, idx int64) {
	if !t.recording {
		return
	}
	pid, ok := t.runningDriver()
	if !ok && len(t.spans) < t.maxSpans {
		for p, r := range t.reading {
			if r.ino == ino && idx >= r.first && idx <= r.last && (!ok || p < pid) {
				pid, ok = p, true
			}
		}
	}
	t.record(opNames[o], start, end, pid, ok)
}

// runningDriver returns the driver whose simulated process is executing on
// the calling goroutine: every simulated process runs on a goroutine of its
// own, and event handlers run on the goroutine that drives the event loop.
func (t *tracer) runningDriver() (causes.PID, bool) {
	if len(t.spans) >= t.maxSpans {
		return 0, false // the span is dropped anyway; skip the lookup
	}
	pid, ok := t.gidPID[goid()]
	return pid, ok
}

// pageRange is the pages [first, last] of ino a read syscall covers.
type pageRange struct{ ino, first, last int64 }

// bind marks the calling goroutine as the simulated process of driver pid.
func (t *tracer) bind(pid causes.PID) { t.gidPID[goid()] = pid }

// goid returns the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// record appends a span on pid's lane (the event-loop lane when !hasPID)
// and returns its id, or 0 once the span buffer is full.
func (t *tracer) record(name string, start, end time.Time, pid causes.PID, hasPID bool) int32 {
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return 0
	}
	s := span{
		name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch),
		vt: t.env.Now(), id: int32(len(t.spans) + 1), lane: laneEventLoop,
	}
	if hasPID {
		s.lane = pid
		s.parent = t.inflight[pid]
	}
	t.spans = append(t.spans, s)
	return s.id
}

// syscallBegin opens a driver syscall span; the calls it causes name it as
// their parent until syscallEnd. reads is the page range of a read.
func (t *tracer) syscallBegin(pid causes.PID, name string, reads *pageRange) {
	if t.recording {
		now := time.Now()
		t.inflight[pid] = t.record(name, now, now, pid, true)
		if reads != nil {
			t.reading[pid] = *reads
		}
	}
}

func (t *tracer) syscallEnd(pid causes.PID) {
	delete(t.reading, pid)
	id, ok := t.inflight[pid]
	if !ok {
		return
	}
	delete(t.inflight, pid)
	if id > 0 {
		t.spans[id-1].end = time.Since(t.epoch)
	}
}

// writeChrome writes the recorded spans as Chrome trace_event JSON, one
// complete ("X") event per span, one lane per task.
func (t *tracer) writeChrome(path string, laneNames map[causes.PID]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%d},\"traceEvents\":[\n", t.dropped)
	first := true
	sep := func() {
		if !first {
			w.WriteString(",\n")
		}
		first = false
	}
	for _, lane := range sortedLanes(laneNames) {
		sep()
		name, _ := json.Marshal(laneNames[lane])
		fmt.Fprintf(w, `{"ph":"M","name":"thread_name","pid":1,"tid":%d,"args":{"name":%s}}`, lane, name)
	}
	for _, s := range t.spans {
		sep()
		fmt.Fprintf(w, `{"ph":"X","name":%q,"pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"vt_ns":%d}}`,
			s.name, s.lane, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, int64(s.vt))
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func sortedLanes(m map[causes.PID]string) []causes.PID {
	out := make([]causes.PID, 0, len(m))
	for pid := range m {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// timedCache decorates the page cache the file system writes through.
type timedCache struct {
	inner fs.PageCache
	t     *tracer
}

var _ fs.PageCache = (*timedCache)(nil)

func (c *timedCache) Lookup(ino, idx int64) bool {
	s := c.t.begin()
	hit := c.inner.Lookup(ino, idx)
	c.t.spanPage(opLookup, s, c.t.end(opLookup, s), ino, idx)
	if hit {
		c.t.c.lookupHits++
	}
	return hit
}

func (c *timedCache) InsertClean(ino, idx int64) {
	s := c.t.begin()
	c.inner.InsertClean(ino, idx)
	c.t.spanPage(opInsertClean, s, c.t.end(opInsertClean, s), ino, idx)
}

func (c *timedCache) MarkDirty(ctx *ioctx.Ctx, ino, idx int64) bool {
	s := c.t.begin()
	fresh := c.inner.MarkDirty(ctx, ino, idx)
	c.t.spanOf(opMarkDirty, s, c.t.end(opMarkDirty, s), ctx.PID)
	return fresh
}

func (c *timedCache) TakeDirty(ino int64, max int) ([]int64, []causes.Set) {
	s := c.t.begin()
	idxs, tags := c.inner.TakeDirty(ino, max)
	c.t.spanRunner(opTakeDirty, s, c.t.end(opTakeDirty, s))
	c.t.c.takeDirtyPages += int64(len(idxs))
	return idxs, tags
}

func (c *timedCache) FreeFile(ino int64)             { c.inner.FreeFile(ino) }
func (c *timedCache) FileDirtyPages(ino int64) int64 { return c.inner.FileDirtyPages(ino) }
func (c *timedCache) Misses() int64                  { return c.inner.Misses() }
func (c *timedCache) SetWritebackAsync(fn func(int64, int, func(int))) {
	c.inner.SetWritebackAsync(func(ino int64, max int, done func(n int)) {
		c.t.c.wbCalls++
		t0 := c.t.env.Now()
		fn(ino, max, func(n int) {
			c.t.c.wbVWait += c.t.env.Now().Sub(t0)
			c.t.c.wbPages += int64(n)
			done(n)
		})
	})
}

func (c *timedCache) SetWriteback(fn func(p *sim.Proc, ino int64, max int) int) {
	c.inner.SetWriteback(func(p *sim.Proc, ino int64, max int) int {
		c.t.c.wbCalls++
		t0 := p.Now()
		n := fn(p, ino, max)
		c.t.c.wbVWait += p.Now().Sub(t0)
		c.t.c.wbPages += int64(n)
		return n
	})
}

// Throttle blocks in virtual time, so its host interval holds other
// processes' work: it is counted and its virtual wait summed, not timed.
func (c *timedCache) Throttle(p *sim.Proc) {
	c.t.c.throttleCalls++
	t0 := p.Now()
	c.inner.Throttle(p)
	c.t.c.throttleVWait += p.Now().Sub(t0)
}

// timedElevator decorates the scheduler's block-level half.
type timedElevator struct {
	inner block.Elevator
	t     *tracer
}

func (e *timedElevator) Name() string { return e.inner.Name() }

func (e *timedElevator) Add(r *block.Request) {
	s := e.t.begin()
	e.inner.Add(r)
	e.t.spanOf(opAdd, s, e.t.end(opAdd, s), r.Submitter)
}

func (e *timedElevator) Next(now sim.Time) *block.Request {
	s := e.t.begin()
	r := e.inner.Next(now)
	end := e.t.end(opNext, s)
	if r == nil {
		e.t.spanRunner(opNext, s, end)
		e.t.c.nextNil++
		return nil
	}
	e.t.spanOf(opNext, s, end, r.Submitter)
	e.t.lastPicked = r.Submitter
	return r
}

func (e *timedElevator) Completed(r *block.Request) {
	s := e.t.begin()
	e.inner.Completed(r)
	e.t.spanOf(opCompleted, s, e.t.end(opCompleted, s), r.Submitter)
	e.t.c.queueWait += r.Start.Sub(r.Queued)
}

// timedScheduler hands the block layer the timed elevator; Name and Attach
// go to the real scheduler.
type timedScheduler struct {
	core.Scheduler
	elv *timedElevator
}

func (s *timedScheduler) Elevator() block.Elevator { return s.elv }

func timedFactory(f core.Factory, t *tracer) core.Factory {
	return func(env *sim.Env) core.Scheduler {
		inner := f(env)
		return &timedScheduler{Scheduler: inner, elv: &timedElevator{inner: inner.Elevator(), t: t}}
	}
}

// timedDisk decorates the device model the block layer drives.
type timedDisk struct {
	inner device.Disk
	t     *tracer
}

func (d *timedDisk) Name() string          { return d.inner.Name() }
func (d *timedDisk) SeqBandwidth() float64 { return d.inner.SeqBandwidth() }
func (d *timedDisk) Blocks() int64         { return d.inner.Blocks() }

func (d *timedDisk) ServiceTime(o device.Op, lba int64, n int, now time.Duration, barrier bool) time.Duration {
	s := d.t.begin()
	svc := d.inner.ServiceTime(o, lba, n, now, barrier)
	d.t.spanOf(opService, s, d.t.end(opService, s), d.t.lastPicked)
	d.t.c.serviceV += svc
	return svc
}

// wrapDisk returns the timed decorator of inner. The block layer probes
// its disk for the optional Annotator, Breakdowner and GCStaller
// interfaces, so the decorator implements each exactly when inner does.
func wrapDisk(inner device.Disk, t *tracer) device.Disk {
	td := &timedDisk{inner: inner, t: t}
	an, isA := inner.(device.Annotator)
	bd, isB := inner.(device.Breakdowner)
	gs, isG := inner.(device.GCStaller)
	switch {
	case isA && isB && isG:
		return struct {
			*timedDisk
			device.Annotator
			device.Breakdowner
			device.GCStaller
		}{td, an, bd, gs}
	case isA && isB:
		return struct {
			*timedDisk
			device.Annotator
			device.Breakdowner
		}{td, an, bd}
	case isA && isG:
		return struct {
			*timedDisk
			device.Annotator
			device.GCStaller
		}{td, an, gs}
	case isB && isG:
		return struct {
			*timedDisk
			device.Breakdowner
			device.GCStaller
		}{td, bd, gs}
	case isA:
		return struct {
			*timedDisk
			device.Annotator
		}{td, an}
	case isB:
		return struct {
			*timedDisk
			device.Breakdowner
		}{td, bd}
	case isG:
		return struct {
			*timedDisk
			device.GCStaller
		}{td, gs}
	}
	return td
}
