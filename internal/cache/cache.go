// Package cache simulates the page cache: per-file pages, dirty tracking
// with cross-layer cause tags, an LRU for clean pages, dirty-ratio write
// throttling, and the writeback daemon (pdflush). It exposes the memory-
// level hooks of the split framework (buffer-dirty and buffer-free,
// paper §4.2) and accounts tag memory for the space-overhead experiment
// (Fig 10).
package cache

import (
	"container/heap"
	"container/list"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"splitio/internal/causes"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// PageSize is the cache page size in bytes.
const PageSize = 4096

// Config sets cache geometry and writeback policy.
type Config struct {
	// TotalPages is the size of RAM in pages.
	TotalPages int64
	// DirtyRatio is the fraction of RAM that may be dirty before writers
	// are throttled (Linux vm.dirty_ratio).
	DirtyRatio float64
	// DirtyBackgroundRatio is the fraction at which pdflush starts
	// writeback (Linux vm.dirty_background_ratio).
	DirtyBackgroundRatio float64
	// WritebackInterval is pdflush's periodic wake-up (Linux's 5 s).
	WritebackInterval time.Duration
	// WritebackBatch is the number of pages flushed per file per round.
	WritebackBatch int
}

// DefaultConfig models a machine with 2 GiB of RAM and Linux defaults.
func DefaultConfig() Config {
	return Config{
		TotalPages:           2 << 30 / PageSize,
		DirtyRatio:           0.20,
		DirtyBackgroundRatio: 0.10,
		WritebackInterval:    5 * time.Second,
		WritebackBatch:       1024,
	}
}

// MemHooks are the split framework's memory-level notifications. Any field
// may be nil.
type MemHooks struct {
	// BufferDirty fires when a page is dirtied. prev is the previous cause
	// set when an already-dirty buffer is overwritten (paper: the scheduler
	// may shift responsibility to the last writer), empty for a fresh dirty.
	BufferDirty func(ino, idx int64, now causes.Set, prev causes.Set)
	// BufferFree fires when a dirty page is discarded before writeback.
	BufferFree func(ino, idx int64, c causes.Set)
}

// page is one resident page. A page is dirty exactly when it is off the
// clean LRU (lruElem == nil); only dirty pages carry a cause tag.
type page struct {
	file    *file
	idx     int64
	wcauses causes.Set
	lruElem *list.Element // non-nil while clean and evictable
}

func (pg *page) dirty() bool { return pg.lruElem == nil }

// file is one file's share of the cache: its resident pages, and an ordered
// index of the dirty ones. Dirty pages are indexed by 64-page group (idx>>6):
// dirty holds each group's bitmap, and groups is a min-heap of the groups
// whose bitmap is nonzero, so TakeDirty walks dirty pages lowest-first
// without collecting or sorting them. Pages leave the dirty index only
// lowest-first (TakeDirty) or all at once (FreeFile), so only the heap's
// top group ever empties. A file with no resident pages is dropped.
type file struct {
	ino    int64
	pages  map[int64]*page
	dirty  map[int64]uint64
	groups groupHeap
	ndirty int64
}

// markDirty adds idx to the dirty index.
func (f *file) markDirty(idx int64) {
	g := idx >> 6
	w := f.dirty[g]
	if w == 0 {
		heap.Push(&f.groups, g)
	}
	f.dirty[g] = w | 1<<(idx&63)
	f.ndirty++
}

// groupHeap is a min-heap of 64-page group numbers.
type groupHeap []int64

func (h groupHeap) Len() int           { return len(h) }
func (h groupHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h groupHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *groupHeap) Push(x any)        { *h = append(*h, x.(int64)) }

// Pop drops the last element; callers read the minimum at index 0 first.
func (h *groupHeap) Pop() any {
	*h = (*h)[:len(*h)-1]
	return nil
}

// dirtyIdxs returns the file's dirty page indices in ascending order.
func (f *file) dirtyIdxs() []int64 {
	gs := slices.Clone(f.groups)
	slices.Sort(gs)
	idxs := make([]int64, 0, f.ndirty)
	for _, g := range gs {
		for w := f.dirty[g]; w != 0; w &= w - 1 {
			idxs = append(idxs, g<<6|int64(bits.TrailingZeros64(w)))
		}
	}
	return idxs
}

// WritebackFn flushes up to max dirty pages of file ino to disk on behalf of
// process p, returning how many pages it submitted. The file system
// provides it (allocation, journaling, and block submission happen there);
// Cache.Writeback calls it for schedulers that drive writeback themselves.
type WritebackFn func(p *sim.Proc, ino int64, max int) int

// WritebackAsyncFn is the run-to-completion counterpart of WritebackFn that
// the writeback daemon drives: it flushes up to max dirty pages of ino and
// invokes done(n) — n pages submitted — once every write has completed. It
// must not block; the file system provides it alongside WritebackFn.
type WritebackAsyncFn func(ino int64, max int, done func(n int))

// Cache is the simulated page cache.
type Cache struct {
	env   *sim.Env
	cfg   Config
	hooks MemHooks
	tr    *trace.Tracer

	files    map[int64]*file
	resident int64     // pages held across all files
	lru      list.List // clean pages, front = LRU

	dirtyCount int64
	dirtyOrder []int64        // round-robin order of inos with dirty pages
	inOrder    map[int64]bool // membership in dirtyOrder (no duplicates)

	throttleQ *sim.WaitQueue // writers blocked on dirty_ratio
	wbWake    *sim.WaitQueue // pdflush wake-ups
	flushHint []int64        // files schedulers asked to flush first

	writeback      WritebackFn
	writebackAsync WritebackAsyncFn
	pdflushEnabled bool
	wbCtx          *ioctx.Ctx

	// Run-to-completion pdflush state: the loop and park continuations are
	// allocated once at construction.
	pdWakeFn func(sig bool)
	pdIdleFn func(sig bool)

	// Tag-memory accounting (Fig 10).
	tagBytes    int64
	maxTagBytes int64

	// Stats.
	statDirtied    int64
	statOverwrites int64
	statFrees      int64
	statHits       int64
	statMisses     int64
}

// New creates a cache and starts its writeback daemon. wbCtx is the identity
// of the writeback task (a kernel thread at priority 4, like Linux's
// pdflush).
func New(env *sim.Env, cfg Config, wbCtx *ioctx.Ctx) *Cache {
	c := &Cache{
		env:            env,
		cfg:            cfg,
		tr:             trace.Nop,
		files:          make(map[int64]*file),
		inOrder:        make(map[int64]bool),
		throttleQ:      sim.NewWaitQueue(env),
		wbWake:         sim.NewWaitQueue(env),
		pdflushEnabled: true,
		wbCtx:          wbCtx,
	}
	c.pdWakeFn = func(sig bool) { c.pdflushLoop() }
	c.pdIdleFn = c.pdflushAfterIdle
	// The daemon's first pass runs at time zero and parks on wbWake. t=0
	// startup events fire in construction order; the schedule goldens pin
	// that order.
	env.Schedule(0, c.pdflushLoop)
	return c
}

// SetHooks installs memory-level hooks.
func (c *Cache) SetHooks(h MemHooks) { c.hooks = h }

// SetTracer installs the kernel's tracer (nil restores the disabled Nop).
func (c *Cache) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		tr = trace.Nop
	}
	c.tr = tr
}

// SetWriteback installs the file system's blocking flush callback, which
// Writeback uses. The parameter is spelled as an unnamed func type so that
// fs.PageCache can name this method without importing cache.
func (c *Cache) SetWriteback(fn func(p *sim.Proc, ino int64, max int) int) {
	c.writeback = fn
}

// SetWritebackAsync installs the run-to-completion flush callback the
// writeback daemon drives. Like SetWriteback, the parameter is an unnamed
// func type so fs.PageCache can name this method without importing cache.
func (c *Cache) SetWritebackAsync(fn func(ino int64, max int, done func(n int))) {
	c.writebackAsync = fn
}

// SetPdflushEnabled turns the periodic writeback daemon on or off. Split
// schedulers that take complete control of writeback (paper §7.1.2) turn it
// off and call Writeback themselves.
func (c *Cache) SetPdflushEnabled(on bool) {
	c.pdflushEnabled = on
	if on {
		c.wbWake.Signal()
	}
}

// PdflushEnabled reports whether the daemon is active.
func (c *Cache) PdflushEnabled() bool { return c.pdflushEnabled }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetDirtyRatios adjusts throttling thresholds at runtime.
func (c *Cache) SetDirtyRatios(dirty, background float64) {
	c.cfg.DirtyRatio = dirty
	c.cfg.DirtyBackgroundRatio = background
}

// DirtyPagesCount returns the number of dirty pages.
func (c *Cache) DirtyPagesCount() int64 { return c.dirtyCount }

// DirtyBytes returns total dirty bytes.
func (c *Cache) DirtyBytes() int64 { return c.dirtyCount * PageSize }

// FileDirtyPages returns the number of dirty pages of ino.
func (c *Cache) FileDirtyPages(ino int64) int64 {
	if f, ok := c.files[ino]; ok {
		return f.ndirty
	}
	return 0
}

// FileDirtyBytes returns the dirty bytes of ino.
func (c *Cache) FileDirtyBytes(ino int64) int64 {
	return c.FileDirtyPages(ino) * PageSize
}

// DirtyFiles returns the inos that currently have dirty pages, in
// round-robin writeback order.
func (c *Cache) DirtyFiles() []int64 {
	var out []int64
	for _, ino := range c.dirtyOrder {
		if c.FileDirtyPages(ino) > 0 {
			out = append(out, ino)
		}
	}
	return out
}

// TagBytes returns current tag-memory usage (split framework overhead).
func (c *Cache) TagBytes() int64 { return c.tagBytes }

// MaxTagBytes returns the high-water mark of tag-memory usage.
func (c *Cache) MaxTagBytes() int64 { return c.maxTagBytes }

// Hits and Misses report read-lookup counters.
func (c *Cache) Hits() int64   { return c.statHits }
func (c *Cache) Misses() int64 { return c.statMisses }

func (c *Cache) bgThreshold() int64 {
	return int64(c.cfg.DirtyBackgroundRatio * float64(c.cfg.TotalPages))
}

func (c *Cache) dirtyThreshold() int64 {
	return int64(c.cfg.DirtyRatio * float64(c.cfg.TotalPages))
}

// lookupPage returns the resident page (ino, idx), or nil.
func (c *Cache) lookupPage(ino, idx int64) *page {
	if f, ok := c.files[ino]; ok {
		return f.pages[idx]
	}
	return nil
}

// Peek reports whether page (ino, idx) is resident without promoting it or
// touching hit/miss statistics. SCS-Token uses it to test for cache hits at
// the system-call level (the file-system modification Craciunas et al.
// needed).
func (c *Cache) Peek(ino, idx int64) bool {
	return c.lookupPage(ino, idx) != nil
}

// Lookup reports whether page (ino, idx) is resident, promoting it in the
// LRU on a hit.
func (c *Cache) Lookup(ino, idx int64) bool {
	pg := c.lookupPage(ino, idx)
	if pg == nil {
		c.statMisses++
		return false
	}
	if pg.lruElem != nil {
		c.lru.MoveToBack(pg.lruElem)
	}
	c.statHits++
	return true
}

// InsertClean adds a clean page (after a disk read), evicting LRU clean
// pages if RAM is full. Inserting an existing page just promotes it.
func (c *Cache) InsertClean(ino, idx int64) {
	if pg := c.lookupPage(ino, idx); pg != nil {
		if pg.lruElem != nil {
			c.lru.MoveToBack(pg.lruElem)
		}
		return
	}
	pg := c.insert(ino, idx)
	pg.lruElem = c.lru.PushBack(pg)
}

// insert makes (ino, idx), which must not be resident, a resident page,
// evicting LRU clean pages first if RAM is full. The caller puts it on the
// LRU or marks it dirty.
func (c *Cache) insert(ino, idx int64) *page {
	c.evictIfFull()
	f, ok := c.files[ino]
	if !ok {
		f = &file{ino: ino, pages: make(map[int64]*page), dirty: make(map[int64]uint64)}
		c.files[ino] = f
	}
	pg := &page{file: f, idx: idx}
	f.pages[idx] = pg
	c.resident++
	return pg
}

func (c *Cache) evictIfFull() {
	for c.resident >= c.cfg.TotalPages && c.lru.Len() > 0 {
		pg := c.lru.Remove(c.lru.Front()).(*page)
		f := pg.file
		delete(f.pages, pg.idx)
		c.resident--
		if len(f.pages) == 0 {
			delete(c.files, f.ino)
		}
	}
}

// MarkDirty dirties page (ino, idx) on behalf of ctx, firing the
// buffer-dirty hook. It reports whether the page was already dirty (an
// overwrite, which costs no new disk I/O).
func (c *Cache) MarkDirty(ctx *ioctx.Ctx, ino, idx int64) bool {
	newCauses := ctx.Causes()
	pg := c.lookupPage(ino, idx)
	if pg != nil && pg.dirty() {
		prev := pg.wcauses
		c.tagBytes -= int64(prev.TagBytes())
		pg.wcauses = prev.Union(newCauses)
		c.tagBytes += int64(pg.wcauses.TagBytes())
		c.noteTagMax()
		c.statOverwrites++
		if c.hooks.BufferDirty != nil {
			c.hooks.BufferDirty(ino, idx, pg.wcauses, prev)
		}
		if c.tr.Enabled() {
			now := c.env.Now()
			c.tr.Record(trace.Event{
				Layer: trace.LayerCache, Op: trace.OpDirty, Label: "overwrite",
				Req: ctx.Req, PID: ctx.PID, Causes: pg.wcauses,
				Start: now, End: now, Ino: ino, Page: idx,
			})
		}
		return true
	}
	if pg == nil {
		pg = c.insert(ino, idx)
	} else {
		c.lru.Remove(pg.lruElem)
		pg.lruElem = nil
	}
	pg.wcauses = newCauses
	pg.file.markDirty(idx)
	c.dirtyCount++
	c.statDirtied++
	c.tagBytes += int64(newCauses.TagBytes())
	c.noteTagMax()
	if !c.inOrder[ino] {
		c.inOrder[ino] = true
		c.dirtyOrder = append(c.dirtyOrder, ino)
	}
	if c.hooks.BufferDirty != nil {
		c.hooks.BufferDirty(ino, idx, newCauses, causes.None)
	}
	if c.tr.Enabled() {
		now := c.env.Now()
		c.tr.Record(trace.Event{
			Layer: trace.LayerCache, Op: trace.OpDirty,
			Req: ctx.Req, PID: ctx.PID, Causes: newCauses,
			Start: now, End: now, Ino: ino, Page: idx,
		})
	}
	if c.dirtyCount > c.bgThreshold() {
		c.wbWake.Signal()
	}
	return false
}

func (c *Cache) noteTagMax() {
	if c.tagBytes > c.maxTagBytes {
		c.maxTagBytes = c.tagBytes
	}
}

// TakeDirty removes up to max dirty pages of ino (lowest index first),
// marking them clean and returning their indices and cause sets. The caller
// (the file system) is responsible for writing them to disk. Pages
// re-dirtied while in flight simply become dirty again.
func (c *Cache) TakeDirty(ino int64, max int) (idxs []int64, tags []causes.Set) {
	f, ok := c.files[ino]
	if !ok || f.ndirty == 0 {
		return nil, nil
	}
	if max <= 0 || int64(max) > f.ndirty {
		max = int(f.ndirty)
	}
	idxs = make([]int64, 0, max)
	tags = make([]causes.Set, 0, max)
	for len(idxs) < max {
		g := f.groups[0]
		w := f.dirty[g]
		for ; w != 0 && len(idxs) < max; w &= w - 1 {
			idx := g<<6 | int64(bits.TrailingZeros64(w))
			pg := f.pages[idx]
			idxs = append(idxs, idx)
			tags = append(tags, pg.wcauses)
			c.tagBytes -= int64(pg.wcauses.TagBytes())
			pg.wcauses = causes.None
			pg.lruElem = c.lru.PushBack(pg)
		}
		if w == 0 {
			delete(f.dirty, g)
			heap.Pop(&f.groups)
		} else {
			f.dirty[g] = w
		}
	}
	f.ndirty -= int64(max)
	c.dirtyCount -= int64(max)
	c.maybeUnthrottle()
	return idxs, tags
}

// FreeFile drops every page of ino, firing buffer-free hooks for dirty
// pages (I/O work that vanished before writeback).
func (c *Cache) FreeFile(ino int64) {
	f, ok := c.files[ino]
	if !ok {
		c.maybeUnthrottle()
		return
	}
	c.resident -= int64(len(f.pages))
	for _, idx := range f.dirtyIdxs() {
		pg := f.pages[idx]
		if c.hooks.BufferFree != nil {
			c.hooks.BufferFree(ino, idx, pg.wcauses)
		}
		if c.tr.Enabled() {
			now := c.env.Now()
			c.tr.Record(trace.Event{
				Layer: trace.LayerCache, Op: trace.OpBufferFree,
				PID: 0, Causes: pg.wcauses,
				Start: now, End: now, Ino: ino, Page: idx,
			})
		}
		c.statFrees++
		c.tagBytes -= int64(pg.wcauses.TagBytes())
		c.dirtyCount--
		delete(f.pages, idx)
	}
	// Only clean pages are left.
	//splitlint:ignore maporder reviewed: unlinking list elements commutes; the surviving LRU order is the same in any order
	for _, pg := range f.pages {
		c.lru.Remove(pg.lruElem)
	}
	delete(c.files, ino)
	c.maybeUnthrottle()
}

// CheckConsistency verifies the cache's internal invariants: every file
// record is nonempty and owns its pages, the dirty index holds exactly the
// dirty pages (bitmaps, group heap, per-file and global counts), tag
// accounting matches the dirty pages' tags, and clean pages are exactly the
// LRU members. Stress tests call it after random workloads.
func (c *Cache) CheckConsistency() error {
	var resident, dirty, tagSum, clean int64
	// Walk files and pages in sorted order so the first violation reported
	// is the same on every run (map order would make the error message —
	// exported output — nondeterministic).
	inos := make([]int64, 0, len(c.files))
	for ino := range c.files {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	for _, ino := range inos {
		f := c.files[ino]
		if f.ino != ino {
			return fmt.Errorf("cache: file record %d filed under %d", f.ino, ino)
		}
		if len(f.pages) == 0 {
			return fmt.Errorf("cache: empty file record %d", ino)
		}
		idxs := make([]int64, 0, len(f.pages))
		for idx := range f.pages {
			idxs = append(idxs, idx)
		}
		slices.Sort(idxs)
		var fileDirty int64
		for _, idx := range idxs {
			key := [2]int64{ino, idx}
			pg := f.pages[idx]
			if pg.file != f || pg.idx != idx {
				return fmt.Errorf("cache: page key mismatch at %v", key)
			}
			indexed := f.dirty[idx>>6]&(1<<(idx&63)) != 0
			switch {
			case pg.dirty() && !indexed:
				return fmt.Errorf("cache: dirty page %v missing from the dirty index", key)
			case !pg.dirty() && indexed:
				return fmt.Errorf("cache: clean page %v in the dirty index", key)
			case pg.dirty() == pg.wcauses.Empty():
				return fmt.Errorf("cache: page %v dirty=%v with tag %v", key, pg.dirty(), pg.wcauses)
			}
			if pg.dirty() {
				fileDirty++
				tagSum += int64(pg.wcauses.TagBytes())
			} else {
				clean++
			}
		}
		if err := f.checkGroups(); err != nil {
			return err
		}
		var indexed int64
		for _, g := range f.groups {
			indexed += int64(bits.OnesCount64(f.dirty[g]))
		}
		if indexed != fileDirty || f.ndirty != fileDirty {
			return fmt.Errorf("cache: file %d dirty index holds %d pages, count says %d, flags say %d",
				ino, indexed, f.ndirty, fileDirty)
		}
		resident += int64(len(idxs))
		dirty += fileDirty
	}
	if resident != c.resident {
		return fmt.Errorf("cache: resident %d != actual %d", c.resident, resident)
	}
	if dirty != c.dirtyCount {
		return fmt.Errorf("cache: dirtyCount %d != actual %d", c.dirtyCount, dirty)
	}
	if tagSum != c.tagBytes {
		return fmt.Errorf("cache: tagBytes %d != actual %d", c.tagBytes, tagSum)
	}
	if int64(c.lru.Len()) != clean {
		return fmt.Errorf("cache: LRU holds %d pages, %d are clean", c.lru.Len(), clean)
	}
	return nil
}

// checkGroups verifies that the groups heap is in heap order and holds each
// key of a nonzero dirty bitmap exactly once.
func (f *file) checkGroups() error {
	for i, g := range f.groups {
		if i > 0 && f.groups[(i-1)/2] > g {
			return fmt.Errorf("cache: file %d groups heap out of order at %d", f.ino, i)
		}
	}
	gs := slices.Clone(f.groups)
	slices.Sort(gs)
	if len(slices.Compact(gs)) != len(f.groups) {
		return fmt.Errorf("cache: file %d groups heap holds a group twice", f.ino)
	}
	for _, g := range gs {
		if f.dirty[g] == 0 {
			return fmt.Errorf("cache: file %d heap group %d has no dirty pages", f.ino, g)
		}
	}
	if len(gs) != len(f.dirty) {
		return fmt.Errorf("cache: file %d heap holds %d groups, %d have dirty pages", f.ino, len(gs), len(f.dirty))
	}
	return nil
}

// Throttle blocks p while the dirty-page count exceeds the dirty ratio
// (Linux's balance_dirty_pages). The writeback daemon unthrottles writers as
// pages clean.
func (c *Cache) Throttle(p *sim.Proc) {
	for c.dirtyCount > c.dirtyThreshold() {
		c.wbWake.Signal()
		c.throttleQ.Wait(p)
	}
}

// ThrottledWriters returns the number of processes blocked in Throttle.
func (c *Cache) ThrottledWriters() int { return c.throttleQ.Len() }

func (c *Cache) maybeUnthrottle() {
	if c.dirtyCount <= c.dirtyThreshold() {
		c.throttleQ.Broadcast()
	}
}

// FlushAsync asks the writeback daemon to flush ino ahead of the normal
// round-robin order (used by Split-Deadline's cost-spreading pre-flush).
func (c *Cache) FlushAsync(ino int64) {
	c.flushHint = append(c.flushHint, ino)
	c.wbWake.Signal()
}

// Writeback synchronously flushes up to max dirty pages of ino using the
// installed writeback function, on behalf of p. It returns pages flushed.
func (c *Cache) Writeback(p *sim.Proc, ino int64, max int) int {
	if c.writeback == nil {
		return 0
	}
	traced := c.tr.Enabled()
	var start sim.Time
	if traced {
		// Each writeback round is its own request tree: stamp the writeback
		// identity so the flush, block, and device spans below all link up.
		c.wbCtx.Req = c.tr.NextReq()
		start = c.env.Now()
	}
	depth := c.dirtyCount
	n := c.writeback(p, ino, max)
	if traced {
		c.tr.Record(trace.Event{
			Layer: trace.LayerCache, Op: trace.OpWriteback, Label: "sync",
			Req: c.wbCtx.Req, PID: c.wbCtx.PID, Depth: depth,
			Start: start, End: c.env.Now(), Ino: ino, Blocks: n,
		})
	}
	return n
}

// nextDirtyIno returns the next file to write back: scheduler hints first,
// then the file with the most dirty pages. Largest-first approximates
// Linux's proportional writeback (flusher effort follows dirty share), so a
// process admitted more writes also receives more drain.
func (c *Cache) nextDirtyIno() (int64, bool) {
	for len(c.flushHint) > 0 {
		ino := c.flushHint[0]
		c.flushHint = c.flushHint[1:]
		if c.FileDirtyPages(ino) > 0 {
			return ino, true
		}
	}
	bestIno, bestN := int64(0), int64(0)
	for _, ino := range c.dirtyOrder {
		if n := c.FileDirtyPages(ino); n > bestN {
			bestIno, bestN = ino, n
		}
	}
	if bestN == 0 {
		// Compact stale entries.
		c.dirtyOrder = c.dirtyOrder[:0]
		for ino := range c.inOrder {
			delete(c.inOrder, ino)
		}
		return 0, false
	}
	return bestIno, true
}

// pdflushLoop is the writeback daemon as a run-to-completion state machine:
// wake periodically (or on demand), and while the system is over the
// background threshold — or a flush hint is pending, or writers are
// throttled — flush one dirty file per pass, parking on wbWake (with or
// without the periodic timeout) between passes.
func (c *Cache) pdflushLoop() {
	if !c.pdflushEnabled {
		c.wbWake.WaitFn(c.pdWakeFn)
		return
	}
	over := c.dirtyCount > c.bgThreshold()
	hinted := len(c.flushHint) > 0
	throttled := c.throttleQ.Len() > 0
	if !over && !hinted && !throttled {
		c.wbWake.WaitTimeoutFn(c.cfg.WritebackInterval, c.pdIdleFn)
		return
	}
	ino, ok := c.nextDirtyIno()
	if !ok {
		c.maybeUnthrottle()
		c.wbWake.WaitTimeoutFn(c.cfg.WritebackInterval, c.pdWakeFn)
		return
	}
	c.flushOneFn(ino)
}

// pdflushAfterIdle resumes the daemon after an idle park: flush one file
// periodically to age out dirty data even under the background threshold.
func (c *Cache) pdflushAfterIdle(sig bool) {
	if c.dirtyCount > 0 && c.pdflushEnabled {
		if ino, ok := c.nextDirtyIno(); ok {
			c.flushOneFn(ino)
			return
		}
	}
	c.pdflushLoop()
}

// flushOneFn flushes one file through the async writeback callback and
// continues the daemon loop once the flush completes.
func (c *Cache) flushOneFn(ino int64) {
	if c.writebackAsync == nil {
		// No file system attached: drop the pages (test configurations).
		c.TakeDirty(ino, c.cfg.WritebackBatch)
		c.pdflushLoop()
		return
	}
	traced := c.tr.Enabled()
	var start sim.Time
	if traced {
		c.wbCtx.Req = c.tr.NextReq()
		start = c.env.Now()
	}
	depth := c.dirtyCount
	c.writebackAsync(ino, c.cfg.WritebackBatch, func(n int) {
		if traced {
			c.tr.Record(trace.Event{
				Layer: trace.LayerCache, Op: trace.OpWriteback, Label: "pdflush",
				Req: c.wbCtx.Req, PID: c.wbCtx.PID, Depth: depth,
				Start: start, End: c.env.Now(), Ino: ino, Blocks: n,
			})
		}
		c.maybeUnthrottle()
		c.pdflushLoop()
	})
}
