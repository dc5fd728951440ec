// Package cache simulates the page cache: per-file pages, dirty tracking
// with cross-layer cause tags, an LRU for clean pages, dirty-ratio write
// throttling, and the writeback daemon (pdflush). It exposes the memory-
// level hooks of the split framework (buffer-dirty and buffer-free,
// paper §4.2) and accounts tag memory for the space-overhead experiment
// (Fig 10).
package cache

import (
	"container/heap"
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

// page is one resident page, a slot in Cache.pages. It holds no Go
// pointer, so the GC never scans the slab. A page is dirty exactly when its
// tag is nonzero; clean pages are linked into the LRU through prev and
// next. Slot 0 is the LRU's list head: its next is the LRU end, its prev
// the most recently used end.
type page struct {
	prev, next int32
	chunk      int32  // slot in Cache.chunks of the page's 64-page group
	tag        uint32 // interned cause set (0 = empty = clean)
	pos        uint8  // index within the group
}

// chunk is one file's 64-page group (idx>>6): the slab slots of its
// resident pages, and bitmaps of the resident and the dirty ones. Chunk
// slot 0 is never used, so 0 means "no chunk".
type chunk struct {
	ino, group      int64
	resident, dirty uint64
	slots           [64]int32
}

// file is one file's share of the cache: its chunks by group, and a
// min-heap of the groups that hold dirty pages, so TakeDirty walks dirty
// pages lowest-first without collecting or sorting them. Pages leave the
// dirty index only lowest-first (TakeDirty) or all at once (FreeFile), so
// only the heap's top group ever empties. A chunk with no resident pages
// is freed, and a file with no chunks is dropped.
type file struct {
	groups map[int64]int32
	heap   groupHeap
	ndirty int64

	// One-entry memo of groups: a syscall's run of pages costs one map
	// lookup per group. lastChunk is 0 when unset.
	lastGroup int64
	lastChunk int32
}

// chunkOf returns the chunk slot of group g, or 0.
func (f *file) chunkOf(g int64) int32 {
	if f.lastChunk != 0 && f.lastGroup == g {
		return f.lastChunk
	}
	ch := f.groups[g]
	if ch != 0 {
		f.lastGroup, f.lastChunk = g, ch
	}
	return ch
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
	resident int64 // pages held across all files

	// Page and chunk slabs with their free slots; slot 0 of each is
	// reserved (the LRU head, and "no chunk").
	pages      []page
	chunks     []chunk
	freePages  []int32
	freeChunks []int32
	causes     interner

	// One-entry memo of files (nil when unset).
	lastIno  int64
	lastFile *file
	groupBuf []int64 // scratch for sortedGroups

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
		pages:          make([]page, 1),
		chunks:         make([]chunk, 1),
		causes:         newInterner(),
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
	if f := c.fileOf(ino); f != nil {
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

// fileOf returns ino's record, or nil.
func (c *Cache) fileOf(ino int64) *file {
	if c.lastFile != nil && c.lastIno == ino {
		return c.lastFile
	}
	f := c.files[ino]
	if f != nil {
		c.lastIno, c.lastFile = ino, f
	}
	return f
}

// slot returns the slab slot of resident page (ino, idx), or 0.
func (c *Cache) slot(ino, idx int64) int32 {
	f := c.fileOf(ino)
	if f == nil {
		return 0
	}
	ch := f.chunkOf(idx >> 6)
	if ch == 0 {
		return 0
	}
	return c.chunks[ch].slots[idx&63]
}

// lruPush appends clean page s at the most recently used end of the LRU.
func (c *Cache) lruPush(s int32) {
	tail := c.pages[0].prev
	c.pages[s].prev, c.pages[s].next = tail, 0
	c.pages[tail].next = s
	c.pages[0].prev = s
}

// lruUnlink takes page s off the LRU.
func (c *Cache) lruUnlink(s int32) {
	p := &c.pages[s]
	c.pages[p.prev].next = p.next
	c.pages[p.next].prev = p.prev
}

// touch promotes page s to the most recently used end if it is clean.
func (c *Cache) touch(s int32) {
	if c.pages[s].tag == 0 {
		c.lruUnlink(s)
		c.lruPush(s)
	}
}

// Peek reports whether page (ino, idx) is resident without promoting it or
// touching hit/miss statistics. SCS-Token uses it to test for cache hits at
// the system-call level (the file-system modification Craciunas et al.
// needed).
func (c *Cache) Peek(ino, idx int64) bool {
	return c.slot(ino, idx) != 0
}

// Lookup reports whether page (ino, idx) is resident, promoting it in the
// LRU on a hit.
func (c *Cache) Lookup(ino, idx int64) bool {
	s := c.slot(ino, idx)
	if s == 0 {
		c.statMisses++
		return false
	}
	c.touch(s)
	c.statHits++
	return true
}

// InsertClean adds a clean page (after a disk read), evicting LRU clean
// pages if RAM is full. Inserting an existing page just promotes it.
func (c *Cache) InsertClean(ino, idx int64) {
	if s := c.slot(ino, idx); s != 0 {
		c.touch(s)
		return
	}
	c.lruPush(c.insert(ino, idx))
}

// insert makes (ino, idx), which must not be resident, a resident page,
// evicting LRU clean pages first if RAM is full, and returns its slot. The
// caller puts it on the LRU or marks it dirty.
func (c *Cache) insert(ino, idx int64) int32 {
	c.evictIfFull()
	f := c.fileOf(ino)
	if f == nil {
		f = &file{groups: make(map[int64]int32)}
		c.files[ino] = f
		c.lastIno, c.lastFile = ino, f
	}
	g := idx >> 6
	ch := f.chunkOf(g)
	if ch == 0 {
		if n := len(c.freeChunks); n > 0 {
			ch = c.freeChunks[n-1]
			c.freeChunks = c.freeChunks[:n-1]
		} else {
			ch = int32(len(c.chunks))
			c.chunks = append(c.chunks, chunk{})
		}
		c.chunks[ch] = chunk{ino: ino, group: g}
		f.groups[g] = ch
		f.lastGroup, f.lastChunk = g, ch
	}
	var s int32
	if n := len(c.freePages); n > 0 {
		s = c.freePages[n-1]
		c.freePages = c.freePages[:n-1]
	} else {
		s = int32(len(c.pages))
		c.pages = append(c.pages, page{})
	}
	pos := uint8(idx & 63)
	c.pages[s] = page{chunk: ch, pos: pos}
	k := &c.chunks[ch]
	k.slots[pos] = s
	k.resident |= 1 << pos
	c.resident++
	return s
}

// evictIfFull drops clean pages from the LRU end while RAM is full,
// freeing chunks and file records that empty.
func (c *Cache) evictIfFull() {
	for c.resident >= c.cfg.TotalPages && c.pages[0].next != 0 {
		s := c.pages[0].next
		c.lruUnlink(s)
		p := c.pages[s]
		k := &c.chunks[p.chunk]
		k.slots[p.pos] = 0
		k.resident &^= 1 << p.pos
		c.freePages = append(c.freePages, s)
		c.resident--
		if k.resident != 0 {
			continue
		}
		f := c.fileOf(k.ino)
		delete(f.groups, k.group)
		if f.lastChunk == p.chunk {
			f.lastChunk = 0
		}
		c.freeChunks = append(c.freeChunks, p.chunk)
		if len(f.groups) == 0 {
			delete(c.files, k.ino)
			c.lastFile = nil
		}
	}
}

// MarkDirty dirties page (ino, idx) on behalf of ctx, firing the
// buffer-dirty hook. It reports whether the page was already dirty (an
// overwrite, which costs no new disk I/O).
func (c *Cache) MarkDirty(ctx *ioctx.Ctx, ino, idx int64) bool {
	newCauses := ctx.Causes()
	h := c.causes.handle(newCauses)
	s := c.slot(ino, idx)
	if s != 0 && c.pages[s].tag != 0 {
		prevTag := c.pages[s].tag
		tag := c.causes.union(prevTag, h)
		c.pages[s].tag = tag
		prev, now := c.causes.sets[prevTag], c.causes.sets[tag]
		c.tagBytes += int64(now.TagBytes() - prev.TagBytes())
		c.noteTagMax()
		c.statOverwrites++
		if c.hooks.BufferDirty != nil {
			c.hooks.BufferDirty(ino, idx, now, prev)
		}
		if c.tr.Enabled() {
			t := c.env.Now()
			c.tr.Record(trace.Event{
				Layer: trace.LayerCache, Op: trace.OpDirty, Label: "overwrite",
				Req: ctx.Req, PID: ctx.PID, Causes: now,
				Start: t, End: t, Ino: ino, Page: idx,
			})
		}
		return true
	}
	if s == 0 {
		s = c.insert(ino, idx)
	} else {
		c.lruUnlink(s)
	}
	p := &c.pages[s]
	p.tag = h
	k := &c.chunks[p.chunk]
	f := c.fileOf(ino)
	if k.dirty == 0 {
		heap.Push(&f.heap, k.group)
	}
	k.dirty |= 1 << p.pos
	f.ndirty++
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
	f := c.fileOf(ino)
	if f == nil || f.ndirty == 0 {
		return nil, nil
	}
	if max <= 0 || int64(max) > f.ndirty {
		max = int(f.ndirty)
	}
	idxs = make([]int64, 0, max)
	tags = make([]causes.Set, 0, max)
	for len(idxs) < max {
		g := f.heap[0]
		k := &c.chunks[f.chunkOf(g)]
		w := k.dirty
		for ; w != 0 && len(idxs) < max; w &= w - 1 {
			pos := bits.TrailingZeros64(w)
			s := k.slots[pos]
			tag := c.causes.sets[c.pages[s].tag]
			idxs = append(idxs, g<<6|int64(pos))
			tags = append(tags, tag)
			c.tagBytes -= int64(tag.TagBytes())
			c.pages[s].tag = 0
			c.lruPush(s)
		}
		k.dirty = w
		if w == 0 {
			heap.Pop(&f.heap)
		}
	}
	f.ndirty -= int64(max)
	c.dirtyCount -= int64(max)
	c.maybeUnthrottle()
	return idxs, tags
}

// sortedGroups returns f's groups in ascending order, in a buffer reused by
// the next call.
func (c *Cache) sortedGroups(f *file) []int64 {
	gs := c.groupBuf[:0]
	for g := range f.groups {
		gs = append(gs, g)
	}
	slices.Sort(gs)
	c.groupBuf = gs
	return gs
}

// FreeFile drops every page of ino, firing buffer-free hooks for dirty
// pages (I/O work that vanished before writeback) in index order.
func (c *Cache) FreeFile(ino int64) {
	f := c.fileOf(ino)
	if f == nil {
		c.maybeUnthrottle()
		return
	}
	gs := c.sortedGroups(f)
	for _, g := range gs {
		c.resident -= int64(bits.OnesCount64(c.chunks[f.groups[g]].resident))
	}
	for _, g := range gs {
		ch := f.groups[g]
		for w := c.chunks[ch].dirty; w != 0; w &= w - 1 {
			pos := bits.TrailingZeros64(w)
			tag := c.causes.sets[c.pages[c.chunks[ch].slots[pos]].tag]
			idx := g<<6 | int64(pos)
			if c.hooks.BufferFree != nil {
				c.hooks.BufferFree(ino, idx, tag)
			}
			if c.tr.Enabled() {
				now := c.env.Now()
				c.tr.Record(trace.Event{
					Layer: trace.LayerCache, Op: trace.OpBufferFree,
					PID: 0, Causes: tag,
					Start: now, End: now, Ino: ino, Page: idx,
				})
			}
			c.statFrees++
			c.tagBytes -= int64(tag.TagBytes())
			c.dirtyCount--
		}
	}
	for _, g := range gs {
		ch := f.groups[g]
		k := &c.chunks[ch]
		for w := k.resident; w != 0; w &= w - 1 {
			s := k.slots[bits.TrailingZeros64(w)]
			if c.pages[s].tag == 0 {
				c.lruUnlink(s)
			}
			c.freePages = append(c.freePages, s)
		}
		c.freeChunks = append(c.freeChunks, ch)
	}
	delete(c.files, ino)
	c.lastFile = nil
	c.maybeUnthrottle()
}

// CheckConsistency verifies the cache's internal invariants: every file
// record is nonempty and owns its chunks, every chunk's slots, bitmaps and
// pages agree, the dirty index holds exactly the dirty pages (bitmaps, group
// heap, per-file and global counts), tag accounting matches the dirty
// pages' tags, the clean pages are exactly the LRU members, every slab slot
// is either in use or free, and the memos name live records. Stress tests
// call it after random workloads.
func (c *Cache) CheckConsistency() error {
	var resident, dirty, tagSum, clean, nchunks int64
	// Walk files and groups in sorted order so the first violation reported
	// is the same on every run (map order would make the error message —
	// exported output — nondeterministic).
	inos := make([]int64, 0, len(c.files))
	for ino := range c.files {
		inos = append(inos, ino)
	}
	slices.Sort(inos)
	for _, ino := range inos {
		f := c.files[ino]
		if len(f.groups) == 0 {
			return fmt.Errorf("cache: empty file record %d", ino)
		}
		if f.lastChunk != 0 && f.groups[f.lastGroup] != f.lastChunk {
			return fmt.Errorf("cache: file %d group memo names a freed chunk", ino)
		}
		var fileDirty, dirtyGroups int64
		for _, g := range c.sortedGroups(f) {
			ch := f.groups[g]
			k := &c.chunks[ch]
			if ch <= 0 || int(ch) >= len(c.chunks) || k.ino != ino || k.group != g || k.resident == 0 || k.dirty&^k.resident != 0 {
				return fmt.Errorf("cache: chunk %d of file %d group %d is corrupt", ch, ino, g)
			}
			if k.dirty != 0 {
				dirtyGroups++
			}
			for pos := range k.slots {
				key := [2]int64{ino, g<<6 | int64(pos)}
				s := k.slots[pos]
				if (s != 0) != (k.resident>>pos&1 == 1) {
					return fmt.Errorf("cache: page %v slot %d disagrees with the resident bitmap", key, s)
				}
				if s == 0 {
					continue
				}
				p := c.pages[s]
				isDirty := k.dirty>>pos&1 == 1
				switch {
				case p.chunk != ch || int(p.pos) != pos:
					return fmt.Errorf("cache: page key mismatch at %v", key)
				case isDirty != (p.tag != 0) || int(p.tag) >= len(c.causes.sets):
					return fmt.Errorf("cache: page %v dirty=%v with tag %d", key, isDirty, p.tag)
				case isDirty:
					fileDirty++
					tagSum += int64(c.causes.sets[p.tag].TagBytes())
				default:
					clean++
				}
			}
			resident += int64(bits.OnesCount64(k.resident))
		}
		if err := c.checkHeap(ino, f, dirtyGroups); err != nil {
			return err
		}
		if f.ndirty != fileDirty {
			return fmt.Errorf("cache: file %d dirty count says %d, bitmaps say %d", ino, f.ndirty, fileDirty)
		}
		dirty += fileDirty
		nchunks += int64(len(f.groups))
	}
	if c.lastFile != nil && c.files[c.lastIno] != c.lastFile {
		return fmt.Errorf("cache: file memo names a dropped record %d", c.lastIno)
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
	if resident+int64(len(c.freePages)) != int64(len(c.pages)-1) || nchunks+int64(len(c.freeChunks)) != int64(len(c.chunks)-1) {
		return fmt.Errorf("cache: slabs leak slots: %d pages (%d resident, %d free), %d chunks (%d used, %d free)",
			len(c.pages)-1, resident, len(c.freePages), len(c.chunks)-1, nchunks, len(c.freeChunks))
	}
	// Walk the LRU: links agree both ways, and every member is a resident
	// clean page, so with the count the members are the clean pages.
	var n int64
	for s := int32(0); n <= clean; n++ {
		p := c.pages[s]
		if c.pages[p.next].prev != s {
			return fmt.Errorf("cache: LRU link broken after slot %d", s)
		}
		if s = p.next; s == 0 {
			break
		}
		if q := c.pages[s]; q.tag != 0 || c.chunks[q.chunk].slots[q.pos] != s {
			return fmt.Errorf("cache: LRU holds slot %d, not a resident clean page", s)
		}
	}
	if n != clean {
		return fmt.Errorf("cache: LRU holds %d pages, %d are clean", n, clean)
	}
	return nil
}

// checkHeap verifies that f's group heap is in heap order and holds each
// of its dirtyGroups groups with dirty pages exactly once.
func (c *Cache) checkHeap(ino int64, f *file, dirtyGroups int64) error {
	for i, g := range f.heap {
		if i > 0 && f.heap[(i-1)/2] > g {
			return fmt.Errorf("cache: file %d groups heap out of order at %d", ino, i)
		}
		if ch := f.groups[g]; ch == 0 || c.chunks[ch].dirty == 0 {
			return fmt.Errorf("cache: file %d heap group %d has no dirty pages", ino, g)
		}
	}
	gs := slices.Clone(f.heap)
	slices.Sort(gs)
	if len(slices.Compact(gs)) != len(f.heap) {
		return fmt.Errorf("cache: file %d groups heap holds a group twice", ino)
	}
	if int64(len(gs)) != dirtyGroups {
		return fmt.Errorf("cache: file %d heap holds %d groups, %d have dirty pages", ino, len(gs), dirtyGroups)
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
