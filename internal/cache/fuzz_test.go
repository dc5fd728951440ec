package cache

import (
	"slices"
	"testing"

	"splitio/internal/causes"
	"splitio/internal/ioctx"
)

// FuzzCacheModel replays a decoded op sequence against the cache and against
// refModel, a plain map-and-sort page cache, and compares every observable
// after every op: return values, hook calls, hit/miss counters, dirty counts,
// DirtyFiles, tag accounting and CheckConsistency.
//
// The input's first byte sizes RAM (8..127 pages); every following 4 bytes
// (k, a, x, y) are one op on file 1+a%3 and page x|(y&1)<<8, so page indices
// span eight 64-page groups. Three contexts (selected by a/3%3) act as
// writers; ops also change a context's PID and begin or end proxying.
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{56, 0, 0, 0, 0, 0, 0, 70, 1, 3, 0, 63, 0, 3, 0, 1, 0})
	f.Add([]byte{0, 4, 0, 1, 0, 4, 0, 9, 0, 5, 0, 1, 0, 0, 0, 12, 0, 6, 0, 0, 0})
	f.Add([]byte{20, 8, 3, 1, 3, 0, 3, 5, 0, 7, 6, 11, 0, 0, 6, 5, 0, 8, 6, 0, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := smallConfig()
		cfg.TotalPages = 8 + int64(data[0])%120
		env, c := newTestCache(cfg)
		defer env.Close()
		m := &refModel{total: cfg.TotalPages, pages: make(map[[2]int64]causes.Set)}
		var got []hookCall
		c.SetHooks(MemHooks{
			BufferDirty: func(ino, idx int64, now, prev causes.Set) {
				got = append(got, hookCall{"dirty", ino, idx, now.String(), prev.String()})
			},
			BufferFree: func(ino, idx int64, cs causes.Set) {
				got = append(got, hookCall{"free", ino, idx, cs.String(), ""})
			},
		})
		ctxs := make([]*ioctx.Ctx, 3)
		refs := make([]refCtx, 3)
		for i := range ctxs {
			ctxs[i] = &ioctx.Ctx{PID: causes.PID(10 + i)}
			refs[i] = refCtx{pid: causes.PID(10 + i)}
		}
		ops := data[1:]
		if len(ops) > 4*512 {
			ops = ops[:4*512]
		}
		for n := 0; len(ops) >= 4; n++ {
			k, a, x, y := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			ino := 1 + int64(a%3)
			ci := int(a/3) % 3
			idx := int64(x) | int64(y&1)<<8
			switch k % 9 {
			case 0, 1, 2:
				want := m.markDirty(ino, idx, refs[ci].causes())
				if was := c.MarkDirty(ctxs[ci], ino, idx); was != want {
					t.Fatalf("op %d: MarkDirty(%d,%d) = %v, want %v", n, ino, idx, was, want)
				}
			case 3:
				max := int(x)%140 - 4
				wantIdxs, wantTags := m.takeDirty(ino, max)
				idxs, tags := c.TakeDirty(ino, max)
				if !slices.Equal(idxs, wantIdxs) || !slices.EqualFunc(tags, wantTags, causes.Set.Equal) {
					t.Fatalf("op %d: TakeDirty(%d,%d) = %v %v, want %v %v", n, ino, max, idxs, tags, wantIdxs, wantTags)
				}
			case 4:
				m.insertClean(ino, idx)
				c.InsertClean(ino, idx)
			case 5:
				want := m.lookup(ino, idx)
				if hit := c.Lookup(ino, idx); hit != want {
					t.Fatalf("op %d: Lookup(%d,%d) = %v, want %v", n, ino, idx, hit, want)
				}
			case 6:
				m.freeFile(ino)
				c.FreeFile(ino)
			case 7:
				ctxs[ci].PID = causes.PID(10 + x%5)
				refs[ci].pid = ctxs[ci].PID
			case 8:
				if x&1 == 0 {
					ctxs[ci].EndProxy()
					refs[ci].proxy = causes.None
				} else {
					set := causes.Of(causes.PID(20+x%4), causes.PID(20+y%4))
					ctxs[ci].BeginProxy(set)
					refs[ci].proxy = refs[ci].proxy.Union(set)
				}
			}
			if !slices.Equal(got, m.hooks) {
				t.Fatalf("op %d: hook calls\n got %v\nwant %v", n, got, m.hooks)
			}
			m.check(t, n, c)
		}
	})
}

type hookCall struct {
	kind      string
	ino, idx  int64
	now, prev string
}

// refCtx is the model of an ioctx.Ctx's tagging identity.
type refCtx struct {
	pid   causes.PID
	proxy causes.Set
}

func (r refCtx) causes() causes.Set {
	if !r.proxy.Empty() {
		return r.proxy
	}
	return causes.Of(r.pid)
}

// refModel is the reference page cache: one map entry per page (dirty
// exactly when its tag is nonempty), a slice LRU of clean pages, and dirty
// pages found by scanning and sorting.
type refModel struct {
	total  int64
	pages  map[[2]int64]causes.Set
	lru    [][2]int64 // clean pages, front = LRU
	order  []int64    // inos in the order they were first dirtied
	hooks  []hookCall
	hits   int64
	misses int64
	tags   int64
	maxTag int64
}

func (m *refModel) lruRemove(k [2]int64) {
	m.lru = slices.DeleteFunc(m.lru, func(e [2]int64) bool { return e == k })
}

func (m *refModel) evict() {
	for int64(len(m.pages)) >= m.total && len(m.lru) > 0 {
		delete(m.pages, m.lru[0])
		m.lru = m.lru[1:]
	}
}

func (m *refModel) addTag(delta int) {
	m.tags += int64(delta)
	m.maxTag = max(m.maxTag, m.tags)
}

func (m *refModel) markDirty(ino, idx int64, now causes.Set) bool {
	k := [2]int64{ino, idx}
	prev, resident := m.pages[k]
	if resident && !prev.Empty() {
		tag := prev.Union(now)
		m.pages[k] = tag
		m.addTag(tag.TagBytes() - prev.TagBytes())
		m.hooks = append(m.hooks, hookCall{"dirty", ino, idx, tag.String(), prev.String()})
		return true
	}
	if resident {
		m.lruRemove(k)
	} else {
		m.evict()
	}
	m.pages[k] = now
	m.addTag(now.TagBytes())
	if !slices.Contains(m.order, ino) {
		m.order = append(m.order, ino)
	}
	m.hooks = append(m.hooks, hookCall{"dirty", ino, idx, now.String(), causes.None.String()})
	return false
}

func (m *refModel) dirtyIdxs(ino int64) []int64 {
	var idxs []int64
	for k, tag := range m.pages {
		if k[0] == ino && !tag.Empty() {
			idxs = append(idxs, k[1])
		}
	}
	slices.Sort(idxs)
	return idxs
}

func (m *refModel) takeDirty(ino int64, max int) ([]int64, []causes.Set) {
	idxs := m.dirtyIdxs(ino)
	if len(idxs) == 0 {
		return nil, nil
	}
	if max <= 0 || max > len(idxs) {
		max = len(idxs)
	}
	idxs = idxs[:max]
	tags := make([]causes.Set, len(idxs))
	for i, idx := range idxs {
		k := [2]int64{ino, idx}
		tags[i] = m.pages[k]
		m.addTag(-tags[i].TagBytes())
		m.pages[k] = causes.None
		m.lru = append(m.lru, k)
	}
	return idxs, tags
}

func (m *refModel) insertClean(ino, idx int64) {
	k := [2]int64{ino, idx}
	if tag, ok := m.pages[k]; ok {
		if tag.Empty() {
			m.lruRemove(k)
			m.lru = append(m.lru, k)
		}
		return
	}
	m.evict()
	m.pages[k] = causes.None
	m.lru = append(m.lru, k)
}

func (m *refModel) lookup(ino, idx int64) bool {
	k := [2]int64{ino, idx}
	tag, ok := m.pages[k]
	if !ok {
		m.misses++
		return false
	}
	if tag.Empty() {
		m.lruRemove(k)
		m.lru = append(m.lru, k)
	}
	m.hits++
	return true
}

func (m *refModel) freeFile(ino int64) {
	for _, idx := range m.dirtyIdxs(ino) {
		k := [2]int64{ino, idx}
		m.hooks = append(m.hooks, hookCall{"free", ino, idx, m.pages[k].String(), ""})
		m.addTag(-m.pages[k].TagBytes())
		delete(m.pages, k)
	}
	for _, k := range m.lru {
		if k[0] == ino {
			delete(m.pages, k)
		}
	}
	m.lru = slices.DeleteFunc(m.lru, func(k [2]int64) bool { return k[0] == ino })
}

// check compares the cache's counters and indexes with the model's.
func (m *refModel) check(t *testing.T, n int, c *Cache) {
	t.Helper()
	var dirty int64
	var dirtyFiles []int64
	for _, ino := range m.order {
		fd := int64(len(m.dirtyIdxs(ino)))
		if got := c.FileDirtyPages(ino); got != fd {
			t.Fatalf("op %d: FileDirtyPages(%d) = %d, want %d", n, ino, got, fd)
		}
		if fd > 0 {
			dirtyFiles = append(dirtyFiles, ino)
		}
		dirty += fd
	}
	if got := c.DirtyPagesCount(); got != dirty {
		t.Fatalf("op %d: DirtyPagesCount = %d, want %d", n, got, dirty)
	}
	if got := c.DirtyFiles(); !slices.Equal(got, dirtyFiles) {
		t.Fatalf("op %d: DirtyFiles = %v, want %v", n, got, dirtyFiles)
	}
	if c.Hits() != m.hits || c.Misses() != m.misses {
		t.Fatalf("op %d: hits/misses = %d/%d, want %d/%d", n, c.Hits(), c.Misses(), m.hits, m.misses)
	}
	if c.TagBytes() != m.tags || c.MaxTagBytes() != m.maxTag {
		t.Fatalf("op %d: TagBytes/MaxTagBytes = %d/%d, want %d/%d", n, c.TagBytes(), c.MaxTagBytes(), m.tags, m.maxTag)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("op %d: %v", n, err)
	}
}
