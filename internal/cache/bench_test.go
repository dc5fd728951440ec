// Microbenchmarks for the page-cache hot paths: lookups (~80M calls per
// figure run), overwrites of already-dirty pages (the buffered-write path
// fig11's mem-overwrite panel is bound by) and writeback's TakeDirty on a
// file with many dirty pages. `make microbench` tracks them directly.
package cache_test

import (
	"testing"

	"splitio/internal/cache"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
)

func benchCache(b *testing.B) *cache.Cache {
	b.Helper()
	env := sim.NewEnv(1)
	b.Cleanup(env.Close)
	cfg := cache.DefaultConfig()
	cfg.TotalPages = 1 << 16
	return cache.New(env, cfg, &ioctx.Ctx{PID: 2, Name: "pdflush", Prio: 4})
}

func BenchmarkCacheLookupHit(b *testing.B) {
	c := benchCache(b)
	const pages = 1024
	for i := int64(0); i < pages; i++ {
		c.InsertClean(1, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(1, int64(i)%pages)
	}
}

func BenchmarkCacheLookupMiss(b *testing.B) {
	c := benchCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(2, int64(i))
	}
}

// BenchmarkCacheMarkDirtyOverwrite rewrites a 1 MiB chunk (256 pages) that
// is already dirty, one page per iteration, by one writer.
func BenchmarkCacheMarkDirtyOverwrite(b *testing.B) {
	c := benchCache(b)
	ctx := &ioctx.Ctx{PID: 100, Name: "writer", Prio: 0}
	const pages = 256
	for i := int64(0); i < pages; i++ {
		c.MarkDirty(ctx, 1, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MarkDirty(ctx, 1, int64(i)%pages)
	}
}

// BenchmarkCacheTakeDirtyLargeFile takes 16 pages at a time from a file
// holding 8192 dirty pages, re-dirtying what it took so the file stays
// large.
func BenchmarkCacheTakeDirtyLargeFile(b *testing.B) {
	c := benchCache(b)
	ctx := &ioctx.Ctx{PID: 100, Name: "writer", Prio: 0}
	const pages, batch = 8192, 16
	for i := int64(0); i < pages; i++ {
		c.MarkDirty(ctx, 1, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idxs, _ := c.TakeDirty(1, batch)
		for _, idx := range idxs {
			c.MarkDirty(ctx, 1, idx)
		}
	}
}

// BenchmarkCacheInsertCleanEvict streams InsertClean over a full cache, so
// every insert evicts the LRU page: the read-miss path of randread and of
// fig21's streaming reads and writes.
func BenchmarkCacheInsertCleanEvict(b *testing.B) {
	c := benchCache(b)
	const pages = 1 << 16
	for i := int64(0); i < pages; i++ {
		c.InsertClean(1, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InsertClean(1, pages+int64(i))
	}
}
