package fs

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"splitio/internal/block"
	"splitio/internal/causes"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
)

// TestExtentMappingProperties drives random write/flush sequences and
// checks the allocator's invariants: every mapped file block resolves to
// exactly one disk block, distinct file blocks never share a disk block,
// and mappings are stable across subsequent flushes.
func TestExtentMappingProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, Ext4Config())
		ctx := userCtx(10)
		ok := true
		r.env.Go("driver", func(p *sim.Proc) {
			file, err := r.fs.Create(p, ctx, "/f")
			if err != nil {
				ok = false
				return
			}
			written := map[int64]bool{}
			mapping := map[int64]int64{}
			for round := 0; round < 8; round++ {
				// Dirty a handful of random pages.
				for i := 0; i < 16; i++ {
					idx := rng.Int63n(512)
					r.fs.Write(p, ctx, file, idx*BlockSize, BlockSize)
					written[idx] = true
				}
				r.fs.Fsync(p, ctx, file)
				// Every written block must now be mapped; mappings must be
				// stable and injective.
				seen := map[int64]int64{}
				for idx := range written {
					disk, mapped := r.fs.lookupBlock(file, idx)
					if !mapped {
						ok = false
						return
					}
					if prev, had := mapping[idx]; had && prev != disk {
						ok = false // mapping moved
						return
					}
					mapping[idx] = disk
					if other, dup := seen[disk]; dup && other != idx {
						ok = false // two file blocks on one disk block
						return
					}
					seen[disk] = idx
				}
			}
		})
		r.env.Run(sim.Time(time.Hour))
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestLookupBlockMatchesLinearScan drives random allocate and remapRange
// sequences (allocate only over unmapped runs, as flushes call it, and
// often right after the last extent so the merge rule fires) and checks
// that the extents stay sorted and non-overlapping and that the binary
// search in lookupBlock agrees with a linear scan on every block.
func TestLookupBlockMatchesLinearScan(t *testing.T) {
	linear := func(file *File, fileBlk int64) (int64, bool) {
		for _, e := range file.extents {
			if fileBlk >= e.fileBlk && fileBlk < e.fileBlk+e.n {
				return e.diskBlk + (fileBlk - e.fileBlk), true
			}
		}
		return 0, false
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, Ext4Config())
		file := &File{}
		for op := 0; op < 64; op++ {
			blk, n := rng.Int63n(256), 1+rng.Int63n(16)
			if last := len(file.extents) - 1; last >= 0 && rng.Intn(3) == 0 {
				blk = file.extents[last].fileBlk + file.extents[last].n
			}
			if rng.Intn(4) == 0 {
				r.fs.remapRange(file, blk, n, 1<<20+rng.Int63n(1<<20))
			} else {
				m := int64(0)
				for ; m < n; m++ {
					if _, mapped := linear(file, blk+m); mapped {
						break
					}
				}
				if m > 0 {
					r.fs.allocate(file, blk, m)
				}
			}
			for i := 1; i < len(file.extents); i++ {
				if prev := file.extents[i-1]; prev.fileBlk+prev.n > file.extents[i].fileBlk {
					t.Logf("seed %d op %d: extents %d and %d overlap or are unsorted", seed, op, i-1, i)
					return false
				}
			}
			for b := int64(-1); b < 300; b++ {
				want, wantOK := linear(file, b)
				if got, ok := r.fs.lookupBlock(file, b); got != want || ok != wantOK {
					t.Logf("seed %d op %d: lookupBlock(%d) = %d,%v, want %d,%v", seed, op, b, got, ok, want, wantOK)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalWrap drives far more journal blocks than the journal region
// holds; the head must wrap and stay inside the region.
func TestJournalWrap(t *testing.T) {
	cfg := Ext4Config()
	cfg.JournalBlocks = 64 // tiny journal: wraps quickly
	r := newRig(t, cfg)
	ctx := userCtx(10)
	r.env.Go("driver", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/f")
		var off int64
		for i := 0; i < 64; i++ {
			r.fs.Write(p, ctx, f, off, BlockSize)
			off += BlockSize
			r.fs.Fsync(p, ctx, f)
		}
	})
	r.env.Run(sim.Time(time.Hour))
	if r.fs.Commits() < 64 {
		t.Fatalf("commits = %d", r.fs.Commits())
	}
	if r.fs.journalHead < 0 || r.fs.journalHead >= cfg.JournalBlocks {
		t.Fatalf("journal head %d outside region [0,%d)", r.fs.journalHead, cfg.JournalBlocks)
	}
}

// TestProxyTagClearedAfterWriteback: the writeback context must not stay a
// proxy once the flush finishes.
func TestProxyTagClearedAfterWriteback(t *testing.T) {
	r := newRig(t, Ext4Config())
	ctx := userCtx(10)
	r.env.Go("w", func(p *sim.Proc) {
		f, _ := r.fs.Create(p, ctx, "/f")
		r.fs.Write(p, ctx, f, 0, 8*BlockSize)
	})
	r.env.Run(sim.Time(30 * time.Second)) // pdflush flushes
	if r.cache.DirtyPagesCount() != 0 {
		t.Fatal("writeback did not run")
	}
	wb := findWbCtx(r)
	if wb.IsProxy() {
		t.Fatal("writeback context left in proxy state")
	}
}

func findWbCtx(r *rig) *ioctx.Ctx { return r.fs.wbCtx }

// TestCausesSurviveBatching: when many processes write before one commit,
// the journal write carries every one of them.
func TestCausesSurviveBatching(t *testing.T) {
	r := newRig(t, Ext4Config())
	var jc causes.Set
	r.blk.SetHooks(hookFn(func(req *block.Request) {
		if req.Journal {
			jc = jc.Union(req.Causes)
		}
	}))
	const writers = 6
	for i := 0; i < writers; i++ {
		ctx := userCtx(causes.PID(100 + i))
		path := "/f" + string(rune('a'+i))
		r.env.Go("w", func(p *sim.Proc) {
			f, _ := r.fs.Create(p, ctx, path)
			r.fs.Write(p, ctx, f, 0, BlockSize)
			if ctx.PID == 100 {
				p.Sleep(time.Millisecond)
				r.fs.Fsync(p, ctx, f)
			}
		})
	}
	r.env.Run(sim.Time(time.Minute))
	for i := 0; i < writers; i++ {
		if !jc.Contains(causes.PID(100 + i)) {
			t.Fatalf("journal causes %v missing writer %d", jc, 100+i)
		}
	}
}
