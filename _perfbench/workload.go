package main

import (
	"fmt"
	"time"

	"splitio/internal/core"
	"splitio/internal/sched/afq"
	"splitio/internal/sched/cfq"
	"splitio/internal/sched/sdeadline"
	"splitio/internal/ssd"
)

// workload is one benchmark input: the machine, the drivers it spawns, a
// fixed virtual warm-up, and the fixed virtual window that is measured.
type workload struct {
	name   string
	disk   core.DiskKind
	sched  core.Factory
	warm   time.Duration
	window time.Duration
	// setup preallocates the files and spawns the drivers, whose inputs
	// come from seed alone.
	setup func(m *machine, seed int64)
}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
	gib = int64(1) << 30
)

var workloads = []workload{
	// fig11's mem-overwrite panel: bound by cache.MarkDirty and cause-set
	// tagging, with the device nearly idle.
	{
		name:   "overwrite",
		disk:   core.HDD,
		sched:  afq.Factory,
		warm:   50 * time.Millisecond,
		window: 400 * time.Millisecond,
		setup: func(m *machine, seed int64) {
			for prio := 0; prio < 8; prio++ {
				f := m.k.FS.MkFileContiguous(fmt.Sprintf("/overwrite%d", prio), 4*mib)
				rng := subRNG(seed, prio)
				m.spawn("overwrite", prio, func() call {
					return call{kind: opWrite, file: f, off: rng.Int63n(4) * mib, n: mib}
				})
			}
		},
	},
	// The paper's database fsync-vs-bulk scenario: bound by writeback
	// (cache.TakeDirty), with the journal, the elevator and HDD seeks doing
	// real work.
	{
		name:   "dbsync",
		disk:   core.HDD,
		sched:  sdeadline.Factory,
		warm:   time.Second,
		window: 2 * time.Second,
		setup: func(m *machine, seed int64) {
			const size = 512 * mib
			for i := 0; i < 4; i++ {
				f := m.k.FS.MkFileContiguous(fmt.Sprintf("/db%d", i), size)
				rng := subRNG(seed, i)
				n := 0
				m.spawn("dbsync", 2, func() call {
					n++
					if n%5 == 0 {
						return call{kind: opFsync, file: f}
					}
					return call{kind: opWrite, file: f, off: rng.Int63n(size/(4*kib)) * 4 * kib, n: 4 * kib}
				})
			}
			const bulkSize = 4 * gib
			bulk := m.k.FS.MkFileContiguous("/bulk", bulkSize)
			var off int64
			m.spawn("bulk", 6, func() call {
				c := call{kind: opWrite, file: bulk, off: off, n: mib}
				off = (off + mib) % bulkSize
				return c
			})
		},
	},
	// The cache's read path (Lookup, InsertClean, LRU eviction) over a file
	// 12x the cache, the sim core, and the FTL with its GC. The window is
	// long because the FTL stripes writes over its 32 dies, so GC comes in
	// bursts about every 8192 written pages.
	{
		name:   "randread",
		disk:   core.FTLSSD,
		sched:  cfq.Factory,
		warm:   6 * time.Second,
		window: 40 * time.Second,
		setup: func(m *machine, seed int64) {
			m.k.Disk.(*ssd.Device).Age(0.8, 0)
			const size = 3 * gib
			data := m.k.FS.MkFileContiguous("/data", size)
			for i := 0; i < 16; i++ {
				rng := subRNG(seed, i)
				m.spawn("randread", i/2, func() call {
					return call{kind: opRead, file: data, off: rng.Int63n(size/(4*kib)) * 4 * kib, n: 4 * kib}
				})
			}
			const logSize = 64 * mib
			log := m.k.FS.MkFileContiguous("/log", logSize)
			rng := subRNG(seed, 16)
			n := 0
			m.spawn("randwrite", 4, func() call {
				n++
				if n%65 == 0 {
					return call{kind: opFsync, file: log}
				}
				return call{kind: opWrite, file: log, off: rng.Int63n(logSize/(4*kib)) * 4 * kib, n: 4 * kib}
			})
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// build assembles the workload's machine: through core.NewKernel when
// untraced, with the timing decorators when traced.
func (w workload) build(seed int64, traced bool) *machine {
	opts := kernelOptions(w.disk)
	m := &machine{}
	if traced {
		m.k, m.t = newTracedKernel(opts, w.sched, maxSpans)
	} else {
		m.k = core.NewKernel(opts, w.sched)
	}
	w.setup(m, seed)
	return m
}
