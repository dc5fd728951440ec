// Command perfbench is the end-to-end benchmark of the simulator: how many
// virtual seconds of a full simulated storage stack it runs per host
// second, on workloads that each load a different layer.
//
// A run builds a fresh machine, preallocates its files, runs a fixed
// virtual warm-up, then measures a fixed virtual window in which every
// driver process runs a closed loop of syscalls. After the window the
// drivers stop, the file system is synced and drained, and the machine is
// checked. The run repeats until -seconds of host time are used, and the
// medians are reported. With -trace 1 it alternates untraced and traced
// runs: the traced machine carries timing decorators at the page-cache,
// elevator and disk seams, and reports per-layer metrics, their self-time
// shares of wall time, the tracing overhead, and a Chrome trace_event span
// file.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, after building; see run.sh):
//
//	perfbench -workload overwrite|dbsync|randread|all -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"splitio/internal/block"
	"splitio/internal/core"
	"splitio/internal/sim"
	"splitio/internal/ssd"
)

// maxSpans bounds the spans one traced run keeps in memory.
const maxSpans = 100_000

// minReps is the fewest runs a measurement takes, however long they are.
const minReps = 3

// windowSlices is how many pieces a window is run in; the live heap is
// sampled between them.
const windowSlices = 40

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run parses args, benchmarks, and returns the exit code. corrupt, when
// non-nil, is applied to every drained machine before it is checked (tests
// use it to force a check to fail).
func run(args []string, stdout, stderr io.Writer, corrupt func(*core.Kernel)) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "overwrite, dbsync, randread, or all")
	seed := fl.Int64("seed", 1, "workload seed: every offset the drivers use derives from it")
	seconds := fl.Float64("seconds", 10, "host seconds of runs per workload")
	traceOn := fl.Int("trace", 0, "1 to report per-layer metrics from traced runs")
	spanDir := fl.String("spandir", ".bench_build", "directory for the traced runs' span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	cfg := config{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		traced:  *traceOn == 1,
		spanDir: *spanDir,
		corrupt: corrupt,
	}
	out := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		r := measure(w, cfg, stdout)
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(ws) > 1 {
				k = w.name + "." + k
			}
			out.Metrics[k] = v
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

type config struct {
	seed    int64
	budget  time.Duration
	traced  bool
	spanDir string
	corrupt func(*core.Kernel)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rep is one run of a workload on a fresh machine.
type rep struct {
	setup, wall time.Duration // host time
	winOps      int64
	winBytes    int64
	heapPeak    uint64
	ops         int64
	digest      uint64
	err         error
	layers      []metricValue // traced runs only
	spans       int           // spans written (first traced run only)
	dropped     int64
}

type metricValue struct {
	name  string
	value float64
	unit  string
}

// measure runs w until cfg.budget is used (at least minReps times), prints
// its report, and returns its result.
func measure(w workload, cfg config, stdout io.Writer) result {
	var plain, traced []rep
	start := time.Now()
	var last time.Duration
	for len(plain) < minReps || time.Since(start)+last <= cfg.budget {
		t0 := time.Now()
		plain = append(plain, runOnce(w, cfg, false, ""))
		if cfg.traced {
			var spanPath string
			if len(traced) == 0 {
				spanPath = filepath.Join(cfg.spanDir, "spans-"+w.name+".json")
			}
			r := runOnce(w, cfg, true, spanPath)
			if spanPath != "" && r.err == nil {
				fmt.Fprintf(stdout, "%s: wrote %d spans (%d dropped) to %s\n", w.name, r.spans, r.dropped, spanPath)
			}
			traced = append(traced, r)
		}
		last = time.Since(t0)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	var failures []string
	all := append(append([]rep(nil), plain...), traced...)
	for _, r := range all {
		res.Attempted += r.ops
		if r.err != nil {
			failures = append(failures, r.err.Error())
		}
	}
	// Every run of one seed simulates the same thing: the untraced runs
	// repeat one another, and the traced runs repeat them exactly.
	for _, r := range all[1:] {
		if r.digest != all[0].digest {
			failures = append(failures, fmt.Sprintf("sim_digest %016x != %016x", r.digest, all[0].digest))
			break
		}
	}
	if len(failures) > 0 {
		res.Correct = false
		res.Failed = res.Attempted
		for _, f := range failures {
			fmt.Fprintf(stdout, "%s: CHECK FAILED: %s\n", w.name, f)
		}
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d untraced runs, %d traced runs, window %v virtual after %v warm-up\n",
		w.name, cfg.seed, len(plain), len(traced), w.window, w.warm)
	if cfg.traced {
		for _, mv := range medianLayers(traced) {
			res.Metrics[mv.name] = metric{mv.value, mv.unit}
		}
		// The shares are medians over separate runs, so the remainder is
		// taken again from the medians for the reconciliation to be exact.
		other := 1.0
		for _, l := range layerNames {
			other -= res.Metrics[l+".host_share"].Value
		}
		res.Metrics["other.host_share"] = metric{other, "ratio"}
		overhead := medianOf(traced, func(r rep) float64 { return r.wall.Seconds() }) /
			medianOf(plain, func(r rep) float64 { return r.wall.Seconds() })
		res.Metrics["trace.overhead"] = metric{overhead, "ratio"}
		printLayers(stdout, res.Metrics)
	} else {
		for _, mv := range endToEnd(w, plain) {
			res.Metrics[mv.name] = metric{mv.value, mv.unit}
			fmt.Fprintf(stdout, "  %-20s %14.6g %s\n", mv.name, mv.value, mv.unit)
		}
	}
	fmt.Fprintf(stdout, "  ops %d failed_ops %d sim_digest %016x (%d runs agree)\n", res.Attempted, res.Failed, all[0].digest, len(all))
	return res
}

// endToEnd returns the gated metrics: medians over the untraced runs.
func endToEnd(w workload, reps []rep) []metricValue {
	med := func(f func(r rep) float64) float64 { return medianOf(reps, f) }
	return []metricValue{
		{"sim_speed", med(func(r rep) float64 { return w.window.Seconds() / r.wall.Seconds() }), "vs/s"},
		{"syscalls_per_s", med(func(r rep) float64 { return float64(r.winOps) / r.wall.Seconds() }), "1/s"},
		{"sim_mib_per_s", med(func(r rep) float64 { return float64(r.winBytes) / float64(mib) / r.wall.Seconds() }), "MiB/s"},
		{"setup_s", med(func(r rep) float64 { return r.setup.Seconds() }), "s"},
		{"live_heap_peak_mib", med(func(r rep) float64 { return float64(r.heapPeak) / float64(mib) }), "MiB"},
	}
}

func medianOf(reps []rep, f func(r rep) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	return median(vs)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianLayers takes each per-layer metric's median over the traced runs.
func medianLayers(reps []rep) []metricValue {
	out := append([]metricValue(nil), reps[0].layers...)
	for i := range out {
		vs := make([]float64, len(reps))
		for j, r := range reps {
			vs[j] = r.layers[i].value
		}
		out[i].value = median(vs)
	}
	return out
}

// Runtime metrics read at the window's edges and between its slices.
var runtimeSamples = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type runtimeStats struct {
	live, allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU                    float64
}

func readRuntime(s []metrics.Sample) runtimeStats {
	metrics.Read(s)
	return runtimeStats{
		live:       s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
		gcCPU:      s[4].Value.Float64(),
		totalCPU:   s[5].Value.Float64(),
	}
}

// snapshot holds the counters read at one edge of the window.
type snapshot struct {
	rt               runtimeStats
	sim              sim.Stats
	blk              block.Stats
	commits, jblocks int64
	gcRuns, gcPages  int64
	hostPages        int64
	gcBusy           time.Duration
	c                counters
}

func (m *machine) snapshot(samples []metrics.Sample) snapshot {
	k := m.k
	s := snapshot{
		rt:      readRuntime(samples),
		sim:     k.Env.Stats(),
		blk:     k.Block.Stats(),
		commits: k.FS.Commits(),
		jblocks: k.FS.JournalBlocksWritten(),
	}
	if d, ok := k.Disk.(*ssd.Device); ok {
		s.gcRuns, s.gcPages, s.hostPages, s.gcBusy = d.GCRuns(), d.GCPages(), d.HostPages(), d.GCBusy()
	}
	if m.t != nil {
		s.c = m.t.c
	}
	return s
}

// runOnce builds, warms, measures, drains and checks one machine. A traced
// run writes its spans to spanPath when that is not empty.
func runOnce(w workload, cfg config, traced bool, spanPath string) rep {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		samples[i].Name = n
	}
	// Start from a collected heap so one run's garbage is not the next
	// run's live heap.
	runtime.GC()

	t0 := time.Now()
	m := w.build(cfg.seed, traced)
	m.k.Run(w.warm)
	r := rep{setup: time.Since(t0)}

	k := m.k
	s0 := m.snapshot(samples)
	if traced {
		m.t.epoch = time.Now()
		m.t.recording = true
	}
	m.measuring = true
	start := time.Now()
	slice := w.window / windowSlices
	for i := 0; i < windowSlices; i++ {
		k.Run(slice)
		metrics.Read(samples[:1])
		if live := samples[0].Value.Uint64(); live > r.heapPeak {
			r.heapPeak = live
		}
	}
	r.wall = time.Since(start)
	m.measuring = false
	r.winOps, r.winBytes = m.winOps, m.winBytes
	if traced {
		m.t.recording = false
		r.layers = layerMetrics(m, r.wall, s0, m.snapshot(samples))
	}

	r.err = m.drain()
	if r.err == nil {
		if cfg.corrupt != nil {
			cfg.corrupt(k)
		}
		r.err = m.check()
	}
	r.ops = m.ops()
	r.digest = m.digest()
	k.Close()
	if traced && spanPath != "" && r.err == nil {
		if err := m.t.writeChrome(spanPath, m.laneNames()); err != nil {
			r.err = fmt.Errorf("writing spans: %v", err)
		}
		r.spans, r.dropped = len(m.t.spans), m.t.dropped
	}
	return r
}

// layerMetrics derives the per-layer metrics of one traced window from the
// snapshots at its edges.
func layerMetrics(m *machine, wall time.Duration, s0, s1 snapshot) []metricValue {
	var out []metricValue
	add := func(name string, v float64, unit string) { out = append(out, metricValue{name, v, unit}) }
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := s1.c.sub(s0.c)
	rt0, rt1 := s0.rt, s1.rt
	events := s1.sim.Events - s0.sim.Events
	switches := s1.sim.Switches - s0.sim.Switches
	for o := op(0); o < nOps; o++ {
		add(opNames[o]+".calls", float64(c.calls[o]), "count")
		add(opNames[o]+".host_ns", float64(c.selfNS[o]), "ns")
		add(opNames[o]+".ns_per_call", per(float64(c.selfNS[o]), float64(c.calls[o])), "ns")
	}
	add("cache.takedirty.pages", float64(c.takeDirtyPages), "count")
	add("cache.hit_ratio", per(float64(c.lookupHits), float64(c.calls[opLookup])), "ratio")
	add("cache.throttle.calls", float64(c.throttleCalls), "count")
	add("cache.throttle.vwait_s", c.throttleVWait.Seconds(), "vs")
	add("cache.writeback.calls", float64(c.wbCalls), "count")
	add("cache.writeback.vwait_s", c.wbVWait.Seconds(), "vs")
	add("sched.next.nil_ratio", per(float64(c.nextNil), float64(c.calls[opNext])), "ratio")
	add("device.service.vsum_s", c.serviceV.Seconds(), "vs")
	add("block.requests", float64(s1.blk.Requests-s0.blk.Requests), "count")
	add("block.blocks_read", float64(s1.blk.BlocksRead-s0.blk.BlocksRead), "count")
	add("block.blocks_written", float64(s1.blk.BlocksWrite-s0.blk.BlocksWrite), "count")
	add("block.queue_wait_vs", c.queueWait.Seconds(), "vs")
	add("fs.commits", float64(s1.commits-s0.commits), "count")
	add("fs.journal_blocks", float64(s1.jblocks-s0.jblocks), "count")
	add("fs.writeback.pages", float64(c.wbPages), "count")
	gcPages, hostPages := float64(s1.gcPages-s0.gcPages), float64(s1.hostPages-s0.hostPages)
	add("ssd.gc_runs", float64(s1.gcRuns-s0.gcRuns), "count")
	add("ssd.gc_pages", gcPages, "count")
	add("ssd.write_amp", per(hostPages+gcPages, hostPages), "ratio")
	add("ssd.gc_busy_s", (s1.gcBusy - s0.gcBusy).Seconds(), "vs")
	syscalls := float64(m.winOps)
	for kind := opKind(0); kind < nKinds; kind++ {
		lat := m.winLat[kind]
		p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
		add("vfs."+kindNames[kind]+".calls", float64(len(lat)), "count")
		add("vfs."+kindNames[kind]+".vlat_p50_ms", float64(p50)/1e6, "ms")
		add("vfs."+kindNames[kind]+".vlat_p99_ms", float64(p99)/1e6, "ms")
	}
	add("sim.events", float64(events), "count")
	add("sim.switches", float64(switches), "count")
	add("sim.events_per_syscall", per(float64(events), syscalls), "count")
	add("sim.switches_per_syscall", per(float64(switches), syscalls), "count")
	add("sim.heap_max", float64(s1.sim.HeapMax), "count")
	add("runtime.allocs_per_syscall", per(float64(rt1.allocs-rt0.allocs), syscalls), "count")
	add("runtime.alloc_bytes_per_syscall", per(float64(rt1.allocBytes-rt0.allocBytes), syscalls), "B")
	add("runtime.gc_cycles", float64(rt1.gcCycles-rt0.gcCycles), "count")
	add("runtime.gc_cpu_share", per(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio")
	// Self-time shares of the window's wall time. The timed calls never
	// block, so the three layers' self times are disjoint; everything else
	// (vfs, fs, the event loop, driver code, the runtime and the tracing
	// itself) is the remainder.
	var layerNS [nLayers]float64
	for o := op(0); o < nOps; o++ {
		layerNS[opLayer[o]] += float64(c.selfNS[o])
	}
	other := 1.0
	for l := 0; l < nLayers; l++ {
		share := layerNS[l] / float64(wall)
		add(layerNames[l]+".host_share", share, "ratio")
		other -= share
	}
	add("other.host_share", other, "ratio")
	return out
}

// percentile returns the nearest-rank q-quantile of ds (0 when empty).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// printLayers prints the per-layer metrics, then the reconciliation of the
// self-time shares and the tracing overhead.
func printLayers(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	c, s, d, o := ms["cache.host_share"].Value, ms["sched.host_share"].Value, ms["device.host_share"].Value, ms["other.host_share"].Value
	fmt.Fprintf(w, "  self-time shares of wall: cache %.4f + sched %.4f + device %.4f + other %.4f = %.4f; tracing overhead %.3fx\n",
		c, s, d, o, c+s+d+o, ms["trace.overhead"].Value)
}
