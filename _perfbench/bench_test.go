package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"splitio/internal/core"
	"splitio/internal/device"
	"splitio/internal/fault"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
	"splitio/internal/ssd"
)

// shortWorkloads swaps in the workloads with their warm-ups and windows cut
// short, for the duration of the test.
func shortWorkloads(t *testing.T) {
	saved := workloads
	short := append([]workload(nil), workloads...)
	for i := range short {
		short[i].warm /= 4
		short[i].window /= 4
	}
	workloads = short
	t.Cleanup(func() { workloads = saved })
}

// TestDigestDeterministic checks that the timing decorators and the
// benchmark-assembled kernel do not perturb the model: a traced run
// simulates exactly what an untraced one does, and two untraced runs of
// one seed agree.
func TestDigestDeterministic(t *testing.T) {
	shortWorkloads(t)
	cfg := config{seed: 3}
	for _, w := range workloads {
		a := runOnce(w, cfg, false, "")
		b := runOnce(w, cfg, false, "")
		tr := runOnce(w, cfg, true, "")
		for _, r := range []rep{a, b, tr} {
			if r.err != nil {
				t.Fatalf("%s: %v", w.name, r.err)
			}
		}
		if a.winOps == 0 || len(tr.layers) == 0 {
			t.Fatalf("%s: nothing measured (%d window ops, %d layer metrics)", w.name, a.winOps, len(tr.layers))
		}
		if a.digest != b.digest {
			t.Errorf("%s: untraced digests differ: %016x vs %016x", w.name, a.digest, b.digest)
		}
		if a.digest != tr.digest {
			t.Errorf("%s: traced digest %016x != untraced %016x", w.name, tr.digest, a.digest)
		}
	}
}

// TestDigestFollowsSeed checks that the workload seed reaches the inputs.
func TestDigestFollowsSeed(t *testing.T) {
	shortWorkloads(t)
	w, _ := findWorkload("dbsync")
	a := runOnce(w, config{seed: 1}, false, "")
	b := runOnce(w, config{seed: 2}, false, "")
	if a.digest == b.digest {
		t.Fatalf("seeds 1 and 2 simulate the same thing (digest %016x)", a.digest)
	}
}

func optional(d device.Disk) (annotator, breakdowner, gcStaller bool) {
	_, annotator = d.(device.Annotator)
	_, breakdowner = d.(device.Breakdowner)
	_, gcStaller = d.(device.GCStaller)
	return
}

func TestDiskDecoratorForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	env := sim.NewEnv(1)
	tr := newTracer(env, 0)
	hdd := device.NewHDD()
	for _, d := range []device.Disk{
		hdd,
		device.NewSSD(),
		ssd.New(env, ssd.DefaultConfig()),
		fault.Wrap(hdd, fault.NewPlan(1)),
	} {
		a, b, g := optional(d)
		wa, wb, wg := optional(wrapDisk(d, tr))
		if a != wa || b != wb || g != wg {
			t.Errorf("%s: inner implements Annotator/Breakdowner/GCStaller %v/%v/%v, decorator %v/%v/%v",
				d.Name(), a, b, g, wa, wb, wg)
		}
	}
	if a, b, g := optional(hdd); a || !b || g {
		t.Errorf("hdd: want only Breakdowner, got %v/%v/%v", a, b, g)
	}
	if a, b, g := optional(ssd.New(env, ssd.DefaultConfig())); a || !b || !g {
		t.Errorf("ftl ssd: want Breakdowner and GCStaller, got %v/%v/%v", a, b, g)
	}
}

// TestDiskDecoratorTimesService checks the decorator forwards the service
// time and counts the call.
func TestDiskDecoratorTimesService(t *testing.T) {
	env := sim.NewEnv(1)
	tr := newTracer(env, 0)
	want := device.NewHDD().ServiceTime(device.Read, 1000, 8, 0, false)
	got := wrapDisk(device.NewHDD(), tr).ServiceTime(device.Read, 1000, 8, 0, false)
	if got != want || tr.c.calls[opService] != 1 || tr.c.serviceV != want {
		t.Fatalf("service %v (want %v), calls %d, vsum %v", got, want, tr.c.calls[opService], tr.c.serviceV)
	}
}

type output struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func lastLine(t *testing.T, out *bytes.Buffer) output {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var o output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return o
}

func TestForcedCheckFailureFailsEveryOp(t *testing.T) {
	shortWorkloads(t)
	dirty := func(k *core.Kernel) { k.Cache.MarkDirty(&ioctx.Ctx{PID: 100}, 1, 0) }
	var out, errOut bytes.Buffer
	code := run([]string{"-workload", "overwrite", "-seed", "1", "-seconds", "0"}, &out, &errOut, dirty)
	if code == 0 {
		t.Fatalf("exit code 0 for a failed check\n%s", out.String())
	}
	o := lastLine(t, &out)
	if o.Correct || o.Attempted == 0 || o.Failed != o.Attempted {
		t.Fatalf("correct %v attempted %d failed %d", o.Correct, o.Attempted, o.Failed)
	}
	if !strings.Contains(out.String(), "dirty pages after sync") {
		t.Errorf("the failed check is not reported:\n%s", out.String())
	}
}

func TestUnknownWorkloadIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %s", out.String())
	}
}

// TestOutputMatchesBenchmarkJSON checks that an untraced run prints exactly
// the end-to-end metrics BENCHMARK.json declares, a traced run exactly the
// per-layer ones, with the declared units, and that the traced run writes
// its span file and reconciles its self-time shares.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	shortWorkloads(t)
	dir := t.TempDir()
	for traced, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		var out, errOut bytes.Buffer
		args := []string{"-workload", "dbsync", "-seconds", "0", "-trace", []string{"0", "1"}[traced], "-spandir", dir}
		if code := run(args, &out, &errOut, nil); code != 0 {
			t.Fatalf("trace %d: exit %d\n%s%s", traced, code, out.String(), errOut.String())
		}
		o := lastLine(t, &out)
		if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
			t.Fatalf("trace %d: correct %v attempted %d failed %d", traced, o.Correct, o.Attempted, o.Failed)
		}
		if len(o.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, BENCHMARK.json declares %d", traced, len(o.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := o.Metrics[m.Name]
			if !ok {
				t.Errorf("trace %d: metric %s missing", traced, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("trace %d: %s unit %q, BENCHMARK.json says %q", traced, m.Name, got.Unit, m.Unit)
			}
		}
		if traced == 1 {
			sum := 0.0
			for _, l := range []string{"cache", "sched", "device", "other"} {
				sum += o.Metrics[l+".host_share"].Value
			}
			if sum < 0.999999 || sum > 1.000001 {
				t.Errorf("self-time shares sum to %v", sum)
			}
			if _, err := os.Stat(dir + "/spans-dbsync.json"); err != nil {
				t.Errorf("span file: %v", err)
			}
		}
	}
}

func TestSpansNameTheirSyscall(t *testing.T) {
	shortWorkloads(t)
	w, _ := findWorkload("randread")
	m := w.build(1, true)
	m.k.Run(w.warm)
	m.t.epoch = time.Now()
	m.t.recording = true
	m.k.Run(w.window)
	m.t.recording = false
	byID := map[int32]span{}
	for _, s := range m.t.spans {
		byID[s.id] = s
	}
	var lookups, parented int
	for _, s := range m.t.spans {
		if s.name != "cache.lookup" {
			continue
		}
		lookups++
		if p, ok := byID[s.parent]; ok && p.name == "syscall.read" && p.lane == s.lane {
			parented++
		}
	}
	m.k.Close()
	// A reader already inside a read when recording started may look up
	// pages without a recorded syscall span; there are 16 readers.
	if lookups == 0 || parented < lookups-16 {
		t.Fatalf("%d of %d lookups have their read syscall as parent", parented, lookups)
	}
}
