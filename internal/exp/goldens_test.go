// Schedule goldens at experiment granularity: fig11, inversion, and
// crashsweep run end to end with a ring-buffered tracer, an online
// attribution sink, and a stats collector attached, and everything
// observable — the rendered table, the cross-layer trace hash, the
// attribution report, and the sampled metrics dump — must match the
// committed values in testdata/. The schedtest property matrix pins the
// schedule on a controlled workload; this pins it on the paper's real
// experiment cells, with writeback, journal commits, COW GC, fault
// injection, and the full scheduler set in play.
//
// There is no update flag. A deliberate model change pastes the values a
// failing run prints into testdata/ and explains the change in
// EXPERIMENTS.md.

package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"splitio/internal/attr"
	"splitio/internal/schedtest"
	"splitio/internal/trace"
)

// goldenScale is large enough that every code path (ordered flushes,
// commit barriers, crash cuts) executes many times over. It is the same in
// -short mode, so there is one golden set.
const goldenScale = 0.15

// goldenSums holds the digests of one experiment's run: the trace hash
// (schedtest.TraceHash, already a SHA-256) and the SHA-256 of the
// attribution report and of the metrics dump.
type goldenSums struct {
	Trace   string `json:"trace_sha256"`
	Attr    string `json:"attr_sha256"`
	Metrics string `json:"metrics_sha256"`
}

// runGoldenCell executes experiment id with a shared ring-buffered tracer,
// an online attribution sink, and a stats collector attached, and returns
// the canonical table JSON and the payload digests.
func runGoldenCell(t *testing.T, id string) ([]byte, goldenSums) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	tr := trace.New()
	// The ring bounds memory; the attribution sink consumes every span
	// online regardless of ring drops, and ring retention is a pure
	// function of the event stream, so the retained tail hashes equal iff
	// the streams were equal.
	tr.SetRing(1 << 16)
	tr.Enable()
	sink := attr.New()
	tr.Attach(sink)
	defer tr.Detach(sink)
	sc := &StatsCollector{Interval: 250 * time.Millisecond}
	tab := e.Run(Options{Scale: goldenScale, Seed: 1, Tracer: tr, Metrics: sc})
	table, err := json.Marshal(tab)
	if err != nil {
		t.Fatalf("%s: marshal table: %v", id, err)
	}
	report, err := json.Marshal(sink.Summary(id))
	if err != nil {
		t.Fatalf("%s: marshal attr report: %v", id, err)
	}
	var md strings.Builder
	for _, m := range sc.Machines {
		fmt.Fprintf(&md, "== %s\n%s", m.Label, schedtest.MetricsDump(m.Registry, "sim."))
	}
	return table, goldenSums{
		Trace:   schedtest.TraceHash(tr.Events()),
		Attr:    sha256Hex(report),
		Metrics: sha256Hex([]byte(md.String())),
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestExperimentGoldens runs each experiment once and compares it with the
// committed goldens. Table JSON covers every cell result (fig11 throughput
// shares, inversion counts, crashsweep replay verdicts); the trace hash
// covers the virtual-time schedule itself; the attr report and metrics
// dump cover the derived observability planes.
func TestExperimentGoldens(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "experiment_goldens.json"))
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	var sums map[string]goldenSums
	if err := json.Unmarshal(data, &sums); err != nil {
		t.Fatalf("parse goldens: %v", err)
	}
	for _, id := range []string{"fig11", "inversion", "crashsweep"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tablePath := filepath.Join("testdata", id+".table.json")
			want, err := os.ReadFile(tablePath)
			if err != nil {
				t.Fatalf("read golden table: %v", err)
			}
			table, got := runGoldenCell(t, id)
			if !bytes.Equal(table, want) {
				t.Errorf("%s: table differs from %s\ngot:  %s\nwant: %s", id, tablePath, table, want)
			}
			if got != sums[id] {
				line, _ := json.MarshalIndent(got, "  ", "  ")
				t.Errorf("%s: digests differ from testdata/experiment_goldens.json\ngot:  %s\nwant: %+v", id, line, sums[id])
			}
		})
	}
}
