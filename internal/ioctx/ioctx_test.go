package ioctx

import (
	"testing"

	"splitio/internal/causes"
)

func TestCausesSelf(t *testing.T) {
	c := &Ctx{PID: 42}
	if !c.Causes().Equal(causes.Of(42)) {
		t.Fatalf("Causes = %v, want {42}", c.Causes())
	}
}

func TestProxy(t *testing.T) {
	c := &Ctx{PID: 1, Name: "pdflush"}
	c.BeginProxy(causes.Of(10, 11))
	if !c.IsProxy() {
		t.Fatal("IsProxy false")
	}
	if !c.Causes().Equal(causes.Of(10, 11)) {
		t.Fatalf("proxy causes = %v", c.Causes())
	}
	// Nested proxying unions.
	c.BeginProxy(causes.Of(12))
	if !c.Causes().Equal(causes.Of(10, 11, 12)) {
		t.Fatalf("nested proxy causes = %v", c.Causes())
	}
	c.EndProxy()
	if c.IsProxy() {
		t.Fatal("EndProxy did not clear")
	}
	if !c.Causes().Equal(causes.Of(1)) {
		t.Fatalf("causes after EndProxy = %v", c.Causes())
	}
}

func TestTickets(t *testing.T) {
	for prio, want := range map[int]int{0: 8, 4: 4, 7: 1, -1: 8, 9: 1} {
		c := &Ctx{Prio: prio}
		if got := c.Tickets(); got != want {
			t.Fatalf("Tickets(prio=%d) = %d, want %d", prio, got, want)
		}
	}
}

// Tagging a page with the process itself is on every buffered write, so it
// must not allocate; the cached set must still follow PID and proxy changes.
func TestCausesSelfAllocFree(t *testing.T) {
	c := &Ctx{PID: 7}
	if allocs := testing.AllocsPerRun(100, func() { c.Causes() }); allocs != 0 {
		t.Fatalf("Causes allocates %v times per call, want 0", allocs)
	}
	c.PID = 8
	if !c.Causes().Equal(causes.Of(8)) {
		t.Fatalf("Causes after PID change = %v, want {8}", c.Causes())
	}
	c.BeginProxy(causes.Of(20, 21))
	if !c.Causes().Equal(causes.Of(20, 21)) {
		t.Fatalf("proxy causes = %v, want {20,21}", c.Causes())
	}
	c.EndProxy()
	if !c.Causes().Equal(causes.Of(8)) {
		t.Fatalf("Causes after EndProxy = %v, want {8}", c.Causes())
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Causes() }); allocs != 0 {
		t.Fatalf("Causes allocates %v times per call after EndProxy, want 0", allocs)
	}
}
