package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcSwitchZeroAllocs asserts a warm Proc.Sleep round trip — schedule
// the wake, park, pop the event, resume — allocates nothing: the wake is
// the proc's one prebuilt func and the switch is a coroutine switch.
func TestProcSwitchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := NewEnv(1)
	defer e.Close()
	e.Go("sleeper", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	// Start the proc and warm the event slab.
	e.Run(e.Now().Add(time.Microsecond))
	allocs := testing.AllocsPerRun(1000, func() {
		e.Run(e.Now().Add(time.Microsecond))
	})
	if allocs != 0 {
		t.Fatalf("a warm Sleep round trip allocated %.2f objects, want 0", allocs)
	}
}

// TestProcPanicSurfacesFromRun checks that a panicking process body comes
// back out of the Run call that resumed it, named, so a caller's recover
// sees it instead of the whole program crashing.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEnv(1)
	e.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run(Time(time.Second))
	}()
	msg, _ := got.(string)
	if want := `sim: process "boom" panicked: kaboom`; !strings.Contains(msg, want) {
		t.Fatalf("recovered %v, want a panic containing %q", got, want)
	}
	e.Close()
}

// TestCloseEndsProcGoroutines checks that Close leaves no process goroutine
// behind: procs parked on a wait queue or a timer and procs spawned but
// never started all unwind.
func TestCloseEndsProcGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv(1)
	q := NewWaitQueue(e)
	for i := 0; i < 4; i++ {
		e.Go("waiter", func(p *Proc) { q.Wait(p) })
		e.Go("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	}
	e.Run(Time(time.Second))
	for i := 0; i < 4; i++ {
		e.Go("unstarted", func(p *Proc) { t.Error("a proc spawned after the last Run ran") })
	}
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("NumGoroutine = %d with 12 live procs, baseline %d", n, base)
	}
	e.Close()
	// A finished coroutine's goroutine is freed before next returns, but
	// allow the scheduler a moment in case that ever changes.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("NumGoroutine = %d after Close, want the baseline %d", n, base)
	}
}
