// Microbenchmarks for the DES kernel's two hot paths: the event heap
// (schedule/pop with no processes) and the process switch (the coroutine
// park/resume a sim.Env.Go process pays on every blocking call; kernel
// daemons are run-to-completion handlers and never pay it). `make
// microbench` runs these after TestScheduleRunZeroAllocs and
// TestProcSwitchZeroAllocs, the deterministic gates on the bare loop and
// the switch. The full stack's speed is measured end to end by _perfbench
// (see _perfbench/README.md).
package sim_test

import (
	"testing"
	"time"

	"splitio/internal/sim"
)

// BenchmarkEventHeapTimerChain measures raw heap push/pop: a single timer
// rescheduling itself b.N times, no process switches involved.
func BenchmarkEventHeapTimerChain(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	left := b.N
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			env.Schedule(time.Microsecond, tick)
		}
	}
	env.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
}

// BenchmarkEventHeapDepth measures heap behavior with a populated heap:
// 1024 standing timers plus the driven chain, so push/pop pays a realistic
// sift depth.
func BenchmarkEventHeapDepth(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	for i := 0; i < 1024; i++ {
		env.Schedule(time.Hour+time.Duration(i), func() {})
	}
	left := b.N
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			env.Schedule(time.Microsecond, tick)
		}
	}
	env.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(sim.Time(time.Hour / 2))
}

// BenchmarkCoroutineSwitch measures the park/resume switch: one process
// sleeping b.N times, one event plus a coroutine switch in and out per
// sleep.
func BenchmarkCoroutineSwitch(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	env.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
}
