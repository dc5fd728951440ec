// Package perf is the module's one sanctioned host-clock read outside the
// cmd/ binaries. The splitlint simclock analyzer exempts this package alone:
// host-side infrastructure that needs a wall-clock stamp (internal/sweep's
// per-cell wall counters and progress heartbeat) calls NowNS, so the
// determinism boundary stays a one-package audit. Simulation packages must
// never call it, and the timetaint analyzer keeps its values out of
// virtual time. Measuring the simulator's speed is _perfbench's job (see
// _perfbench/README.md).
package perf

import "time"

// base anchors NowNS so deltas ride the monotonic clock (wall-clock
// adjustments cannot produce negative spans).
var base = time.Now()

// NowNS returns nanoseconds of host time since process start, on the
// monotonic clock.
func NowNS() int64 { return int64(time.Since(base)) }
