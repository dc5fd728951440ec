package myelv

import (
	"time"

	"splitio/internal/sim"
	"splitio/internal/util"
)

// Pure continuations at every run-to-completion registration point: the
// handler conversions of the kernel daemons look like this, and none of it
// may be flagged.

// ArmWaiters parks pure continuations on queues and completions, and
// schedules a pure callback.
func ArmWaiters(env *sim.Env, q *sim.WaitQueue, c *sim.Completion) {
	q.WaitFn(func(sig bool) {
		_ = util.Cost(1)
	})
	q.WaitTimeoutFn(time.Millisecond, expire)
	c.WaitFn(func() {
		_ = util.Cost(2)
	})
	sim.WaitAllFn(nil, barrier)
	env.Schedule(0, pump)
}

// expire re-arms itself through the queue it came from — the daemon idle
// pattern — without blocking.
func expire(sig bool) {
	_ = util.Cost(3)
}

// barrier continues a multi-completion wait without blocking.
func barrier() {
	_ = util.Cost(4)
}

// pump is a pure scheduled callback.
func pump() {
	_ = util.Cost(5)
}
