package myelv

import (
	"time"

	"splitio/internal/block"
	"splitio/internal/sim"
	"splitio/internal/util"
)

// Elv implements block.Elevator with a pure hot path.
type Elv struct {
	queue []*block.Request
	stats struct{ dispatched int }
}

func (e *Elv) Name() string { return "good-elv" }

func (e *Elv) Add(r *block.Request) {
	e.queue = append(e.queue, r)
}

func (e *Elv) Next(now sim.Time) *block.Request {
	if len(e.queue) == 0 {
		return nil
	}
	r := e.queue[0]
	e.queue = e.queue[1:]
	e.stats.dispatched += util.Cost(1)
	return r
}

func (e *Elv) Completed(r *block.Request) {}

// Arm registers a pure callback.
func Arm(env *sim.Env) {
	env.Schedule(0, func() {
		_ = util.Cost(2)
	})
}

// Pump runs as a coroutine process: process bodies MAY block (they park via
// the sim kernel), so Env.Go arguments are not hot roots.
func Pump(env *sim.Env) {
	env.Go("pump", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		ch := make(chan int)
		util.Drain(ch)
	})
}

// tick is hot and allocation-free: appending to a preallocated buffer and
// value composite literals are allowed.
//
//splitlint:hot
func tick(e *Elv, scratch []int) int {
	scratch = scratch[:0]
	scratch = append(scratch, 1)
	r := block.Request{LBA: 9}
	return int(r.LBA) + len(scratch)
}
