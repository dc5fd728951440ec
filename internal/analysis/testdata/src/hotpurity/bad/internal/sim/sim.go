package sim

import (
	"iter"
	"time"
)

// Time is virtual time.
type Time int64

// Env is a stub of the DES environment: the analyzer recognizes its
// registration methods by (package, receiver, method) shape.
type Env struct{}

func (e *Env) Schedule(d time.Duration, fn func()) { _ = d; _ = fn }
func (e *Env) ScheduleAt(at Time, fn func())       { _ = at; _ = fn }
func (e *Env) Now() Time                           { return 0 }

// Proc is a coroutine process handle; its bodies MAY block. Like the real
// engine it switches through iter.Pull's func values, which no call edge
// resolves: the analyzer recognizes the park, Proc.block, by shape.
type Proc struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

func (e *Env) Go(name string, fn func(p *Proc)) {
	_ = name
	p := &Proc{}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		fn(p)
	})
	e.Schedule(0, func() { e.runProc(p) })
}

func (e *Env) runProc(p *Proc) { p.next() }

func (p *Proc) block() { p.yield(struct{}{}) }

// Sleep parks the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	_ = d
	p.block()
}

// Completion is a stub completion future.
type Completion struct{}

func (c *Completion) OnComplete(fn func()) { _ = fn }

// WaitQueue is a stub FIFO wait queue; its *Fn registrations park handler
// continuations that run on the event loop.
type WaitQueue struct{}

func (q *WaitQueue) WaitFn(fn func(sig bool))                         { _ = fn }
func (q *WaitQueue) WaitTimeoutFn(d time.Duration, fn func(sig bool)) { _ = d; _ = fn }

func (c *Completion) WaitFn(fn func()) { _ = fn }

// WaitAllFn is the stub continuation barrier.
func WaitAllFn(cs []*Completion, k func()) { _ = cs; _ = k }
