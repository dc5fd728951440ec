package myelv

import (
	"time"

	"splitio/internal/sim"
)

// settle is a hot region that parks a process. Sleep reaches Proc.block,
// whose coroutine switch holds no channel operation: the park itself must
// be reported.
//
//splitlint:hot
func settle(p *sim.Proc) {
	p.Sleep(time.Millisecond)
}
