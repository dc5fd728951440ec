// Package stoken implements Split-Token, the paper's split-level
// resource-limit scheduler (§5.3).
//
// Tokens represent sequential-equivalent bytes. Accounting is two-phase,
// exploiting hooks at two levels (paper §3.2):
//
//   - Memory level (prompt): when a buffer is dirtied, a preliminary model
//     charges the causing account based on the randomness of offsets within
//     the file. Overwrites of already-dirty buffers are free — they create
//     no new disk work.
//   - Block level (accurate): when the request reaches disk, the charge is
//     revised to the true normalized cost (device time × sequential
//     bandwidth), including journal amplification and layout effects, and
//     attributed via split cause tags.
//
// Throttling follows the paper exactly: system-call writes (and creats and
// fsyncs) block while the account balance is negative; block-level *reads*
// of a negative account are held in the elevator; system-call reads are
// never throttled (cache hits must stay fast) and block-level writes are
// never throttled (to avoid journal entanglement).
package stoken

import (
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/causes"
	"splitio/internal/core"
	"splitio/internal/device"
	"splitio/internal/fs"
	"splitio/internal/ioctx"
	"splitio/internal/sim"
	"splitio/internal/tokenbucket"
	"splitio/internal/vfs"
)

// noAccount is the account index of a pid that bills no account.
const noAccount = -1

// prelimCharge is one page's outstanding preliminary charge: the account
// (by index) it was billed to and how much.
type prelimCharge struct {
	acct   int32
	amount float64
}

// Sched is the Split-Token scheduler; it is its own block elevator.
type Sched struct {
	env   *sim.Env
	k     *core.Kernel
	layer *block.Layer

	// Accounts are named by a small index: acctIdx interns each name seen
	// (from SetLimit or the process table), and buckets holds the index's
	// bucket, nil until SetLimit gives the account a limit.
	acctIdx    map[string]int32
	buckets    []*tokenbucket.Bucket
	pidAccount map[causes.PID]int32

	est *core.WriteEstimator
	// prelim holds outstanding preliminary charges by inode, then page
	// index; nPrelim counts them.
	prelim  map[int64]map[int64]prelimCharge
	nPrelim int

	writeQ []*block.Request
	readQ  []*block.Request

	// Read anticipation: after a read completes, briefly hold the disk for
	// the same stream's next sequential request so interleaving does not
	// turn two sequential streams into random I/O.
	expectLBA       int64
	anticipateUntil sim.Time
	anticipateCs    causes.Set

	lastFg sim.Time

	// PrelimRandBytes is the preliminary (memory-level) normalized cost of
	// a random page; the block-level revision corrects it.
	PrelimRandBytes float64
	// AnticipationWindow is how long the dispatcher waits for a stream's
	// next sequential read before moving on.
	AnticipationWindow time.Duration
	// MaxReadWait bounds how long a queued read may starve behind an
	// anticipated stream before it breaks the chain (a CFQ-like slice).
	MaxReadWait time.Duration
	// IdleGrace and IdleDirtyMax implement the idle class at the syscall
	// level: idle writers wait for quiet and keep tiny backlogs.
	IdleGrace    time.Duration
	IdleDirtyMax int64

	statPrelim  float64
	statRevised float64
	statRefunds float64
}

// New builds a Split-Token scheduler with no accounts configured.
func New(env *sim.Env) core.Scheduler {
	return &Sched{
		env:                env,
		acctIdx:            make(map[string]int32),
		pidAccount:         make(map[causes.PID]int32),
		prelim:             make(map[int64]map[int64]prelimCharge),
		PrelimRandBytes:    256 << 10,
		AnticipationWindow: 500 * time.Microsecond,
		MaxReadWait:        20 * time.Millisecond,
		IdleGrace:          50 * time.Millisecond,
		IdleDirtyMax:       4 << 20,
	}
}

// Factory is the core.Factory for Split-Token.
var Factory core.Factory = New

// Name implements core.Scheduler.
func (s *Sched) Name() string { return "split-token" }

// Elevator implements core.Scheduler.
func (s *Sched) Elevator() block.Elevator { return s }

// SetLimit creates (or replaces) an account refilled at rate normalized
// bytes/second with burst capacity cap.
func (s *Sched) SetLimit(account string, rate, cap float64) {
	s.buckets[s.intern(account)] = tokenbucket.New(rate, cap)
}

// Tokens returns the account balance now.
func (s *Sched) Tokens(account string) float64 {
	b := s.bucketNamed(account)
	if b == nil {
		return 0
	}
	return b.Tokens(s.env.Now())
}

// intern returns the index of the named account, adding it if new.
func (s *Sched) intern(account string) int32 {
	if i, ok := s.acctIdx[account]; ok {
		return i
	}
	i := int32(len(s.buckets))
	s.acctIdx[account] = i
	s.buckets = append(s.buckets, nil)
	return i
}

// bucketNamed returns the named account's bucket, or nil if it has no
// limit.
func (s *Sched) bucketNamed(account string) *tokenbucket.Bucket {
	if i, ok := s.acctIdx[account]; ok {
		return s.buckets[i]
	}
	return nil
}

// Attach implements core.Scheduler.
func (s *Sched) Attach(k *core.Kernel) {
	s.k = k
	s.layer = k.Block
	s.est = core.NewWriteEstimator(s.PrelimRandBytes)
	k.VFS.SetHooks(vfs.Hooks{
		WriteEntry:  s.writeEntry,
		FsyncEntry:  func(p *sim.Proc, c *ioctx.Ctx, f *fs.File) { s.throttleSyscall(p, c) },
		CreatEntry:  func(p *sim.Proc, c *ioctx.Ctx, path string) { s.throttleSyscall(p, c) },
		MkdirEntry:  func(p *sim.Proc, c *ioctx.Ctx, path string) { s.throttleSyscall(p, c) },
		UnlinkEntry: func(p *sim.Proc, c *ioctx.Ctx, path string) { s.throttleSyscall(p, c) },
	})
	k.Cache.SetHooks(cache.MemHooks{
		BufferDirty: s.bufferDirty,
		BufferFree:  s.bufferFree,
	})
}

// accountOf resolves the token account index of a pid via the process
// table; noAccount if the pid bills none.
func (s *Sched) accountOf(pid causes.PID) int32 {
	if a, ok := s.pidAccount[pid]; ok {
		return a
	}
	a := int32(noAccount)
	if pr, ok := s.k.VFS.Process(pid); ok && pr.Ctx.Account != "" {
		a = s.intern(pr.Ctx.Account)
	}
	s.pidAccount[pid] = a
	return a
}

// bucketOf returns the bucket and account index for the first billable
// cause, if any.
func (s *Sched) bucketOf(cs causes.Set) (*tokenbucket.Bucket, int32) {
	for _, pid := range cs.PIDs() {
		if a := s.accountOf(pid); a != noAccount {
			if b := s.buckets[a]; b != nil {
				return b, a
			}
		}
	}
	return nil, noAccount
}

// --- Memory level: prompt preliminary charging ---

func (s *Sched) bufferDirty(ino, idx int64, now causes.Set, prev causes.Set) {
	if !prev.Empty() {
		// Overwrite of a dirty buffer: no new disk work, no charge. (The
		// paper notes the scheduler may shift responsibility to the last
		// writer; we keep the original charge.)
		return
	}
	amt := s.est.Estimate(ino, idx)
	b, acct := s.bucketOf(now)
	if b == nil {
		return
	}
	b.Charge(s.env.Now(), amt)
	//splitlint:ignore floatdet reviewed: diagnostic total of exactly-rounded charges in deterministic order
	s.statPrelim += amt
	pages := s.prelim[ino]
	if pages == nil {
		pages = make(map[int64]prelimCharge)
		s.prelim[ino] = pages
	}
	n := len(pages)
	pages[idx] = prelimCharge{acct: acct, amount: amt}
	s.nPrelim += len(pages) - n
}

func (s *Sched) bufferFree(ino, idx int64, cs causes.Set) {
	pages := s.prelim[ino]
	if pc, ok := pages[idx]; ok {
		s.buckets[pc.acct].Refund(s.env.Now(), pc.amount)
		//splitlint:ignore floatdet reviewed: diagnostic total of exactly-rounded refunds in deterministic order
		s.statRefunds += pc.amount
		delete(pages, idx)
		s.nPrelim--
	}
	s.est.Forget(ino)
}

// --- Syscall level: throttle writes/creats/fsyncs on negative balance ---

func (s *Sched) throttleSyscall(p *sim.Proc, c *ioctx.Ctx) {
	if c.Class != block.ClassIdle {
		s.lastFg = s.env.Now()
	}
	if c.Account == "" {
		return
	}
	b := s.bucketNamed(c.Account)
	if b == nil {
		return
	}
	for !b.Positive(p.Now()) {
		d := b.UntilPositive(p.Now())
		if d < 100*time.Microsecond {
			d = 100 * time.Microsecond
		}
		p.Sleep(d)
	}
}

func (s *Sched) writeEntry(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64) {
	if c.Class == block.ClassIdle {
		// Idle class, done right: hold the write *before* it pollutes the
		// write buffer, until the system is quiet and our backlog drained.
		for p.Now().Sub(s.lastFg) < s.IdleGrace ||
			s.k.Cache.FileDirtyBytes(f.Ino) > s.IdleDirtyMax {
			p.Sleep(s.IdleGrace)
		}
	}
	s.throttleSyscall(p, c)
}

// --- Block level: read throttling + accurate revision ---

// Add implements block.Elevator.
func (s *Sched) Add(r *block.Request) {
	if r.Class != block.ClassIdle && !r.Journal && r.Submitter >= 100 {
		s.lastFg = s.env.Now()
	}
	if r.Op == device.Write {
		// Never throttled: holding writes below the file system would
		// entangle them with the journal.
		s.writeQ = append(s.writeQ, r)
		return
	}
	s.readQ = append(s.readQ, r)
}

// Next implements block.Elevator: writes immediately, then the first read
// whose account can pay.
func (s *Sched) Next(now sim.Time) *block.Request {
	if len(s.writeQ) > 0 {
		r := s.writeQ[0]
		copy(s.writeQ, s.writeQ[1:])
		s.writeQ = s.writeQ[:len(s.writeQ)-1]
		return r
	}
	held := false
	soonest := time.Hour
	// An eligible read that has waited a full slice breaks any anticipation
	// chain: streams may not starve other readers.
	for i, r := range s.readQ {
		if now.Sub(r.Queued) < s.MaxReadWait {
			continue
		}
		b, _ := s.bucketOf(r.Causes)
		if b == nil || b.Positive(now) {
			copy(s.readQ[i:], s.readQ[i+1:])
			s.readQ = s.readQ[:len(s.readQ)-1]
			s.anticipateUntil = 0
			return r
		}
	}
	// Serve the anticipated continuation first if it has arrived.
	if now < s.anticipateUntil {
		for i, r := range s.readQ {
			if r.LBA != s.expectLBA {
				continue
			}
			b, _ := s.bucketOf(r.Causes)
			if b == nil || b.Positive(now) {
				copy(s.readQ[i:], s.readQ[i+1:])
				s.readQ = s.readQ[:len(s.readQ)-1]
				s.anticipateUntil = 0
				return r
			}
		}
		// Hold the disk briefly: the stream's next read is expected within
		// the window (a kick is scheduled at window end), unless its
		// account cannot pay.
		if b, _ := s.bucketOf(s.anticipateCs); b == nil || b.Positive(now) {
			return nil
		}
		s.anticipateUntil = 0
	}
	for i, r := range s.readQ {
		b, _ := s.bucketOf(r.Causes)
		if b == nil || b.Positive(now) {
			copy(s.readQ[i:], s.readQ[i+1:])
			s.readQ = s.readQ[:len(s.readQ)-1]
			return r
		}
		held = true
		if w := b.UntilPositive(now); w < soonest {
			soonest = w
		}
	}
	if held && s.layer != nil {
		// Floor the re-poll delay: a balance of -epsilon reports a zero
		// wait, and a zero-delay kick chain would spin.
		if soonest < 100*time.Microsecond {
			soonest = 100 * time.Microsecond
		}
		s.env.Schedule(soonest, s.layer.Kick)
	}
	return nil
}

// Completed implements block.Elevator: revise to the true normalized cost.
func (s *Sched) Completed(r *block.Request) {
	actual := s.k.NormalizedBytes(r)
	if r.Op == device.Read {
		if b, _ := s.bucketOf(r.Causes); b != nil {
			b.Charge(s.env.Now(), actual)
			//splitlint:ignore floatdet reviewed: diagnostic total of exactly-rounded charges in deterministic order
			s.statRevised += actual
		}
		// Anticipate the stream's next sequential read.
		s.expectLBA = r.LBA + int64(r.Blocks)
		s.anticipateCs = r.Causes
		s.anticipateUntil = s.env.Now().Add(s.AnticipationWindow)
		if s.layer != nil {
			s.env.Schedule(s.AnticipationWindow, s.layer.Kick)
		}
		return
	}
	// Writes: subtract what the preliminary model already charged for
	// these pages, then charge the remainder (possibly a refund).
	var prelimSum float64
	prelimAcct := int32(noAccount)
	pages := s.prelim[r.FileID]
	for _, idx := range r.Pages {
		if pc, ok := pages[idx]; ok {
			//splitlint:ignore floatdet reviewed: sums charges recorded in deterministic page order; exactly-rounded
			prelimSum += pc.amount
			prelimAcct = pc.acct
			delete(pages, idx)
			s.nPrelim--
		}
	}
	b, _ := s.bucketOf(r.Causes)
	if b == nil && prelimAcct != noAccount {
		b = s.buckets[prelimAcct]
	}
	if b == nil {
		return
	}
	delta := actual - prelimSum
	if delta >= 0 {
		b.Charge(s.env.Now(), delta)
	} else {
		b.Refund(s.env.Now(), -delta)
	}
	//splitlint:ignore floatdet reviewed: diagnostic total of exactly-rounded charges in deterministic order
	s.statRevised += actual
}

// PrelimCharged and RevisedCharged expose accounting totals for tests.
func (s *Sched) PrelimCharged() float64  { return s.statPrelim }
func (s *Sched) RevisedCharged() float64 { return s.statRevised }
