package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// waitKind classifies what a blocked rank is waiting for. The deadlock
// detector uses it to decide whether the wait could ever be satisfied.
type waitKind int8

const (
	waitNone  waitKind = iota
	waitRecv           // blocked in Recv/Wait(Irecv) on pr
	waitProbe          // blocked in Probe on (ctx, src, tag)
	waitAck            // blocked in a rendezvous Send on seq
	waitRMA            // blocked in a one-sided Get/CompareAndSwap on a reply seq
	waitColl           // blocked in CollRequest.Wait on a nonblocking collective
)

func (k waitKind) String() string {
	switch k {
	case waitRecv:
		return "recv"
	case waitProbe:
		return "probe"
	case waitAck:
		return "ack"
	case waitRMA:
		return "rma"
	case waitColl:
		return "icoll"
	}
	return "none"
}

// waitInfo records the blocking state of a rank, guarded by its mailbox
// mutex. Exactly one of the fields past kind is meaningful.
type waitInfo struct {
	kind waitKind
	pr   *pendingRecv // waitRecv
	ctx  int32        // waitProbe
	src  int          // waitProbe
	tag  int          // waitProbe
	seq  int64        // waitAck
	coll *CollRequest // waitColl
}

// pendingRecv is a posted receive awaiting a matching envelope. env is set
// exactly once, under the mailbox mutex, when a message matches. coll,
// when non-nil, names the nonblocking collective that owns this receive:
// a match bumps its unconsumed count (under the same lock) and triggers
// its state machine on the delivering goroutine. dst, when non-nil, is
// the memory a RecvInto named for a lent message's one copy (claim).
type pendingRecv struct {
	ctx  int32
	src  int // AnySource allowed
	tag  int // AnyTag allowed
	env  *envelope
	coll *CollRequest
	dst  []byte
}

// matches reports whether an envelope satisfies a (ctx, src, tag) pattern.
func matches(e *envelope, ctx int32, src, tag int) bool {
	if e.kind != kindData || e.ctx != ctx {
		return false
	}
	if src != AnySource && e.src != src {
		return false
	}
	if tag != AnyTag && int(e.tag) != tag {
		return false
	}
	return true
}

// mailbox is the per-rank matching engine shared by every communicator the
// rank belongs to. All state is guarded by mu; cond is broadcast on every
// state change that could unblock a waiter.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond

	rank  int
	world *World

	unexpected []*envelope    // FIFO of unmatched arrivals
	pending    []*pendingRecv // FIFO of posted receives
	acks       map[int64]bool // rendezvous acks received, by sequence

	// rmaResp holds fetched payloads of one-sided Get/CompareAndSwap
	// replies, keyed by request sequence. Entries are pooled buffers whose
	// ownership passes to the waiting origin; allocated lazily because
	// most worlds never issue RMA.
	rmaResp map[int64][]byte

	// waiting is non-nil while the rank's goroutine is blocked in
	// cond.Wait; the deadlock detector reads it while holding mu. It
	// always points at wi: a rank blocks on one thing at a time, so the
	// record is reused in place instead of allocated per wait.
	waiting *waitInfo
	wi      waitInfo

	// finished is set when the rank's function has returned. A finished
	// rank can never post again.
	finished bool

	// dead is set when fault injection kills the rank: arrivals are
	// discarded, no acks are produced, and the rank's own blocked
	// operations return ErrRankKilled.
	dead bool

	// failAck is the failure epoch this rank has acknowledged (by the
	// agreement behind Shrink, Agree and RespawnAndRestore). While the
	// world's epoch is ahead of it, blocked operations return a
	// RankFailedError. Atomic because the deadlock detector reads it
	// while the owner may store.
	failAck atomic.Int64

	// calls counts the rank's communication primitives for call-indexed
	// fault injection. Owner-goroutine only.
	calls int64

	// blocked accumulates the time the rank has spent parked in block.
	// Only a hooked world touches it; a span differences it to attribute
	// parked time to one primitive. Owner-goroutine only.
	blocked time.Duration
}

func newMailbox(rank int, w *World) *mailbox {
	mb := &mailbox{rank: rank, world: w, acks: make(map[int64]bool)}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// post delivers an envelope to the mailbox, at the end of the arrival
// path every endpoint hands its envelopes to (World.arrive). A
// rendezvous envelope that matches an already-posted receive is
// acknowledged immediately — MPI's progress guarantee: a posted MPI_Irecv
// must complete a matching synchronous send even if the receiving rank is
// itself blocked in a send (the ring collectives depend on this). The
// acknowledgement is dispatched by ackMatched after the mailbox lock is
// released, so concurrent cross-posts cannot order-deadlock on mailbox
// mutexes.
func (mb *mailbox) post(e *envelope) {
	switch e.kind {
	case kindHeartbeat:
		// Pure liveness signal: absorb and recycle without touching the
		// matching engine (heartbeats never carry a payload).
		hbRecv.Add(1)
		mb.world.noteHeard(e.wsrc)
		putEnv(e)
		return
	case kindAbort:
		// A peer process aborted its world; mirror it here so locally
		// blocked ranks observe ErrAborted promptly. Handled before any
		// mailbox lock: abortRemote broadcasts on every mailbox.
		msg := string(e.data)
		src := e.wsrc
		putBuf(e.data)
		putEnv(e)
		mb.world.abortRemote(fmt.Errorf("%w: remote rank %d: %s", ErrAborted, src, msg))
		return
	case kindRMAReq:
		// One-sided operations — a batch of Put/Accumulate or a single
		// reply-needing op: serviced here, on the delivering goroutine —
		// the per-window progress engine — without involving the target
		// rank's application thread and before any mailbox lock (the
		// handler replies through deliver, which takes mailbox locks).
		if mb.world.opts.heartbeat > 0 {
			mb.world.noteHeard(e.wsrc)
		}
		mb.world.handleRMAReq(mb, e)
		return
	case kindRMAResp:
		if mb.world.opts.heartbeat > 0 {
			mb.world.noteHeard(e.wsrc)
		}
		mb.mu.Lock()
		if mb.dead {
			mb.mu.Unlock()
			dropEnv(e)
			return
		}
		if mb.rmaResp == nil {
			mb.rmaResp = make(map[int64][]byte)
		}
		// Ownership of the fetched payload passes to the waiting origin.
		mb.rmaResp[e.seq] = e.data
		mb.cond.Broadcast()
		mb.mu.Unlock()
		putEnv(e)
		return
	}
	if mb.world.opts.heartbeat > 0 {
		// Any traffic proves the sender alive.
		mb.world.noteHeard(e.wsrc)
	}
	if e.kind == kindData && mb.world.hooked() {
		// Receiver-side arrival stamp for queue-latency attribution; taken
		// before the lock so lock contention is not charged to the queue.
		e.arrived = time.Now()
	}
	mb.mu.Lock()
	if mb.dead {
		// A killed rank's mailbox is a black hole: no matches, no acks.
		mb.mu.Unlock()
		dropEnv(e)
		return
	}
	if e.kind == kindAck {
		mb.acks[e.seq] = true
		mb.cond.Broadcast()
		mb.mu.Unlock()
		// The ack's information is fully absorbed into the acks map;
		// recycle its envelope (acks never carry a payload).
		putEnv(e)
		return
	}
	for _, pr := range mb.pending {
		if pr.env == nil && matches(e, pr.ctx, pr.src, pr.tag) {
			claim(e, pr.dst)
			pr.env = e
			coll := pr.coll
			if coll != nil {
				coll.unconsumed++
			}
			seq, wsrc, ctx := e.seq, e.wsrc, e.ctx
			e.seq = 0 // consumed: completion paths must not double-ack
			mb.cond.Broadcast()
			mb.mu.Unlock()
			mb.sendAck(wsrc, ctx, seq)
			if coll != nil {
				// Arrival-driven progress: advance the collective's state
				// machine on the delivering goroutine, so the owning rank
				// can keep computing while its collective completes.
				icollArrivals.Add(1)
				coll.advance()
			}
			return
		}
	}
	mb.unexpected = append(mb.unexpected, e)
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// claim makes a lent message's one copy at its match, before the ack
// that lets the parked sender reuse its slice: into dst when the receive
// named one that holds the message (the payload then stays lent, now
// from the receiver), otherwise into a pooled buffer. Callers hold the
// destination's mu, which is what keeps a failed sender's reclaimLent
// from racing the copy.
func claim(e *envelope, dst []byte) {
	if !e.lent {
		return
	}
	if n := len(e.data); n > 0 && n <= len(dst) {
		e.data = dst[:copy(dst, e.data)]
		return
	}
	e.data, e.lent = copyToPooled(e.data), false
}

// sendAck dispatches a rendezvous acknowledgement. Must be called without
// holding any mailbox lock; seq 0 means no acknowledgement is owed.
func (mb *mailbox) sendAck(wdst int, ctx int32, seq int64) {
	if seq == 0 {
		return
	}
	ack := getEnv()
	ack.kind = kindAck
	ack.src = mb.rank
	ack.wsrc = mb.rank
	ack.wdst = wdst
	ack.ctx = ctx
	ack.seq = seq
	// Delivery failure can only mean a malformed destination, which a
	// matched envelope cannot have.
	_ = mb.world.deliver(ack)
}

// postRecv registers a receive. If an unexpected message already matches,
// the returned pendingRecv is complete (and any rendezvous sender is
// acknowledged); otherwise it joins the posted queue in FIFO order. dst
// is where a lent message is copied when it holds it (claim), or nil.
func (mb *mailbox) postRecv(ctx int32, src, tag int, dst []byte) *pendingRecv {
	pr := getPR(ctx, src, tag)
	pr.dst = dst
	mb.mu.Lock()
	for i, e := range mb.unexpected {
		if matches(e, ctx, src, tag) {
			mb.unexpected = append(mb.unexpected[:i], mb.unexpected[i+1:]...)
			claim(e, dst)
			pr.env = e
			seq, wsrc := e.seq, e.wsrc
			e.seq = 0
			mb.mu.Unlock()
			mb.sendAck(wsrc, ctx, seq)
			return pr
		}
	}
	mb.pending = append(mb.pending, pr)
	mb.mu.Unlock()
	return pr
}

// postRecvColl registers a receive owned by a nonblocking collective's
// state machine. Unlike postRecv it attaches cr before the record becomes
// visible to the matching engine, so an arrival can credit cr.unconsumed
// and advance the state machine; the caller (the machine itself) consumes
// completions through takeColl.
func (mb *mailbox) postRecvColl(ctx int32, src, tag int, cr *CollRequest) *pendingRecv {
	pr := getPR(ctx, src, tag)
	pr.coll = cr
	mb.mu.Lock()
	for i, e := range mb.unexpected {
		if matches(e, ctx, src, tag) {
			mb.unexpected = append(mb.unexpected[:i], mb.unexpected[i+1:]...)
			claim(e, nil)
			pr.env = e
			cr.unconsumed++
			seq, wsrc := e.seq, e.wsrc
			e.seq = 0
			mb.mu.Unlock()
			mb.sendAck(wsrc, ctx, seq)
			return pr
		}
	}
	mb.pending = append(mb.pending, pr)
	mb.mu.Unlock()
	return pr
}

// takeColl consumes a completed collective receive: on match it removes
// pr from the posted queue, debits cr's unconsumed credit and returns the
// envelope (owned by the caller). The credit accounting keeps the
// deadlock detector sound: a rank blocked in waitColl is satisfiable
// exactly while a matched-but-unconsumed arrival exists.
func (mb *mailbox) takeColl(cr *CollRequest, pr *pendingRecv) (*envelope, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if pr.env == nil {
		return nil, false
	}
	mb.dropPending(pr)
	if cr.unconsumed > 0 {
		cr.unconsumed--
	}
	return pr.env, true
}

// stopErrLocked reports why this rank's blocked operation must give up,
// or nil: the rank was killed, the world stopped (deadlock/abort), or the
// failure epoch advanced past what the rank has acknowledged. Callers
// hold mu.
func (mb *mailbox) stopErrLocked() error {
	if mb.dead {
		return ErrRankKilled
	}
	if err := mb.world.stopErr(); err != nil {
		return err
	}
	if mb.world.failEpoch.Load() > mb.failAck.Load() {
		return mb.world.rankFailedError()
	}
	return nil
}

// opDeadline computes the per-operation deadline, zero when WithOpTimeout
// is not configured. The op-timeout ticker wakes blocked waiters so the
// deadline is actually observed.
func (mb *mailbox) opDeadline() time.Time {
	if d := mb.world.opts.opTimeout; d > 0 {
		return time.Now().Add(d)
	}
	return time.Time{}
}

func deadlineExceeded(dl time.Time) bool {
	return !dl.IsZero() && time.Now().After(dl)
}

// waitRecv blocks until pr completes, the world stops, a failure is
// observed, or the operation deadline passes. On success it removes pr
// from the posted queue and returns its envelope.
func (mb *mailbox) waitRecv(pr *pendingRecv) (*envelope, error) {
	dl := mb.opDeadline()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for pr.env == nil {
		if err := mb.stopErrLocked(); err != nil {
			mb.dropPending(pr)
			return nil, err
		}
		if deadlineExceeded(dl) {
			mb.dropPending(pr)
			return nil, fmt.Errorf("%w after %v: recv(src=%d, tag=%d)", ErrTimeout, mb.world.opts.opTimeout, pr.src, pr.tag)
		}
		mb.block(waitInfo{kind: waitRecv, pr: pr})
	}
	mb.dropPending(pr)
	return pr.env, nil
}

// tryRecv reports whether pr has completed, without blocking. On success
// the pendingRecv is removed from the posted queue.
func (mb *mailbox) tryRecv(pr *pendingRecv) (*envelope, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if pr.env == nil {
		return nil, false
	}
	mb.dropPending(pr)
	return pr.env, true
}

// dropPending removes pr from the posted queue. Callers hold mu.
func (mb *mailbox) dropPending(pr *pendingRecv) {
	for i, p := range mb.pending {
		if p == pr {
			mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
			return
		}
	}
}

// probe blocks until an unexpected message matches (ctx, src, tag) and
// returns its Status without consuming it.
func (mb *mailbox) probe(ctx int32, src, tag int) (Status, error) {
	dl := mb.opDeadline()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for _, e := range mb.unexpected {
			if matches(e, ctx, src, tag) {
				return Status{Source: e.src, Tag: int(e.tag), Bytes: len(e.data)}, nil
			}
		}
		if err := mb.stopErrLocked(); err != nil {
			return Status{}, err
		}
		if deadlineExceeded(dl) {
			return Status{}, fmt.Errorf("%w after %v: probe(src=%d, tag=%d)", ErrTimeout, mb.world.opts.opTimeout, src, tag)
		}
		mb.block(waitInfo{kind: waitProbe, ctx: ctx, src: src, tag: tag})
	}
}

// waitAck blocks until the rendezvous acknowledgement for seq arrives.
func (mb *mailbox) waitAck(seq int64) error {
	dl := mb.opDeadline()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for !mb.acks[seq] {
		if err := mb.stopErrLocked(); err != nil {
			return err
		}
		if deadlineExceeded(dl) {
			return fmt.Errorf("%w after %v: rendezvous send (seq=%d)", ErrTimeout, mb.world.opts.opTimeout, seq)
		}
		mb.block(waitInfo{kind: waitAck, seq: seq})
	}
	delete(mb.acks, seq)
	return nil
}

// waitRMAResp blocks until the one-sided reply for seq arrives and returns
// its payload, whose ownership passes to the caller.
func (mb *mailbox) waitRMAResp(seq int64) ([]byte, error) {
	dl := mb.opDeadline()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if b, ok := mb.rmaResp[seq]; ok {
			delete(mb.rmaResp, seq)
			return b, nil
		}
		if err := mb.stopErrLocked(); err != nil {
			return nil, err
		}
		if deadlineExceeded(dl) {
			return nil, fmt.Errorf("%w after %v: rma fetch (seq=%d)", ErrTimeout, mb.world.opts.opTimeout, seq)
		}
		mb.block(waitInfo{kind: waitRMA, seq: seq})
	}
}

// tryAck reports whether the acknowledgement for seq has arrived, without
// blocking, consuming it on success.
func (mb *mailbox) tryAck(seq int64) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if !mb.acks[seq] {
		return false
	}
	delete(mb.acks, seq)
	return true
}

// block parks the goroutine on the mailbox condition variable with its
// blocking state exposed to the deadlock detector. Callers hold mu and
// re-check their predicate after block returns. The wait record is
// stored in the mailbox's reusable slot (a rank waits on one thing at a
// time), keeping the blocking path allocation-free. This is the one
// place a rank parks, so it is also where Event.Blocked is measured.
func (mb *mailbox) block(wi waitInfo) {
	mb.wi = wi
	mb.waiting = &mb.wi
	mb.world.noteBlocked()
	if mb.world.hooked() {
		start := time.Now()
		mb.cond.Wait()
		mb.blocked += time.Since(start)
	} else {
		mb.cond.Wait()
	}
	mb.waiting = nil
	mb.world.noteUnblocked()
}

// markFinished records that the rank's function returned. Guarded by mu so
// the detector observes a consistent snapshot; the broadcast wakes a
// survivor waiting to revive the rank (resetRank).
func (mb *mailbox) markFinished() {
	mb.mu.Lock()
	mb.finished = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// satisfiableLocked reports whether the rank's current wait could complete
// given present mailbox state. The deadlock detector calls it while
// holding mu for every mailbox in the world. A rank that is neither
// finished nor waiting is running, which also counts as satisfiable
// (progress is possible).
func (mb *mailbox) satisfiableLocked() bool {
	if mb.finished {
		return false // cannot act, but also not stuck
	}
	wi := mb.waiting
	if wi == nil {
		return true // running: progress possible
	}
	switch wi.kind {
	case waitRecv:
		return wi.pr.env != nil
	case waitProbe:
		for _, e := range mb.unexpected {
			if matches(e, wi.ctx, wi.src, wi.tag) {
				return true
			}
		}
		return false
	case waitAck:
		return mb.acks[wi.seq]
	case waitRMA:
		_, ok := mb.rmaResp[wi.seq]
		return ok
	case waitColl:
		// Satisfiable while the collective has finished (the waiter just
		// has not observed it yet) or holds a matched arrival its state
		// machine has not consumed. A mid-step background advance is
		// covered by the world-level collActive gate in verifyDeadlock.
		return wi.coll.done.Load() || wi.coll.unconsumed > 0
	}
	return true
}
