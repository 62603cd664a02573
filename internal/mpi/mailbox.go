package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// waitKind classifies what a blocked rank is waiting for. ready decides
// whether such a wait can finish, for the waiter and for the deadlock
// detector alike.
type waitKind int8

const (
	waitNone  waitKind = iota
	waitRecv           // blocked in Recv/Wait(Irecv) on pr
	waitProbe          // blocked in Probe on (ctx, src, tag)
	waitAck            // blocked in a rendezvous Send on seq
	waitRMA            // blocked in a one-sided Get/CompareAndSwap on a reply seq
	waitColl           // blocked in CollRequest.Wait on a nonblocking collective
)

// collOwner is how the mailbox reaches the nonblocking collective that
// owns a posted receive (CollRequest, icoll.go). credit and settled are
// called with the owning rank's mailbox mutex held, arrived without it.
type collOwner interface {
	credit(n int)  // add n to its matched-but-unconsumed arrivals, never below 0
	settled() bool // finished, or holding a matched arrival: a waiter may go on
	arrived()      // advance its state machine on the delivering goroutine
	name() string  // the collective waited on, for diagnostics
}

// waitInfo records the blocking state of a rank, guarded by its mailbox
// mutex. Exactly one of the fields past kind is meaningful.
type waitInfo struct {
	kind waitKind
	pr   *pendingRecv // waitRecv
	ctx  int32        // waitProbe
	src  int          // waitProbe
	tag  int          // waitProbe
	seq  int64        // waitAck, waitRMA
	coll collOwner    // waitColl
}

// String names the wait as ErrTimeout messages and the watchdog's
// diagnostic print it.
func (wi waitInfo) String() string {
	switch wi.kind {
	case waitRecv:
		return fmt.Sprintf("recv(src=%d, tag=%d)", wi.pr.src, wi.pr.tag)
	case waitProbe:
		return fmt.Sprintf("probe(src=%d, tag=%d)", wi.src, wi.tag)
	case waitAck:
		return fmt.Sprintf("send-ack(seq=%d)", wi.seq)
	case waitRMA:
		return fmt.Sprintf("rma-fetch(seq=%d)", wi.seq)
	case waitColl:
		return wi.coll.name() + " wait"
	}
	return "none"
}

// pendingRecv is a posted receive awaiting a matching envelope. env is set
// exactly once, under the mailbox mutex, when a message matches. coll,
// when non-nil, names the nonblocking collective that owns this receive:
// a match credits it (under the same lock) and triggers its state
// machine on the delivering goroutine. dst, when non-nil, is
// the memory a RecvInto named for a lent message's one copy (claim).
type pendingRecv struct {
	ctx  int32
	src  int // AnySource allowed
	tag  int // AnyTag allowed
	env  *envelope
	coll collOwner
	dst  []byte
}

var prPool = freeList[*pendingRecv]{max: 256}

// getPR returns an initialized posted-receive record from the pool.
func getPR(ctx int32, src, tag int) *pendingRecv {
	if pr := prPool.get(); pr != nil {
		pr.ctx, pr.src, pr.tag = ctx, src, tag
		return pr
	}
	return &pendingRecv{ctx: ctx, src: src, tag: tag}
}

// putPR recycles a completed posted receive. The caller must guarantee pr
// is no longer in any mailbox queue and no other goroutine can touch it.
func putPR(pr *pendingRecv) {
	*pr = pendingRecv{}
	prPool.put(pr)
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

	rank   int
	world  *World
	hooked bool // a Hook is attached: block measures parked time

	unexpected []*envelope    // FIFO of unmatched arrivals
	pending    []*pendingRecv // FIFO of posted receives

	// replies holds what arrived for this rank's sends, keyed by the
	// sequence the send drew (nextSeq): a rendezvous ack (nil) or the
	// fetched payload of a one-sided Get/CompareAndSwap, a pooled buffer
	// whose ownership passes to the waiting origin (nil when the target
	// rejected the access).
	replies map[int64][]byte

	// waiting is the rank's wait while its goroutine is parked in
	// cond.Wait (kind waitNone otherwise); the deadlock detector reads it
	// while holding mu. A rank blocks on one thing at a time, so the
	// record is reused in place instead of allocated per wait.
	waiting waitInfo

	// finished is set when the rank's function has returned. A finished
	// rank can never post again.
	finished bool

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
	mb := &mailbox{rank: rank, world: w, hooked: w.opts.hook != nil, replies: make(map[int64][]byte)}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// post delivers an envelope to the mailbox's matching engine, at the end
// of the arrival path (World.arrive). A
// rendezvous envelope that matches an already-posted receive is
// acknowledged immediately — MPI's progress guarantee: a posted MPI_Irecv
// must complete a matching synchronous send even if the receiving rank is
// itself blocked in a send (the ring collectives depend on this). The
// acknowledgement is dispatched by sendAck after the mailbox lock is
// released, so concurrent cross-posts cannot order-deadlock on mailbox
// mutexes.
func (mb *mailbox) post(e *envelope) {
	mb.mu.Lock()
	if mb.world.isKilled(mb.rank) {
		// A killed rank's mailbox is a black hole: no matches, no acks.
		mb.mu.Unlock()
		dropEnv(e)
		return
	}
	if e.kind == kindAck || e.kind == kindRMAResp {
		// The reply is absorbed into the table (an ack carries no
		// payload; a fetch's passes to the waiting origin), so its
		// envelope is recycled.
		mb.replies[e.seq] = e.data
		mb.cond.Broadcast()
		mb.mu.Unlock()
		putEnv(e)
		return
	}
	for _, pr := range mb.pending {
		if pr.env == nil && matches(e, pr.ctx, pr.src, pr.tag) {
			wsrc, ctx, coll := e.wsrc, e.ctx, pr.coll
			seq := pr.fill(e)
			mb.cond.Broadcast()
			mb.mu.Unlock()
			mb.sendAck(wsrc, ctx, seq)
			if coll != nil {
				// Arrival-driven progress: advance the collective's state
				// machine on the delivering goroutine, so the owning rank
				// can keep computing while its collective completes.
				coll.arrived()
			}
			return
		}
	}
	mb.unexpected = append(mb.unexpected, e)
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// fill completes pr with its match e under mu: the lent payload's one
// copy (claim), the owning collective's credit, and the rendezvous
// acknowledgement now owed, returned as seq (0 if none) for the caller
// to send once mu is released.
func (pr *pendingRecv) fill(e *envelope) (seq int64) {
	claim(e, pr.dst)
	pr.env = e
	if pr.coll != nil {
		pr.coll.credit(1)
	}
	seq, e.seq = e.seq, 0 // consumed: completion paths must not double-ack
	return seq
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
// coll, when non-nil, is the nonblocking collective whose state machine
// owns the receive: attached before the record becomes visible, so every
// match credits it and can advance the machine.
func (mb *mailbox) postRecv(ctx int32, src, tag int, dst []byte, coll collOwner) *pendingRecv {
	pr := getPR(ctx, src, tag)
	pr.dst, pr.coll = dst, coll
	mb.mu.Lock()
	i := mb.firstMatch(ctx, src, tag)
	if i < 0 {
		mb.pending = append(mb.pending, pr)
		mb.mu.Unlock()
		return pr
	}
	e := mb.unexpected[i]
	mb.unexpected = append(mb.unexpected[:i], mb.unexpected[i+1:]...)
	wsrc := e.wsrc
	seq := pr.fill(e)
	mb.mu.Unlock()
	mb.sendAck(wsrc, ctx, seq)
	return pr
}

// firstMatch returns the index of the oldest unexpected arrival matching
// (ctx, src, tag), or -1. Callers hold mu.
func (mb *mailbox) firstMatch(ctx int32, src, tag int) int {
	for i, e := range mb.unexpected {
		if matches(e, ctx, src, tag) {
			return i
		}
	}
	return -1
}

// tryRecv consumes pr if it has completed, without blocking: it removes
// pr from the posted queue, debits its collective's credit and returns
// the envelope (owned by the caller). The debit keeps the deadlock
// detector sound: a rank blocked in waitColl is ready exactly while a
// matched-but-unconsumed arrival exists.
func (mb *mailbox) tryRecv(pr *pendingRecv) (*envelope, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if pr.env == nil {
		return nil, false
	}
	mb.dropPending(pr)
	if pr.coll != nil {
		pr.coll.credit(-1)
	}
	return pr.env, true
}

// cancelRecv withdraws a posted internal receive on an error path,
// releasing a matched-but-unconsumed payload so the one-owner pool
// contract holds. For a nonblocking collective's receive it runs on the
// request's strand.
func (mb *mailbox) cancelRecv(pr *pendingRecv) {
	mb.mu.Lock()
	if pr.env != nil {
		dropEnv(pr.env)
		pr.env = nil
		if pr.coll != nil {
			pr.coll.credit(-1)
		}
	}
	mb.dropPending(pr)
	mb.mu.Unlock()
	putPR(pr)
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

// ready reports whether the wait wi can finish given present mailbox
// state. It is the one readiness rule: await parks until it holds, and
// the deadlock detector (verifyDeadlock) declares deadlock only when it
// holds for no waiting rank; a rank not waiting (waitNone) is running,
// which counts as ready. Callers hold mu.
func (mb *mailbox) ready(wi *waitInfo) bool {
	switch wi.kind {
	case waitRecv:
		return wi.pr.env != nil
	case waitProbe:
		return mb.firstMatch(wi.ctx, wi.src, wi.tag) >= 0
	case waitAck, waitRMA:
		_, ok := mb.replies[wi.seq]
		return ok
	case waitColl:
		// Ready once the collective has finished (the waiter just has not
		// observed it yet) or holds a matched arrival its state machine
		// has not consumed. A mid-step background advance is covered by
		// the world-level collActive gate in verifyDeadlock.
		return wi.coll.settled()
	}
	return true
}

// liveErr reports why the rank may not go on, or nil: it was killed,
// the world stopped (deadlock/abort), or the failure epoch advanced past
// what the rank has acknowledged. It takes no lock, so one-sided
// operations fast-fail through it and a Put to a failed rank surfaces a
// RankFailedError instead of silently blackholing.
func (mb *mailbox) liveErr() error {
	if mb.world.isKilled(mb.rank) {
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

// stopErrLocked reports why the blocked wait wi must give up, or nil:
// liveErr's reasons, or the operation deadline dl (opDeadline) passed.
// Callers hold mu.
func (mb *mailbox) stopErrLocked(wi waitInfo, dl time.Time) error {
	if err := mb.liveErr(); err != nil {
		return err
	}
	if !dl.IsZero() && time.Now().After(dl) {
		return fmt.Errorf("%w after %v: %v", ErrTimeout, mb.world.opts.opTimeout, wi)
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

// await is every blocking wait's one loop: it returns nil once wi is
// ready, or the error that makes it give up by the deadline dl, parking
// in between. It is called with mu held and returns with mu held, so the
// caller consumes what it waited for under the same lock. The mailbox's
// waits pass opDeadline(); CollRequest.Wait passes one deadline for all
// the turns of its loop.
func (mb *mailbox) await(wi waitInfo, dl time.Time) error {
	for !mb.ready(&wi) {
		if err := mb.stopErrLocked(wi, dl); err != nil {
			return err
		}
		mb.block(wi)
	}
	return nil
}

// waitRecv blocks until pr completes and returns its envelope. Either
// way pr leaves the posted queue.
func (mb *mailbox) waitRecv(pr *pendingRecv) (*envelope, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	err := mb.await(waitInfo{kind: waitRecv, pr: pr}, mb.opDeadline())
	mb.dropPending(pr)
	if err != nil {
		return nil, err
	}
	return pr.env, nil
}

// probe blocks until an unexpected message matches (ctx, src, tag) and
// returns its Status without consuming it.
func (mb *mailbox) probe(ctx int32, src, tag int) (Status, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if err := mb.await(waitInfo{kind: waitProbe, ctx: ctx, src: src, tag: tag}, mb.opDeadline()); err != nil {
		return Status{}, err
	}
	e := mb.unexpected[mb.firstMatch(ctx, src, tag)]
	return Status{Source: e.src, Tag: int(e.tag), Bytes: len(e.data)}, nil
}

// waitReply blocks until the reply for seq arrives — kind waitAck for a
// rendezvous ack, waitRMA for a one-sided fetch — and consumes it,
// returning its payload, whose ownership passes to the caller.
func (mb *mailbox) waitReply(kind waitKind, seq int64) ([]byte, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if err := mb.await(waitInfo{kind: kind, seq: seq}, mb.opDeadline()); err != nil {
		return nil, err
	}
	b := mb.replies[seq]
	delete(mb.replies, seq)
	return b, nil
}

// tryAck reports whether the acknowledgement for seq has arrived, without
// blocking, consuming it on success.
func (mb *mailbox) tryAck(seq int64) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	_, ok := mb.replies[seq]
	delete(mb.replies, seq)
	return ok
}

// block parks the goroutine on the mailbox condition variable with its
// blocking state exposed to the deadlock detector. Callers hold mu and
// re-check ready after block returns. The wait record is stored in the
// mailbox's reusable slot (a rank waits on one thing at a time), keeping
// the blocking path allocation-free. This is the one place a rank parks,
// so it is also where Event.Blocked is measured.
func (mb *mailbox) block(wi waitInfo) {
	mb.waiting = wi
	mb.world.noteBlocked()
	if mb.hooked {
		start := time.Now()
		mb.cond.Wait()
		mb.blocked += time.Since(start)
	} else {
		mb.cond.Wait()
	}
	mb.waiting = waitInfo{}
	mb.world.noteUnblocked()
}

// discardLocked drops what the mailbox holds for a rank that will not
// consume it: queued arrivals, posted receives and replies, recycling
// their pooled payloads. Callers hold mu.
func (mb *mailbox) discardLocked() {
	for _, e := range mb.unexpected {
		dropEnv(e)
	}
	mb.unexpected = nil
	mb.pending = nil
	for _, b := range mb.replies {
		putBuf(b)
	}
	clear(mb.replies)
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
