package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Nonblocking collectives (MPI-3 style). Iallreduce and Iallgather
// return a *CollRequest that progresses in the background: every hop is
// sent eagerly and every arrival advances the collective on the
// delivering goroutine, so it completes while the owning rank computes.
// The owner drives remaining steps from Wait when no arrival is pending.
//
// Neither spells out its communication here. Each builds the
// schedule value for its pattern (sched.go) and hands it to schedOp, the
// nonblocking driver: the one collOp implementation, with one step() and
// one cleanup(). It is the twin of the blocking driver runSched
// (collectives.go) and differs from it only in how it waits — it never
// does. The request and its schedOp are one heap object (collReq), the
// only allocation an initiation makes: hop buffers, envelopes and posted
// receives all come from the pools.
//
// Concurrency model — the request is a strand: at most one goroutine
// executes step() at a time (the running flag under cr.mu), and a
// would-be stepper that loses the race marks the strand dirty so the
// winner loops again. Hops reuse the pooled collective data path
// (getEnv/getBuf/getPR), and they are always eager — a state machine
// running on a foreign delivering goroutine must never block on a
// rendezvous acknowledgement. In-flight volume stays bounded by the
// schedules' lockstep structure (at most one outstanding hop per
// request). Wait parks through the mailbox's one wait loop (await), and
// a failure it observes enters the strand through advance.
//
// The ring allreduce's reduce-scatter phase leaves rank r owning the
// fully reduced segment r — the layout ZeRO-style optimizer sharding
// wants — and the blocking ReduceScatterInto at the end of this file
// is the same schedule value under the other driver, so Iallreduce
// results, reduce-scatter shards and any training loop built on either
// are bit-identical.

// CollRequest is an outstanding nonblocking collective, the collective
// analogue of Request. Complete it with Wait, or batch-complete with
// WaitallColl. The buffer passed to the initiating call must not be
// touched until the request completes. Requests are never reused, so
// Wait on a completed request returns its own result at once, however
// many requests have run since.
type CollRequest struct {
	comm  *Comm
	prim  Primitive
	bytes int   // user payload bytes, for the prof events
	msgid int64 // flow id pairing the initiation and Wait events

	mu      sync.Mutex
	running bool  // a goroutine is executing step()
	dirty   bool  // new work arrived while running; the stepper loops
	failErr error // external failure to absorb at the next strand entry

	op  collOp
	err error
	// done is the completion flag: stored after err/result writes, read
	// by Wait and the deadlock detector.
	done atomic.Bool

	// unconsumed counts matched-but-unconsumed arrivals, guarded by the
	// owning rank's mailbox mutex. The deadlock detector reads it: a rank
	// blocked in Wait is satisfiable while credit exists.
	unconsumed int
}

// collOp is the request's state machine, with the element type erased
// (schedOp[T] is the implementation). step advances as far as arrivals
// allow and reports completion; cleanup releases any posted receive and
// pooled payload after a failure. Both run on the strand (never
// concurrently).
type collOp interface {
	step() (done bool, err error)
	cleanup()
}

// schedOp is the nonblocking driver: it runs one rank's schedule as far
// as arrivals allow each time the strand enters it. Where runSched waits
// for a hop's arrival, step returns and is re-entered when the arrival
// (which credits cr and advances the strand) has come.
type schedOp[T Scalar] struct {
	hopRun[T]
	cr   *CollRequest
	pr   *pendingRecv // the posted receive step() is waiting on
	wire []byte       // the wire buffer in hand
	tag  int32
	h    hop // the hop pr belongs to
}

func (o *schedOp[T]) step() (bool, error) {
	c := o.cr.comm
	for {
		if o.pr != nil {
			env, ok := c.mb.tryRecv(o.pr)
			if !ok {
				return false, nil
			}
			putPR(o.pr)
			o.pr = nil
			b := env.data
			putEnv(env)
			if err := o.arrive(o.h, b, &o.wire); err != nil {
				return false, err
			}
		}
		h, ok := o.s.next()
		if !ok {
			o.cleanup()
			return true, nil
		}
		o.h = h
		if h.recv != recvNone {
			o.pr = c.mb.postRecv(c.collCtx(), int(h.from), int(o.tag), nil, o.cr)
		}
		if h.send != sendNone {
			b, lent := o.payload(c, h, &o.wire, true)
			if err := c.collSendHop(b, lent, int(h.to), int(o.tag), true); err != nil {
				return false, err
			}
		}
	}
}

func (o *schedOp[T]) cleanup() {
	if o.pr != nil {
		o.cr.comm.mb.cancelRecv(o.pr)
		o.pr = nil
	}
	putBuf(o.wire)
	o.wire = nil
}

// collReq is a request and its driver in one heap object: the caller
// holds &r.CollRequest, whose op points at r.sop.
type collReq[T Scalar] struct {
	CollRequest
	sop schedOp[T]
}

// startColl is the shared body of the I* entry points: account the
// initiation, build the request and its driver over buf, and run the
// schedule as far as it goes without waiting.
func startColl[T Scalar](c *Comm, prim Primitive, kind schedKind, buf []T, op Op[T]) *CollRequest {
	sp := c.begin(prim)
	bytes := len(buf) * scalarSize[T]()
	r := &collReq[T]{CollRequest: CollRequest{comm: c, prim: prim, bytes: bytes, msgid: c.world.flowID()}}
	cr := &r.CollRequest
	icollStarted.Add(1)
	r.sop = schedOp[T]{
		hopRun: hopRun[T]{s: newSched(kind, len(c.members), c.rank, noRoot), buf: buf, op: op},
		cr:     cr,
		tag:    int32(c.nextCollTag()),
	}
	cr.op = &r.sop
	cr.advance(nil)
	sp.end(-1, -1, bytes, cr.msgid, 0, 0)
	return cr
}

// advance drives the state machine: it acquires the strand, steps until
// the machine is waiting on an arrival (or finished), and hands off via
// the dirty flag when another goroutine raced in. Called at initiation
// (owner), on every arrival (delivering goroutine) and from Wait
// (owner). A non-nil fail is an external failure (rank killed, world
// stopped, peer failure epoch, deadline) recorded on the request: the
// strand absorbs it at its next entry or turn, cleaning up instead of
// stepping. The world-level collActive gate keeps the deadlock detector
// from declaring victory while a step is mid-flight outside any rank's
// blocked census.
func (cr *CollRequest) advance(fail error) {
	if cr.done.Load() {
		return
	}
	w := cr.comm.world
	w.collActive.Add(1)
	defer w.collActive.Add(-1)
	cr.mu.Lock()
	if cr.failErr == nil {
		cr.failErr = fail
	}
	if cr.done.Load() || cr.running {
		cr.dirty = true
		cr.mu.Unlock()
		return
	}
	cr.running = true // never cleared once done: done closes the strand
	for err, done := cr.failErr, false; ; {
		cr.dirty = false
		cr.mu.Unlock()
		if err == nil {
			icollSteps.Add(1)
			done, err = cr.op.step()
		}
		cr.mu.Lock()
		if err == nil {
			err = cr.failErr
		}
		if err != nil || done {
			cr.mu.Unlock()
			if err != nil {
				cr.op.cleanup()
			}
			// err (and the op's output buffer) are published before the
			// done flag, so a waiter that observes done reads consistent
			// results; the broadcast wakes a Wait parked on the owner.
			cr.err = err
			cr.done.Store(true)
			icollCompleted.Add(1)
			mb := cr.comm.mb
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
			return
		}
		if !cr.dirty {
			cr.running = false
			cr.mu.Unlock()
			return
		}
	}
}

// credit, settled, arrived and name make the request the collOwner of
// the receives its state machine posts (mailbox.go).
func (cr *CollRequest) credit(n int) { cr.unconsumed = max(cr.unconsumed+n, 0) }

func (cr *CollRequest) settled() bool { return cr.done.Load() || cr.unconsumed > 0 }

func (cr *CollRequest) arrived() {
	icollArrivals.Add(1)
	cr.advance(nil)
}

func (cr *CollRequest) name() string { return cr.prim.String() }

// Wait blocks until the collective completes (MPI_Wait on a collective
// request), driving the state machine whenever a matched arrival is
// pending so progress never depends on a third party. It emits one
// MPI_Wait_coll event whose RecvID pairs with the initiation event's
// SendID, which is how the wait-state analysis attributes overlap.
func (cr *CollRequest) Wait() error {
	c, mb := cr.comm, cr.comm.mb
	sp := c.begin(PrimWaitColl)
	// await parks until a matched arrival awaits consumption or the
	// request is done, under one deadline for the whole Wait; each ready
	// turn drives the machine here instead of waiting for (or racing) the
	// delivering goroutine. A stop error is recorded on the request
	// through the strand, and Wait parks until the strand's holder, this
	// goroutine or a background stepper, has completed it.
	wi := waitInfo{kind: waitColl, coll: cr}
	dl := mb.opDeadline()
	var err error
	for err == nil && !cr.done.Load() {
		cr.advance(nil)
		mb.mu.Lock()
		err = mb.await(wi, dl)
		mb.mu.Unlock()
	}
	if err != nil {
		cr.advance(err)
		mb.mu.Lock()
		for !cr.done.Load() {
			mb.block(wi)
		}
		mb.mu.Unlock()
	}
	sp.end(-1, -1, cr.bytes, 0, cr.msgid, 0)
	return cr.err
}

// WaitallColl completes every nonblocking collective, returning the
// first error after attempting all of them — the collective analogue of
// Waitall. Failed requests release their pooled hop buffers internally,
// so the one-owner pool contract holds on error paths.
func WaitallColl(reqs ...*CollRequest) error {
	var firstErr error
	for _, cr := range reqs {
		if cr == nil {
			continue
		}
		if err := cr.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Iallreduce starts a nonblocking in-place allreduce (MPI_Iallreduce
// with MPI_IN_PLACE): after Wait, every rank's buf holds the elementwise
// op-fold across ranks. The ring algorithm (reduce-scatter + allgather)
// runs in the background, directly on buf; the steady-state hop path is
// allocation-free apart from pooled buffers.
func Iallreduce[T Scalar](c *Comm, buf []T, op Op[T]) (*CollRequest, error) {
	return startColl(c, PrimIallreduce, schedAllreduceRing, buf, op), nil
}

// Iallgather starts a nonblocking in-place ring allgather
// (MPI_Iallgather with MPI_IN_PLACE): buf holds p equal blocks, rank r's
// contribution pre-filled at block r; after Wait every block is
// populated. len(buf) must be a multiple of the communicator size.
func Iallgather[T Scalar](c *Comm, buf []T) (*CollRequest, error) {
	p := len(c.members)
	if len(buf)%p != 0 {
		return nil, fmt.Errorf("%w: Iallgather buffer of %d elements across %d ranks", ErrLengthMismatch, len(buf), p)
	}
	return startColl(c, PrimIallgather, schedAllgather, buf, nil), nil
}

// ReduceScatterInto reduces every rank's buf elementwise with op and
// scatters the result by equal segments (MPI_Reduce_scatter_block with
// MPI_IN_PLACE): after the call, rank r's reduced segment occupies
// buf[r*seg:(r+1)*seg] where seg = len(buf)/p; the other segments hold
// partial folds and are unspecified. len(buf) must be a multiple of the
// communicator size. It runs the first phase of the schedule Iallreduce
// runs, so the shards it produces are bit-identical to the corresponding
// Iallreduce segments — the property ZeRO-style sharded optimizers rely
// on.
func ReduceScatterInto[T Scalar](c *Comm, buf []T, op Op[T]) error {
	p := len(c.members)
	if len(buf)%p != 0 {
		return fmt.Errorf("%w: ReduceScatter buffer of %d elements across %d ranks", ErrLengthMismatch, len(buf), p)
	}
	sp := c.begin(PrimReduceScatter)
	_, err := runSched(c, schedReduceScatter, noRoot, buf, op, inPlace)
	sp.end(-1, -1, len(buf)*scalarSize[T](), 0, 0, 0)
	return err
}
