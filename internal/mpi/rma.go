package mpi

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// One-sided communication (RMA): the fourth pillar of the runtime next to
// point-to-point, collectives and the fault plane. A Win exposes a
// rank-local byte region that every member of the communicator can
// access remotely with Put, Get, Accumulate and CompareAndSwap, without
// the target rank calling a matching receive.
//
// Every one-sided request travels in one frame format — a run of
// fixed-header entries, op(1) dtype(1) offset(8) msgid(8) len(4) payload —
// inside a kindRMAReq envelope, and every target-side effect is written
// once, in applyRMA: it walks a frame under the region's mutex and applies
// Put, Accumulate, Get and CompareAndSwap alike. The
// progress engine, handleRMAReq, calls it from mailbox.post on the
// delivering goroutine: on the channel transport that is the origin's own
// goroutine (delivery is synchronous), on the socket transport the
// connection reader; either way the target's application thread never
// participates, which is the defining property of one-sided semantics.
// Completion reuses the rendezvous machinery: Put/Accumulate are
// confirmed with kindAck, Get/CompareAndSwap return data in a
// kindRMAResp envelope.
//
// Synchronization is MPI's active-target epoch: Win.Fence drains
// outstanding acknowledgements and barriers, making all prior accesses
// visible everywhere. Win.Flush completes this rank's operations without
// the barrier.
//
// Put and Accumulate do not travel one request per call. Inside an
// epoch they coalesce into per-target batches — entries encoded back to
// back in a pooled buffer — and the whole batch crosses as one frame,
// confirmed by one acknowledgement, when the epoch closes (Fence, Flush,
// Free) or the batch reaches rmaBatchMaxBytes. That turns the
// dominant one-sided cost, a round trip per operation, into a round trip
// per (target, epoch): the hash-join module's before/after study
// measures it. Ordering within a batch is program order; visibility
// remains epoch-based, exactly as in MPI (a Get of a location Put earlier
// in the same unflushed epoch is undefined). Get and CompareAndSwap each
// need a reply, so each travels alone as a one-entry frame. PutAsync is
// the request-returning Put (MPI_Rput): it completes on the epoch
// boundary.
//
// On the in-process channel transport every window region lives in this
// address space, so batch flushes, Get and CompareAndSwap take a
// shared-memory fast path: the origin calls applyRMA on the target region
// itself — the same function, under the same mutex, that the progress
// engine runs — skipping the mailbox round trip entirely. Hook events
// are the ones applyRMA emits on either path, which the channel-vs-TCP
// parity tests pin down.
//
// Fault semantics match the two-sided path: requests to a killed rank
// are discarded and the origin observes the failure epoch — a blocked or
// subsequent operation returns a RankFailedError — after which survivors
// can Shrink and create a fresh window. A kill mid-batch is surfaced by
// the closing flush, and abandoned batch buffers are returned to the
// pool on every error path.

// AccOp selects the combining operator of Win.Accumulate.
type AccOp byte

const (
	AccReplace AccOp = iota // overwrite target elements (MPI_REPLACE)
	AccSum                  // elementwise sum (MPI_SUM)
	AccMax                  // elementwise max (MPI_MAX)
	AccMin                  // elementwise min (MPI_MIN)
)

func (op AccOp) String() string {
	switch op {
	case AccReplace:
		return "REPLACE"
	case AccSum:
		return "SUM"
	case AccMax:
		return "MAX"
	case AccMin:
		return "MIN"
	}
	return fmt.Sprintf("AccOp(%d)", int(op))
}

// RMA operation codes: the first byte of every frame entry.
const (
	rmaPut byte = iota + 1
	rmaGet
	rmaAcc
	rmaCas
)

// Frame format (kindRMAReq payload): a back-to-back run of entries, each
// a fixed header followed by its payload.
//
//	op(1) dtype(1) offset(8, LE) msgid(8, LE) len(4, LE) payload(len)
//
// The payload is op-specific: the bytes to write for Put; whole 8-byte
// int64 elements for Accumulate, whose dtype is the AccOp;
// the requested length as an int64 for Get; compare‖swap for
// CompareAndSwap. A frame is either a run of Put/Accumulate entries,
// confirmed by one acknowledgement, or exactly one Get or CompareAndSwap
// entry, replied to on its own.
//
// msgid is the per-logical-op flow id: the target re-emits one mirror
// hook event per entry, so coalescing is invisible to profilers and the
// channel-vs-TCP event-parity tests.
const (
	rmaBatchEntryLen  = 1 + 1 + 8 + 8 + 4
	rmaBatchInitBytes = 1 << 10  // first pooled buffer per (window, target)
	rmaBatchMaxBytes  = 64 << 10 // eager-flush threshold per target
)

// putRMAEntry encodes one entry, header and payload, into
// b[:rmaBatchEntryLen+len(payload)].
func putRMAEntry(b []byte, op, dtype byte, offset, msgid int64, payload []byte) {
	b[0] = op
	b[1] = dtype
	binary.LittleEndian.PutUint64(b[2:], uint64(offset))
	binary.LittleEndian.PutUint64(b[10:], uint64(msgid))
	binary.LittleEndian.PutUint32(b[18:], uint32(len(payload)))
	copy(b[rmaBatchEntryLen:], payload)
}

// rmaBatchNext decodes and validates the first entry of a frame. The
// entry's payload, data, aliases b; the entry ends
// rmaBatchEntryLen+len(data) bytes into b. ok is false for a short,
// truncated or malformed entry. It is the only decoder of one-sided
// requests. The fields come back as plain values, data fifth: an entry
// struct is too large to live in registers (the apply loop ran at half
// speed), and a slice result past the fifth escapes to the heap, taking
// the fast path's stack-built frame with it.
func rmaBatchNext(b []byte) (op, dtype byte, offset, msgid int64, data []byte, ok bool) {
	if len(b) < rmaBatchEntryLen {
		return 0, 0, 0, 0, nil, false
	}
	n := int64(binary.LittleEndian.Uint32(b[18:]))
	if n > int64(len(b)-rmaBatchEntryLen) {
		return 0, 0, 0, 0, nil, false
	}
	op, dtype = b[0], b[1]
	offset = int64(binary.LittleEndian.Uint64(b[2:]))
	data = b[rmaBatchEntryLen : rmaBatchEntryLen+int(n)]
	switch op {
	case rmaPut:
		ok = true
	case rmaAcc:
		ok = AccOp(dtype) <= AccMin && n%8 == 0
	case rmaGet:
		ok = n == 8 && int64(binary.LittleEndian.Uint64(data)) >= 0
	case rmaCas:
		ok = n == 16
	}
	if !ok || offset < 0 {
		return 0, 0, 0, 0, nil, false
	}
	return op, dtype, offset, int64(binary.LittleEndian.Uint64(b[10:])), data, true
}

// rmaEvent is the primitive and byte count of an entry's target-side
// event: the bytes moved, or the length requested for a Get.
func rmaEvent(op byte, data []byte) (Primitive, int) {
	switch op {
	case rmaPut:
		return PrimRMAPut, len(data)
	case rmaAcc:
		return PrimRMAAcc, len(data)
	case rmaGet:
		return PrimRMAGet, int(binary.LittleEndian.Uint64(data))
	}
	return PrimRMACas, 8
}

// inWindow reports whether [offset, offset+n) lies inside a region of
// size bytes, for non-negative offset and n. It compares against size-n,
// which cannot wrap, where offset+n can.
func inWindow(size int, offset, n int64) bool { return offset <= int64(size)-n }

// Process-wide batching counters, read by RMABatchStats. The coalescing
// ratio ops/flushes is the figure of merit: 1.0 means batching bought
// nothing, the hash-join build phase reaches the hundreds.
var (
	rmaBatchFlushes atomic.Int64 // batches flushed (frames sent or applied directly)
	rmaBatchOps     atomic.Int64 // logical Put/Accumulate ops coalesced into them
	rmaBatchBytes   atomic.Int64 // total flushed frame bytes
	rmaBatchDirect  atomic.Int64 // flushes applied via the shared-memory fast path
)

// RMABatchCounters is a snapshot of the one-sided batching layer,
// aggregated over every world in the process (mirrors PoolStats).
type RMABatchCounters struct {
	Flushes       int64 // batch frames flushed
	Ops           int64 // logical ops they carried (ops/flushes = coalescing ratio)
	Bytes         int64 // frame bytes flushed
	DirectApplies int64 // flushes that took the shared-memory fast path
}

// Sub returns the counter deltas since an earlier snapshot, for
// bracketing a region of interest (counters are cumulative and
// process-wide).
func (c RMABatchCounters) Sub(prev RMABatchCounters) RMABatchCounters {
	return RMABatchCounters{
		Flushes:       c.Flushes - prev.Flushes,
		Ops:           c.Ops - prev.Ops,
		Bytes:         c.Bytes - prev.Bytes,
		DirectApplies: c.DirectApplies - prev.DirectApplies,
	}
}

// RMABatchStats reports cumulative one-sided batching counters.
func RMABatchStats() RMABatchCounters {
	return RMABatchCounters{
		Flushes:       rmaBatchFlushes.Load(),
		Ops:           rmaBatchOps.Load(),
		Bytes:         rmaBatchBytes.Load(),
		DirectApplies: rmaBatchDirect.Load(),
	}
}

// winKey identifies a window across ranks (and processes): the creating
// communicator's context plus a per-communicator creation sequence that
// every member advances in lockstep. The key crosses the wire in the
// envelope's (ctx, tag) fields, so no global id agreement is needed.
type winKey struct {
	ctx int32
	seq int32
}

// winTarget is the target-side state of one rank's window region. Only
// applyRMA touches it, under mu, which is released before any mailbox
// lock is acquired for the reply; the owning rank may read and write buf
// directly between epochs (Win.Local).
type winTarget struct {
	mu  sync.Mutex
	buf []byte
}

// winState is the world-side record of one window: one target per world
// rank (nil for ranks outside the communicator, or hosted by another
// process). refs counts local registrations so Free can retire the entry.
type winState struct {
	key     winKey
	targets []*winTarget
	refs    int
}

// windowFor returns (creating if needed) the winState for key.
func (w *World) windowFor(key winKey) *winState {
	w.winMu.Lock()
	defer w.winMu.Unlock()
	st, ok := w.windows[key]
	if !ok {
		st = &winState{key: key, targets: make([]*winTarget, w.size)}
		w.windows[key] = st
	}
	st.refs++
	return st
}

// dropWindow releases one rank's registration, deleting the window once
// the last local rank freed it.
func (w *World) dropWindow(st *winState) {
	w.winMu.Lock()
	defer w.winMu.Unlock()
	st.refs--
	if st.refs <= 0 {
		delete(w.windows, st.key)
	}
}

// rmaPending is one target's open batch: queued Put/Accumulate entries
// in a pooled buffer, flushed as a single frame.
type rmaPending struct {
	buf []byte
	ops int
}

// Win is one rank's handle on a window: a remotely accessible memory
// region of every member of the communicator. Like Comm, a Win is not
// safe for concurrent use by multiple goroutines of the same rank.
type Win struct {
	c  *Comm
	st *winState
	// local is this rank's own region (st.targets[worldRank]).
	local *winTarget
	// pend holds the open Put/Accumulate batch per communicator rank.
	// Entries accumulate until the epoch closes (Fence, Flush, Free) or
	// a batch reaches rmaBatchMaxBytes, then travel as one frame
	// confirmed by one acknowledgement.
	pend []rmaPending
	// pendingAcks are outstanding batch-frame confirmations, drained by
	// Fence, Flush and Free. The slice is reused across epochs,
	// keeping the flush path allocation-free.
	pendingAcks []int64
	// epoch counts completed epochs (successful completePending calls).
	// PutAsync requests record the epoch they were issued in and are done
	// once it has passed.
	epoch int64
	freed bool
}

// WinCreate collectively creates a window exposing localSize bytes of
// this rank on the communicator (MPI_Win_create). Every member must call
// it with its own (possibly different) size; the call returns once all
// regions are registered, so any member may immediately issue one-sided
// operations on any other.
func (c *Comm) WinCreate(localSize int) (*Win, error) {
	if localSize < 0 {
		return nil, fmt.Errorf("mpi: WinCreate: negative window size %d", localSize)
	}
	sp := c.begin(PrimRMAWinCreate)
	if err := c.mb.liveErr(); err != nil {
		sp.end(-1, -1, 0, 0, 0, 0)
		return nil, err
	}
	c.winSeq++
	st := c.world.windowFor(winKey{ctx: c.ctx, seq: c.winSeq})
	t := &winTarget{buf: make([]byte, localSize)}
	c.world.winMu.Lock()
	st.targets[c.worldRank] = t
	c.world.winMu.Unlock()
	win := &Win{c: c, st: st, local: t, pend: make([]rmaPending, len(c.members))}
	err := c.barrier()
	sp.end(-1, -1, localSize, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	return win, nil
}

// Free collectively retires the window (MPI_Win_free). It completes this
// rank's outstanding operations — flushing any queued batches — then
// synchronizes and releases the region.
func (w *Win) Free() error {
	if w.freed {
		return fmt.Errorf("mpi: Win already freed")
	}
	sp := w.c.begin(PrimRMAWinFree)
	err := w.completePending()
	if err == nil {
		err = w.c.barrier()
	}
	w.freed = true
	w.c.world.dropWindow(w.st)
	sp.end(-1, -1, 0, 0, 0, 0)
	return err
}

// Local returns this rank's own window region. The owner may read and
// write it freely between epochs (after a Fence); touching it while remote accesses are in flight is a data
// race, exactly as in MPI.
func (w *Win) Local() []byte { return w.local.buf }

// checkAccess validates target rank and the [offset, offset+n) range.
// The range check is origin-side when the target region is hosted in
// this process (always, for Run/RunTCP); a remote process's region is
// validated by its own progress engine.
func (w *Win) checkAccess(target, offset, n int) error {
	if w.freed {
		return fmt.Errorf("mpi: operation on freed Win")
	}
	if err := w.c.checkPeer(target, false); err != nil {
		return err
	}
	if offset < 0 || n < 0 {
		return fmt.Errorf("mpi: RMA access [%d, %d+%d) invalid", offset, offset, n)
	}
	if t := w.st.targets[w.c.members[target]]; t != nil && !inWindow(len(t.buf), int64(offset), int64(n)) {
		return fmt.Errorf("mpi: RMA access [%d, %d+%d) outside window of %d bytes on rank %d", offset, offset, n, len(t.buf), target)
	}
	return nil
}

// send delivers one kindRMAReq frame to target, handing the pooled
// buffer to the transport (deliver recycles it on failure), and returns
// the sequence the reply will carry.
func (w *Win) send(target int, frame []byte) (int64, error) {
	c := w.c
	env := getEnv()
	env.kind = kindRMAReq
	env.src = c.rank
	env.wsrc = c.worldRank
	env.wdst = c.members[target]
	env.ctx = w.st.key.ctx
	env.tag = w.st.key.seq
	seq := c.world.nextSeq()
	env.seq = seq
	env.data = frame
	return seq, c.world.deliver(env)
}

// request issues one Get or CompareAndSwap as a one-entry frame under a
// fresh flow id and returns the target's reply: nil when the target
// rejected the access. On shared memory the op is applied in place;
// otherwise it crosses the mailbox and request awaits the reply.
func (w *Win) request(target int, op byte, offset int, payload []byte) (resp []byte, msgid int64, err error) {
	msgid = w.c.world.flowID()
	if t := w.directTarget(target); t != nil {
		var frame [rmaBatchEntryLen + 16]byte
		putRMAEntry(frame[:], op, 0, int64(offset), msgid, payload)
		return w.c.world.applyRMA(t, w.c.members[target], w.c.worldRank, frame[:rmaBatchEntryLen+len(payload)]), msgid, nil
	}
	frame := getBuf(rmaBatchEntryLen + len(payload))
	putRMAEntry(frame, op, 0, int64(offset), msgid, payload)
	seq, err := w.send(target, frame)
	if err == nil {
		resp, err = w.c.mb.waitReply(waitRMA, seq)
	}
	return resp, msgid, err
}

// Put copies data into the target rank's window at byte offset
// (MPI_Put). The bytes are captured into the target's open batch before
// Put returns, so data is immediately reusable by the caller; the batch
// crosses as a single frame when the epoch closes. Remote completion is
// established by Fence or Flush, which also surface a target
// failure as a RankFailedError. Invalid accesses (bad rank, range
// outside the target region, freed window) still fail here, at call
// time.
func (w *Win) Put(target, offset int, data []byte) error {
	_, err := w.put(target, offset, data)
	return err
}

// PutAsync is the request-returning Put (MPI_Rput). The data is queued
// exactly like Put; the returned Request completes once the epoch the
// operation was issued in has closed. Wait closes the epoch itself if
// nothing else — Fence, Flush, Free — has yet; Test never
// blocks, reporting completion only after such a close.
func (w *Win) PutAsync(target, offset int, data []byte) (*Request, error) {
	msgid, err := w.put(target, offset, data)
	if err != nil {
		return nil, err
	}
	return &Request{comm: w.c, kind: reqRMAPut, win: w, peer: w.peerOf(target), tag: -1, msgid: msgid, issued: w.epoch}, nil
}

// put is the instrumented body of Put and PutAsync. The returned flow id
// is zero when the op was not queued.
func (w *Win) put(target, offset int, data []byte) (int64, error) {
	sp := w.c.begin(PrimRMAPut)
	msgid, err := w.queueOp(target, offset, rmaPut, 0, data)
	sp.end(w.peerOf(target), -1, len(data), msgid, 0, 0)
	return msgid, err
}

// queueOp validates one Put/Accumulate and appends it to target's open
// batch under a fresh flow id, which it returns (zero on failure).
func (w *Win) queueOp(target, offset int, op, dtype byte, data []byte) (int64, error) {
	if err := w.checkAccess(target, offset, len(data)); err != nil {
		return 0, err
	}
	if err := w.c.mb.liveErr(); err != nil {
		return 0, err
	}
	msgid := w.c.world.flowID()
	if err := w.batchAppend(target, op, dtype, int64(offset), msgid, data); err != nil {
		return 0, err
	}
	return msgid, nil
}

// batchAppend queues one Put/Accumulate entry on target's open batch,
// flushing eagerly once it reaches rmaBatchMaxBytes. Growth is manual —
// pooled buffer out, copy, pooled buffer back — so a warm epoch
// allocates nothing.
func (w *Win) batchAppend(target int, op, dtype byte, offset, msgid int64, data []byte) error {
	p := &w.pend[target]
	need := rmaBatchEntryLen + len(data)
	if cap(p.buf)-len(p.buf) < need {
		newCap := 2 * cap(p.buf)
		if newCap < len(p.buf)+need {
			newCap = len(p.buf) + need
		}
		if newCap < rmaBatchInitBytes {
			newCap = rmaBatchInitBytes
		}
		nb := getBuf(newCap)[:len(p.buf)]
		copy(nb, p.buf)
		if p.buf != nil {
			putBuf(p.buf)
		}
		p.buf = nb
	}
	n := len(p.buf)
	p.buf = p.buf[:n+need]
	putRMAEntry(p.buf[n:], op, dtype, offset, msgid, data)
	p.ops++
	if len(p.buf) >= rmaBatchMaxBytes {
		return w.flushTarget(target)
	}
	return nil
}

// peerOf maps a communicator rank to a world rank for event reporting,
// tolerating the out-of-range values rejected by checkAccess.
func (w *Win) peerOf(target int) int {
	if target < 0 || target >= len(w.c.members) {
		return -1
	}
	return w.c.members[target]
}

// Get fetches n bytes from the target rank's window at byte offset
// (MPI_Get). It blocks until the data arrives; the returned buffer is
// caller-owned and may be recycled with Release.
func (w *Win) Get(target, offset, n int) ([]byte, error) {
	sp := w.c.begin(PrimRMAGet)
	b, msgid, err := w.getChecked(target, offset, n)
	sp.end(w.peerOf(target), -1, len(b), msgid, 0, 0)
	return b, err
}

// GetInto fetches len(dst) bytes from the target's window at offset into
// dst, recycling the wire buffer — the allocation-free variant.
func (w *Win) GetInto(dst []byte, target, offset int) error {
	b, err := w.Get(target, offset, len(dst))
	if err != nil {
		return err
	}
	copy(dst, b)
	putBuf(b)
	return nil
}

func (w *Win) getChecked(target, offset, n int) ([]byte, int64, error) {
	if err := w.checkAccess(target, offset, n); err != nil {
		return nil, 0, err
	}
	if err := w.c.mb.liveErr(); err != nil {
		return nil, 0, err
	}
	var length [8]byte
	binary.LittleEndian.PutUint64(length[:], uint64(n))
	b, msgid, err := w.request(target, rmaGet, offset, length[:])
	if err != nil {
		return nil, msgid, err
	}
	if len(b) != n {
		putBuf(b)
		return nil, msgid, fmt.Errorf("mpi: RMA get of %d bytes at offset %d rejected by target %d (window freed or out of range)", n, offset, target)
	}
	return b, msgid, nil
}

// directTarget returns the target-side window state when the
// shared-memory fast path applies: the in-process channel transport,
// with neither endpoint killed. A killed endpoint must use the mailbox
// path, whose black-hole semantics make the origin observe the failure
// epoch instead of silently succeeding. st.targets is immutable after
// WinCreate's barrier, so no lock is needed here.
func (w *Win) directTarget(target int) *winTarget {
	c := w.c
	if !c.world.sharedMem {
		return nil
	}
	wr := c.members[target]
	if c.world.isKilled(c.worldRank) || c.world.isKilled(wr) {
		return nil
	}
	return w.st.targets[wr]
}

// Accumulate combines vals into the target's window at byte offset with
// op, element by element (MPI_Accumulate over MPI_INT64_T). Target
// elements are interpreted as little-endian int64, the window's native
// encoding. Like Put it completes locally at once; the target applies
// each Accumulate atomically with respect to other RMA operations.
func (w *Win) Accumulate(target, offset int, vals []int64, op AccOp) error {
	sp := w.c.begin(PrimRMAAcc)
	payload := marshalPooled(vals)
	var (
		msgid int64
		err   error
	)
	if op > AccMin {
		err = fmt.Errorf("mpi: Accumulate: unknown op %v", op)
	} else {
		msgid, err = w.queueOp(target, offset, rmaAcc, byte(op), payload)
	}
	putBuf(payload)
	sp.end(w.peerOf(target), -1, 8*len(vals), msgid, 0, 0)
	return err
}

// CompareAndSwap atomically compares the int64 at the target's window
// offset with compare and, if equal, stores swap; the previous value is
// returned either way (MPI_Compare_and_swap). It blocks for the reply.
func (w *Win) CompareAndSwap(target, offset int, compare, swap int64) (int64, error) {
	sp := w.c.begin(PrimRMACas)
	old, msgid, err := w.casChecked(target, offset, compare, swap)
	sp.end(w.peerOf(target), -1, 8, msgid, 0, 0)
	return old, err
}

func (w *Win) casChecked(target, offset int, compare, swap int64) (int64, int64, error) {
	if err := w.checkAccess(target, offset, 8); err != nil {
		return 0, 0, err
	}
	if err := w.c.mb.liveErr(); err != nil {
		return 0, 0, err
	}
	var args [16]byte
	binary.LittleEndian.PutUint64(args[:], uint64(compare))
	binary.LittleEndian.PutUint64(args[8:], uint64(swap))
	b, msgid, err := w.request(target, rmaCas, offset, args[:])
	if err != nil {
		return 0, msgid, err
	}
	if len(b) != 8 {
		putBuf(b)
		return 0, msgid, fmt.Errorf("mpi: RMA compare-and-swap at offset %d rejected by target %d (window freed or out of range)", offset, target)
	}
	old := int64(binary.LittleEndian.Uint64(b))
	putBuf(b)
	return old, msgid, nil
}

// Fence closes the current active-target epoch (MPI_Win_fence): it
// flushes this rank's queued batches, completes its outstanding
// operations, then barriers, so on return every member's operations
// issued before its Fence are visible in every window region.
func (w *Win) Fence() error {
	sp := w.c.begin(PrimRMAFence)
	err := w.completePending()
	if err == nil {
		err = w.c.barrier()
	}
	sp.end(-1, -1, 0, 0, 0, 0)
	return err
}

// Flush completes all outstanding Put/Accumulate operations issued by
// this rank — flushing queued batches first — on every target, without
// synchronizing ranks (MPI_Win_flush_all): on return they are complete
// at their targets.
func (w *Win) Flush() error {
	sp := w.c.begin(PrimRMAFlush)
	err := w.completePending()
	sp.end(-1, -1, 0, 0, 0, 0)
	return err
}

// flushTarget closes target's open batch: on shared memory it is
// applied directly, otherwise it crosses as one frame whose single
// acknowledgement joins pendingAcks. The batch buffer is
// recycled here (fast path) or by the receiving side; if deliver fails
// it has already recycled the buffer, so no bytes leak on any path.
func (w *Win) flushTarget(target int) error {
	p := &w.pend[target]
	if p.ops == 0 {
		return nil
	}
	buf, ops := p.buf, p.ops
	p.buf, p.ops = nil, 0
	rmaBatchFlushes.Add(1)
	rmaBatchOps.Add(int64(ops))
	rmaBatchBytes.Add(int64(len(buf)))
	c := w.c
	if t := w.directTarget(target); t != nil {
		rmaBatchDirect.Add(1)
		c.world.applyRMA(t, c.members[target], c.worldRank, buf)
		putBuf(buf)
		return nil
	}
	seq, err := w.send(target, buf)
	if err != nil {
		return err
	}
	w.pendingAcks = append(w.pendingAcks, seq)
	return nil
}

// flushQueued flushes every target's open batch. All targets are
// attempted even after an error — their buffers must reach the wire or
// the pool either way — and the first error wins.
func (w *Win) flushQueued() error {
	var first error
	for target := range w.pend {
		if err := w.flushTarget(target); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// discardQueued drops queued-but-unflushed batches, recycling their
// buffers — the abandon-epoch path taken when this rank is already
// observing a failure.
func (w *Win) discardQueued() {
	for i := range w.pend {
		if w.pend[i].buf != nil {
			putBuf(w.pend[i].buf)
		}
		w.pend[i] = rmaPending{}
	}
}

// completePending closes this rank's side of the epoch: flush queued
// batches, then drain every outstanding acknowledgement. On failure the
// epoch is abandoned — queues discarded, pending list cleared — so
// survivors can Shrink and continue on a fresh window. A successful
// close advances the epoch counter PutAsync requests watch.
func (w *Win) completePending() error {
	if err := w.c.mb.liveErr(); err != nil {
		w.discardQueued()
		w.pendingAcks = w.pendingAcks[:0]
		return err
	}
	err := w.flushQueued()
	if derr := w.drainAcks(); err == nil {
		err = derr
	}
	if err == nil {
		w.epoch++
	}
	return err
}

// drainAcks waits for every outstanding confirmation. On failure the
// epoch is abandoned (pending list cleared) so survivors can Shrink and
// continue on a fresh window.
func (w *Win) drainAcks() error {
	if len(w.pendingAcks) == 0 {
		return nil
	}
	var err error
	for _, seq := range w.pendingAcks {
		if _, err = w.c.mb.waitReply(waitAck, seq); err != nil {
			break
		}
	}
	w.pendingAcks = w.pendingAcks[:0]
	return err
}

// handleRMAReq is the progress engine: it applies one frame to the
// target's window region and replies. Called from mailbox.post on the
// delivering goroutine, before any mailbox lock; mb is the target's
// mailbox. Lock order is winMu → winTarget.mu, both released before the
// reply is delivered (which takes the origin's mailbox lock).
func (w *World) handleRMAReq(mb *mailbox, e *envelope) {
	origin, target := e.wsrc, e.wdst
	key := winKey{ctx: e.ctx, seq: e.tag}
	seq, frame := e.seq, e.data
	putEnv(e)
	if w.isKilled(target) {
		// A crashed rank services nothing: no apply, no reply. The origin
		// observes the failure epoch instead.
		putBuf(frame)
		return
	}
	w.winMu.Lock()
	st := w.windows[key]
	var t *winTarget
	if st != nil && target >= 0 && target < len(st.targets) {
		t = st.targets[target]
	}
	w.winMu.Unlock()
	// A Get or CompareAndSwap is answered with data, nil when it was
	// rejected; a Put/Accumulate run with an ack. An unknown or
	// already-freed window is answered too, so a misordered origin
	// errors instead of hanging.
	respond := len(frame) > 0 && (frame[0] == rmaGet || frame[0] == rmaCas)
	var resp []byte
	if t != nil {
		resp = w.applyRMA(t, target, origin, frame)
	}
	putBuf(frame)
	if respond {
		w.rmaRespond(target, origin, key, seq, resp)
	} else {
		mb.sendAck(origin, key.ctx, seq)
	}
}

// rmaRespond delivers a kindRMAResp envelope carrying fetched data (nil
// for a rejected access) from the target back to the origin.
func (w *World) rmaRespond(target, origin int, key winKey, seq int64, data []byte) {
	env := getEnv()
	env.kind = kindRMAResp
	env.src = target
	env.wsrc = target
	env.wdst = origin
	env.ctx = key.ctx
	env.tag = key.seq
	env.seq = seq
	env.data = data
	_ = w.deliver(env)
}

// applyRMA is the target side of every one-sided op, for the progress
// engine (mailbox path) and the origin itself (shared-memory fast path)
// alike: it walks a frame under the region mutex and applies each entry.
// An entry outside the region is dropped (a Get or CompareAndSwap then
// answers nil); a malformed entry, or a reply-needing one that is not
// alone in its frame, stops the walk with everything before it applied.
// It returns a Get's or CompareAndSwap's reply. One target-side mirror
// event per applied entry is emitted after the mutex is released, so
// coalescing is invisible in the hook stream.
func (w *World) applyRMA(t *winTarget, target, origin int, frame []byte) (resp []byte) {
	applied := 0
	t.mu.Lock()
	for rest := frame; len(rest) > 0; {
		op, dtype, offset, _, data, ok := rmaBatchNext(rest)
		if !ok {
			break
		}
		rest = rest[rmaBatchEntryLen+len(data):]
		if op != rmaPut && op != rmaAcc && (applied > 0 || len(rest) > 0) {
			break
		}
		switch size := len(t.buf); op {
		case rmaPut:
			if inWindow(size, offset, int64(len(data))) {
				copy(t.buf[offset:], data)
			}
		case rmaAcc:
			if inWindow(size, offset, int64(len(data))) {
				applyAccumulate(t.buf[offset:], AccOp(dtype), data)
			}
		case rmaGet:
			if n := int64(binary.LittleEndian.Uint64(data)); inWindow(size, offset, n) {
				resp = getBuf(int(n))
				copy(resp, t.buf[offset:])
			}
		case rmaCas:
			if inWindow(size, offset, 8) {
				old := binary.LittleEndian.Uint64(t.buf[offset:])
				if old == binary.LittleEndian.Uint64(data) {
					copy(t.buf[offset:], data[8:])
				}
				resp = getBuf(8)
				binary.LittleEndian.PutUint64(resp, old)
			}
		}
		applied++
	}
	t.mu.Unlock()
	if !w.hooked() {
		return resp
	}
	for rest := frame; applied > 0; applied-- {
		op, _, _, msgid, data, _ := rmaBatchNext(rest)
		prim, bytes := rmaEvent(op, data)
		w.mirror(target, prim, origin, bytes, msgid)
		rest = rest[rmaBatchEntryLen+len(data):]
	}
	return resp
}

// applyAccumulate combines payload into dst element by element. Both are
// at least as long as payload, a whole number of 8-byte elements
// (rmaBatchNext validated that), in the canonical little-endian encoding.
func applyAccumulate(dst []byte, op AccOp, payload []byte) {
	for i := 0; i+8 <= len(payload); i += 8 {
		c := int64(binary.LittleEndian.Uint64(dst[i:]))
		v := int64(binary.LittleEndian.Uint64(payload[i:]))
		r := v
		switch op {
		case AccSum:
			r = c + v
		case AccMax:
			r = max(c, v)
		case AccMin:
			r = min(c, v)
		}
		binary.LittleEndian.PutUint64(dst[i:], uint64(r))
	}
}
