package mpi

import (
	"fmt"
	"unsafe"
)

// Comm is a communicator handle held by one rank, analogous to an
// MPI_Comm. The world communicator is passed to the rank function by Run;
// sub-communicators come from Split. A Comm is not safe for concurrent use
// by multiple goroutines (matching MPI's one-thread-per-rank model), but
// distinct ranks' Comms are independent.
type Comm struct {
	world     *World
	worldRank int   // this rank's world rank
	rank      int   // this rank's rank within the communicator
	members   []int // comm rank -> world rank
	ctx       int32 // user context; ctx+1 is the collective shadow context
	collSeq   int64 // lockstep collective sequence number
	splitSeq  int64 // lockstep Split sequence number
	agreeSeq  int64 // lockstep agreement sequence number (ulfm.go)
	winSeq    int32 // lockstep window-creation sequence number (rma.go)
	mb        *mailbox
}

func newWorldComm(w *World, rank int) *Comm {
	members := make([]int, w.size)
	for i := range members {
		members[i] = i
	}
	return &Comm{
		world:     w,
		worldRank: rank,
		rank:      rank,
		members:   members,
		ctx:       0,
		mb:        w.mailboxes[rank],
	}
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// Stats returns a snapshot of the world's communication accounting.
func (c *Comm) Stats() Snapshot { return c.world.stats.Snapshot() }

// checkPeer validates a peer rank within the communicator; wildcard allows
// AnySource.
func (c *Comm) checkPeer(peer int, wildcard bool) error {
	if wildcard && peer == AnySource {
		return nil
	}
	if peer < 0 || peer >= len(c.members) {
		return fmt.Errorf("%w: peer %d of communicator size %d", ErrRankOutOfRange, peer, len(c.members))
	}
	return nil
}

func checkTag(tag int, wildcard bool) error {
	if wildcard && tag == AnyTag {
		return nil
	}
	if tag < 0 || tag > MaxUserTag {
		return fmt.Errorf("%w: tag %d not in [0, %d]", ErrTagOutOfRange, tag, MaxUserTag)
	}
	return nil
}

// rendezvous reports whether a user send of n bytes waits for its match:
// Ssend, a size above the eager threshold, or WithSynchronousSends.
func (c *Comm) rendezvous(n int, sync bool) bool {
	return sync || n > c.world.opts.eagerThreshold || c.world.opts.synchronousSend
}

// lendOrCopy returns the payload a send of xs puts in its envelope. A
// send that waits for its ack (rdv) over a link that moves envelope
// objects, not bytes, lends xs's memory image, which is its wire
// encoding: the sender stays parked until the match has copied it
// (claim). Every other send carries a pooled copy it owns.
func lendOrCopy[T Scalar](c *Comm, xs []T, rdv bool) (payload []byte, lent bool) {
	if rdv && c.world.sharedMem && nativeWire[T](scalarSize[T]()) {
		return memBytes(xs), true
	}
	return marshalPooled(xs), false
}

// deliverData builds one data envelope from this rank to dest on ctx and
// delivers it with traffic accounting. payload is owned, or lent until
// the ack when lent (lendOrCopy). A rendezvous (rdv) envelope carries a
// fresh sequence for its ack, a traced one (flow) a flow id; ownership of
// the envelope passes to deliver, and the receiver may recycle it
// concurrently, so the returned seq and msgid are the only safe handles
// afterwards.
func (c *Comm) deliverData(ctx int32, payload []byte, lent bool, dest, tag int, rdv, flow bool) (seq, msgid int64, err error) {
	env := getEnv()
	env.kind = kindData
	env.src, env.wsrc, env.wdst = c.rank, c.worldRank, c.members[dest]
	env.ctx, env.tag = ctx, int32(tag)
	env.data, env.lent = payload, lent
	if rdv {
		seq = c.world.nextSeq()
		env.seq = seq
	}
	if flow {
		msgid = c.world.flowID()
		env.msgid = msgid
	}
	return seq, msgid, c.world.deliver(env)
}

// awaitAck waits for the ack of rendezvous send seq to world rank wdst. A
// lent send that fails first takes its view back before returning, so no
// receiver reads the caller's slice once the send has given up.
func (c *Comm) awaitAck(seq int64, wdst int, lent bool) error {
	_, err := c.mb.waitReply(waitAck, seq)
	if err != nil && lent {
		c.world.reclaimLent(c.worldRank, wdst, seq)
	}
	return err
}

// sendEnvelopeOwned delivers one data envelope on ctx (deliverData) and
// runs the rendezvous protocol when required. The returned msgid
// identifies the message for flow tracing; it is zero when no hook is
// attached.
func (c *Comm) sendEnvelopeOwned(ctx int32, payload []byte, lent bool, dest, tag int, sync bool) (int64, error) {
	seq, msgid, err := c.deliverData(ctx, payload, lent, dest, tag, c.rendezvous(len(payload), sync), true)
	if err == nil && seq != 0 {
		err = c.awaitAck(seq, c.members[dest], lent)
	}
	return msgid, err
}

// recvEnvelope blocks for a matching envelope on ctx and acknowledges
// rendezvous sends; dst is as for postRecv. The caller owns the returned
// envelope (and its payload) and is responsible for recycling it with
// putEnv.
func (c *Comm) recvEnvelope(ctx int32, src, tag int, dst []byte) (*envelope, Status, error) {
	pr := c.mb.postRecv(ctx, src, tag, dst, nil)
	env, err := c.finishRecv(pr)
	if err != nil {
		return nil, Status{}, err
	}
	return env, Status{Source: env.src, Tag: int(env.tag), Bytes: len(env.data)}, nil
}

// sendChecked is the body of Send and Ssend: it validates the peer and
// tag, then runs the accounting, profiling and delivery. data stays the
// caller's: it is lent or copied (lendOrCopy), and either way reusable
// once the send returns.
func sendChecked[T Scalar](c *Comm, data []T, dest, tag int, sync bool) error {
	if err := c.checkPeer(dest, false); err != nil {
		return err
	}
	if err := checkTag(tag, false); err != nil {
		return err
	}
	n := len(data) * scalarSize[T]()
	payload, lent := lendOrCopy(c, data, c.rendezvous(n, sync))
	sp := c.begin(PrimSend)
	msgid, err := c.sendEnvelopeOwned(c.ctx, payload, lent, dest, tag, sync)
	sp.end(c.members[dest], tag, n, msgid, 0, 0)
	return err
}

// RecvBytes receives a message matching (src, tag), which may use
// AnySource and AnyTag wildcards (MPI_Recv). Ownership of the returned
// payload passes to the caller: the runtime never reuses it, and the
// caller may optionally hand it back with Release to keep hot receive
// loops allocation-free.
func (c *Comm) RecvBytes(src, tag int) ([]byte, Status, error) {
	return c.recvChecked(src, tag, nil)
}

// recvChecked is RecvBytes with dst passed to postRecv.
func (c *Comm) recvChecked(src, tag int, dst []byte) ([]byte, Status, error) {
	if err := c.checkPeer(src, true); err != nil {
		return nil, Status{}, err
	}
	if err := checkTag(tag, true); err != nil {
		return nil, Status{}, err
	}
	sp := c.begin(PrimRecv)
	env, st, err := c.recvEnvelope(c.ctx, src, tag, dst)
	if err != nil {
		sp.end(-1, tag, 0, 0, 0, 0)
		return nil, Status{}, err
	}
	data, wsrc, etag, msgid, queued := env.data, env.wsrc, int(env.tag), env.msgid, queuedFor(env)
	putEnv(env)
	sp.end(wsrc, etag, len(data), 0, msgid, queued)
	return data, st, nil
}

// irecv starts a nonblocking receive (MPI_Irecv).
func (c *Comm) irecv(src, tag int) (*Request, error) {
	if err := c.checkPeer(src, true); err != nil {
		return nil, err
	}
	if err := checkTag(tag, true); err != nil {
		return nil, err
	}
	sp := c.begin(PrimIrecv)
	pr := c.mb.postRecv(c.ctx, src, tag, nil, nil)
	peer := -1
	if src != AnySource {
		peer = c.members[src]
	}
	sp.end(peer, tag, 0, 0, 0, 0)
	return &Request{comm: c, kind: reqRecv, pr: pr, peer: peer, tag: tag}, nil
}

// SendrecvBytes performs a combined send and receive (MPI_Sendrecv),
// deadlock-free regardless of ordering at the peers: the receive is posted
// before the send blocks. The returned payload is caller-owned, as with
// RecvBytes.
func (c *Comm) SendrecvBytes(data []byte, dest, sendTag, src, recvTag int) ([]byte, Status, error) {
	if err := checkSendrecv(c, dest, sendTag, src, recvTag); err != nil {
		return nil, Status{}, err
	}
	return sendrecvChecked(c, data, dest, sendTag, src, recvTag)
}

func checkSendrecv(c *Comm, dest, sendTag, src, recvTag int) error {
	if err := c.checkPeer(dest, false); err != nil {
		return err
	}
	if err := c.checkPeer(src, true); err != nil {
		return err
	}
	if err := checkTag(sendTag, false); err != nil {
		return err
	}
	return checkTag(recvTag, true)
}

// sendrecvChecked is the combined exchange shared by SendrecvBytes and
// the typed wrappers. data is sent as by sendChecked; the returned bytes
// are caller-owned. When either half fails the posted receive is
// withdrawn: left behind, it would swallow the next message matching
// (src, recvTag) together with its pooled buffer.
func sendrecvChecked[T Scalar](c *Comm, data []T, dest, sendTag, src, recvTag int) ([]byte, Status, error) {
	n := len(data) * scalarSize[T]()
	payload, lent := lendOrCopy(c, data, c.rendezvous(n, false))
	sp := c.begin(PrimSendrecv)
	pr := c.mb.postRecv(c.ctx, src, recvTag, nil, nil)
	msgid, err := c.sendEnvelopeOwned(c.ctx, payload, lent, dest, sendTag, false)
	var env *envelope
	if err == nil {
		env, err = c.finishRecv(pr)
	}
	if err != nil {
		c.mb.cancelRecv(pr)
		sp.end(c.members[dest], sendTag, n, msgid, 0, 0)
		return nil, Status{}, err
	}
	got, esrc, etag, rmsgid, queued := env.data, env.src, int(env.tag), env.msgid, queuedFor(env)
	putEnv(env)
	sp.end(c.members[dest], sendTag, n+len(got), msgid, rmsgid, queued)
	return got, Status{Source: esrc, Tag: etag, Bytes: len(got)}, nil
}

// finishRecv completes a posted receive: it waits if needed, removes the
// record from the posted queue, recycles it, and returns the matched
// envelope (owned by the caller).
func (c *Comm) finishRecv(pr *pendingRecv) (*envelope, error) {
	env, err := c.mb.waitRecv(pr)
	if err != nil {
		return nil, err
	}
	putPR(pr)
	return env, nil
}

// Probe blocks until a message matching (src, tag) is available and
// returns its Status without receiving it (MPI_Probe). Combined with
// Status.Count it lets a rank size its receive buffer, the pattern
// Module 3 teaches alongside MPI_Get_count.
func (c *Comm) Probe(src, tag int) (Status, error) {
	if err := c.checkPeer(src, true); err != nil {
		return Status{}, err
	}
	if err := checkTag(tag, true); err != nil {
		return Status{}, err
	}
	sp := c.begin(PrimProbe)
	st, err := c.mb.probe(c.ctx, src, tag)
	peer := -1
	if err == nil {
		peer = c.members[st.Source]
	}
	sp.end(peer, tag, st.Bytes, 0, 0, 0)
	return st, err
}

// GetCount returns the element count of a received message, mirroring
// MPI_Get_count, and records the primitive use for Table II accounting.
func (c *Comm) GetCount(st Status, elemSize int) (int, error) {
	sp := c.begin(PrimGetCount)
	n, err := st.Count(elemSize)
	sp.end(-1, st.Tag, st.Bytes, 0, 0, 0)
	return n, err
}

// Send sends a typed slice to dest with the given tag (MPI_Send); a
// []byte is sent as it is. The call returns once data is reusable:
// immediately for eager-size messages, after the receiver matches for
// rendezvous-size messages. data stays owned by the caller. An eager
// slice is encoded directly into a pooled wire buffer; on the channel
// transport a rendezvous one is read in place by the receiver's match
// while Send waits for it.
func Send[T Scalar](c *Comm, data []T, dest, tag int) error {
	return sendChecked(c, data, dest, tag, false)
}

// Ssend sends a typed slice with forced synchronous semantics (MPI_Ssend).
func Ssend[T Scalar](c *Comm, data []T, dest, tag int) error {
	return sendChecked(c, data, dest, tag, true)
}

// Recv receives a typed slice (MPI_Recv). Wildcards AnySource and AnyTag
// are permitted.
func Recv[T Scalar](c *Comm, src, tag int) ([]T, Status, error) {
	return RecvInto[T](c, nil, src, tag)
}

// RecvInto receives a typed slice, decoding into dst's backing array when
// its capacity suffices (allocating a replacement otherwise) and
// recycling the wire buffer. Passing a scratch slice that survives the
// loop makes repeated receives allocation-free.
func RecvInto[T Scalar](c *Comm, dst []T, src, tag int) ([]T, Status, error) {
	size := scalarSize[T]()
	var into []byte
	if nativeWire[T](size) {
		into = memBytes(dst[:cap(dst)])
	}
	b, st, err := c.recvChecked(src, tag, into)
	if err != nil {
		return nil, st, err
	}
	if len(b) > 0 && unsafe.SliceData(b) == unsafe.SliceData(into) {
		// A lent message: the match copied it straight into dst.
		if len(b)%size != 0 {
			return nil, st, errElemSize(len(b), size)
		}
		return dst[:len(b)/size], st, nil
	}
	xs, err := UnmarshalInto(dst, b)
	putBuf(b)
	return xs, st, err
}

// Isend starts a nonblocking typed send (MPI_Isend). As MPI_Isend's rule
// says, data belongs to the runtime until Wait or Test reports the
// request complete: a rendezvous-size message may be read from it up to
// the match. Eager-size data is copied and immediately reusable.
func Isend[T Scalar](c *Comm, data []T, dest, tag int) (*Request, error) {
	if err := c.checkPeer(dest, false); err != nil {
		return nil, err
	}
	if err := checkTag(tag, false); err != nil {
		return nil, err
	}
	n := len(data) * scalarSize[T]()
	rdv := c.rendezvous(n, false)
	payload, lent := lendOrCopy(c, data, rdv)
	sp := c.begin(PrimIsend)
	seq, msgid, err := c.deliverData(c.ctx, payload, lent, dest, tag, rdv, true)
	sp.end(c.members[dest], tag, n, msgid, 0, 0)
	if err != nil {
		return nil, err
	}
	return &Request{comm: c, kind: reqSend, seq: seq, done: seq == 0, lent: lent, peer: c.members[dest], tag: tag, msgid: msgid}, nil
}

// Irecv starts a nonblocking typed receive (MPI_Irecv); complete it with
// WaitRecvInto.
func Irecv[T Scalar](c *Comm, src, tag int) (*Request, error) {
	return c.irecv(src, tag)
}

// Sendrecv performs a combined typed send and receive (MPI_Sendrecv).
func Sendrecv[T Scalar](c *Comm, data []T, dest, sendTag, src, recvTag int) ([]T, Status, error) {
	return SendrecvInto(c, data, dest, sendTag, src, recvTag, nil)
}

// SendrecvInto is Sendrecv decoding into dst's backing array when its
// capacity suffices, recycling the wire buffer. The halo-exchange loops
// of Module 4 use it to swap boundary values without allocating.
func SendrecvInto[T Scalar](c *Comm, data []T, dest, sendTag, src, recvTag int, dst []T) ([]T, Status, error) {
	if err := checkSendrecv(c, dest, sendTag, src, recvTag); err != nil {
		return nil, Status{}, err
	}
	b, st, err := sendrecvChecked(c, data, dest, sendTag, src, recvTag)
	if err != nil {
		return nil, st, err
	}
	xs, err := UnmarshalInto(dst, b)
	putBuf(b)
	return xs, st, err
}
