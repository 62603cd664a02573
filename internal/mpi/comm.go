package mpi

import "fmt"

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

// WorldRank returns the caller's rank in the world communicator, which can
// differ from Rank for communicators produced by Split.
func (c *Comm) WorldRank() int { return c.worldRank }

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

// sendEnvelopeOwned builds, accounts and delivers one data envelope on
// ctx, and runs the rendezvous protocol when required. It takes ownership
// of payload, which must be an exclusively owned (pooled) buffer — the
// transport or receiver recycles it. The returned msgid identifies the
// message for flow tracing; it is zero when no hook is attached.
func (c *Comm) sendEnvelopeOwned(ctx int32, payload []byte, dest, tag int, sync bool) (int64, error) {
	env := getEnv()
	env.kind = kindData
	env.src = c.rank
	env.wsrc = c.worldRank
	env.wdst = c.members[dest]
	env.ctx = ctx
	env.tag = int32(tag)
	var seq int64
	if sync || len(payload) > c.world.opts.eagerThreshold || c.world.opts.synchronousSend {
		seq = c.world.nextSeq()
		env.seq = seq
	}
	msgid := c.world.flowID()
	env.msgid = msgid
	env.data = payload
	// Ownership of env (and its payload) passes to deliver; the receiver
	// may recycle both concurrently, so the local seq and msgid copies are
	// the only safe handles afterwards.
	if err := c.world.deliver(env); err != nil {
		return msgid, err
	}
	if seq != 0 {
		return msgid, c.mb.waitAck(seq)
	}
	return msgid, nil
}

// isendEnvelopeOwned is the nonblocking variant; it also takes ownership
// of payload. The returned request completes immediately for eager sends
// and on acknowledgement for rendezvous sends.
func (c *Comm) isendEnvelopeOwned(ctx int32, payload []byte, dest, tag int) (*Request, error) {
	env := getEnv()
	env.kind = kindData
	env.src = c.rank
	env.wsrc = c.worldRank
	env.wdst = c.members[dest]
	env.ctx = ctx
	env.tag = int32(tag)
	var seq int64
	if len(payload) > c.world.opts.eagerThreshold || c.world.opts.synchronousSend {
		seq = c.world.nextSeq()
		env.seq = seq
	}
	msgid := c.world.flowID()
	env.msgid = msgid
	env.data = payload
	if err := c.world.deliver(env); err != nil {
		return nil, err
	}
	return &Request{comm: c, kind: reqSend, seq: seq, done: seq == 0, peer: c.members[dest], tag: tag, msgid: msgid}, nil
}

// recvEnvelope blocks for a matching envelope on ctx and acknowledges
// rendezvous sends. The caller owns the returned envelope (and its
// payload) and is responsible for recycling it with putEnv.
func (c *Comm) recvEnvelope(ctx int32, src, tag int) (*envelope, Status, error) {
	pr := c.mb.postRecv(ctx, src, tag)
	env, err := c.finishRecv(pr)
	if err != nil {
		return nil, Status{}, err
	}
	return env, Status{Source: env.src, Tag: int(env.tag), Bytes: len(env.data)}, nil
}

// sendChecked runs the accounting, profiling and delivery shared by
// SendBytes, SsendBytes and the typed send wrappers. It takes ownership
// of payload; peer and tag must already be validated.
func (c *Comm) sendChecked(payload []byte, dest, tag int, sync bool) error {
	n := len(payload)
	sp := c.begin(PrimSend)
	msgid, err := c.sendEnvelopeOwned(c.ctx, payload, dest, tag, sync)
	sp.end(c.members[dest], tag, n, msgid, 0, 0)
	return err
}

// SendBytes sends a raw payload to dest with the given tag (MPI_Send). The
// call returns once the buffer is reusable: immediately for eager-size
// messages, after the receiver matches for rendezvous-size messages. data
// stays owned by the caller (it is copied into a pooled buffer).
func (c *Comm) SendBytes(data []byte, dest, tag int) error {
	if err := c.checkPeer(dest, false); err != nil {
		return err
	}
	if err := checkTag(tag, false); err != nil {
		return err
	}
	return c.sendChecked(copyToPooled(data), dest, tag, false)
}

// SsendBytes is the explicitly synchronous send (MPI_Ssend): it always
// blocks until the receiver has matched the message.
func (c *Comm) SsendBytes(data []byte, dest, tag int) error {
	if err := c.checkPeer(dest, false); err != nil {
		return err
	}
	if err := checkTag(tag, false); err != nil {
		return err
	}
	return c.sendChecked(copyToPooled(data), dest, tag, true)
}

// RecvBytes receives a message matching (src, tag), which may use
// AnySource and AnyTag wildcards (MPI_Recv). Ownership of the returned
// payload passes to the caller: the runtime never reuses it, and the
// caller may optionally hand it back with Release to keep hot receive
// loops allocation-free.
func (c *Comm) RecvBytes(src, tag int) ([]byte, Status, error) {
	if err := c.checkPeer(src, true); err != nil {
		return nil, Status{}, err
	}
	if err := checkTag(tag, true); err != nil {
		return nil, Status{}, err
	}
	sp := c.begin(PrimRecv)
	env, st, err := c.recvEnvelope(c.ctx, src, tag)
	if err != nil {
		sp.end(-1, tag, 0, 0, 0, 0)
		return nil, Status{}, err
	}
	data, wsrc, etag, msgid, queued := env.data, env.wsrc, int(env.tag), env.msgid, queuedFor(env)
	putEnv(env)
	sp.end(wsrc, etag, len(data), 0, msgid, queued)
	return data, st, nil
}

// isendChecked is the accounting/profiling wrapper shared by IsendBytes
// and the typed Isend; it takes ownership of payload.
func (c *Comm) isendChecked(payload []byte, dest, tag int) (*Request, error) {
	n := len(payload)
	sp := c.begin(PrimIsend)
	r, err := c.isendEnvelopeOwned(c.ctx, payload, dest, tag)
	var msgid int64
	if r != nil {
		msgid = r.msgid
	}
	sp.end(c.members[dest], tag, n, msgid, 0, 0)
	return r, err
}

// IsendBytes starts a nonblocking send (MPI_Isend). The data is copied, so
// the caller's buffer is immediately reusable; Wait reports when the
// transfer obligation is complete.
func (c *Comm) IsendBytes(data []byte, dest, tag int) (*Request, error) {
	if err := c.checkPeer(dest, false); err != nil {
		return nil, err
	}
	if err := checkTag(tag, false); err != nil {
		return nil, err
	}
	return c.isendChecked(copyToPooled(data), dest, tag)
}

// IrecvBytes starts a nonblocking receive (MPI_Irecv).
func (c *Comm) IrecvBytes(src, tag int) (*Request, error) {
	if err := c.checkPeer(src, true); err != nil {
		return nil, err
	}
	if err := checkTag(tag, true); err != nil {
		return nil, err
	}
	sp := c.begin(PrimIrecv)
	pr := c.mb.postRecv(c.ctx, src, tag)
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
	return c.sendrecvChecked(copyToPooled(data), dest, sendTag, src, recvTag)
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
// the typed wrappers. It takes ownership of payload; the returned bytes
// are caller-owned. When either half fails the posted receive is
// withdrawn: left behind, it would swallow the next message matching
// (src, recvTag) together with its pooled buffer.
func (c *Comm) sendrecvChecked(payload []byte, dest, sendTag, src, recvTag int) ([]byte, Status, error) {
	sp := c.begin(PrimSendrecv)
	n := len(payload)
	pr := c.mb.postRecv(c.ctx, src, recvTag)
	msgid, err := c.sendEnvelopeOwned(c.ctx, payload, dest, sendTag, false)
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
	env, ok := c.mb.tryRecv(pr)
	if !ok {
		e, err := c.mb.waitRecv(pr)
		if err != nil {
			return nil, err
		}
		env = e
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

// Iprobe is the nonblocking probe (MPI_Iprobe).
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) {
	if err := c.checkPeer(src, true); err != nil {
		return Status{}, false, err
	}
	if err := checkTag(tag, true); err != nil {
		return Status{}, false, err
	}
	sp := c.begin(PrimIprobe)
	st, ok := c.mb.iprobe(c.ctx, src, tag)
	peer := -1
	if ok {
		peer = c.members[st.Source]
	}
	sp.end(peer, tag, st.Bytes, 0, 0, 0)
	return st, ok, nil
}

// GetCount returns the element count of a received message, mirroring
// MPI_Get_count, and records the primitive use for Table II accounting.
func (c *Comm) GetCount(st Status, elemSize int) (int, error) {
	sp := c.begin(PrimGetCount)
	n, err := st.Count(elemSize)
	sp.end(-1, st.Tag, st.Bytes, 0, 0, 0)
	return n, err
}

// Abort stops the whole world with the given error (MPI_Abort).
func (c *Comm) Abort(err error) {
	if err == nil {
		err = fmt.Errorf("rank %d called Abort", c.rank)
	}
	c.world.abort(err)
}

// Send sends a typed slice (MPI_Send). See SendBytes for blocking
// semantics. The slice is encoded directly into a pooled wire buffer —
// no intermediate Marshal allocation.
func Send[T Scalar](c *Comm, data []T, dest, tag int) error {
	if err := c.checkPeer(dest, false); err != nil {
		return err
	}
	if err := checkTag(tag, false); err != nil {
		return err
	}
	return c.sendChecked(marshalPooled(data), dest, tag, false)
}

// Ssend sends a typed slice with forced synchronous semantics (MPI_Ssend).
func Ssend[T Scalar](c *Comm, data []T, dest, tag int) error {
	if err := c.checkPeer(dest, false); err != nil {
		return err
	}
	if err := checkTag(tag, false); err != nil {
		return err
	}
	return c.sendChecked(marshalPooled(data), dest, tag, true)
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
	b, st, err := c.RecvBytes(src, tag)
	if err != nil {
		return nil, st, err
	}
	xs, err := UnmarshalInto(dst, b)
	putBuf(b)
	return xs, st, err
}

// Isend starts a nonblocking typed send (MPI_Isend).
func Isend[T Scalar](c *Comm, data []T, dest, tag int) (*Request, error) {
	if err := c.checkPeer(dest, false); err != nil {
		return nil, err
	}
	if err := checkTag(tag, false); err != nil {
		return nil, err
	}
	return c.isendChecked(marshalPooled(data), dest, tag)
}

// Irecv starts a nonblocking typed receive (MPI_Irecv); complete it with
// WaitRecv.
func Irecv[T Scalar](c *Comm, src, tag int) (*Request, error) {
	return c.IrecvBytes(src, tag)
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
	b, st, err := c.sendrecvChecked(marshalPooled(data), dest, sendTag, src, recvTag)
	if err != nil {
		return nil, st, err
	}
	xs, err := UnmarshalInto(dst, b)
	putBuf(b)
	return xs, st, err
}
