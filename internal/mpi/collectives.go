package mpi

import "fmt"

// Blocking collective operations. All of them are implemented on top of
// the point-to-point layer in a shadow communicator context, so user
// messages can never be confused with collective traffic. Every rank of a
// communicator must call each collective in the same order (the usual MPI
// contract); the lockstep collective sequence number provides per-call tag
// isolation.
//
// Barrier, Bcast, Reduce[Into], Allreduce[Into], allgather,
// AllreduceRing and ReduceScatter[Into] do not spell out their
// communication here: each builds the schedule value for its pattern
// (sched.go — the same value its nonblocking twin in icoll.go builds) and
// hands it to runSched, the blocking driver at the end of this file. What
// is left in this file is the entry points' accounting and the linear
// collectives (scatter, gather and all-to-allv), each of which has one
// body and no nonblocking twin.
//
// Everything runs on the zero-copy data path: hop payloads are encoded
// into pooled buffers that transfer ownership through the mailbox,
// reductions fold wire bytes directly into the accumulator
// (reduceFromWire), and every wire buffer is recycled once decoded — on
// the error paths too.

// nextCollTag advances the lockstep collective sequence.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return int(c.collSeq % int64(MaxUserTag))
}

// collCtx is the communicator's collective shadow context.
func (c *Comm) collCtx() int32 { return c.ctx + 1 }

// collSend sends xs as one internal point-to-point message on the
// shadow context. It bypasses user-primitive accounting (wire traffic is
// still counted) and never forces synchronous mode, so collectives remain
// deadlock-free under WithSynchronousSends. Above the eager threshold it
// lends xs (lendOrCopy) and blocks in the rendezvous protocol until the
// receiver has matched.
func collSend[T Scalar](c *Comm, xs []T, dest, tag int) error {
	payload, lent := lendOrCopy(c, xs, c.hopRendezvous(len(xs)*scalarSize[T](), false))
	return c.collSendHop(payload, lent, dest, tag, false)
}

// hopRendezvous reports whether a collective hop of n bytes waits for its
// match. eager forces the message out without waiting regardless of size,
// which is what a nonblocking collective's state machine needs — it runs
// on delivering goroutines, which must never block — so such a hop never
// lends.
func (c *Comm) hopRendezvous(n int, eager bool) bool {
	return !eager && n > c.world.opts.eagerThreshold
}

// collSendHop sends payload, owned or lent (lendOrCopy), on the shadow
// context, waiting for the match when hopRendezvous says so.
func (c *Comm) collSendHop(payload []byte, lent bool, dest, tag int, eager bool) error {
	seq, _, err := c.deliverData(c.collCtx(), payload, lent, dest, tag, c.hopRendezvous(len(payload), eager), false)
	if err == nil && seq != 0 {
		err = c.awaitAck(seq, c.members[dest], lent)
	}
	return err
}

// collRecv receives one internal message on the shadow context and
// returns its payload. The caller owns the buffer and must putBuf it
// after decoding.
func (c *Comm) collRecv(src, tag int) ([]byte, error) {
	return c.collFinish(c.collIrecv(src, tag))
}

// collIrecv posts an internal receive on the shadow context.
func (c *Comm) collIrecv(src, tag int) *pendingRecv {
	return c.mb.postRecv(c.collCtx(), src, tag, nil, nil)
}

// collFinish completes a collIrecv and returns the payload, recycling the
// envelope. The caller owns the buffer and must putBuf it after decoding.
func (c *Comm) collFinish(pr *pendingRecv) ([]byte, error) {
	env, err := c.finishRecv(pr)
	if err != nil {
		return nil, err
	}
	b := env.data
	putEnv(env)
	return b, nil
}

// collExchange is one step of a pairwise exchange: it posts the receive
// from src, sends xs to dest (collSend), and returns the received
// payload, which the caller must putBuf. When either half fails the
// posted receive is withdrawn: left behind, it would swallow a later
// message on (src, tag) together with its pooled buffer.
func collExchange[T Scalar](c *Comm, xs []T, dest, src, tag int) ([]byte, error) {
	pr := c.collIrecv(src, tag)
	if err := collSend(c, xs, dest, tag); err != nil {
		c.mb.cancelRecv(pr)
		return nil, err
	}
	b, err := c.collFinish(pr)
	if err != nil {
		c.mb.cancelRecv(pr)
	}
	return b, err
}

// releaseBlocks recycles a gather's per-rank payload buffers.
func releaseBlocks(blocks [][]byte) {
	for i, b := range blocks {
		putBuf(b)
		blocks[i] = nil
	}
}

// Barrier blocks until every rank of the communicator has entered it
// (MPI_Barrier). Dissemination algorithm: ceil(log2 p) rounds.
func (c *Comm) Barrier() error {
	sp := c.begin(PrimBarrier)
	err := c.barrier()
	sp.end(-1, -1, 0, 0, 0, 0)
	return err
}

// barrier is Barrier's body, which the window calls synchronize with:
// like MPI's internal PMPI_ calls, they count and report no MPI_Barrier.
func (c *Comm) barrier() error {
	_, err := runSched[byte](c, schedBarrier, noRoot, nil, nil, inPlace)
	return err
}

// Bcast broadcasts root's buffer to every rank (MPI_Bcast) along a
// binomial tree. Non-root ranks pass nil (or any placeholder) and use the
// returned slice.
func Bcast[T Scalar](c *Comm, data []T, root int) ([]T, error) {
	if err := c.checkPeer(root, false); err != nil {
		return nil, err
	}
	sp := c.begin(PrimBcast)
	out, err := runSched(c, schedBcast, root, data, nil, fresh)
	sp.end(c.members[root], -1, len(out)*scalarSize[T](), 0, 0, 0)
	return out, err
}

// Scatter splits root's buffer into equal contiguous chunks and delivers
// the i-th chunk to rank i (MPI_Scatter), one message each. len(data)
// must be a multiple of the communicator size at the root; other ranks
// pass nil.
func Scatter[T Scalar](c *Comm, data []T, root int) ([]T, error) {
	if err := c.checkPeer(root, false); err != nil {
		return nil, err
	}
	p := len(c.members)
	if c.rank == root && len(data)%p != 0 {
		return nil, fmt.Errorf("%w: Scatter buffer of %d elements across %d ranks", ErrLengthMismatch, len(data), p)
	}
	sp := c.begin(PrimScatter)
	tag := c.nextCollTag()
	var (
		out []T
		err error
	)
	bytes := len(data)
	if c.rank != root {
		var b []byte
		if b, err = c.collRecv(root, tag); err == nil {
			out, err = Unmarshal[T](b)
			putBuf(b)
		}
		bytes = len(out)
	} else {
		n := len(data) / p
		for i := 0; i < p && err == nil; i++ {
			if chunk := data[i*n : (i+1)*n]; i == root {
				out = append([]T(nil), chunk...)
			} else {
				err = collSend(c, chunk, i, tag)
			}
		}
	}
	sp.end(c.members[root], -1, bytes*scalarSize[T](), 0, 0, 0)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Gather collects equal-sized contributions onto root (MPI_Gather),
// returning the concatenation in rank order at the root and nil elsewhere.
// Every rank must contribute the same number of elements.
func Gather[T Scalar](c *Comm, data []T, root int) ([]T, error) {
	out, _, err := gather(c, data, false, root)
	return out, err
}

// Gatherv collects variable-sized contributions onto root (MPI_Gatherv),
// returning one slice per rank at the root and nil elsewhere.
func Gatherv[T Scalar](c *Comm, data []T, root int) ([][]T, error) {
	_, out, err := gather(c, data, true, root)
	return out, err
}

// gather is the instrumented body of Gather and Gatherv.
func gather[T Scalar](c *Comm, data []T, variable bool, root int) (flat []T, parts [][]T, err error) {
	if err := c.checkPeer(root, false); err != nil {
		return nil, nil, err
	}
	prim := PrimGather
	if variable {
		prim = PrimGatherv
	}
	sp := c.begin(prim)
	flat, parts, err = gatherLinear(c, data, root, variable)
	bytes := len(data)
	if c.rank == root {
		bytes = len(flat)
	}
	sp.end(c.members[root], -1, bytes*scalarSize[T](), 0, 0, 0)
	return flat, parts, err
}

// gatherLinear is the one body of Gather and Gatherv: at the root it
// decodes every rank's block back to back, in rank order, into one flat
// slice. With variable set it also returns each rank's block as a slice
// of flat (nil for an empty block); without, every block must be as long
// as the root's own.
func gatherLinear[T Scalar](c *Comm, data []T, root int, variable bool) (flat []T, parts [][]T, err error) {
	blocks, err := gatherBlocks(c, data, root)
	if err != nil || c.rank != root {
		return nil, nil, err
	}
	defer releaseBlocks(blocks)
	size := scalarSize[T]()
	total := 0
	for i, b := range blocks {
		if !variable && len(b) != len(data)*size {
			return nil, nil, fmt.Errorf("%w: Gather rank %d contributed %d bytes, expected %d elements", ErrLengthMismatch, i, len(b), len(data))
		}
		total += len(b) / size
	}
	flat = make([]T, total)
	if variable {
		parts = make([][]T, len(blocks))
	}
	off := 0
	for i, b := range blocks {
		n := len(b) / size
		if err := decodeInto(flat[off:off+n], b); err != nil {
			return nil, nil, err
		}
		if variable && n > 0 {
			parts[i] = flat[off : off+n : off+n]
		}
		off += n
	}
	return flat, parts, nil
}

// gatherBlocks is the shared linear gather: rank order, receives posted
// up-front. A non-root rank sends data (collSend); at the root the
// returned blocks (blocks[root] encodes data) are pooled buffers the
// caller must release.
func gatherBlocks[T Scalar](c *Comm, data []T, root int) ([][]byte, error) {
	tag := c.nextCollTag()
	p := len(c.members)
	if c.rank != root {
		return nil, collSend(c, data, root, tag)
	}
	payload := marshalPooled(data)
	prs := make([]*pendingRecv, p)
	for i := 0; i < p; i++ {
		if i != root {
			prs[i] = c.collIrecv(i, tag)
		}
	}
	blocks := make([][]byte, p)
	blocks[root] = payload
	for i := 0; i < p; i++ {
		if i == root {
			continue
		}
		b, err := c.collFinish(prs[i])
		if err != nil {
			// Nothing reaches the caller: give back the blocks in hand and
			// withdraw the receives still posted.
			releaseBlocks(blocks)
			for _, pr := range prs[i:] {
				if pr != nil {
					c.mb.cancelRecv(pr)
				}
			}
			return nil, err
		}
		blocks[i] = b
	}
	return blocks, nil
}

// allgather concatenates every rank's equal-sized contribution on every
// rank with the ring algorithm: p-1 steps, each relaying a received
// pooled block as-is to the right neighbour. Split's exchange uses it, so
// it counts no call and emits no event.
func allgather[T Scalar](c *Comm, data []T) ([]T, error) {
	n, r := len(data), c.rank
	out := make([]T, n*len(c.members))
	copy(out[r*n:(r+1)*n], data)
	return runSched(c, schedAllgather, noRoot, out, nil, inPlace)
}

// Reduce folds every rank's buffer elementwise with op onto root
// (MPI_Reduce) along a binomial tree. All ranks must contribute buffers of
// the same length; non-root ranks receive nil.
func Reduce[T Scalar](c *Comm, data []T, op Op[T], root int) ([]T, error) {
	if err := c.checkPeer(root, false); err != nil {
		return nil, err
	}
	sp := c.begin(PrimReduce)
	acc := append([]T(nil), data...)
	err := reduceAcc(c, acc, op, root)
	sp.end(c.members[root], -1, len(data)*scalarSize[T](), 0, 0, 0)
	if err != nil || c.rank != root {
		return nil, err
	}
	return acc, nil
}

// ReduceInto folds every rank's buf elementwise with op in place along
// the binomial tree — the MPI_IN_PLACE analogue of Reduce. On return the
// root's buf holds the reduction; on other ranks buf's contents are
// unspecified (they have been folded into a parent). It is the
// allocation-free variant for hot loops reducing into reused buffers.
func ReduceInto[T Scalar](c *Comm, buf []T, op Op[T], root int) error {
	if err := c.checkPeer(root, false); err != nil {
		return err
	}
	sp := c.begin(PrimReduce)
	err := reduceAcc(c, buf, op, root)
	sp.end(c.members[root], -1, len(buf)*scalarSize[T](), 0, 0, 0)
	return err
}

// reduceAcc runs the binomial-tree reduction in place on acc. Wire
// payloads from children are folded directly into acc via reduceFromWire
// — no decoded intermediate slice. Afterwards the root's acc holds the
// fully reduced vector; a non-root's acc has been sent to its parent and
// is stale.
func reduceAcc[T Scalar](c *Comm, acc []T, op Op[T], root int) error {
	_, err := runSched(c, schedReduce, root, acc, op, inPlace)
	return err
}

// Allreduce folds every rank's buffer elementwise with op and delivers the
// result to every rank (MPI_Allreduce). The default algorithm is a
// binomial reduce to rank 0 followed by a binomial broadcast; see
// AllreduceRing for the bandwidth-optimal alternative.
func Allreduce[T Scalar](c *Comm, data []T, op Op[T]) ([]T, error) {
	sp := c.begin(PrimAllreduce)
	acc := append([]T(nil), data...)
	err := allreduceTreeInto(c, acc, op)
	sp.end(-1, -1, len(data)*scalarSize[T](), 0, 0, 0)
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// AllreduceInto is the in-place MPI_IN_PLACE analogue of Allreduce:
// after the call every rank's buf holds the global reduction. Iterative
// algorithms (k-means' weighted-means step) call it with a reused buffer
// to keep the reduction allocation-free.
func AllreduceInto[T Scalar](c *Comm, buf []T, op Op[T]) error {
	sp := c.begin(PrimAllreduce)
	err := allreduceTreeInto(c, buf, op)
	sp.end(-1, -1, len(buf)*scalarSize[T](), 0, 0, 0)
	return err
}

// allreduceTreeInto reduces onto rank 0 and broadcasts back, all in place
// on buf.
func allreduceTreeInto[T Scalar](c *Comm, buf []T, op Op[T]) error {
	if err := reduceAcc(c, buf, op, 0); err != nil {
		return err
	}
	_, err := runSched(c, schedBcast, 0, buf, nil, inPlace)
	return err
}

// AllreduceRing is the bandwidth-optimal ring allreduce
// (reduce-scatter followed by allgather), the algorithm popularized by
// large-scale data-parallel training. It moves 2·(p-1)/p of the buffer per
// rank versus log2(p) full buffers for the tree algorithm, which the
// ablation bench quantifies. It runs the schedule Iallreduce runs, so the
// two are bit-identical.
func AllreduceRing[T Scalar](c *Comm, data []T, op Op[T]) ([]T, error) {
	sp := c.begin(PrimAllreduce)
	out, err := runSched(c, schedAllreduceRing, noRoot, append([]T(nil), data...), op, inPlace)
	sp.end(-1, -1, len(data)*scalarSize[T](), 0, 0, 0)
	return out, err
}

// Alltoallv performs a personalized all-to-all exchange with per-peer
// block sizes (MPI_Alltoallv). blocks[i] is sent to rank i; the return
// value holds one received block per source rank. It is the shuffle
// primitive of the MapReduce substrate and of Module 3's bucket exchange.
func Alltoallv[T Scalar](c *Comm, blocks [][]T) ([][]T, error) {
	p, r := len(c.members), c.rank
	if len(blocks) != p {
		return nil, fmt.Errorf("%w: Alltoallv got %d blocks for %d ranks", ErrLengthMismatch, len(blocks), p)
	}
	sp := c.begin(PrimAlltoallv)
	out := make([][]T, p)
	out[r] = append([]T(nil), blocks[r]...)
	// p-1 pairwise steps: at step s rank r sends its block to rank r+s
	// and decodes what rank r-s sent.
	tag := c.nextCollTag()
	var err error
	for step := 1; step < p && err == nil; step++ {
		to, from := (r+step)%p, (r-step+p)%p
		var b []byte
		if b, err = collExchange(c, blocks[to], to, from, tag); err == nil {
			out[from], err = Unmarshal[T](b)
			putBuf(b)
		}
	}
	bytes := 0
	for _, b := range blocks {
		bytes += len(b)
	}
	sp.end(-1, -1, bytes*scalarSize[T](), 0, 0, 0)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runSched is the blocking driver: it runs this rank's schedule for one
// collective to completion on the caller's goroutine, over buf, and
// returns the buffer (the freshly allocated one for a fresh-sink
// broadcast receiver). Each hop posts its receive, sends, then waits for
// the arrival; a send above the eager threshold blocks in the rendezvous
// protocol, which the posted receive keeps deadlock-free around a ring.
// There is one exit, and it leaves nothing behind: the wire buffer in
// hand goes back to the pool and a receive still posted is withdrawn.
//
// It deliberately does not go through a CollRequest: the request is
// referenced from its posted receives and must live on the heap, and a
// blocking collective must not allocate per call (k-means issues 150
// AllreduceInto per run). The hopRun stays on this stack frame, and so
// does a caller's small buffer.
func runSched[T Scalar](c *Comm, kind schedKind, root int, buf []T, op Op[T], sink sink) ([]T, error) {
	tag := c.nextCollTag()
	x := hopRun[T]{s: newSched(kind, len(c.members), c.rank, root), buf: buf, op: op, sink: sink}
	var (
		wire []byte
		pr   *pendingRecv
		err  error
	)
	for err == nil {
		h, ok := x.s.next()
		if !ok {
			break
		}
		if h.recv != recvNone {
			pr = c.collIrecv(int(h.from), tag)
		}
		if h.send != sendNone {
			b, lent := x.payload(c, h, &wire, false)
			err = c.collSendHop(b, lent, int(h.to), tag, false)
		}
		if err == nil && pr != nil {
			var b []byte
			if b, err = c.collFinish(pr); err == nil {
				pr = nil
				err = x.arrive(h, b, &wire)
			}
		}
	}
	if pr != nil {
		c.mb.cancelRecv(pr)
	}
	putBuf(wire)
	if err != nil {
		return nil, err
	}
	return x.buf, nil
}
