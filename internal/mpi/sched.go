package mpi

import "fmt"

// Collective schedules. Each of the five communication patterns the
// collectives are built from is written here exactly once, as a per-rank
// schedule: a small value whose next() yields the rank's hops in order.
// A hop names the peer to receive from, the peer to send to, which
// segment of the buffer travels (or "forward the wire bytes just
// received"), and what happens to the arrival. A schedule knows nothing
// about mailboxes, buffers or element types — it is a pure function of
// (pattern, communicator size, rank, root), which is what lets
// sched_test.go run every rank's schedule against in-memory queues.
//
// Two drivers execute a schedule, and they differ only in how they wait:
// runSched (collectives.go) is a plain loop on the caller's goroutine that
// may block and may use the rendezvous protocol; schedOp (icoll.go) is the
// nonblocking collectives' state machine, which does neither. Both carry
// a hopRun between hops and call the same payload/arrive on it, so a
// blocking collective and its nonblocking twin put identical bytes on the
// wire and fold in the identical order.

type schedKind uint8

const (
	schedBarrier       schedKind = iota // dissemination barrier: ceil(log2 p) rounds
	schedBcast                          // binomial-tree broadcast from root
	schedReduce                         // binomial-tree reduction onto root
	schedAllgather                      // ring allgather: p-1 steps, blocks relayed rightwards
	schedReduceScatter                  // shifted ring reduce-scatter: rank r ends owning segment r
	schedAllreduceRing                  // schedReduceScatter, then schedAllgather on the reduced segments
)

func (k schedKind) String() string {
	return [...]string{"barrier", "broadcast", "reduce", "allgather", "reduce-scatter", "ring allreduce"}[k]
}

// noRoot is the root argument of the patterns that have none.
const noRoot = -1

// sendKind says what a hop puts on the wire; the zero value sends nothing.
type sendKind uint8

const (
	sendNone  sendKind = iota
	sendToken          // an empty payload (the barrier's "I am here")
	sendSeg            // segment sendSeg of the buffer, marshalled
	sendWire           // the wire bytes in hand, which hold segment sendSeg
)

// recvKind says what a hop does with its arrival; the zero value
// receives nothing.
type recvKind uint8

const (
	recvNone    recvKind = iota
	recvDiscard          // the arrival itself is the information
	recvFold             // buffer segment recvSeg = op(segment, arrival)
	recvDecode           // buffer segment recvSeg = arrival
)

// hop is one step of one rank's schedule. A hop that both receives and
// sends posts its receive first, so a lockstep peer's send always finds
// a matching record. Ranks and segment indices are int32 here and in
// sched because every nonblocking collective allocates a state that
// holds one of each (schedOp): at this width it fits the 128-byte size
// class, no more than the per-algorithm Iallreduce state it replaced
// (BENCH_ddp.json, BenchmarkIallreduce B/op).
type hop struct {
	from, to         int32 // peers; meaningful when recv / send is not None
	send             sendKind
	recv             recvKind
	sendSeg, recvSeg int32
}

// sched is one rank's position in one collective's schedule.
type sched struct {
	kind       schedKind
	begun      bool // schedBcast: the receive from the parent has been yielded
	p, r, root int32
	// i is the progress cursor: the dissemination distance, the tree
	// mask, or the ring step.
	i int32
}

func newSched(kind schedKind, p, r, root int) sched {
	s := sched{kind: kind, p: int32(p), r: int32(r), root: int32(root)}
	switch kind {
	case schedBarrier, schedReduce:
		s.i = 1
	case schedBcast:
		// A rank's level in the binomial tree is the lowest set bit of its
		// root-relative rank; the root sits above every level.
		s.i = 1
		for s.i < s.p && s.rel()&s.i == 0 {
			s.i <<= 1
		}
	}
	return s
}

// segs is how many segments the schedule divides the buffer into: one
// per rank for the rings, the whole buffer for the trees.
func (s *sched) segs() int {
	if s.kind >= schedAllgather {
		return int(s.p)
	}
	return 1
}

// mod is the positive modulus the ring and dissemination indices use.
func (s *sched) mod(a int32) int32 { return ((a % s.p) + s.p) % s.p }

// rel is this rank's position relative to the tree root, and abs maps a
// relative position back to a rank.
func (s *sched) rel() int32          { return s.mod(s.r - s.root) }
func (s *sched) abs(rel int32) int32 { return (rel + s.root) % s.p }

// next yields the rank's next hop, or false when its part is done.
func (s *sched) next() (hop, bool) {
	switch s.kind {
	case schedBarrier:
		// Round k: signal the rank 2^k ahead, hear from the rank 2^k behind.
		if s.i >= s.p {
			return hop{}, false
		}
		h := hop{from: s.mod(s.r - s.i), to: s.mod(s.r + s.i), send: sendToken, recv: recvDiscard}
		s.i <<= 1
		return h, true

	case schedBcast:
		rel := s.rel()
		if !s.begun {
			s.begun = true
			if rel != 0 {
				return hop{from: s.abs(rel - s.i), recv: recvDecode}, true
			}
		}
		// Fan out to the children below this rank's level, farthest first.
		// The root marshals its buffer; everyone else forwards the parent's
		// wire bytes untouched.
		send := sendWire
		if rel == 0 {
			send = sendSeg
		}
		for s.i >>= 1; s.i > 0; s.i >>= 1 {
			if rel+s.i < s.p {
				return hop{to: s.abs(rel + s.i), send: send}, true
			}
		}
		return hop{}, false

	case schedReduce:
		// Fold the children in ascending distance, then pass the partial
		// up; the root has no parent and just runs out of levels.
		rel := s.rel()
		for s.i < s.p {
			mask := s.i
			s.i <<= 1
			if rel&mask != 0 {
				s.i = s.p
				return hop{to: s.abs(rel &^ mask), send: sendSeg}, true
			}
			if rel|mask < s.p {
				return hop{from: s.abs(rel | mask), recv: recvFold}, true
			}
		}
		return hop{}, false

	case schedAllgather:
		// Step i: pass block r-i to the right, take block r-i-1 from the
		// left. After the first step the block passed on is the one that
		// just arrived, so its wire buffer is relayed as-is.
		if s.i >= s.p-1 {
			return hop{}, false
		}
		h := hop{
			from: s.mod(s.r - 1), recv: recvDecode, recvSeg: s.mod(s.r - s.i - 1),
			to: s.mod(s.r + 1), send: sendWire, sendSeg: s.mod(s.r - s.i),
		}
		if s.i == 0 {
			h.send = sendSeg
		}
		s.i++
		return h, true

	case schedReduceScatter, schedAllreduceRing:
		// Step i: send segment r-1-i — the partial folded the step before —
		// and fold the arrival into segment r-2-i. After p-1 steps segment
		// r has passed through every rank and stops here, fully reduced:
		// the layout ZeRO-style optimizer sharding wants.
		if s.i < s.p-1 {
			h := hop{
				from: s.mod(s.r - 1), recv: recvFold, recvSeg: s.mod(s.r - 2 - s.i),
				to: s.mod(s.r + 1), send: sendSeg, sendSeg: s.mod(s.r - 1 - s.i),
			}
			s.i++
			return h, true
		}
		if s.kind == schedReduceScatter {
			return hop{}, false
		}
		// Every rank now owns reduced segment r: exactly the allgather's
		// starting state.
		s.kind, s.i = schedAllgather, 0
		return s.next()
	}
	return hop{}, false
}

// sink says where a broadcast's receivers put the payload.
type sink bool

const (
	inPlace sink = false // decode into the caller's buffer; lengths must agree
	fresh   sink = true  // allocate whatever the root sent (Bcast's receivers pass no buffer)
)

// hopRun is the state both drivers carry from hop to hop: the schedule,
// the buffer its segments index, and the fold. The third thing they
// carry, the one wire buffer in hand — the latest decoded arrival, kept
// so a sendWire hop can forward it, and released on every exit — is the
// driver's own variable, passed to payload and arrive by pointer. As a
// field here it would cost every caller an allocation: escape analysis
// treats a struct as one object, so buf would be seen leaking to the pool
// alongside wire, and a caller's stack-allocated []int64{n} would move to
// the heap.
type hopRun[T Scalar] struct {
	s    sched
	sink sink
	buf  []T
	op   Op[T]
}

// seg is segment i of the buffer. A length the segment count does not
// divide is cut as if zero-padded to the next multiple — the trailing
// segments come up short or empty — and since every rank cuts its
// equal-length buffer the same way, both ends of a hop agree on each
// segment's size.
func (x *hopRun[T]) seg(i int32) []T {
	nseg := x.s.segs()
	n := (len(x.buf) + nseg - 1) / nseg
	lo := min(int(i)*n, len(x.buf))
	return x.buf[lo:min(lo+n, len(x.buf))]
}

// payload returns the bytes hop h sends, for collSendHop with the same
// eager: pooled bytes whose ownership passes to the caller, or a lent
// view (lendOrCopy) of the pooled buffer in hand, which stays put until
// the hop's rendezvous send returns. A segment is always copied: a view
// of it would make every caller's buffer escape to the heap, and a
// k-means loop passes a stack array.
func (x *hopRun[T]) payload(c *Comm, h hop, wire *[]byte, eager bool) ([]byte, bool) {
	switch h.send {
	case sendSeg:
		return marshalPooled(x.seg(h.sendSeg)), false
	case sendWire:
		if h.recv == recvNone {
			// Fan-out: the same bytes go to the next child too.
			return lendOrCopy(c, *wire, c.hopRendezvous(len(*wire), eager))
		}
		// Relay: this hop's own arrival replaces the buffer in hand, so the
		// buffer itself travels on.
		b := *wire
		*wire = nil
		return b, false
	}
	return nil, false
}

// arrive takes ownership of hop h's arrival and applies the hop's action
// to the buffer. Only a decoded arrival can be forwarded by a later hop,
// so only it stays in hand; folded bytes and tokens are dead at once.
func (x *hopRun[T]) arrive(h hop, b []byte, wire *[]byte) error {
	var err error
	switch h.recv {
	case recvFold:
		err = reduceFromWire(x.seg(h.recvSeg), b, x.op)
	case recvDecode:
		if x.sink == fresh {
			x.buf, err = Unmarshal[T](b)
		} else {
			err = decodeInto(x.seg(h.recvSeg), b)
		}
		b, *wire = *wire, b
	}
	putBuf(b)
	if err != nil {
		return fmt.Errorf("%v hop from rank %d: %w", x.s.kind, h.from, err)
	}
	return nil
}
