package mpi

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buffer and envelope recycling for the zero-copy data path (posted
// receives have their own free list in mailbox.go).
//
// Ownership contract (the invariant every primitive maintains):
//
//   - A payload buffer attached to an envelope has exactly one owner at a
//     time: the sending primitive until deliver() accepts it, the
//     transport while the frame is on a socket, the destination mailbox
//     while queued, and finally the receiving primitive.
//   - Primitives that hand raw payload bytes to the application
//     (RecvBytes, SendrecvBytes, Request.Wait/Test) transfer ownership to
//     the caller. The runtime never recycles such a buffer on its own;
//     the caller MAY return it with Release once the bytes are dead.
//   - Typed receive paths (Recv, RecvInto, WaitRecvInto, collectives)
//     decode and recycle the wire buffer internally; the []T they return
//     is always freshly owned by the caller and never recycled.
//   - A lent payload (envelope.lent) is a view of memory the pool does
//     not own: a parked rendezvous sender's slice on a link that moves
//     envelope objects (lendOrCopy). The match copies it once, under the
//     destination's mailbox lock and before the ack that frees the
//     sender (claim): into the destination a RecvInto named, or into a
//     pooled buffer that then follows the rules above. A send that fails
//     first detaches its view the same way (reclaimLent). No path may
//     putBuf a lent payload; a site that discards an envelope goes
//     through dropEnv.
//
// The free lists are freeList values, mutex-guarded stacks, instead of
// sync.Pool for two reasons: putting a []byte into a sync.Pool boxes the
// slice header (one allocation per Put, defeating the 0 allocs/op fast
// path), and GC-driven pool clearing would make the AllocsPerRun
// regression tests flaky.

const (
	minBufClassBits = 6  // smallest pooled buffer: 64 B
	maxBufClassBits = 22 // largest pooled buffer: 4 MiB
	numBufClasses   = maxBufClassBits - minBufClassBits + 1
)

// bufClasses are the power-of-two size classes of recycled payload
// buffers, one free list each. Retention is bounded per class so the pool
// cannot grow without limit: many small buffers, a handful of large ones.
var bufClasses [numBufClasses]freeList[[]byte]

func init() {
	for i := range bufClasses {
		bufClasses[i].max = 4
		if i+minBufClassBits <= 16 { // up to 64 KiB
			bufClasses[i].max = 32
		}
	}
}

// Pool telemetry: hits are getBuf calls satisfied from a free list,
// misses fall through to make. inFlight tracks capacity bytes handed out
// by getBuf and not yet returned via putBuf; buffers the application
// keeps (never Released) stay counted, so the gauge reads as "pool bytes
// the runtime cannot reuse right now".
var (
	poolHits     atomic.Int64
	poolMisses   atomic.Int64
	poolInFlight atomic.Int64
)

// PoolBufStats is a point-in-time view of the payload buffer pool,
// exported for the telemetry registry.
type PoolBufStats struct {
	Hits          int64 // getBuf calls served from a free list
	Misses        int64 // getBuf calls that had to allocate
	BytesInFlight int64 // capacity bytes checked out and not yet recycled
}

// PoolStats reports cumulative buffer-pool counters for this process.
func PoolStats() PoolBufStats {
	return PoolBufStats{
		Hits:          poolHits.Load(),
		Misses:        poolMisses.Load(),
		BytesInFlight: poolInFlight.Load(),
	}
}

// classFor returns the smallest class whose buffers hold n bytes, or -1
// when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minBufClassBits {
		return 0
	}
	if n > 1<<maxBufClassBits {
		return -1
	}
	return bits.Len(uint(n-1)) - minBufClassBits
}

// getBuf returns an exclusively owned buffer of length n, recycled when
// the pool has one and freshly allocated otherwise.
func getBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	class := classFor(n)
	if class < 0 {
		poolMisses.Add(1)
		poolInFlight.Add(int64(n))
		return make([]byte, n)
	}
	if b := bufClasses[class].get(); b != nil {
		poolHits.Add(1)
		poolInFlight.Add(int64(cap(b)))
		return b[:n]
	}
	poolMisses.Add(1)
	poolInFlight.Add(int64(1 << (minBufClassBits + class)))
	return make([]byte, n, 1<<(minBufClassBits+class))
}

// putBuf recycles a buffer. Buffers smaller than the smallest class or in
// excess of the retention bound are left to the garbage collector. Every
// buffer stored in class k has cap ≥ 2^(minBufClassBits+k), so getBuf's
// length-restoring reslice is always in bounds.
func putBuf(b []byte) {
	c := cap(b)
	if c < 1<<minBufClassBits {
		return
	}
	poolInFlight.Add(-int64(c))
	class := bits.Len(uint(c)) - 1 - minBufClassBits // floor(log2(cap))
	if class >= numBufClasses {
		class = numBufClasses - 1
	}
	bufClasses[class].put(b[:0])
}

// Release returns a payload buffer obtained from RecvBytes,
// SendrecvBytes or Request.Wait to the runtime's buffer pool. It is
// optional — an unreleased buffer is simply garbage collected — but hot
// loops that release keep the data path allocation-free. After Release
// the caller must not touch b again: its backing array will carry future
// messages.
func Release(b []byte) { putBuf(b) }

// copyToPooled copies caller-owned bytes into a pooled buffer, the entry
// point for every primitive that does not take ownership of its argument.
func copyToPooled(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	b := getBuf(len(data))
	copy(b, data)
	return b
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

// freeList is a bounded stack of recycled values: the free lists of
// payload buffers (one per size class), envelopes, posted receives and
// socket readers. It holds T itself, so a []byte is stored without
// boxing its header.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
	max  int // values kept; put leaves the excess to the garbage collector
}

// get pops a recycled value, or returns the zero T when the list is
// empty.
func (l *freeList[T]) get() (x T) {
	l.mu.Lock()
	if m := len(l.free); m > 0 {
		x = l.free[m-1]
		clear(l.free[m-1:]) // the list keeps no reference to x
		l.free = l.free[:m-1]
	}
	l.mu.Unlock()
	return x
}

// put pushes x, which no one else may still touch, unless the list is
// full.
func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	if len(l.free) < l.max {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

var envPool = freeList[*envelope]{max: 1024}

// getEnv returns a zeroed envelope from the pool.
func getEnv() *envelope {
	if e := envPool.get(); e != nil {
		return e
	}
	return &envelope{}
}

// dropEnv discards an envelope no receiver will see, recycling its
// payload unless it is lent: a sender's or receiver's memory is never the
// pool's.
func dropEnv(e *envelope) {
	if !e.lent {
		putBuf(e.data)
	}
	putEnv(e)
}

// cloneEnv returns an owned copy of e: a fresh envelope with e's fields
// and a pooled copy of its payload.
func cloneEnv(e *envelope) *envelope {
	c := getEnv()
	*c = *e
	c.data, c.lent = copyToPooled(e.data), false
	return c
}

// putEnv recycles an envelope. The caller must have extracted every field
// it still needs and must own e.data separately — putEnv deliberately
// does not release the payload, because receive paths hand it to the
// application after freeing the envelope.
func putEnv(e *envelope) {
	*e = envelope{}
	envPool.put(e)
}
