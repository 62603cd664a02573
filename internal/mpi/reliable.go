package mpi

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Reliable links (WithReliableLinks): a layer of the link stack, off by
// default so the clean path keeps its zero-copy, zero-alloc delivery
// byte for byte. It sits between the latency emulator and the frame-fault
// layer and works over either endpoint, the in-memory link of Run or the
// sockets of RunTCP and RunProcesses.
//
// The model is a go-back-N ARQ per directed link (src → dst), the
// software analogue of what an RDMA reliable-connected queue pair or TCP
// itself does below the MPI library:
//
//   - every envelope crossing the link carries a link sequence number and
//     a CRC32C over everything the receiver acts on (the envelope header,
//     the payload and the sequence number);
//   - the receive half delivers in sequence order, suppresses duplicates,
//     discards corrupt or out-of-order envelopes, and returns cumulative
//     acks ("I have everything through seq N") to the sender;
//   - the send half retains an owned copy of each envelope until acked
//     and resends the whole unacked window after a retransmit timeout
//     with exponential backoff and deterministic jitter.
//
// Why bother when the mesh already runs on TCP, which is reliable? The
// fault injector sits *below* this layer and above the endpoint — a
// `frame=drop` verdict loses the frame after the ARQ sent it, exactly
// like a lossy NIC or a misbehaving middlebox. Without this layer such a
// loss strands the receiver until a heartbeat, op timeout or watchdog
// gives up; with it the loss costs one RTO and the application never
// notices. Link acks are themselves unreliable: a lost ack causes a
// retransmission, which the receiver recognizes as a duplicate and
// re-acks. Retransmissions and acks go straight to the endpoint: the
// injector, traffic accounting and the killed-sender filter see each
// message once. Heartbeats cross the link unsequenced — losing one is
// exactly the signal the failure detector exists to observe.
//
// On a socket the sequence number and checksum ride in the frame's link
// prefix (tcp.go), and an ack is an envelope of kind kindLinkAck.

// Retransmit policy. The base RTO is far above a loopback RTT but small
// enough that a 5% drop plan costs milliseconds, not heartbeats; backoff
// doubles per attempt with ±25% deterministic jitter so a convoy of
// lossy links does not retransmit in lockstep.
const (
	relRTOBase        = 20 * time.Millisecond
	relRTOMax         = 400 * time.Millisecond
	relRetransmitTick = 5 * time.Millisecond
	relMaxRetransmits = 25 // then give up: the failure detector owns the verdict
)

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// Package counters behind ReliabilityStats and the telemetry registry.
var (
	relRetransmits    atomic.Int64
	relAcksSent       atomic.Int64
	relFramesDropped  atomic.Int64
	relFramesCorrupt  atomic.Int64
	relDupsSuppressed atomic.Int64
	relGiveUps        atomic.Int64

	relHeartbeatsSent     atomic.Int64
	relHeartbeatsReceived atomic.Int64
	relRespawns           atomic.Int64
)

// ReliabilityCounters is a point-in-time view of the process-wide
// resilience counters: the reliable link layer's, the liveness layer's
// heartbeats (which bypass the per-world traffic accounting by design)
// and respawn recovery's.
type ReliabilityCounters struct {
	Retransmits        int64 // data frames re-sent after a retransmit timeout
	AcksSent           int64 // cumulative link acks written
	FramesDropped      int64 // outbound frames discarded by the fault injector (any link)
	FramesCorrupt      int64 // frames corrupted by the injector: CRC-rejected on a reliable link, silently delivered on a raw one
	DupsSuppressed     int64 // duplicate deliveries absorbed by sequence tracking
	GiveUps            int64 // links that exhausted their retransmit budget
	HeartbeatsSent     int64 // heartbeat envelopes emitted (WithHeartbeat)
	HeartbeatsReceived int64 // heartbeat envelopes absorbed by mailboxes
	Respawns           int64 // ranks brought back at full width by RespawnAndRestore
}

// ReliabilityStats reports cumulative resilience counters for this
// process, across all worlds.
func ReliabilityStats() ReliabilityCounters {
	return ReliabilityCounters{
		Retransmits:        relRetransmits.Load(),
		AcksSent:           relAcksSent.Load(),
		FramesDropped:      relFramesDropped.Load(),
		FramesCorrupt:      relFramesCorrupt.Load(),
		DupsSuppressed:     relDupsSuppressed.Load(),
		GiveUps:            relGiveUps.Load(),
		HeartbeatsSent:     relHeartbeatsSent.Load(),
		HeartbeatsReceived: relHeartbeatsReceived.Load(),
		Respawns:           relRespawns.Load(),
	}
}

// Sub returns the counter deltas accumulated since the earlier snapshot.
func (c ReliabilityCounters) Sub(earlier ReliabilityCounters) ReliabilityCounters {
	return ReliabilityCounters{
		Retransmits:        c.Retransmits - earlier.Retransmits,
		AcksSent:           c.AcksSent - earlier.AcksSent,
		FramesDropped:      c.FramesDropped - earlier.FramesDropped,
		FramesCorrupt:      c.FramesCorrupt - earlier.FramesCorrupt,
		DupsSuppressed:     c.DupsSuppressed - earlier.DupsSuppressed,
		GiveUps:            c.GiveUps - earlier.GiveUps,
		HeartbeatsSent:     c.HeartbeatsSent - earlier.HeartbeatsSent,
		HeartbeatsReceived: c.HeartbeatsReceived - earlier.HeartbeatsReceived,
		Respawns:           c.Respawns - earlier.Respawns,
	}
}

// WithReliableLinks turns on the reliable link layer: sequence numbers,
// CRC32C checksums, cumulative acks and retransmission on every link,
// so injected frame drops, dups, corruptions and reorders are absorbed
// below the MPI semantics. All ranks of a multi-process world must agree
// on this option (forward it with WithRunOptions), since it changes the
// wire format.
func WithReliableLinks() Option {
	return func(o *options) { o.reliableLinks = true }
}

// relFrame is one sent-but-unacked envelope, an owned copy retained for
// retransmission.
type relFrame struct {
	e    *envelope
	sent time.Time
}

// arqOut is a frame queued for its link's drainer. A wire frame (a
// retransmission) goes straight to the endpoint.
type arqOut struct {
	e    *envelope
	wire bool
}

// arqLink is the ARQ state of one directed link src → dst. The send half
// lives in the World hosting src and is guarded by mu; the receive half
// (got) lives in the World hosting dst. Arrivals on one link are
// serialized by the endpoint — the socket's one reader, or this link's
// drainer on the in-memory link — so got needs no lock.
type arqLink struct {
	mu       sync.Mutex
	nextSeq  uint64     // last sequence number assigned (first frame: 1)
	unacked  []relFrame // retained frames in ascending seq order
	out      []arqOut   // frames waiting for the drainer
	draining bool
	rto      time.Duration
	attempts int
	rng      *rand.Rand // backoff jitter, seeded per link on first use

	// acked is the cumulative ack cursor: the receive half of the reverse
	// link raises it, and the send half prunes its window against it when
	// it next holds mu. So an ack arriving during a synchronous in-memory
	// post never waits for the lock its own sender holds.
	acked atomic.Uint64

	got uint64 // receive half: last sequence number delivered in order
}

// arqLayer is the reliable-link layer of one World: the send half of
// every link leaving a local rank, the receive half of every link
// arriving at one, and the retransmit timer. It is the host of the
// endpoint beneath it: its arrive stands in front of the World's, and
// the rest of linkHost passes through.
type arqLayer struct {
	linkHost
	np    int
	local []int     // the ranks whose outbound links the timer serves
	next  transport // the layer below: first transmissions
	links []arqLink // [src*np+dst]

	// wire is the endpoint, for retransmissions and link acks, set
	// before stacked. A socket reader may hand the receive half a frame
	// from a peer World before this one has stacked its layers; until
	// then the frame goes unacked, so its retransmission is re-acked
	// instead.
	wire    transport
	stacked atomic.Bool
	stop    chan struct{} // ends the retransmit timer
	timer   sync.WaitGroup
}

// newARQ builds the reliable-link layer of an np-rank world
// (WithReliableLinks) over host, serving the send halves of the local
// ranks. Build it before the endpoint, which takes it as its host, and
// stack it with over once the endpoint exists.
func newARQ(host linkHost, np int, local []int) *arqLayer {
	return &arqLayer{linkHost: host, np: np, local: local, links: make([]arqLink, np*np)}
}

// over stacks the layer on next, with wire the endpoint beneath it, and
// starts the retransmit timer. A nil layer stacks nothing.
func (a *arqLayer) over(next, wire transport) transport {
	if a == nil {
		return next
	}
	a.next, a.wire = next, wire
	a.stacked.Store(true)
	a.stop = make(chan struct{})
	every(&a.timer, a.stop, relRetransmitTick, a.retransmitTick)
	return a
}

// linkCRC is the checksum both halves compute: CRC32C over the envelope
// header (which carries the payload length), the payload and the link
// sequence number.
func linkCRC(e *envelope) uint32 {
	var b [envelopeHeaderLen + 8]byte
	putHeader(b[:], e)
	binary.LittleEndian.PutUint64(b[envelopeHeaderLen:], e.lseq)
	c := crc32.Update(0, castagnoliTable, b[:envelopeHeaderLen])
	c = crc32.Update(c, castagnoliTable, e.data)
	return crc32.Update(c, castagnoliTable, b[envelopeHeaderLen:])
}

// checkLinkFrame is the receive half's CRC gate: it reports whether a
// sequenced envelope arrived as its sender stamped it.
func checkLinkFrame(e *envelope) bool { return linkCRC(e) == e.crc }

// deliver is the send half. It stamps e with the link's next sequence
// number and checksum, retains it, and queues an owned copy for the
// layer below. Heartbeats cross the link unsequenced.
func (a *arqLayer) deliver(e *envelope) error {
	l := &a.links[e.wsrc*a.np+e.wdst]
	if e.kind == kindHeartbeat {
		l.mu.Lock()
		l.out = append(l.out, arqOut{e: e})
		a.drain(l)
		return nil
	}
	claim(e, nil) // the window holds e past the send
	l.mu.Lock()
	l.prune()
	l.nextSeq++
	e.lseq = l.nextSeq
	e.crc = linkCRC(e)
	l.unacked = append(l.unacked, relFrame{e: e, sent: time.Now()})
	l.out = append(l.out, arqOut{e: cloneEnv(e)})
	a.drain(l)
	return nil
}

// drain hands the link's queued frames to the layers below in order,
// unless another goroutine is already draining the link: that one then
// delivers them too. No lock is held across a delivery, so a synchronous
// in-memory post that sends on other links (an ack, a collective's next
// hop) cannot close a lock cycle, and one that sends on this link only
// queues. Called with l.mu held; returns with it released.
func (a *arqLayer) drain(l *arqLink) {
	if l.draining {
		l.mu.Unlock()
		return
	}
	l.draining = true
	for len(l.out) > 0 {
		q := l.out
		l.out = nil
		l.mu.Unlock()
		for _, o := range q {
			// A failed delivery is the ARQ's to recover: the window holds
			// the frame.
			if o.wire {
				_ = a.wire.deliver(o.e)
			} else {
				_ = a.next.deliver(o.e)
			}
		}
		l.mu.Lock()
	}
	l.draining = false
	l.mu.Unlock()
}

// prune returns every retained frame the ack cursor covers to the pool
// and resets the backoff if any went: the link is making progress.
// Called with l.mu held.
func (l *arqLink) prune() {
	acked := l.acked.Load()
	n := 0
	for n < len(l.unacked) && l.unacked[n].e.lseq <= acked {
		dropEnv(l.unacked[n].e)
		n++
	}
	if n > 0 {
		m := copy(l.unacked, l.unacked[n:])
		clear(l.unacked[m:])
		l.unacked = l.unacked[:m]
		l.rto, l.attempts = 0, 0
	}
}

// arrive is the receive half, in front of every mailbox. A link ack
// raises the acked link's cursor. An unsequenced envelope passes. A
// sequenced one must clear the CRC gate and be the next in order: then it
// is acked and posted. Anything else is discarded; a duplicate or a gap
// re-acks the in-order prefix, so the sender's window drains and its
// go-back-N resend fills the gap. A corrupt envelope is not acked, so
// the sender's clean retained copy comes back after an RTO.
func (a *arqLayer) arrive(e *envelope) {
	n := a.np
	switch {
	case e.kind == kindLinkAck:
		a.links[e.wdst*n+e.wsrc].ackThrough(uint64(e.seq))
		putEnv(e)
		return
	case e.lseq == 0:
		a.linkHost.arrive(e)
		return
	case !checkLinkFrame(e):
		dropEnv(e)
		return
	}
	l := &a.links[e.wsrc*n+e.wdst]
	if e.lseq != l.got+1 {
		if e.lseq <= l.got {
			relDupsSuppressed.Add(1)
		}
		a.ack(e, l.got)
		dropEnv(e)
		return
	}
	l.got++
	a.ack(e, l.got)
	a.linkHost.arrive(e)
}

// ack sends the cumulative link ack for everything through seq on e's
// link, straight to the endpoint. Acks are fire-and-forget: if one is
// lost the sender retransmits, the receiver observes duplicates and
// re-acks.
func (a *arqLayer) ack(e *envelope, seq uint64) {
	if !a.stacked.Load() {
		return
	}
	ack := getEnv()
	ack.kind = kindLinkAck
	ack.src, ack.wsrc, ack.wdst = e.wdst, e.wdst, e.wsrc
	ack.seq = int64(seq)
	relAcksSent.Add(1)
	_ = a.wire.deliver(ack)
}

// ackThrough raises the link's ack cursor to seq; a stale ack never
// lowers it.
func (l *arqLink) ackThrough(seq uint64) {
	for {
		cur := l.acked.Load()
		if seq <= cur || l.acked.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// retransmitTick is the ARQ timer's tick over every link leaving a
// local rank. It runs until the layer closes, so it keeps resending
// while close waits for the windows to drain.
func (a *arqLayer) retransmitTick() {
	for _, src := range a.local {
		for dst := 0; dst < a.np; dst++ {
			a.retransmitDue(src, dst)
		}
	}
}

// retransmitDue implements go-back-N on one link: once the oldest unacked
// frame has aged past the RTO, copies of the whole window are queued in
// order and the RTO backs off exponentially with deterministic jitter.
// After relMaxRetransmits fruitless rounds the link gives up and frees
// its window — at that point the peer is gone and the heartbeat
// detector's failure declaration, not delivery, is the correct outcome.
func (a *arqLayer) retransmitDue(src, dst int) {
	l := &a.links[src*a.np+dst]
	l.mu.Lock()
	l.prune()
	rto := l.rto
	if rto == 0 {
		rto = relRTOBase
	}
	if len(l.unacked) == 0 || time.Since(l.unacked[0].sent) < rto {
		l.mu.Unlock()
		return
	}
	if l.attempts >= relMaxRetransmits {
		relGiveUps.Add(1)
		for _, f := range l.unacked {
			dropEnv(f.e)
		}
		clear(l.unacked)
		l.unacked = l.unacked[:0]
		l.mu.Unlock()
		return
	}
	now := time.Now()
	for i := range l.unacked {
		l.unacked[i].sent = now
		l.out = append(l.out, arqOut{e: cloneEnv(l.unacked[i].e), wire: true})
		relRetransmits.Add(1)
	}
	l.attempts++
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(int64(src)*1_000_003 + int64(dst)))
	}
	next := min(2*rto, relRTOMax)
	l.rto = next + time.Duration((l.rng.Float64()-0.5)*0.5*float64(next))
	a.drain(l)
}

// close is the layer's share of MPI_Finalize. A frame whose first
// transmission the injector dropped exists only in its window, so
// closing before its retransmission is acknowledged would lose it for
// good while the rank that sent it has already returned: the windows of
// a live world get closeGrace to drain before the layers below close.
func (a *arqLayer) close() error {
	if a.stopErr() == nil { // a stopped world owes nobody delivery
		deadline := time.Now().Add(closeGrace)
		for _, src := range a.local {
			for dst := 0; dst < a.np; dst++ {
				l := &a.links[src*a.np+dst]
				for time.Now().Before(deadline) {
					l.mu.Lock()
					l.prune()
					n := len(l.unacked)
					l.mu.Unlock()
					if n == 0 {
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
	close(a.stop)
	a.timer.Wait()
	err := a.next.close()
	for i := range a.links {
		for _, f := range a.links[i].unacked {
			dropEnv(f.e)
		}
	}
	return err
}
