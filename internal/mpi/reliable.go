package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"
)

// Reliable link layer for the socket transport (tcp.go), enabled
// per-world with WithReliableLinks and off by default so the clean path
// keeps its zero-copy, zero-alloc framing byte for byte.
//
// The model is a go-back-N ARQ per connection endpoint, the software
// analogue of what an RDMA reliable-connected queue pair or TCP itself
// does below the MPI library:
//
//   - every data frame carries a per-link sequence number and a CRC32C
//     over everything the receiver acts on (seq, length, header,
//     payload);
//   - the receiver delivers in sequence order, suppresses duplicates,
//     discards corrupt or out-of-order frames, and returns cumulative
//     acks ("I have everything through seq N") on the same socket;
//   - the sender retains each frame until acked and retransmits the
//     whole unacked window after a retransmit timeout with exponential
//     backoff and deterministic jitter.
//
// Why bother when the mesh already runs on TCP, which is reliable? The
// fault injector sits *above* the socket — a `frame=drop` verdict loses
// the frame after TCP delivered it, exactly like a lossy NIC or a
// misbehaving middlebox. Without this layer such a loss strands the
// receiver until a heartbeat or watchdog gives up; with it the loss
// costs one RTO and the application never notices. Link acks are
// themselves unreliable: a lost ack causes a retransmission, which the
// receiver recognizes as a duplicate and re-acks.
//
// Wire format when the layer is on (every frame gets a 1-byte link
// kind; without the layer frames start directly with the length
// prefix):
//
//	linkRaw:  [kind=0][4B frameLen][header][payload]     heartbeats: loss is the signal
//	linkData: [kind=1][8B seq][4B crc][4B frameLen][header][payload]
//	linkAck:  [kind=2][8B cumulative seq]

const (
	linkRaw  byte = 0 // unsequenced frame (heartbeats): losing one is the point
	linkData byte = 1 // sequenced, checksummed, retained until acked
	linkAck  byte = 2 // cumulative ack; unreliable (retransmit → dup → re-ack)
)

const (
	linkDataHdrLen = 1 + 8 + 4 + 4 // kind, seq, crc32c, frame length
	linkAckLen     = 1 + 8         // kind, cumulative seq
)

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
)

// ReliabilityCounters is a point-in-time view of the reliable link
// layer's process-wide counters.
type ReliabilityCounters struct {
	Retransmits    int64 // data frames re-sent after a retransmit timeout
	AcksSent       int64 // cumulative link acks written
	FramesDropped  int64 // outbound frames discarded by the fault injector (any link)
	FramesCorrupt  int64 // frames corrupted by the injector: CRC-rejected on a reliable link, silently delivered on a raw one
	DupsSuppressed int64 // duplicate deliveries absorbed by sequence tracking
	GiveUps        int64 // links that exhausted their retransmit budget
}

// ReliabilityStats reports cumulative reliable-link counters for this
// process.
func ReliabilityStats() ReliabilityCounters {
	return ReliabilityCounters{
		Retransmits:    relRetransmits.Load(),
		AcksSent:       relAcksSent.Load(),
		FramesDropped:  relFramesDropped.Load(),
		FramesCorrupt:  relFramesCorrupt.Load(),
		DupsSuppressed: relDupsSuppressed.Load(),
		GiveUps:        relGiveUps.Load(),
	}
}

// Sub returns the counter deltas accumulated since the earlier snapshot.
func (c ReliabilityCounters) Sub(earlier ReliabilityCounters) ReliabilityCounters {
	return ReliabilityCounters{
		Retransmits:    c.Retransmits - earlier.Retransmits,
		AcksSent:       c.AcksSent - earlier.AcksSent,
		FramesDropped:  c.FramesDropped - earlier.FramesDropped,
		FramesCorrupt:  c.FramesCorrupt - earlier.FramesCorrupt,
		DupsSuppressed: c.DupsSuppressed - earlier.DupsSuppressed,
		GiveUps:        c.GiveUps - earlier.GiveUps,
	}
}

// WithReliableLinks turns on the reliable link layer for the socket
// transport: sequence numbers, CRC32C checksums, cumulative acks and
// retransmission on every connection, so injected frame drops, dups and
// corruptions are absorbed below the MPI semantics. No-op on the
// in-process channel transport, which has no frames to lose. All ranks
// of a multi-process world must agree on this option (forward it with
// WithRunOptions), since it changes the wire format.
func WithReliableLinks() Option {
	return func(o *options) { o.reliableLinks = true }
}

// relFrame is one sent-but-unacked data frame retained for
// retransmission. buf is the complete pooled wire blob including the
// link header.
type relFrame struct {
	seq  uint64
	buf  []byte
	sent time.Time
}

// relState is one connection endpoint's ARQ state. Sender fields are
// guarded by the owning tcpConn's mutex; the receive-side sequence
// cursor lives as a local in the reader goroutine instead.
type relState struct {
	nextSeq  uint64     // next sequence number to assign (first frame: 1)
	unacked  []relFrame // retained frames in ascending seq order
	held     []byte     // FrameReorder holdback: written after the next frame
	rto      time.Duration
	attempts int
	rng      *rand.Rand // deterministic backoff jitter
	started  bool       // retransmit loop launched
	closed   bool
	stop     chan struct{}
	done     chan struct{}
}

// newTCPConn wraps an established socket endpoint. seed makes the
// retransmit jitter deterministic per link.
func newTCPConn(c net.Conn, reliable bool, seed int64) *tcpConn {
	tc := &tcpConn{c: c, w: bufio.NewWriterSize(c, tcpBufSize)}
	if reliable {
		tc.rel = &relState{nextSeq: 1, rng: rand.New(rand.NewSource(seed))}
	}
	return tc
}

// relCRC is the frame checksum both ends compute: CRC32C over the
// sequence number, the frame length and the frame itself — everything
// the receiver acts on except the checksum field and the link kind.
func relCRC(seqBytes, lenBytes, hdr, payload []byte) uint32 {
	c := crc32.Update(0, castagnoliTable, seqBytes)
	c = crc32.Update(c, castagnoliTable, lenBytes)
	c = crc32.Update(c, castagnoliTable, hdr)
	return crc32.Update(c, castagnoliTable, payload)
}

// appendLinkData assembles a complete linkData wire blob for seq and the
// envelope into a pooled buffer. Exposed as a pure function so the CRC
// gate is unit- and fuzz-testable against checkLinkFrame.
func appendLinkData(seq uint64, e *envelope) []byte {
	n := linkDataHdrLen + envelopeHeaderLen + len(e.data)
	buf := getBuf(n)
	buf[0] = linkData
	binary.LittleEndian.PutUint64(buf[1:9], seq)
	binary.LittleEndian.PutUint32(buf[13:17], uint32(envelopeHeaderLen+len(e.data)))
	putHeader(buf[17:], e)
	copy(buf[17+envelopeHeaderLen:], e.data)
	binary.LittleEndian.PutUint32(buf[9:13], relCRC(buf[1:9], buf[13:17], buf[17:17+envelopeHeaderLen], buf[17+envelopeHeaderLen:]))
	return buf
}

// checkLinkFrame validates a complete linkData blob the way the
// streaming reader does: link kind, structural bounds, then the CRC32C
// gate. It returns the frame's sequence number and payload length.
func checkLinkFrame(b []byte) (seq uint64, payloadLen int, err error) {
	if len(b) < linkDataHdrLen+envelopeHeaderLen {
		return 0, 0, fmt.Errorf("mpi: link frame of %d bytes shorter than headers", len(b))
	}
	if b[0] != linkData {
		return 0, 0, fmt.Errorf("mpi: link frame kind %#x, want linkData", b[0])
	}
	seq = binary.LittleEndian.Uint64(b[1:9])
	frameLen := binary.LittleEndian.Uint32(b[13:17])
	if frameLen < envelopeHeaderLen || int64(frameLen) > envelopeHeaderLen+maxPayloadLen {
		return 0, 0, fmt.Errorf("mpi: link frame declares %d frame bytes", frameLen)
	}
	if int(frameLen) != len(b)-linkDataHdrLen {
		return 0, 0, fmt.Errorf("mpi: link frame declares %d frame bytes in a %d-byte blob", frameLen, len(b))
	}
	want := binary.LittleEndian.Uint32(b[9:13])
	hdr := b[17 : 17+envelopeHeaderLen]
	payload := b[17+envelopeHeaderLen:]
	if got := relCRC(b[1:9], b[13:17], hdr, payload); got != want {
		return 0, 0, fmt.Errorf("mpi: link frame CRC mismatch: got %#x want %#x", got, want)
	}
	var e envelope
	if pl := parseHeader(hdr, &e); pl != len(payload) {
		return 0, 0, fmt.Errorf("mpi: link frame header declares %d payload bytes, carries %d", pl, len(payload))
	}
	return seq, len(payload), nil
}

// writeReliable sends one envelope over a reliable link, applying the
// injector's verdict at the wire level: a dropped or corrupted write is
// recovered by the retained copy after an RTO, a duplicate is absorbed
// by the receiver's sequence cursor. Heartbeats bypass the ARQ — losing
// one is exactly the signal the failure detector exists to observe.
func (tc *tcpConn) writeReliable(e *envelope, act FrameAction) error {
	if e.kind == kindHeartbeat {
		return tc.writeLinkRaw(e)
	}
	buf := appendLinkData(0, e) // seq stamped under the lock below
	tc.pending.Add(1)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	rs := tc.rel
	if rs.closed {
		tc.pending.Add(-1)
		putBuf(buf)
		return fmt.Errorf("mpi: reliable link closed")
	}
	seq := rs.nextSeq
	rs.nextSeq++
	binary.LittleEndian.PutUint64(buf[1:9], seq)
	binary.LittleEndian.PutUint32(buf[9:13], relCRC(buf[1:9], buf[13:17], buf[17:17+envelopeHeaderLen], buf[17+envelopeHeaderLen:]))
	rs.unacked = append(rs.unacked, relFrame{seq: seq, buf: buf, sent: time.Now()})
	if !rs.started {
		rs.started = true
		rs.stop = make(chan struct{})
		rs.done = make(chan struct{})
		go tc.retransmitLoop(rs.stop, rs.done)
	}
	var err error
	switch act {
	case FrameDrop:
		// The initial write never happens; the retained copy goes out
		// after the first RTO.
		relFramesDropped.Add(1)
	case FrameReorder:
		// Held back until the next data frame is written (below), so the
		// two cross the wire in swapped order; if no successor ever
		// comes, the retransmit timer delivers it.
		rs.held = buf
	case FrameCorrupt:
		// Flip one covered bit for the wire write only; the retained
		// copy stays clean for the retransmission the CRC reject forces.
		buf[len(buf)-1] ^= 0x20
		_, err = tc.w.Write(buf)
		buf[len(buf)-1] ^= 0x20
	case FrameDup:
		if _, err = tc.w.Write(buf); err == nil {
			_, err = tc.w.Write(buf)
		}
	default:
		_, err = tc.w.Write(buf)
	}
	if act != FrameReorder && rs.held != nil && err == nil {
		h := rs.held
		rs.held = nil
		_, err = tc.w.Write(h)
	}
	if tc.pending.Add(-1) > 0 || err != nil {
		return err
	}
	return tc.w.Flush()
}

// writeLinkRaw writes an unsequenced frame (link kind linkRaw followed
// by the ordinary length-prefixed frame) on a reliable connection.
func (tc *tcpConn) writeLinkRaw(e *envelope) error {
	tc.pending.Add(1)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if err := tc.w.WriteByte(linkRaw); err != nil {
		tc.pending.Add(-1)
		return err
	}
	return tc.writeFrameLocked(e)
}

// sendLinkAck writes a cumulative ack for everything through seq. Acks
// are fire-and-forget: if one is lost the sender retransmits, the
// receiver observes duplicates and re-acks.
func (tc *tcpConn) sendLinkAck(seq uint64) {
	var b [linkAckLen]byte
	b[0] = linkAck
	binary.LittleEndian.PutUint64(b[1:], seq)
	relAcksSent.Add(1)
	tc.pending.Add(1)
	tc.mu.Lock()
	_, err := tc.w.Write(b[:])
	if tc.pending.Add(-1) == 0 && err == nil {
		tc.w.Flush()
	}
	tc.mu.Unlock()
}

// ackLink processes an inbound cumulative ack: every retained frame
// through seq returns to the pool and the backoff resets — the link is
// making progress.
func (tc *tcpConn) ackLink(seq uint64) {
	tc.mu.Lock()
	rs := tc.rel
	n := 0
	for _, f := range rs.unacked {
		if f.seq <= seq {
			if rs.held != nil && &rs.held[0] == &f.buf[0] {
				rs.held = nil
			}
			putBuf(f.buf)
			continue
		}
		rs.unacked[n] = f
		n++
	}
	if n < len(rs.unacked) {
		rs.unacked = rs.unacked[:n]
		rs.rto = 0
		rs.attempts = 0
	}
	tc.mu.Unlock()
}

// retransmitLoop drives the ARQ timer for one connection until the
// transport closes the link.
func (tc *tcpConn) retransmitLoop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(relRetransmitTick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			tc.retransmitDue()
		}
	}
}

// retransmitDue implements go-back-N: once the oldest unacked frame has
// aged past the RTO, the whole window is resent in order and the RTO
// backs off exponentially with deterministic jitter. After
// relMaxRetransmits fruitless rounds the link gives up and frees its
// window — at that point the peer is gone and the heartbeat detector's
// failure declaration, not delivery, is the correct outcome.
func (tc *tcpConn) retransmitDue() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	rs := tc.rel
	if rs.closed || len(rs.unacked) == 0 {
		return
	}
	rto := rs.rto
	if rto == 0 {
		rto = relRTOBase
	}
	if time.Since(rs.unacked[0].sent) < rto {
		return
	}
	if rs.attempts >= relMaxRetransmits {
		relGiveUps.Add(1)
		for _, f := range rs.unacked {
			if rs.held != nil && &rs.held[0] == &f.buf[0] {
				rs.held = nil
			}
			putBuf(f.buf)
		}
		rs.unacked = rs.unacked[:0]
		return
	}
	now := time.Now()
	for i := range rs.unacked {
		f := &rs.unacked[i]
		if rs.held != nil && &rs.held[0] == &f.buf[0] {
			rs.held = nil // the holdback is moot once the timer resends it
		}
		if _, err := tc.w.Write(f.buf); err != nil {
			break
		}
		f.sent = now
		relRetransmits.Add(1)
	}
	tc.w.Flush()
	rs.attempts++
	next := 2 * rto
	if next > relRTOMax {
		next = relRTOMax
	}
	jitter := time.Duration((rs.rng.Float64() - 0.5) * 0.5 * float64(next))
	rs.rto = next + jitter
}

// readFramesReliable consumes link-framed traffic from one connection:
// raw frames pass straight through, acks retire the paired sender's
// window, and data frames go through the CRC gate and the in-order
// sequence cursor before reaching a mailbox. The cursor is a local —
// exactly one reader owns each endpoint. Acks for traffic received here
// are written through tc, the endpoint's paired writer on the same
// socket, so they reach the peer whose window holds these frames.
func readFramesReliable(r *bufio.Reader, tc *tcpConn, w *World) {
	var expect uint64 = 1
	// Header scratch for the three frame kinds, owned by the loop (see
	// readOneRawFrame).
	var lh [linkDataHdrLen - 1]byte // seq, crc, frameLen (kind read separately)
	var hdr [envelopeHeaderLen]byte
	var raw [4 + envelopeHeaderLen]byte
	var ab [8]byte
	for {
		kind, err := r.ReadByte()
		if err != nil {
			return // connection closed
		}
		switch kind {
		case linkRaw:
			if !readOneRawFrame(r, w, &raw) {
				return
			}
		case linkAck:
			if _, err := io.ReadFull(r, ab[:]); err != nil {
				return
			}
			tc.ackLink(binary.LittleEndian.Uint64(ab[:]))
		case linkData:
			if _, err := io.ReadFull(r, lh[:]); err != nil {
				return
			}
			seq := binary.LittleEndian.Uint64(lh[0:8])
			wantCRC := binary.LittleEndian.Uint32(lh[8:12])
			frameLen := binary.LittleEndian.Uint32(lh[12:16])
			// The length fields are CRC-covered but must be sane before
			// the frame can even be read off the stream; an insane value
			// means the framing itself is gone, which no retransmission
			// can repair.
			if frameLen < envelopeHeaderLen || int64(frameLen) > envelopeHeaderLen+maxPayloadLen {
				w.abort(fmt.Errorf("mpi: link frame declares %d frame bytes", frameLen))
				return
			}
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return
			}
			payloadLen := int(frameLen) - envelopeHeaderLen
			var payload []byte
			if payloadLen > 0 {
				payload = getBuf(payloadLen)
				if _, err := io.ReadFull(r, payload); err != nil {
					putBuf(payload)
					return
				}
			}
			if relCRC(lh[0:8], lh[12:16], hdr[:], payload) != wantCRC {
				// Corrupt on the wire: discard without acking, so the
				// sender's clean retained copy comes back after an RTO.
				relFramesCorrupt.Add(1)
				putBuf(payload)
				continue
			}
			switch {
			case seq < expect:
				// Duplicate (injected dup, or a retransmission racing an
				// ack): re-ack so the sender's window drains.
				relDupsSuppressed.Add(1)
				putBuf(payload)
				tc.sendLinkAck(expect - 1)
			case seq > expect:
				// Gap: a predecessor was dropped. Go-back-N discards the
				// successor and re-acks the last good frame; the sender
				// resends the whole window.
				putBuf(payload)
				tc.sendLinkAck(expect - 1)
			default:
				env := getEnv()
				if pl := parseHeader(hdr[:], env); pl != payloadLen {
					putEnv(env)
					putBuf(payload)
					w.abort(fmt.Errorf("mpi: link frame header declares %d payload bytes in a %d-byte frame", pl, frameLen))
					return
				}
				if env.wdst < 0 || env.wdst >= len(w.mailboxes) {
					putEnv(env)
					putBuf(payload)
					w.abort(fmt.Errorf("mpi: envelope for unknown rank %d", env.wdst))
					return
				}
				expect++
				env.data = payload
				tc.sendLinkAck(seq)
				w.mailboxes[env.wdst].post(env)
			}
		default:
			w.abort(fmt.Errorf("mpi: unknown link frame kind %#x", kind))
			return
		}
	}
}

// awaitAcks waits, until deadline, for the peer to acknowledge every
// frame sent on a reliable link — the link's share of MPI_Finalize. A
// frame whose first write the injector dropped exists only in the
// retained window, so closing before its retransmission would lose it
// for good while the rank that sent it has already returned.
func (tc *tcpConn) awaitAcks(deadline time.Time) {
	if tc.rel == nil {
		return
	}
	for time.Now().Before(deadline) {
		tc.mu.Lock()
		n := len(tc.rel.unacked)
		tc.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// shutdownRel stops the retransmit loop and returns every retained
// frame (ARQ window and reorder holdbacks, reliable or raw) to the
// pool. Idempotent; called by the transport's close path.
func (tc *tcpConn) shutdownRel() {
	tc.mu.Lock()
	if tc.rawHeld != nil {
		putBuf(tc.rawHeld)
		tc.rawHeld = nil
	}
	rs := tc.rel
	if rs == nil {
		tc.mu.Unlock()
		return
	}
	rs.closed = true
	var done chan struct{}
	if rs.stop != nil {
		close(rs.stop)
		rs.stop = nil
		done = rs.done
	}
	for _, f := range rs.unacked {
		putBuf(f.buf)
	}
	rs.unacked = nil
	rs.held = nil
	tc.mu.Unlock()
	if done != nil {
		<-done
	}
}
