package mpi

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// RunTCP launches fn on np goroutine ranks connected by a full mesh of TCP
// loopback sockets: every envelope crosses a real socket, exercising the
// kernel network path the way a multi-node MPI job would. It is the mesh
// RunProcesses builds, with every rank hosted by this process instead of
// one per OS process. The precise deadlock detector is unavailable over
// sockets (envelopes can be in flight); a 30-second progress watchdog is
// installed unless the caller provides one via WithWatchdog.
func RunTCP(np int, fn func(*Comm) error, opts ...Option) error {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.watchdogTimeout == 0 {
		opts = append(opts, WithWatchdog(30*time.Second))
	}
	if o.injector != nil && o.heartbeat == 0 {
		// Fault-injection runs need a failure detector: without one a
		// killed rank would only surface through the coarse watchdog.
		opts = append(opts, WithHeartbeat(DefaultHeartbeat))
	}
	return run(np, nil, fn, func(w *World) (transport, error) {
		lns, addrs, err := listenLoopback(np)
		if err != nil {
			return nil, err
		}
		return newSocketTransport(w, lns, addrs)
	}, opts...)
}

// tcpBufSize sizes the per-connection bufio reader and writer. 64 KiB
// holds a full eager burst (many small frames) or one large-payload write
// without an intermediate syscall.
const tcpBufSize = 64 << 10

// maxPayloadLen caps a frame's declared payload so a corrupt or hostile
// length prefix cannot drive an arbitrarily large allocation.
const maxPayloadLen = 1 << 30

// tcpConn serializes concurrent senders onto one socket. Frames are
// written in two pieces — the length prefix and header into the
// connection's scratch buffer, then the payload directly — so no
// per-send frame assembly or allocation happens. Flushes coalesce: each
// writer registers in pending before taking the lock, and only the writer
// that observes no successor flushes, so a burst of sends from several
// goroutines hits the socket with one syscall.
//
// With WithReliableLinks the connection additionally carries the ARQ
// state of reliable.go (rel non-nil) and every frame is link-framed;
// without it the wire format and the zero-alloc write path are
// untouched. The choice is made once per direction: in send and in
// readFrames. rawHeld is the FrameReorder holdback on a raw link: one
// assembled frame waiting to be overtaken by its successor.
type tcpConn struct {
	mu      sync.Mutex
	w       *bufio.Writer
	c       net.Conn
	pending atomic.Int32
	hdr     [4 + envelopeHeaderLen]byte // guarded by mu
	rel     *relState                   // nil unless WithReliableLinks
	rawHeld []byte                      // guarded by mu
}

// send puts e on the wire under the injector's verdict act and consumes
// it: the envelope's journey ends at the socket (the receiver
// materializes a fresh one), so the payload buffer and the envelope
// return to their pools here. On a reliable link the verdict applies at
// the wire level and the ARQ recovers whatever it damages; on a raw link
// the damage stands.
func (tc *tcpConn) send(e *envelope, act FrameAction) error {
	var err error
	if tc.rel != nil {
		err = tc.writeReliable(e, act)
	} else {
		err = tc.writeRaw(e, act)
	}
	putBuf(e.data)
	putEnv(e)
	return err
}

// writeRaw applies the verdict on a raw (unguarded) connection — the
// teaching contrast to reliable.go: a dropped frame is simply gone (the
// run stalls until a heartbeat or timeout notices), a corrupted frame is
// delivered with a silently flipped payload bit — without a checksum the
// application computes a wrong answer — and a reordered frame breaks the
// non-overtaking guarantee.
func (tc *tcpConn) writeRaw(e *envelope, act FrameAction) error {
	switch act {
	case FrameDrop:
		relFramesDropped.Add(1)
		return nil
	case FrameReorder:
		tc.holdRaw(e)
		return nil
	case FrameCorrupt:
		relFramesCorrupt.Add(1)
		if len(e.data) > 0 {
			e.data[len(e.data)/2] ^= 0x20
		}
	case FrameDup:
		_ = tc.writeFrame(e)
	}
	return tc.writeFrame(e)
}

// writeFrame writes e's frame as one of possibly several concurrent
// senders on the connection.
func (tc *tcpConn) writeFrame(e *envelope) error {
	tc.pending.Add(1)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.writeFrameLocked(e)
}

// writeFrameLocked writes e's length-prefixed frame, releases any
// reorder holdback behind it, and applies the coalesced-flush protocol.
// The caller holds tc.mu and has already registered in tc.pending.
func (tc *tcpConn) writeFrameLocked(e *envelope) error {
	binary.LittleEndian.PutUint32(tc.hdr[:4], uint32(envelopeHeaderLen+len(e.data)))
	putHeader(tc.hdr[4:], e)
	if _, err := tc.w.Write(tc.hdr[:]); err != nil {
		tc.pending.Add(-1)
		return err
	}
	if len(e.data) > 0 {
		if _, err := tc.w.Write(e.data); err != nil {
			tc.pending.Add(-1)
			return err
		}
	}
	if h := tc.rawHeld; h != nil {
		tc.rawHeld = nil
		_, err := tc.w.Write(h)
		putBuf(h)
		if err != nil {
			tc.pending.Add(-1)
			return err
		}
	}
	// If another sender is already queued on this connection it will
	// reach this same decision point after us, so the flush can be left
	// to the last writer of the burst.
	if tc.pending.Add(-1) > 0 {
		return nil
	}
	return tc.w.Flush()
}

// holdRaw assembles e's frame into a pooled buffer and parks it on the
// connection: the next frame written overtakes it (writeFrameLocked
// releases the holdback after its own bytes).
func (tc *tcpConn) holdRaw(e *envelope) {
	buf := getBuf(4 + envelopeHeaderLen + len(e.data))
	binary.LittleEndian.PutUint32(buf[:4], uint32(envelopeHeaderLen+len(e.data)))
	putHeader(buf[4:], e)
	copy(buf[4+envelopeHeaderLen:], e.data)
	tc.mu.Lock()
	if old := tc.rawHeld; old != nil {
		// Only one frame is held at a time; the older one goes out now,
		// still behind whatever was written since it was parked.
		tc.w.Write(old)
		putBuf(old)
	}
	tc.rawHeld = buf
	tc.mu.Unlock()
}

// readFrames consumes frames from one connection and posts them to the
// destination mailboxes until the connection closes. On a reliable link
// (tc.rel non-nil) traffic is link-framed and flows through the ARQ
// reader; otherwise frames are bare and forwarded as-is.
func readFrames(r *bufio.Reader, tc *tcpConn, w *World) {
	if tc.rel != nil {
		readFramesReliable(r, tc, w)
		return
	}
	var hdr [4 + envelopeHeaderLen]byte
	for readOneRawFrame(r, w, &hdr) {
	}
}

// readOneRawFrame reads one length-prefixed envelope frame. The header
// lands in hdr and the payload is read directly into an exactly-sized
// pooled buffer — the frame is never materialized as a whole, and the
// payload bytes are written once. io.ReadFull takes hdr through an
// interface, so it lives on the heap: the reader loop owns one for its
// lifetime instead of allocating one per frame. Returns false when the
// stream ends or the world aborts.
func readOneRawFrame(r *bufio.Reader, w *World, hdr *[4 + envelopeHeaderLen]byte) bool {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return false // connection closed
	}
	frameLen := binary.LittleEndian.Uint32(hdr[:4])
	if frameLen < envelopeHeaderLen {
		w.abort(fmt.Errorf("mpi: wire frame of %d bytes shorter than header", frameLen))
		return false
	}
	env := getEnv()
	payloadLen := parseHeader(hdr[4:], env)
	if payloadLen != int(frameLen)-envelopeHeaderLen || payloadLen > maxPayloadLen {
		putEnv(env)
		w.abort(fmt.Errorf("mpi: wire frame declares %d payload bytes in a %d-byte frame", payloadLen, frameLen))
		return false
	}
	if env.wdst < 0 || env.wdst >= len(w.mailboxes) {
		putEnv(env)
		w.abort(fmt.Errorf("mpi: envelope for unknown rank %d", env.wdst))
		return false
	}
	if payloadLen > 0 {
		env.data = getBuf(payloadLen)
		if _, err := io.ReadFull(r, env.data); err != nil {
			putBuf(env.data)
			putEnv(env)
			return false
		}
	}
	w.mailboxes[env.wdst].post(env)
	return true
}

// socketTransport is a full mesh of TCP connections between the np ranks
// of a world, of which the ranks in world.localRanks live in this process.
// conns[r][p] is the connection local rank r uses to send to rank p (rows
// exist for local ranks only); every connection has one reader that posts
// parsed envelopes to the destination rank's mailbox. RunTCP is the mesh
// with every rank local, a RunProcesses worker the mesh with one.
type socketTransport struct {
	world     *World
	listeners []net.Listener // by rank; nil for a rank hosted elsewhere
	conns     [][]*tcpConn   // [src][dst]
	readers   sync.WaitGroup
}

// listenLoopback opens one loopback listener per rank and returns them
// with the address table they form.
func listenLoopback(np int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, np)
	addrs := make([]string, np)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, nil, fmt.Errorf("mpi: tcp listen for rank %d: %w", r, err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	return lns, addrs, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// newSocketTransport connects the world's local ranks into the mesh
// described by addrs (every rank's listen address) over lns (the local
// ranks' already-open listeners, which the transport now owns). The first
// rank to fail stops the others: every listener and established
// connection is closed and every connect and reader goroutine has exited
// before the error is returned.
func newSocketTransport(w *World, lns []net.Listener, addrs []string) (*socketTransport, error) {
	t := &socketTransport{world: w, listeners: lns, conns: make([][]*tcpConn, w.size)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for _, r := range w.localRanks {
		t.conns[r] = make([]*tcpConn, w.size)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := t.connect(ctx, r, addrs); err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
					closeListeners(lns)
				})
			}
		}(r)
	}
	wg.Wait()
	if firstErr != nil {
		t.close()
		return nil, firstErr
	}
	return t, nil
}

// helloTimeout bounds the wait for an accepted connection's hello, so a
// stray client that connects and says nothing cannot wedge the mesh build.
const helloTimeout = 10 * time.Second

// connect establishes rank r's connections: it dials every higher rank,
// opening each connection with a 4-byte hello naming r, then accepts one
// connection from every lower rank. Every listener of the world must be
// open before any rank connects (an address table implies it): the dials
// then complete out of the accept backlog and no rank waits on another's
// progress.
func (t *socketTransport) connect(ctx context.Context, r int, addrs []string) error {
	w := t.world
	var hello [4]byte
	for peer := r + 1; peer < w.size; peer++ {
		conn, err := dialRetry(ctx, "tcp", addrs[peer], 10*time.Second, 30*time.Second, func(attempt int, err error) {
			w.emitLifecycle(r, LifeRetry, fmt.Sprintf("mesh dial %d->%d attempt %d: %v", r, peer, attempt, err))
		})
		if err != nil {
			return fmt.Errorf("mpi: rank %d dialing rank %d at %s: %w", r, peer, addrs[peer], err)
		}
		binary.LittleEndian.PutUint32(hello[:], uint32(r))
		if _, err := conn.Write(hello[:]); err != nil {
			conn.Close()
			return fmt.Errorf("mpi: rank %d hello to rank %d: %w", r, peer, err)
		}
		t.startReader(r, peer, conn)
	}
	for k := 0; k < r; k++ {
		conn, err := t.listeners[r].Accept()
		if err != nil {
			return fmt.Errorf("mpi: rank %d accepting peer %d of %d: %w", r, k+1, r, err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(helloTimeout)) // fails only on a closed conn, which the read reports
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			conn.Close()
			return fmt.Errorf("mpi: rank %d peer hello: %w", r, err)
		}
		_ = conn.SetReadDeadline(time.Time{})
		// The hello is outside input: anything may connect to the port.
		peer := binary.LittleEndian.Uint32(hello[:])
		if peer >= uint32(r) || t.conns[r][peer] != nil {
			conn.Close()
			return fmt.Errorf("mpi: rank %d got bad hello from rank %d", r, peer)
		}
		t.startReader(r, int(peer), conn)
	}
	return nil
}

// linkSeed derives the deterministic retransmit-jitter seed of the
// (src → dst) link endpoint.
func linkSeed(src, dst int) int64 { return int64(src)*1_000_003 + int64(dst) }

// startReader records c as rank r's connection to peer and starts the
// goroutine that consumes the envelopes arriving on it. Which rank sent
// them is carried inside each envelope, so one reader per connection
// suffices. The reader is paired with the writer half of the same socket,
// so link acks it emits travel back to the peer whose ARQ window covers
// this traffic.
func (t *socketTransport) startReader(r, peer int, c net.Conn) {
	tc := newTCPConn(c, t.world.opts.reliableLinks, linkSeed(r, peer))
	t.conns[r][peer] = tc
	t.readers.Add(1)
	go func() {
		defer t.readers.Done()
		readFrames(bufio.NewReaderSize(c, tcpBufSize), tc, t.world)
	}()
}

func (t *socketTransport) deliver(e *envelope) error {
	if e.wdst == e.wsrc {
		// Self-sends short-circuit the socket.
		t.world.mailboxes[e.wdst].post(e)
		return nil
	}
	var tc *tcpConn
	if row := t.conns[e.wsrc]; row != nil {
		tc = row[e.wdst]
	}
	if tc == nil {
		return fmt.Errorf("mpi: no connection %d→%d", e.wsrc, e.wdst)
	}
	return tc.send(e, t.world.frameVerdict(e))
}

// notifyAbort forwards a local abort to every rank hosted by another
// process so its blocked ranks observe ErrAborted promptly (satisfying
// MPI_Abort's whole-world semantics) instead of timing out on their
// watchdogs. Local peers share this World and have already been woken.
func (t *socketTransport) notifyAbort(cause error) {
	msg := []byte(cause.Error())
	r := t.world.localRanks[0]
	for peer, tc := range t.conns[r] {
		if tc == nil || t.conns[peer] != nil { // self, or local: only local ranks have a row
			continue
		}
		e := getEnv()
		e.kind = kindAbort
		e.src, e.wsrc, e.wdst = r, r, peer
		e.data = copyToPooled(msg)
		_ = tc.send(e, FrameDeliver) // best effort: the peer may already be gone
	}
}

// closeGrace bounds what close waits for on behalf of peers: link acks
// still owed to this side, writes a reader still owes the other.
const closeGrace = time.Second

// close is the transport's MPI_Finalize. The local ranks have returned,
// but their last frames may not have been acknowledged yet, and a reader
// that has just matched a rendezvous message wakes the receiver before it
// writes the acknowledgement a peer process's send is waiting on. So:
// let the reliable links drain, expire the reads instead of closing under
// the readers, let each finish the frame it is delivering (its writes
// bounded, in case the peer has stopped reading), then close.
func (t *socketTransport) close() error {
	closeListeners(t.listeners)
	grace := time.Now().Add(closeGrace)
	if !t.world.aborted.Load() { // an aborted world owes nobody delivery
		t.eachConn(func(tc *tcpConn) { tc.awaitAcks(grace) })
	}
	t.eachConn(func(tc *tcpConn) {
		// A failure here means the connection is already closed.
		_ = tc.c.SetReadDeadline(time.Now())
		_ = tc.c.SetWriteDeadline(grace)
	})
	t.readers.Wait()
	t.eachConn(func(tc *tcpConn) {
		tc.c.Close()
		tc.shutdownRel()
	})
	return nil
}

func (t *socketTransport) eachConn(f func(*tcpConn)) {
	for _, row := range t.conns {
		for _, tc := range row {
			if tc != nil {
				f(tc)
			}
		}
	}
}

func (t *socketTransport) supportsDeadlockDetection() bool { return false }
