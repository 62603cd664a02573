package mpi

import (
	"bufio"
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
// kernel network path the way a multi-node MPI job would. The precise
// deadlock detector is unavailable over TCP (envelopes can be in flight);
// a 30-second progress watchdog is installed unless the caller provides
// one via WithWatchdog.
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
	return run(np, fn, newTCPTransport, opts...)
}

// tcpBufSize sizes the per-connection bufio reader and writer. 64 KiB
// holds a full eager burst (many small frames) or one large-payload write
// without an intermediate syscall.
const tcpBufSize = 64 << 10

// maxPayloadLen caps a frame's declared payload so a corrupt or hostile
// length prefix cannot drive an arbitrarily large allocation.
const maxPayloadLen = 1 << 30

// tcpTransport is a full mesh of loopback connections. conns[i][j] is the
// connection rank i uses to send to rank j; each rank runs one reader per
// inbound connection that posts parsed envelopes to the rank's mailbox.
type tcpTransport struct {
	world     *World
	listeners []net.Listener
	conns     [][]*tcpConn // [src][dst]
	readers   sync.WaitGroup
	closed    chan struct{}
}

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
// untouched. rawHeld is the FrameReorder holdback on a raw link: one
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

func (tc *tcpConn) writeEnvelope(e *envelope) error {
	if tc.rel != nil {
		return tc.writeReliable(e, FrameDeliver)
	}
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
// releases the holdback after its own bytes). The envelope is consumed.
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
	putBuf(e.data)
	putEnv(e)
}

// readFrames consumes frames from one connection and posts them to the
// destination mailboxes until the connection closes. On a reliable link
// (tc.rel non-nil) traffic is link-framed and flows through the ARQ
// reader; otherwise frames are bare and forwarded as-is. Shared by the
// loopback-mesh and multi-process transports.
func readFrames(r *bufio.Reader, tc *tcpConn, w *World) {
	if tc != nil && tc.rel != nil {
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

// newTCPTransport builds the mesh: one listener per rank, then rank i
// dials every rank j > i; each established connection carries a one-byte
// hello identifying the dialer so both sides agree on direction.
func newTCPTransport(w *World) (transport, error) {
	np := w.size
	t := &tcpTransport{
		world:     w,
		listeners: make([]net.Listener, np),
		conns:     make([][]*tcpConn, np),
		closed:    make(chan struct{}),
	}
	for r := 0; r < np; r++ {
		t.conns[r] = make([]*tcpConn, np)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("mpi: tcp listen for rank %d: %w", r, err)
		}
		t.listeners[r] = ln
	}

	type dialed struct {
		from, to int
		conn     net.Conn
		err      error
	}
	results := make(chan dialed, np*np)
	// Accept loops: rank j accepts np-1-j... actually rank j accepts one
	// connection from every lower rank i < j.
	var acceptWG sync.WaitGroup
	for j := 0; j < np; j++ {
		expect := j // ranks 0..j-1 dial rank j
		if expect == 0 {
			continue
		}
		acceptWG.Add(1)
		go func(j, expect int) {
			defer acceptWG.Done()
			for k := 0; k < expect; k++ {
				conn, err := t.listeners[j].Accept()
				if err != nil {
					results <- dialed{to: j, err: err}
					return
				}
				var hello [4]byte
				if _, err := io.ReadFull(conn, hello[:]); err != nil {
					results <- dialed{to: j, err: err}
					return
				}
				from := int(binary.LittleEndian.Uint32(hello[:]))
				results <- dialed{from: from, to: j, conn: conn}
			}
		}(j, expect)
	}
	// Dialers.
	var dialWG sync.WaitGroup
	for i := 0; i < np; i++ {
		for j := i + 1; j < np; j++ {
			dialWG.Add(1)
			go func(i, j int) {
				defer dialWG.Done()
				conn, err := dialRetry("tcp", t.listeners[j].Addr().String(), 5*time.Second, 15*time.Second, func(attempt int, err error) {
					w.emitLifecycle(i, LifeRetry, fmt.Sprintf("mesh dial %d->%d attempt %d: %v", i, j, attempt, err))
				})
				if err != nil {
					results <- dialed{from: i, to: j, err: err}
					return
				}
				var hello [4]byte
				binary.LittleEndian.PutUint32(hello[:], uint32(i))
				if _, err := conn.Write(hello[:]); err != nil {
					results <- dialed{from: i, to: j, err: err}
					return
				}
				// The dialer records its side immediately; the acceptor
				// side is recorded by the accept loop's result.
				results <- dialed{from: i, to: j, conn: conn, err: errDialerSide}
			}(i, j)
		}
	}

	need := np * (np - 1) // one record per direction endpoint
	reliable := w.opts.reliableLinks
	for k := 0; k < need; k++ {
		d := <-results
		if d.err == errDialerSide {
			tc := newTCPConn(d.conn, reliable, linkSeed(d.from, d.to))
			t.conns[d.from][d.to] = tc
			t.startReader(tc)
			continue
		}
		if d.err != nil {
			t.close()
			return nil, fmt.Errorf("mpi: tcp mesh: %w", d.err)
		}
		tc := newTCPConn(d.conn, reliable, linkSeed(d.to, d.from))
		t.conns[d.to][d.from] = tc
		t.startReader(tc)
	}
	dialWG.Wait()
	acceptWG.Wait()
	return t, nil
}

// linkSeed derives the deterministic retransmit-jitter seed of the
// (src → dst) link endpoint.
func linkSeed(src, dst int) int64 { return int64(src)*1_000_003 + int64(dst) }

// errDialerSide is an internal sentinel marking the dialer's half of a
// connection handshake result.
var errDialerSide = fmt.Errorf("mpi: internal: dialer side")

// startReader consumes envelopes arriving on tc's socket and posts them
// to the destination mailboxes. Which peer sent them is carried inside
// each envelope, so one reader per connection suffices. The reader is
// paired with tc — the writer half of the same socket — so link acks it
// emits travel back to the peer whose ARQ window covers this traffic.
func (t *tcpTransport) startReader(tc *tcpConn) {
	t.readers.Add(1)
	go func() {
		defer t.readers.Done()
		readFrames(bufio.NewReaderSize(tc.c, tcpBufSize), tc, t.world)
	}()
}

func (t *tcpTransport) deliver(e *envelope) error {
	if e.wdst == e.wsrc {
		// Self-sends short-circuit the socket.
		t.world.mailboxes[e.wdst].post(e)
		return nil
	}
	tc := t.conns[e.wsrc][e.wdst]
	if tc == nil {
		return fmt.Errorf("mpi: no connection %d→%d", e.wsrc, e.wdst)
	}
	if tc.rel != nil {
		// Reliable link: the injector's verdict applies at the wire
		// level and the ARQ recovers whatever it damages.
		err := tc.writeReliable(e, t.world.frameVerdict(e))
		putBuf(e.data)
		putEnv(e)
		return err
	}
	if applyFrameFault(t.world, tc, e) {
		return nil // frame dropped or held: the bytes never reach the wire here
	}
	err := tc.writeEnvelope(e)
	// The envelope's journey ends at the socket: its bytes are on the
	// wire (the receiver materializes a fresh envelope), so both the
	// payload buffer and the envelope return to their pools here.
	putBuf(e.data)
	putEnv(e)
	return err
}

func (t *tcpTransport) close() error {
	select {
	case <-t.closed:
		return nil
	default:
		close(t.closed)
	}
	for _, ln := range t.listeners {
		if ln != nil {
			ln.Close()
		}
	}
	for _, row := range t.conns {
		for _, tc := range row {
			if tc != nil {
				tc.c.Close()
				tc.shutdownRel()
			}
		}
	}
	t.readers.Wait()
	return nil
}

func (t *tcpTransport) supportsDeadlockDetection() bool { return false }
