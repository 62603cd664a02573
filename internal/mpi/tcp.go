package mpi

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"
)

// tcpBufSize sizes each connection's read buffer. A frame averages a
// few hundred bytes, so 4 KiB batches many small frames per read; a
// payload longer than the buffer is read straight into its own pooled
// buffer once the buffered bytes run out.
const tcpBufSize = 4 << 10

// readerPool recycles connection readers across worlds: a mesh of np
// ranks has np·(np−1) connection ends, each reading through a 4 KiB
// buffer. It keeps at most 64 readers (256 KiB), every reader of an
// 8-rank mesh.
var readerPool = freeList[*bufio.Reader]{max: 64}

// maxPayloadLen caps a frame's declared payload so a corrupt or hostile
// length prefix cannot drive an arbitrarily large allocation.
const maxPayloadLen = 1 << 30

// trustedPayloadLen is the largest payload readFrame allocates in full
// before reading it. A longer one grows its buffer as its bytes arrive,
// so a header that declares more than the stream holds costs memory in
// proportion to the bytes that did arrive, not to the declared length.
const trustedPayloadLen = 64 << 10

// linkPrefixLen is the link prefix every frame of a world with reliable
// links starts with: the envelope's link sequence number and checksum
// (reliable.go). Without reliable links frames start with the length.
//
//	[8B lseq][4B crc]  (reliable links only)
//	[4B frame length][envelope header][payload]
const linkPrefixLen = 8 + 4

// errBadFrame marks a frame whose framing itself is broken: no later
// frame on the stream can be trusted, so the reader aborts the world.
var errBadFrame = errors.New("mpi: bad wire frame")

// tcpConn serializes concurrent senders onto one stream. Each frame goes
// out in one vectored write (writev on a socket) of two pieces — the
// prefix, length and header from the connection's scratch buffer, then
// the payload as it is — so a send neither copies the payload nor
// allocates. Frames are not coalesced: almost every send finds no other
// queued on its connection. The first failed write poisons the
// connection: its frame may be torn, so every later send returns that
// error and writes nothing.
type tcpConn struct {
	mu   sync.Mutex
	w    io.Writer // the socket; any stream in tests
	c    net.Conn
	err  error                                       // first write error; guarded by mu
	iov  [2][]byte                                   // the frame's two pieces while it is written; guarded by mu
	vec  net.Buffers                                 // the write's cursor over iov, here so it stays off the heap; guarded by mu
	hdr  [linkPrefixLen + 4 + envelopeHeaderLen]byte // guarded by mu
	rhdr [linkPrefixLen + 4 + envelopeHeaderLen]byte // the reader's header scratch; the reader goroutine's alone
	pre  int                                         // link prefix bytes per frame: linkPrefixLen or 0
}

// send writes e's frame and consumes e: its journey ends at the socket
// (the receiver materializes a fresh one), so the payload buffer and the
// envelope return to their pools here.
func (tc *tcpConn) send(e *envelope) error {
	tc.mu.Lock()
	if tc.err == nil {
		h := tc.hdr[:tc.pre+4+envelopeHeaderLen]
		if tc.pre > 0 {
			binary.LittleEndian.PutUint64(h[0:], e.lseq)
			binary.LittleEndian.PutUint32(h[8:], e.crc)
		}
		binary.LittleEndian.PutUint32(h[tc.pre:], uint32(envelopeHeaderLen+len(e.data)))
		putHeader(h[tc.pre+4:], e)
		tc.iov = [2][]byte{h, e.data}
		tc.vec = tc.iov[:]
		_, tc.err = tc.vec.WriteTo(tc.w)
		tc.iov = [2][]byte{} // the payload goes back to the pool below
	}
	err := tc.err
	tc.mu.Unlock()
	putBuf(e.data)
	putEnv(e)
	return err
}

// readFrame reads one frame of a world of np ranks off r. The prefix,
// length and header land in hdr (pre+4+envelopeHeaderLen bytes) and the
// payload is read directly into a pooled buffer (readPayload) — the
// frame is never materialized as a whole. io.ReadFull takes hdr through
// an interface, so it lives on the heap: the reader loop passes its
// connection's scratch (tcpConn.rhdr) instead of allocating one per
// frame. A stream error is returned as is; a frame whose framing is
// broken wraps errBadFrame.
func readFrame(r *bufio.Reader, hdr []byte, pre, np int) (*envelope, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	e := getEnv()
	if pre > 0 {
		e.lseq = binary.LittleEndian.Uint64(hdr[0:])
		e.crc = binary.LittleEndian.Uint32(hdr[8:])
	}
	frameLen := binary.LittleEndian.Uint32(hdr[pre:])
	payloadLen := parseHeader(hdr[pre+4:], e)
	var err error
	switch {
	case frameLen < envelopeHeaderLen || frameLen-envelopeHeaderLen > maxPayloadLen || payloadLen != int(frameLen-envelopeHeaderLen):
		err = fmt.Errorf("%w: %d payload bytes declared in a %d-byte frame", errBadFrame, payloadLen, frameLen)
	case e.wsrc < 0 || e.wsrc >= np || e.wdst < 0 || e.wdst >= np:
		err = fmt.Errorf("%w: envelope %d->%d outside a world of %d ranks", errBadFrame, e.wsrc, e.wdst, np)
	}
	if err != nil {
		putEnv(e)
		return nil, err
	}
	if payloadLen > 0 {
		if e.data, err = readPayload(r, payloadLen); err != nil {
			putEnv(e)
			return nil, err
		}
	}
	return e, nil
}

// readPayload reads an n-byte payload into a pooled buffer. Up to
// trustedPayloadLen it is one exactly-sized read, so the bytes are
// written once; a longer payload doubles its buffer each time the last
// one fills.
func readPayload(r io.Reader, n int) ([]byte, error) {
	b := getBuf(min(n, trustedPayloadLen))
	filled := 0
	for {
		if _, err := io.ReadFull(r, b[filled:]); err != nil {
			putBuf(b)
			return nil, err
		}
		if len(b) == n {
			return b, nil
		}
		filled = len(b)
		grown := getBuf(min(2*filled, n))
		copy(grown, b)
		putBuf(b)
		b = grown
	}
}

// socketTransport is a full mesh of TCP connections between the np ranks
// of a world, of which the ranks in local live in this process.
// conns[r][p] is the connection local rank r uses to send to rank p (rows
// exist for local ranks only); every connection has one reader that hands
// parsed envelopes up. RunTCP is the mesh with every rank local, a
// RunProcesses worker the mesh with one.
type socketTransport struct {
	up        linkHost
	local     []int
	pre       int            // link prefix bytes per frame: linkPrefixLen with reliable links, else 0
	listeners []net.Listener // by rank; nil for a rank hosted elsewhere
	conns     [][]*tcpConn   // [src][dst]
	readers   sync.WaitGroup
}

// loopback is the address every rank's listener binds; port 0 lets the
// kernel pick a free port. Listening and dialing *net.TCPAddr values
// keeps the mesh build off the resolver.
var loopback = &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)}

// listenLoopback opens one loopback listener per rank and returns them
// with the address table they form.
func listenLoopback(np int) ([]net.Listener, []*net.TCPAddr, error) {
	lns := make([]net.Listener, np)
	addrs := make([]*net.TCPAddr, np)
	for r := range lns {
		ln, err := net.ListenTCP("tcp", loopback)
		if err != nil {
			closeListeners(lns)
			return nil, nil, fmt.Errorf("mpi: tcp listen for rank %d: %w", r, err)
		}
		lns[r], addrs[r] = ln, ln.Addr().(*net.TCPAddr)
	}
	return lns, addrs, nil
}

// parseListenAddr parses one address-table entry: the ip:port literal
// of a loopback listener, as listenLoopback and a worker open them. Anything else fails
// here, before a dial could retry it for the whole budget.
func parseListenAddr(s string) (*net.TCPAddr, error) {
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		return nil, err
	}
	if !ap.Addr().IsLoopback() || ap.Port() == 0 {
		return nil, fmt.Errorf("%s is not a loopback listener's address", s)
	}
	return net.TCPAddrFromAddrPort(ap), nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// newSocketTransport connects the local ranks into the mesh described by
// addrs (every rank's listen address, so len(addrs) ranks in all) over
// lns (the local ranks' already-open listeners, which the transport now
// owns), handing arrivals to up. With reliable links every frame carries
// the ARQ's link prefix. The first rank to fail stops the others: every
// listener and established connection is closed and every connect and
// reader goroutine has exited before the error is returned.
func newSocketTransport(up linkHost, local []int, reliable bool, lns []net.Listener, addrs []*net.TCPAddr) (*socketTransport, error) {
	t := &socketTransport{up: up, local: local, listeners: lns, conns: make([][]*tcpConn, len(addrs))}
	if reliable {
		t.pre = linkPrefixLen
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for _, r := range local {
		t.conns[r] = make([]*tcpConn, len(addrs))
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
func (t *socketTransport) connect(ctx context.Context, r int, addrs []*net.TCPAddr) error {
	var hello [4]byte
	for peer := r + 1; peer < len(addrs); peer++ {
		conn, err := dialRetry(ctx, addrs[peer], 30*time.Second, func(attempt int, err error) {
			t.up.emitLifecycle(r, LifeRetry, fmt.Sprintf("mesh dial %d->%d attempt %d: %v", r, peer, attempt, err))
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

// startReader records c as rank r's connection to peer and starts the
// goroutine that hands the envelopes arriving on it up. Which rank sent
// them is carried inside each envelope, so one reader per connection
// suffices. The goroutine's bufio.Reader comes from readerPool and goes
// back when the connection ends.
func (t *socketTransport) startReader(r, peer int, c net.Conn) {
	tc := &tcpConn{w: c, c: c, pre: t.pre}
	t.conns[r][peer] = tc
	t.readers.Add(1)
	go func() {
		defer t.readers.Done()
		br := readerPool.get()
		if br == nil {
			br = bufio.NewReaderSize(c, tcpBufSize)
		} else {
			br.Reset(c)
		}
		defer func() {
			// Drops the buffered bytes: readFrame copied out every frame it returned.
			br.Reset(nil)
			readerPool.put(br)
		}()
		hdr := tc.rhdr[:tc.pre+4+envelopeHeaderLen]
		for {
			e, err := readFrame(br, hdr, tc.pre, len(t.conns))
			if err != nil {
				if errors.Is(err, errBadFrame) {
					t.up.abort(err)
				}
				return // connection closed
			}
			t.up.arrive(e)
		}
	}()
}

func (t *socketTransport) deliver(e *envelope) error {
	var tc *tcpConn
	if row := t.conns[e.wsrc]; row != nil {
		tc = row[e.wdst]
	}
	if tc == nil {
		return fmt.Errorf("mpi: no connection %d→%d", e.wsrc, e.wdst)
	}
	return tc.send(e)
}

// notifyAbort forwards a local abort to every rank hosted by another
// process so its blocked ranks observe ErrAborted promptly (satisfying
// MPI_Abort's whole-world semantics) instead of timing out on their
// watchdogs. Local peers share this World and have already been woken.
// It writes to the socket directly (abortWith): an abort is not
// application traffic for the link stack to delay or sequence.
func (t *socketTransport) notifyAbort(cause error) {
	msg := []byte(cause.Error())
	r := t.local[0]
	for peer, tc := range t.conns[r] {
		if tc == nil || t.conns[peer] != nil { // self, or local: only local ranks have a row
			continue
		}
		e := getEnv()
		e.kind = kindAbort
		e.src, e.wsrc, e.wdst = r, r, peer
		e.data = copyToPooled(msg)
		_ = tc.send(e) // best effort: the peer may already be gone
	}
}

// closeGrace bounds what close waits for on behalf of peers: link acks
// still owed to this side (reliable.go), writes a reader still owes the
// other.
const closeGrace = time.Second

// close is the transport's MPI_Finalize. The local ranks have returned,
// and with reliable links the layer above has already let its windows
// drain. But a reader that has just matched a rendezvous message wakes
// the receiver before it writes the acknowledgement a peer process's send
// is waiting on. So: expire the reads instead of closing under the
// readers, let each finish the frame it is delivering (its writes
// bounded, in case the peer has stopped reading), then close.
func (t *socketTransport) close() error {
	closeListeners(t.listeners)
	grace := time.Now().Add(closeGrace)
	t.eachConn(func(tc *tcpConn) {
		// A failure here means the connection is already closed.
		_ = tc.c.SetReadDeadline(time.Now())
		_ = tc.c.SetWriteDeadline(grace)
	})
	t.readers.Wait()
	t.eachConn(func(tc *tcpConn) { tc.c.Close() })
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

// dialRetry dials addr with bounded exponential backoff: the whole
// sequence is limited to total, and cancelling ctx abandons it between
// attempts. An attempt is a plain connect, without a deadline context:
// addr is a loopback listener's, which accepts or refuses it at once.
// onRetry, when non-nil, observes every failed attempt before its
// backoff sleep.
func dialRetry(ctx context.Context, addr *net.TCPAddr, total time.Duration, onRetry func(attempt int, err error)) (net.Conn, error) {
	deadline := time.Now().Add(total)
	backoff := 25 * time.Millisecond
	for attempt := 1; ; attempt++ {
		if time.Until(deadline) <= 0 {
			return nil, fmt.Errorf("mpi: dial %s: retry budget %v exhausted after %d attempts", addr, total, attempt-1)
		}
		conn, err := net.DialTCP("tcp", nil, addr)
		if err == nil {
			return conn, nil
		}
		if time.Until(deadline) <= backoff {
			return nil, fmt.Errorf("mpi: dial %s: %w (after %d attempts)", addr, err, attempt)
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("mpi: dial %s: %w (after %d attempts: %v)", addr, ctx.Err(), attempt, err)
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}
