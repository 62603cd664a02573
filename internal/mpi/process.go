package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Multi-process execution: the same rank function runs in np separate OS
// processes connected by a real TCP mesh, the closest stdlib-only
// equivalent of `mpirun -np N ./prog`. The parent process acts as the
// coordinator (it spawns children re-executing the current binary and
// brokers address exchange); each child runs exactly one rank.
//
// Usage:
//
//	worker, err := mpi.RunProcesses(3, "sum", mpi.Programs{
//	    "sum": func(c *mpi.Comm) error { ... },
//	})
//	if worker {
//	    return // this invocation was a child; parent-only code follows
//	}
//
// RunProcesses detects via environment variables whether it is running in
// a child and switches to worker mode, so parent and child share one call
// site. The precise deadlock detector is unavailable (state spans
// processes); a 60-second progress watchdog guards workers instead.

// Programs maps program names to rank functions; parent and children must
// construct the same set.
type Programs map[string]func(*Comm) error

const (
	envRank  = "REPROMPI_RANK"
	envSize  = "REPROMPI_SIZE"
	envCoord = "REPROMPI_COORD"
	envProg  = "REPROMPI_PROG"
)

// ProcOption configures RunProcesses.
type ProcOption func(*procOptions)

type procOptions struct {
	childArgs []string
	timeout   time.Duration
	mpiOpts   []Option
	stdout    io.Writer
	stderr    io.Writer
}

// WithChildArgs appends arguments to the re-executed child command line
// (tests pass -test.run filters here).
func WithChildArgs(args ...string) ProcOption {
	return func(o *procOptions) { o.childArgs = append(o.childArgs, args...) }
}

// WithProcTimeout bounds the whole multi-process run (default 60s).
func WithProcTimeout(d time.Duration) ProcOption {
	return func(o *procOptions) { o.timeout = d }
}

// WithChildOutput redirects the children's stdout and stderr (default:
// the parent's). Tests pass io.Discard to keep logs clean.
func WithChildOutput(stdout, stderr io.Writer) ProcOption {
	return func(o *procOptions) { o.stdout, o.stderr = stdout, stderr }
}

// WithRunOptions forwards runtime options (eager threshold, tracer, …) to
// the worker-side world.
func WithRunOptions(opts ...Option) ProcOption {
	return func(o *procOptions) { o.mpiOpts = append(o.mpiOpts, opts...) }
}

// InWorker reports whether this process is a spawned rank.
func InWorker() bool { return os.Getenv(envRank) != "" }

// RunProcesses executes the named program of ps on np OS processes.
// In the parent it spawns the children and waits; in a child it joins the
// mesh, runs its rank, and returns worker=true so the caller can skip
// parent-only work.
func RunProcesses(np int, name string, ps Programs, opts ...ProcOption) (worker bool, err error) {
	o := procOptions{timeout: 60 * time.Second, stdout: os.Stdout, stderr: os.Stderr}
	for _, opt := range opts {
		opt(&o)
	}
	fn, ok := ps[name]
	if !ok {
		return InWorker(), fmt.Errorf("mpi: no program %q registered", name)
	}
	if InWorker() {
		return true, runWorker(fn, o)
	}
	if np <= 0 {
		return false, fmt.Errorf("mpi: world size %d must be positive", np)
	}
	return false, runCoordinator(np, name, o)
}

// runCoordinator listens for worker registrations, spawns the children,
// brokers the address table, and waits for every child to exit.
func runCoordinator(np int, name string, o procOptions) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("mpi: coordinator listen: %w", err)
	}
	defer ln.Close()

	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("mpi: resolving executable: %w", err)
	}
	cmds := make([]*exec.Cmd, np)
	for r := 0; r < np; r++ {
		args := append(append([]string(nil), os.Args[1:]...), o.childArgs...)
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(),
			envRank+"="+strconv.Itoa(r),
			envSize+"="+strconv.Itoa(np),
			envCoord+"="+ln.Addr().String(),
			envProg+"="+name,
		)
		cmd.Stdout = o.stdout
		cmd.Stderr = o.stderr
		if err := cmd.Start(); err != nil {
			killAll(cmds)
			return fmt.Errorf("mpi: spawning rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}

	// Registration: every child reports "rank addr\n".
	addrs := make([]string, np)
	conns := make([]net.Conn, np)
	deadline := time.Now().Add(o.timeout)
	registered := 0
	for registered < np {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			killAll(cmds)
			return fmt.Errorf("mpi: coordinator accept (after %d/%d registrations): %w", registered, np, err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			conn.Close()
			killAll(cmds)
			return fmt.Errorf("mpi: registration read: %w", err)
		}
		var rank int
		var addr string
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "%d %s", &rank, &addr); err != nil || rank < 0 || rank >= np {
			conn.Close()
			killAll(cmds)
			return fmt.Errorf("mpi: bad registration %q", strings.TrimSpace(line))
		}
		addrs[rank] = addr
		conns[rank] = conn
		registered++
	}
	// Broadcast the address table: one line with all addresses.
	table := strings.Join(addrs, " ") + "\n"
	for r, conn := range conns {
		if _, err := io.WriteString(conn, table); err != nil {
			killAll(cmds)
			return fmt.Errorf("mpi: sending address table to rank %d: %w", r, err)
		}
		conn.Close()
	}

	var firstErr error
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("mpi: rank %d process: %w", r, err)
		}
	}
	return firstErr
}

func killAll(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}

// runWorker joins the mesh described by the environment and runs fn as
// this process's rank.
func runWorker(fn func(*Comm) error, o procOptions) error {
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		return fmt.Errorf("mpi: bad %s: %w", envRank, err)
	}
	np, err := strconv.Atoi(os.Getenv(envSize))
	if err != nil {
		return fmt.Errorf("mpi: bad %s: %w", envSize, err)
	}
	coord := os.Getenv(envCoord)

	// Listen for peers, register with the coordinator, learn the table.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("mpi: worker listen: %w", err)
	}
	defer ln.Close()
	cc, err := dialRetry("tcp", coord, 10*time.Second, o.timeout, nil)
	if err != nil {
		return fmt.Errorf("mpi: dialing coordinator: %w", err)
	}
	if _, err := fmt.Fprintf(cc, "%d %s\n", rank, ln.Addr().String()); err != nil {
		cc.Close()
		return fmt.Errorf("mpi: registering: %w", err)
	}
	line, err := bufio.NewReader(cc).ReadString('\n')
	cc.Close()
	if err != nil {
		return fmt.Errorf("mpi: reading address table: %w", err)
	}
	addrs := strings.Fields(line)
	if len(addrs) != np {
		return fmt.Errorf("mpi: address table has %d entries, want %d", len(addrs), np)
	}

	opts := append([]Option{WithDeadlockDetection(false), WithWatchdog(o.timeout)}, o.mpiOpts...)
	mk := func(w *World) (transport, error) {
		return newProcessTransport(w, rank, addrs, ln)
	}
	return runSingleRank(np, rank, fn, mk, opts...)
}

// runSingleRank is the worker-side variant of run: world of size np, but
// only the given rank executes locally.
func runSingleRank(np, rank int, fn func(*Comm) error, mkTransport func(*World) (transport, error), opts ...Option) error {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	o.detectDeadlock = false // impossible across processes
	w := &World{
		size:         np,
		opts:         o,
		stats:        newWorldStats(np),
		detectCh:     make(chan struct{}, 1),
		detectorDone: make(chan struct{}),
		ctxNext:      2,
		ctxByKey:     make(map[ctxKey]int32),
		windows:      make(map[winKey]*winState),
	}
	close(w.detectorDone)
	w.mailboxes = make([]*mailbox, np)
	for r := 0; r < np; r++ {
		w.mailboxes[r] = newMailbox(r, w)
	}
	w.initFaultState([]int{rank})
	t, err := mkTransport(w)
	if err != nil {
		return err
	}
	w.transport = t
	defer w.drainMailboxes()
	defer t.close()
	if o.watchdogTimeout > 0 {
		w.watchdogCh = make(chan struct{})
		go w.watchdog()
	}
	w.startAux()
	c := newWorldComm(w, rank)
	err = fn(c)
	w.mailboxes[rank].markFinished()
	w.finishedCount.Add(1)
	if err != nil && !errors.Is(err, ErrRankKilled) {
		// Propagate the failure so remote ranks blocked in Recv observe
		// ErrAborted promptly instead of waiting out their watchdogs. A
		// fault-injected kill stays silent: survivors must detect it.
		w.abort(err)
	}
	if w.watchdogCh != nil {
		close(w.watchdogCh)
	}
	w.stopAux()
	if err != nil {
		return fmt.Errorf("rank %d: %w", rank, err)
	}
	if werr := w.stopErr(); werr != nil {
		if cause := w.abortCause(); cause != nil && cause.Error() != werr.Error() {
			return fmt.Errorf("%w (cause: %v)", werr, cause)
		}
		return werr
	}
	return nil
}

// processTransport is the cross-process mesh: this process owns one rank;
// envelopes to every other rank go over its socket.
type processTransport struct {
	world   *World
	myRank  int
	conns   []*tcpConn // indexed by peer rank; nil for self
	lns     net.Listener
	readers sync.WaitGroup
}

// newProcessTransport connects the mesh over the worker's already-open
// listener (the address registered with the coordinator): this rank
// accepts one connection from every lower rank (each opens with a 4-byte
// rank hello), then dials every higher rank. TCP's accept backlog makes
// the sequential order deadlock-free.
func newProcessTransport(w *World, myRank int, addrs []string, ln net.Listener) (transport, error) {
	np := len(addrs)
	t := &processTransport{world: w, myRank: myRank, conns: make([]*tcpConn, np), lns: ln}

	for k := 0; k < myRank; k++ {
		conn, err := ln.Accept()
		if err != nil {
			t.close()
			return nil, fmt.Errorf("mpi: rank %d accepting peer %d of %d: %w", myRank, k+1, myRank, err)
		}
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			t.close()
			return nil, fmt.Errorf("mpi: rank %d peer hello: %w", myRank, err)
		}
		peer := int(binary.LittleEndian.Uint32(hello[:]))
		if peer < 0 || peer >= myRank || t.conns[peer] != nil {
			t.close()
			return nil, fmt.Errorf("mpi: rank %d got bad hello from rank %d", myRank, peer)
		}
		t.conns[peer] = newTCPConn(conn, w.opts.reliableLinks, linkSeed(myRank, peer))
		t.startReader(t.conns[peer])
	}
	for j := myRank + 1; j < np; j++ {
		peer := j
		conn, err := dialRetry("tcp", addrs[j], 10*time.Second, 30*time.Second, func(attempt int, err error) {
			w.emitLifecycle(myRank, LifeRetry, fmt.Sprintf("peer dial %d->%d attempt %d: %v", myRank, peer, attempt, err))
		})
		if err != nil {
			t.close()
			return nil, fmt.Errorf("mpi: rank %d dialing rank %d at %s: %w", myRank, j, addrs[j], err)
		}
		var hello [4]byte
		binary.LittleEndian.PutUint32(hello[:], uint32(myRank))
		if _, err := conn.Write(hello[:]); err != nil {
			t.close()
			return nil, fmt.Errorf("mpi: rank %d hello to rank %d: %w", myRank, j, err)
		}
		t.conns[j] = newTCPConn(conn, w.opts.reliableLinks, linkSeed(myRank, j))
		t.startReader(t.conns[j])
	}
	return t, nil
}

func (t *processTransport) deliver(e *envelope) error {
	if e.wdst == t.myRank {
		t.world.mailboxes[t.myRank].post(e)
		return nil
	}
	tc := t.conns[e.wdst]
	if tc == nil {
		return fmt.Errorf("mpi: no connection to rank %d", e.wdst)
	}
	if tc.rel != nil {
		err := tc.writeReliable(e, t.world.frameVerdict(e))
		putBuf(e.data)
		putEnv(e)
		return err
	}
	if applyFrameFault(t.world, tc, e) {
		return nil
	}
	err := tc.writeEnvelope(e)
	putBuf(e.data)
	putEnv(e)
	return err
}

// notifyAbort forwards a local abort to every peer process so their
// blocked ranks observe ErrAborted promptly (satisfying MPI_Abort's
// whole-world semantics) instead of timing out on their watchdogs.
func (t *processTransport) notifyAbort(cause error) {
	msg := []byte(cause.Error())
	for peer, tc := range t.conns {
		if tc == nil || peer == t.myRank {
			continue
		}
		e := getEnv()
		e.kind = kindAbort
		e.src, e.wsrc, e.wdst = t.myRank, t.myRank, peer
		e.data = copyToPooled(msg)
		_ = tc.writeEnvelope(e) // best effort: the peer may already be gone
		putBuf(e.data)
		putEnv(e)
	}
}

func (t *processTransport) close() error {
	// A reader that has just matched a rendezvous message wakes the
	// receiver before it writes the acknowledgement, so this rank can be
	// done while a reader still owes an ack on its connection — and the
	// peer's send waits on it. Expire the reads instead of closing under
	// the readers, let each finish the frame it is delivering, then close.
	for _, tc := range t.conns {
		if tc != nil {
			_ = tc.c.SetReadDeadline(time.Now()) // a failure here means already closed
		}
	}
	t.readers.Wait()
	for _, tc := range t.conns {
		if tc != nil {
			tc.c.Close()
			tc.shutdownRel()
		}
	}
	if t.lns != nil {
		t.lns.Close()
	}
	return nil
}

func (t *processTransport) supportsDeadlockDetection() bool { return false }

// startReader consumes envelopes from one peer connection via the shared
// pooled frame reader.
func (t *processTransport) startReader(tc *tcpConn) {
	t.readers.Add(1)
	go func() {
		defer t.readers.Done()
		readFrames(bufio.NewReaderSize(tc.c, tcpBufSize), tc, t.world)
	}()
}
