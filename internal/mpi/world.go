package mpi

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ctxKey identifies a communicator created by Split, Shrink or
// RespawnAndRestore so every member rank resolves the same context id.
// A recovery successor is keyed on its agreement (sequence number and
// agreed failed set, ulfm.go) in a negative color band Split never uses.
type ctxKey struct {
	parentCtx int32
	splitSeq  int64
	color     int
	failed    string
}

// World owns the ranks, transport and shared accounting of one program run.
type World struct {
	size      int
	opts      options
	mailboxes []*mailbox
	transport transport // the top of the link stack (run)
	stats     *WorldStats

	// remote is the socket endpoint, through which a local abort reaches
	// ranks hosted by other processes (abortWith). It is nil on the
	// channel endpoint and while the mesh is still being built.
	remote atomic.Pointer[socketTransport]

	// sharedMem is true on the in-process channel transport, whatever
	// layers are stacked on it: the link moves envelope objects, not
	// bytes, and every rank's memory lives in this address space. So
	// one-sided operations may take the direct shared-memory fast path
	// (rma.go) instead of a mailbox round trip, and a rendezvous send
	// lends its slice instead of copying it (lendOrCopy).
	sharedMem bool

	// aborted is set once abortErr holds the first cause the world
	// stopped for: a rank's error, a peer process's abort, the watchdog's
	// diagnostic or the detector's ErrDeadlock.
	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortErr error

	blockedCount  atomic.Int64
	finishedCount atomic.Int64
	detectCh      chan struct{} // wakes the detector; nil when none runs

	// The world's goroutines (run): ranks joins every rank, replacements
	// included, and errs holds their errors (launch); bg joins the
	// background loops, which run until stop closes.
	ranks sync.WaitGroup
	errs  []error
	stop  chan struct{}
	bg    sync.WaitGroup

	seqCounter atomic.Int64 // rendezvous sequence allocator (starts at 1)
	msgCounter atomic.Int64 // flow-id allocator (flowID, hook.go): starts at 1, untouched without a hook

	ctxMu    sync.Mutex
	ctxNext  int32
	ctxByKey map[ctxKey]int32

	// One-sided RMA window registry (rma.go). Keyed by (comm ctx, window
	// sequence), which every member rank derives identically, so the key
	// itself crosses the wire and no global id agreement is needed.
	winMu   sync.Mutex
	windows map[winKey]*winState

	// Fault-tolerance state (fault.go). killed marks ranks crashed by
	// injection: a killed rank's mailbox discards arrivals and its
	// blocked operations return ErrRankKilled. failed/failEpoch are the
	// survivors' view of declared failures, written together under
	// failMu; lastHeard feeds the heartbeat monitor. localRanks lists the
	// ranks this World hosts; only a World hosting all of them can
	// respawn (respawn.go).
	failMu     sync.Mutex
	failed     []bool
	failEpoch  atomic.Int64
	killed     []atomic.Bool
	lastHeard  []atomic.Int64
	localRanks []int

	// collActive counts nonblocking-collective state machines currently
	// mid-step (icoll.go). A background advance runs on a delivering
	// goroutine, outside any rank's blocked census, so the deadlock
	// verdict is unsound while one is in flight.
	collActive atomic.Int64
}

// Run launches fn on np goroutine ranks connected by the in-process channel
// transport and blocks until every rank returns. Rank errors are joined;
// deadlock surfaces as an error wrapping ErrDeadlock.
func Run(np int, fn func(*Comm) error, opts ...Option) error {
	return run(np, nil, fn, nil, opts...)
}

// RunTCP launches fn on np goroutine ranks connected by a full mesh of TCP
// loopback sockets: every envelope crosses a real socket, exercising the
// kernel network path the way a multi-node MPI job would. It is the mesh
// RunProcesses builds, with every rank hosted by this process instead of
// one per OS process. The precise deadlock detector is unavailable over
// sockets (envelopes can be in flight); a 30-second progress watchdog is
// installed unless the caller provides one via WithWatchdog.
func RunTCP(np int, fn func(*Comm) error, opts ...Option) error {
	return run(np, nil, fn, func(w *World, up linkHost) (transport, error) {
		if w.opts.injector != nil && w.opts.heartbeat == 0 {
			// Fault-injection runs need a failure detector: without one a
			// killed rank would only surface through the coarse watchdog.
			w.opts.heartbeat = DefaultHeartbeat
		}
		lns, addrs, err := listenLoopback(np)
		if err != nil {
			return nil, err
		}
		return newSocketTransport(up, w.localRanks, w.opts.reliableLinks, lns, addrs)
	}, opts...)
}

// Programs maps program names to rank functions; parent and children must
// construct the same set.
type Programs map[string]func(*Comm) error

// RunProcesses executes the named program of ps on np OS processes.
// In the parent it spawns the children and waits; in a child it joins the
// mesh, runs its rank, and returns worker=true so the caller can skip
// parent-only work. The mesh is RunTCP's with one rank hosted per process
// instead of all of them in one. Registration and the coordinator dial
// are bounded by a 60-second run timeout, which is also the progress
// watchdog's default (instead of RunTCP's 30 seconds).
func RunProcesses(np int, name string, ps Programs, opts ...ProcOption) (worker bool, err error) {
	o := procOptions{stdout: os.Stdout, stderr: os.Stderr}
	for _, opt := range opts {
		opt(&o)
	}
	fn, ok := ps[name]
	if !ok {
		return InWorker(), fmt.Errorf("mpi: no program %q registered", name)
	}
	if InWorker() {
		return true, runWorker(func(rank int, lns []net.Listener, addrs []*net.TCPAddr) error {
			opts := append([]Option{WithWatchdog(procTimeout)}, o.mpiOpts...)
			return run(len(addrs), []int{rank}, fn, func(w *World, up linkHost) (transport, error) {
				return newSocketTransport(up, w.localRanks, w.opts.reliableLinks, lns, addrs)
			}, opts...)
		})
	}
	if np <= 0 {
		return false, fmt.Errorf("mpi: world size %d must be positive", np)
	}
	return false, runCoordinator(np, name, o)
}

// run is the one place a World is built, watched and torn down, shared by
// Run, RunTCP and the RunProcesses worker. local lists the ranks of the
// np-rank world that execute in this World (nil: all of them); the rest
// are reached through the transport. mkTransport, when non-nil, builds
// that transport's endpoint once the mailboxes and local-rank set exist,
// handing its arrivals to up; nil selects the in-process channel
// endpoint.
func run(np int, local []int, fn func(*Comm) error, mkTransport func(w *World, up linkHost) (transport, error), opts ...Option) error {
	if np <= 0 {
		return fmt.Errorf("mpi: world size %d must be positive", np)
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if local == nil {
		local = make([]int, np)
		for r := range local {
			local[r] = r
		}
	}
	w := &World{
		size:     np,
		opts:     o,
		stats:    newWorldStats(np),
		errs:     make([]error, 2*np),
		stop:     make(chan struct{}),
		ctxNext:  2, // 0/1 are the world's user/collective contexts
		ctxByKey: make(map[ctxKey]int32),
		windows:  make(map[winKey]*winState),
	}
	w.mailboxes = make([]*mailbox, np)
	for r := 0; r < np; r++ {
		w.mailboxes[r] = newMailbox(r, w)
	}
	w.initFaultState(local)
	// The endpoint hands its arrivals to the World, or with reliable
	// links to the ARQ's receive half in front of it.
	var up linkHost = w
	var arq *arqLayer // nil without WithReliableLinks
	if w.opts.reliableLinks {
		arq = newARQ(w, np, local)
		up = arq
	}
	var end transport
	if mkTransport == nil {
		end = &channelTransport{up: up, np: np}
	} else {
		var err error
		if end, err = mkTransport(w, up); err != nil {
			return err
		}
	}
	if s, ok := end.(*socketTransport); ok {
		w.remote.Store(s)
	}
	// sharedMem is the endpoint's property whatever is stacked on it:
	// RMA's direct path is a window-memory access, not a wire crossing.
	_, w.sharedMem = end.(*channelTransport)
	// The link stack, top to bottom: latency, reliable links, frame
	// faults, endpoint. Each layer exists only when its option is set,
	// so a clean world hands envelopes to its endpoint directly.
	w.transport = withLatency(w.opts.linkLatency, np, arq.over(withFrameFaults(w.opts.injector, w, np, end), end))
	// The precise deadlock detector is sound only on a bare channel
	// endpoint. A socket, the latency pipe, an ARQ window and a held or
	// delayed fault frame can each hold an envelope invisibly in flight
	// while every rank is blocked; there a progress watchdog stands in.
	precise := w.sharedMem && w.transport == end
	if w.opts.watchdogTimeout == 0 && !precise {
		w.opts.watchdogTimeout = defaultWatchdog
	}
	// LIFO: the transport closes first (readers drain), then leftover
	// queued envelopes — orphaned by kills and recoveries — return to
	// the pool so leak checks balance.
	defer w.drainMailboxes()
	defer w.transport.close()

	// The background loops run until every rank has returned, and all
	// of them have ended before the link stack closes.
	if w.opts.detectDeadlock && precise {
		w.detectCh = make(chan struct{}, 1)
		w.bg.Add(1)
		go w.detector()
	}
	if d := w.opts.watchdogTimeout; d > 0 {
		every(&w.bg, w.stop, d, w.watchdog())
	}
	if d := w.opts.opTimeout; d > 0 {
		// Wake every blocked rank so its wait re-checks its deadline.
		every(&w.bg, w.stop, tickPeriod(d), w.broadcastAll)
	}
	if d := w.opts.heartbeat; d > 0 {
		// Two loops: a sender stalled on a congested link must not stall
		// the monitor, which may be about to declare that link's peer
		// failed.
		every(&w.bg, w.stop, tickPeriod(d), w.sendHeartbeats)
		every(&w.bg, w.stop, tickPeriod(d), w.heartbeatMonitor())
	}
	for _, r := range local {
		w.launch(r, nil, fn)
	}
	w.ranks.Wait()
	close(w.stop)
	w.bg.Wait()

	errs := w.errs
	if cause := w.abortCause(); cause != nil {
		// Surface the abort cause (deadlock, watchdog diagnostic, remote
		// abort) unless some rank already returned it: blocked ranks
		// return wrapped ErrDeadlock errors, but a rank may swallow one.
		dup := false
		for _, e := range errs {
			if e != nil && errors.Is(e, cause) {
				dup = true
				break
			}
		}
		if !dup {
			errs = append(errs, cause)
		}
	}
	return errors.Join(errs...)
}

// launch starts the goroutine of world rank r running fn: an original
// rank (run; c is nil and the goroutine builds its world handle) or a
// replacement (spawnReplacement; c is its handle on the rebuilt
// communicator). Both join w.ranks and end alike, so the detector and
// the teardown treat a replacement exactly like the rank it stands in
// for. A rank's error
// goes to its slot of w.errs: the originals' np slots in rank order,
// then one slot per rank for its replacements. The goroutines that
// occupy one rank run one after another (resetRank waits for the last
// to finish), so a slot has one writer at a time.
func (w *World) launch(r int, c *Comm, fn func(*Comm) error) {
	slot, label := r, "rank"
	if c != nil {
		slot, label = w.size+r, "respawned rank"
	}
	w.ranks.Add(1)
	go func() {
		defer w.ranks.Done()
		h := c // assigning c itself would move it to a heap cell of its own
		if h == nil {
			h = newWorldComm(w, r)
		}
		err := fn(h)
		if err != nil {
			w.errs[slot] = errors.Join(w.errs[slot], fmt.Errorf("%s %d: %w", label, r, err))
		}
		w.mailboxes[r].markFinished()
		w.finishedCount.Add(1)
		w.signalDetector()
		// A fault-injected kill simulates a crash: the survivors detect
		// and handle it; the world must not abort. Any other failure
		// aborts it, remote ranks included, so ranks blocked in Recv
		// observe ErrAborted instead of their watchdogs.
		if err != nil && !errors.Is(err, ErrRankKilled) {
			w.abort(err)
		}
	}()
}

// drainMailboxes recycles envelopes still queued after the world ends:
// unexpected arrivals nobody received (orphaned by kills, aborts and
// recoveries) and unclaimed replies, such as a fetch that arrived after
// its wait timed out. Runs after the transport has closed, so no reader
// can post concurrently; it keeps the buffer pool's in-flight gauge
// balanced for leak checks.
func (w *World) drainMailboxes() {
	for _, mb := range w.mailboxes {
		mb.mu.Lock()
		mb.discardLocked()
		mb.mu.Unlock()
	}
}

// arrive is the end of the arrival path, where the link stack and
// World.deliver hand every inbound envelope. Any traffic proves its
// sender alive; a heartbeat carries nothing else, a peer's abort stops
// this World, and a one-sided request is served here; everything else
// goes to the destination mailbox's matching engine.
func (w *World) arrive(e *envelope) {
	if w.opts.heartbeat > 0 {
		w.noteHeard(e.wsrc)
	}
	switch e.kind {
	case kindHeartbeat:
		// Pure liveness signal: absorb and recycle (heartbeats never
		// carry a payload).
		relHeartbeatsReceived.Add(1)
		putEnv(e)
		return
	case kindAbort:
		// A peer process aborted its world; mirror it here so locally
		// blocked ranks observe ErrAborted promptly. Handled before any
		// mailbox lock: abortRemote broadcasts on every mailbox.
		msg := string(e.data)
		src := e.wsrc
		putBuf(e.data)
		putEnv(e)
		w.abortRemote(fmt.Errorf("%w: remote rank %d: %s", ErrAborted, src, msg))
		return
	case kindRMAReq:
		// One-sided operations — a batch of Put/Accumulate or a single
		// reply-needing op: serviced here, on the delivering goroutine —
		// the per-window progress engine — without involving the target
		// rank's application thread and before any mailbox lock (the
		// handler replies through deliver, which takes mailbox locks).
		w.handleRMAReq(w.mailboxes[e.wdst], e)
		return
	case kindData:
		if w.hooked() {
			// Receiver-side arrival stamp for queue-latency attribution;
			// taken before the lock so lock contention is not charged to
			// the queue.
			e.arrived = time.Now()
		}
	}
	w.mailboxes[e.wdst].post(e)
}

// deliver is the one entry every application envelope passes: data,
// rendezvous acks and one-sided traffic. A killed sender's envelopes are
// discarded, since a crashed rank sends nothing; the rest are counted,
// and a self-send, which crosses no link, arrives here at once while
// everything else enters the link stack.
func (w *World) deliver(e *envelope) error {
	if w.isKilled(e.wsrc) {
		dropEnv(e)
		return ErrRankKilled
	}
	w.stats.addWire(e.wsrc, e.wdst, e.wireBytes())
	if e.wsrc == e.wdst {
		w.arrive(e)
		return nil
	}
	return w.transport.deliver(e)
}

// reclaimLent detaches the view lent by rendezvous send seq from world
// rank wsrc to wdst, which failed before its ack. Wherever the envelope
// still waits unmatched — on the latency pipe or in the destination's
// unexpected queue — its payload becomes a pooled copy (claim), so the
// message can still be received but nothing reads the sender's slice
// after the send returns. A matched envelope was copied at its match,
// under the same lock; a dropped one was never recycled (dropEnv).
func (w *World) reclaimLent(wsrc, wdst int, seq int64) {
	if lt, ok := w.transport.(*latencyTransport); ok {
		lt.reclaim(wsrc, seq)
	}
	mb := w.mailboxes[wdst]
	mb.mu.Lock()
	for _, e := range mb.unexpected {
		if e.lent && e.seq == seq {
			claim(e, nil)
		}
	}
	mb.mu.Unlock()
}

// nextSeq allocates a rendezvous sequence number. Sequence 0 means "no ack
// required", so allocation starts at 1.
func (w *World) nextSeq() int64 { return w.seqCounter.Add(1) }

// ctxFor returns the stable context id pair (user, collective) for a Split
// product. Every member rank passes the same key and observes the same id.
func (w *World) ctxFor(key ctxKey) int32 {
	w.ctxMu.Lock()
	defer w.ctxMu.Unlock()
	if id, ok := w.ctxByKey[key]; ok {
		return id
	}
	id := w.ctxNext
	w.ctxNext += 2
	w.ctxByKey[key] = id
	return id
}

// abort stops the world: every blocked rank returns ErrAborted. A
// locally-originated abort is forwarded to the ranks other processes
// host, each of which has its own World: without it a remote rank
// blocked in Recv would only learn of the abort from its watchdog.
func (w *World) abort(cause error) { w.abortWith(cause, true) }

// abortRemote records an abort learned from a peer process; it is not
// re-forwarded.
func (w *World) abortRemote(cause error) { w.abortWith(cause, false) }

func (w *World) abortWith(cause error, local bool) {
	w.abortMu.Lock()
	first := w.abortErr == nil
	if first {
		w.abortErr = cause
	}
	w.abortMu.Unlock()
	w.aborted.Store(true)
	if s := w.remote.Load(); first && local && s != nil {
		s.notifyAbort(cause)
	}
	w.broadcastAll()
}

// abortCause returns the first abort error recorded, or nil, taking no
// lock until the world has stopped.
func (w *World) abortCause() error {
	if !w.aborted.Load() {
		return nil
	}
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// stopErr reports why blocked operations must give up, or nil: ErrDeadlock
// if the world stopped for a deadlock, ErrAborted for any other cause.
// Like abortCause, it takes no lock while the world runs.
func (w *World) stopErr() error {
	cause := w.abortCause()
	if cause == nil {
		return nil
	}
	if errors.Is(cause, ErrDeadlock) {
		return ErrDeadlock
	}
	return ErrAborted
}

func (w *World) broadcastAll() {
	for _, mb := range w.mailboxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// noteBlocked and noteUnblocked maintain the blocked-rank census and poke
// the detector when every active rank is parked.
func (w *World) noteBlocked() {
	n := w.blockedCount.Add(1)
	if n+w.finishedCount.Load() >= int64(w.size) {
		w.signalDetector()
	}
}

func (w *World) noteUnblocked() { w.blockedCount.Add(-1) }

func (w *World) signalDetector() {
	select {
	case w.detectCh <- struct{}{}:
	default:
	}
}

// detector is the deadlock-detection goroutine. It wakes when the blocked
// census suggests everyone is parked, then re-verifies under every mailbox
// lock: the verdict is sound because any state transition requires the
// owning mailbox's mutex, all of which the detector holds. It runs until
// the ranks have returned, the world aborts or it finds a deadlock.
func (w *World) detector() {
	defer w.bg.Done()
	for {
		select {
		case <-w.stop:
			return
		case <-w.detectCh:
		}
		if w.aborted.Load() {
			return
		}
		if w.blockedCount.Load()+w.finishedCount.Load() < int64(w.size) {
			continue
		}
		if w.verifyDeadlock() {
			w.abort(ErrDeadlock)
			return
		}
	}
}

// verifyDeadlock takes every mailbox lock in rank order and checks that at
// least one rank is waiting and none can make progress.
func (w *World) verifyDeadlock() bool {
	for _, mb := range w.mailboxes {
		mb.mu.Lock()
	}
	defer func() {
		for _, mb := range w.mailboxes {
			mb.mu.Unlock()
		}
	}()
	if w.collActive.Load() > 0 {
		// A collective state machine is mid-step on some delivering
		// goroutine: progress is happening outside the blocked census.
		return false
	}
	anyWaiting := false
	epoch := w.failEpoch.Load()
	for _, mb := range w.mailboxes {
		if mb.finished || w.isKilled(mb.rank) {
			continue
		}
		// A running rank (waitNone) is ready; a waiting one behind the
		// failure epoch observes a RankFailedError as soon as it
		// re-checks its wait predicate: neither is a deadlock.
		if mb.ready(&mb.waiting) || mb.failAck.Load() < epoch {
			return false
		}
		anyWaiting = true
	}
	return anyWaiting
}

// defaultWatchdog is the progress watchdog run installs when the link
// stack cannot support the precise deadlock detector and the caller set
// no WithWatchdog.
const defaultWatchdog = 30 * time.Second

// watchdog returns the progress watchdog's tick, run every configured
// timeout: it aborts the world when no envelope was delivered since the
// last tick (the accounting's message count did not move) while a rank
// is blocked. It is the coarse substitute for the precise detector
// wherever envelopes can be invisibly in flight.
func (w *World) watchdog() func() {
	var last int64 // run builds the watchdog before any rank can deliver
	return func() {
		cur := w.stats.Snapshot().TotalMsgs
		if cur == last && w.blockedCount.Load() > 0 && !w.aborted.Load() {
			w.abort(fmt.Errorf("mpi: watchdog: no progress for %v; %s", w.opts.watchdogTimeout, w.blockedSnapshot()))
		}
		last = cur
	}
}
