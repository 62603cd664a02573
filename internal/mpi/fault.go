package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Fault-injection and failure-detection plane. The runtime models two
// distinct ways a rank can stop participating:
//
//   - a *kill* (deterministic fault injection): the rank's mailbox goes
//     dead, it silently stops sending and acknowledging — the Go-level
//     equivalent of a process crash;
//   - a *failure declaration*: the surviving ranks' view, established
//     either synchronously (channel transport, where the runtime shares
//     one address space) or by heartbeat silence (socket transport).
//
// Survivors observe failures as a RankFailedError from any blocked
// operation, distinct from ErrDeadlock and ErrAborted, and can rebuild a
// smaller world with Comm.Shrink (see ulfm.go).

// ErrRankKilled is the error a fault-injected rank observes from its own
// operations after its kill point: the rank is simulating a crash, so the
// runtime does not abort the world on its behalf.
var ErrRankKilled = errors.New("mpi: rank killed by fault injection")

// ErrTimeout is wrapped by errors returned from blocked operations that
// exceeded the per-operation deadline set with WithOpTimeout.
var ErrTimeout = errors.New("mpi: operation deadline exceeded")

// RankFailedError is returned from blocked operations when one or more
// ranks have been declared failed (ULFM's MPI_ERR_PROC_FAILED). It is
// distinct from ErrDeadlock (no rank can progress) and ErrAborted (a rank
// requested shutdown): the world is still running, and survivors may
// acknowledge the failure and continue on a shrunken communicator.
type RankFailedError struct {
	Ranks []int // world ranks declared failed, ascending
}

func (e *RankFailedError) Error() string {
	if len(e.Ranks) == 1 {
		return fmt.Sprintf("mpi: rank %d failed", e.Ranks[0])
	}
	return fmt.Sprintf("mpi: ranks %v failed", e.Ranks)
}

// Is makes errors.Is(err, &RankFailedError{}) match any rank-failure
// error regardless of which ranks it names.
func (e *RankFailedError) Is(target error) bool {
	_, ok := target.(*RankFailedError)
	return ok
}

// ErrRankFailed is the sentinel for errors.Is checks against rank
// failures: errors.Is(err, mpi.ErrRankFailed).
var ErrRankFailed error = &RankFailedError{}

// WithInjector attaches a fault-injection plan to the world. On RunTCP a
// default heartbeat failure detector (DefaultHeartbeat) is installed
// unless WithHeartbeat configured one explicitly.
func WithInjector(in Injector) Option {
	return func(o *options) { o.injector = in }
}

// DefaultHeartbeat is the failure-detection interval RunTCP installs when
// an injector is attached without an explicit WithHeartbeat.
const DefaultHeartbeat = 500 * time.Millisecond

// WithHeartbeat enables heartbeat-based failure detection: every live
// rank emits heartbeats at d/4 through the transport, and a rank silent
// for longer than d is declared failed, unblocking survivors with a
// RankFailedError. This is how the socket transport detects a dead peer; the
// channel transport declares kills synchronously and does not need it.
func WithHeartbeat(d time.Duration) Option {
	return func(o *options) { o.heartbeat = d }
}

// WithOpTimeout bounds every blocking operation (Recv, Probe, rendezvous
// Send, collective hops) to d. An operation that cannot complete in time
// returns an error wrapping ErrTimeout, letting applications give up on a
// stalled link instead of hanging until the watchdog kills the world.
func WithOpTimeout(d time.Duration) Option {
	return func(o *options) { o.opTimeout = d }
}

// LifecycleEvent records a fault-tolerance event: a failure, a retry, a
// checkpoint, a recovery step. Unlike Event (per-primitive), lifecycle
// events are sparse and narrate the recovery timeline.
type LifecycleEvent struct {
	Rank   int    // world rank the event concerns
	Kind   string // one of the Life* constants
	Detail string
	Time   time.Time
}

// LifecycleHook is implemented by hooks (see WithHook) that also want the
// fault-tolerance timeline. The runtime checks for it by type assertion,
// so a plain Hook keeps working unchanged.
type LifecycleHook interface {
	Lifecycle(LifecycleEvent)
}

// Lifecycle records an application-level fault-tolerance event (modules
// report checkpoint saves/restores through it) on the world's hook, if
// that hook implements LifecycleHook.
func (c *Comm) Lifecycle(kind, detail string) {
	c.world.emitLifecycle(c.worldRank, kind, detail)
}

func (w *World) emitLifecycle(rank int, kind, detail string) {
	if lh, ok := w.opts.hook.(LifecycleHook); ok {
		lh.Lifecycle(LifecycleEvent{Rank: rank, Kind: kind, Detail: detail, Time: time.Now()})
	}
}

// initFaultState sizes the per-rank failure-tracking state. localRanks
// lists the ranks hosted by this World (all of them for Run/RunTCP, one
// for a multi-process worker).
func (w *World) initFaultState(localRanks []int) {
	w.killed = make([]atomic.Bool, w.size)
	w.lastHeard = make([]atomic.Int64, w.size)
	now := time.Now().UnixNano()
	for r := range w.lastHeard {
		w.lastHeard[r].Store(now)
	}
	w.failed = make([]bool, w.size)
	w.localRanks = localRanks
}

// killRank simulates a crash of a local rank: once its kill flag is set
// its mailbox goes dead (no more matches, acks or posts), queued state is
// discarded, and — when no heartbeat detector runs — the failure is
// declared synchronously so survivors unblock at once instead of
// deadlocking.
func (w *World) killRank(r int) {
	if w.killed == nil || w.killed[r].Swap(true) {
		return
	}
	mb := w.mailboxes[r]
	mb.mu.Lock()
	mb.discardLocked()
	mb.cond.Broadcast()
	mb.mu.Unlock()
	w.emitLifecycle(r, LifeFailure, "rank killed by fault injection")
	if w.opts.heartbeat <= 0 {
		w.failRank(r, "killed (synchronous detection)")
	}
}

// isKilled reports whether a rank was crashed by fault injection.
func (w *World) isKilled(r int) bool {
	return w.killed != nil && r >= 0 && r < len(w.killed) && w.killed[r].Load()
}

// failRank declares a rank failed on behalf of the whole world: the
// failure epoch advances and every blocked rank wakes to observe a
// RankFailedError. The set and the epoch change under one lock, so a
// reader of both (failedView) never sees a declaration the epoch does
// not count; the hot-path check still reads the epoch alone.
func (w *World) failRank(r int, why string) {
	w.failMu.Lock()
	if w.failed[r] {
		w.failMu.Unlock()
		return
	}
	w.failed[r] = true
	w.failEpoch.Add(1)
	w.failMu.Unlock()
	w.emitLifecycle(r, LifeFailure, "rank declared failed: "+why)
	w.broadcastAll()
}

// failedView is the membership view recovery works from: it marks in
// marks[i] every members[i] currently declared failed (leaving other
// marks as they are) and returns the failure epoch, both read under one
// lock.
func (w *World) failedView(members []int, marks []byte) int64 {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	for i, wr := range members {
		if w.failed[wr] {
			marks[i] = 1
		}
	}
	return w.failEpoch.Load()
}

// FailedRanks returns the world ranks currently declared failed, in
// ascending order (ULFM's MPI_Comm_failure_ack + get_acked, read-only).
func (c *Comm) FailedRanks() []int {
	return c.world.failedRanks()
}

func (w *World) failedRanks() []int {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	var ranks []int
	for r, f := range w.failed {
		if f {
			ranks = append(ranks, r)
		}
	}
	return ranks
}

// rankFailedError builds the error blocked operations return when the
// failure epoch advanced past the rank's acknowledged epoch.
func (w *World) rankFailedError() error {
	return &RankFailedError{Ranks: w.failedRanks()}
}

// noteHeard refreshes the liveness timestamp of a rank; called for every
// arriving envelope and every heartbeat when a detector is active.
func (w *World) noteHeard(r int) {
	if w.lastHeard != nil && r >= 0 && r < len(w.lastHeard) {
		w.lastHeard[r].Store(time.Now().UnixNano())
	}
}

// tickPeriod derives a polling period from a timeout: a quarter of it,
// floored at 1ms so tight test timeouts do not spin.
func tickPeriod(d time.Duration) time.Duration {
	p := d / 4
	if p < time.Millisecond {
		p = time.Millisecond
	}
	return p
}

// sendHeartbeats is the heartbeat sender's tick (WithHeartbeat), run at
// a quarter of the detection interval: a kindHeartbeat envelope from
// every live local rank to every peer. Heartbeats go straight to the
// transport — they bypass the traffic accounting, which is the watchdog's
// progress measure, so a heartbeating-but-stuck world still trips it. A
// rank whose function returned keeps heartbeating (the "MPI runtime
// process" stays alive until the world closes), so a finished peer is
// not mistaken for a dead one.
func (w *World) sendHeartbeats() {
	for _, r := range w.localRanks {
		if w.isKilled(r) {
			continue
		}
		for peer := 0; peer < w.size; peer++ {
			if peer == r {
				continue
			}
			hb := getEnv()
			hb.kind = kindHeartbeat
			hb.src, hb.wsrc, hb.wdst = r, r, peer
			relHeartbeatsSent.Add(1)
			_ = w.transport.deliver(hb)
		}
	}
}

// heartbeatMonitor returns the heartbeat monitor's tick, run at the
// sender's period: it declares failed any rank silent for longer than
// the interval — except a live rank of this World, whose liveness is
// known exactly: silence measured across a stall of this process (the
// scheduler or the OS not running it) says nothing about it.
func (w *World) heartbeatMonitor() func() {
	hb := w.opts.heartbeat
	local := make([]bool, w.size)
	for _, r := range w.localRanks {
		local[r] = true
	}
	return func() {
		now := time.Now().UnixNano()
		for r := 0; r < w.size; r++ {
			if (local[r] && !w.isKilled(r)) || now-w.lastHeard[r].Load() <= hb.Nanoseconds() {
				continue
			}
			w.failRank(r, fmt.Sprintf("no heartbeat for %v", hb))
		}
	}
}

// blockedSnapshot renders the blocked-state of every local mailbox, the
// same per-rank wait records the deadlock detector verifies, for the
// watchdog's diagnostic.
func (w *World) blockedSnapshot() string {
	var sb strings.Builder
	for _, mb := range w.mailboxes {
		mb.mu.Lock()
		if mb.waiting.kind != waitNone {
			if sb.Len() > 0 {
				sb.WriteString("; ")
			}
			fmt.Fprintf(&sb, "rank %d blocked in %v", mb.rank, mb.waiting)
		}
		mb.mu.Unlock()
	}
	if sb.Len() == 0 {
		return "no ranks blocked at snapshot time"
	}
	return sb.String()
}
