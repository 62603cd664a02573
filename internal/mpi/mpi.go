// Package mpi implements a message-passing runtime with MPI semantics in
// pure Go. It is the distributed-memory substrate for the data-intensive
// pedagogic modules of Gowanlock & Gallet (IPDPSW/EduPar 2021).
//
// Ranks are goroutines launched by Run (or RunTCP); each receives a *Comm
// handle analogous to MPI_COMM_WORLD. The package provides:
//
//   - blocking point-to-point operations (Send, Recv, Sendrecv) with
//     tag matching, AnySource/AnyTag wildcards, and MPI's non-overtaking
//     ordering guarantee per (source, dest, tag) triple;
//   - nonblocking operations (Isend, Irecv) with Request objects and
//     Wait/Waitall/Test completion;
//   - eager and rendezvous send protocols selected by a configurable
//     threshold, so large synchronous sends block until matched — the
//     behaviour that lets Module 1 demonstrate communication deadlock;
//   - a precise deadlock detector that fails fast (returning ErrDeadlock)
//     instead of hanging when every rank is provably stuck;
//   - collective operations (Barrier, Bcast, Scatter, Gather[v],
//     Reduce, Allreduce, Alltoallv, ReduceScatterInto) built on
//     point-to-point messaging with binomial-tree, ring and pairwise
//     algorithms;
//   - communicator splitting (Split) for node-local sub-communicators;
//   - per-rank accounting of primitive invocations and wire traffic,
//     used to regenerate Table II of the paper and to reason about
//     communication volume in Module 5.
//
// Two transports are available: an in-process channel transport (default)
// and a TCP loopback transport (RunTCP) that moves every envelope through
// real sockets.
package mpi

import (
	"errors"
	"fmt"
	"time"
)

// Wildcards for Recv, Irecv and Probe. They mirror MPI_ANY_SOURCE and
// MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// MaxUserTag is the largest tag usable by applications. Larger tags are
// reserved for the runtime's collective and control traffic.
const MaxUserTag = 1 << 24

// DefaultEagerThreshold is the message size (bytes) at or below which sends
// complete eagerly (buffered at the receiver). Larger messages use the
// rendezvous protocol and block until a matching receive is posted, like a
// typical MPI implementation.
const DefaultEagerThreshold = 4096

// Status describes a completed or probed receive, mirroring MPI_Status.
type Status struct {
	Source int // rank the message came from
	Tag    int // message tag
	Bytes  int // payload size in bytes
}

// Count returns the number of elements of the given size contained in the
// message, mirroring MPI_Get_count. It returns an error if the payload is
// not a whole number of elements.
func (s Status) Count(elemSize int) (int, error) {
	if elemSize <= 0 {
		return 0, fmt.Errorf("mpi: Count: element size %d must be positive", elemSize)
	}
	if s.Bytes%elemSize != 0 {
		return 0, fmt.Errorf("mpi: Count: %d bytes is not a multiple of element size %d", s.Bytes, elemSize)
	}
	return s.Bytes / elemSize, nil
}

// Errors returned by communication operations.
var (
	// ErrDeadlock is returned from every blocked operation when the
	// runtime proves that no rank can make further progress.
	ErrDeadlock = errors.New("mpi: deadlock detected: all ranks blocked with no matching messages")

	// ErrAborted is returned from blocked operations when another rank
	// returned an error or called Abort.
	ErrAborted = errors.New("mpi: world aborted")

	// ErrRankOutOfRange is returned when a peer rank is not in the
	// communicator.
	ErrRankOutOfRange = errors.New("mpi: rank out of range")

	// ErrTagOutOfRange is returned for user tags outside [0, MaxUserTag].
	ErrTagOutOfRange = errors.New("mpi: tag out of range")

	// ErrLengthMismatch is returned by collectives whose buffer lengths
	// are inconsistent across ranks or not divisible as required.
	ErrLengthMismatch = errors.New("mpi: buffer length mismatch")
)

// options carries Run configuration.
type options struct {
	eagerThreshold  int
	detectDeadlock  bool
	watchdogTimeout time.Duration
	hook            Hook
	synchronousSend bool
	injector        Injector      // fault-injection plan (see link.go, fault.go)
	opTimeout       time.Duration // per-operation deadline; 0 = none
	heartbeat       time.Duration // failure-detection interval; 0 = off
	linkLatency     time.Duration // emulated one-way wire latency; 0 = off (latency.go)
	reliableLinks   bool          // ARQ + CRC link layer (reliable.go)
}

// Option configures a World created by Run or RunTCP.
type Option func(*options)

// WithEagerThreshold sets the eager/rendezvous protocol cutover in bytes.
// Messages strictly larger than n block the sender until matched.
func WithEagerThreshold(n int) Option {
	return func(o *options) { o.eagerThreshold = n }
}

// WithSynchronousSends forces every Send to use the rendezvous protocol
// regardless of size, mirroring MPI_Ssend semantics. Tests use it to run
// a program's small messages down the matched, lent-buffer path that
// only large ones take by default.
func WithSynchronousSends() Option {
	return func(o *options) { o.synchronousSend = true }
}

// WithWatchdog aborts the world if no rank completes an operation for d.
// It is the backstop wherever exact deadlock detection is not available
// — over TCP, or under latency, reliable links or an injector — and
// defaults to 30 seconds there.
func WithWatchdog(d time.Duration) Option {
	return func(o *options) { o.watchdogTimeout = d }
}

// WithLinkLatency emulates an interconnect with one-way wire latency d:
// every cross-rank envelope is held on a per-source FIFO pipe for d
// before delivery, without blocking the sender — transit time, not link
// occupancy, exactly like messages in flight on a real network. Local
// loopback is orders of magnitude faster than any cluster fabric, so
// this is how the latency-hiding modules expose a realistic gap between
// blocking and overlapped communication schedules on one host. The
// precise deadlock detector is unavailable while frames can be
// invisibly in flight (as over TCP); the watchdog (WithWatchdog) is the
// backstop.
func WithLinkLatency(d time.Duration) Option {
	return func(o *options) { o.linkLatency = d }
}

func defaultOptions() options {
	return options{
		eagerThreshold: DefaultEagerThreshold,
		detectDeadlock: true,
	}
}
