package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The link stack, as run (world.go) builds it top to bottom: latency
// (latency.go), reliable links (reliable.go), frame faults (below), then
// an endpoint, channelTransport below or the socket mesh (tcp.go). A
// layer takes the world size, the local ranks and its option values,
// and reaches the world only through a linkHost. Every envelope it sees
// crosses a link: World.deliver keeps self-sends, and the runtime's own
// traffic (heartbeats, link acks, abort notices) never goes to self.

// transport moves envelopes between ranks: an endpoint, or a layer of
// the link stack stacked on one (run). Implementations must preserve
// per-(src,dst) FIFO order, which the matching engine relies on for MPI's
// non-overtaking guarantee.
type transport interface {
	deliver(e *envelope) error
	close() error
}

// linkHost is all a link layer asks of the world above it: the World
// itself, or, for an endpoint under reliable links, the ARQ's receive
// half standing in front of the World's arrive.
type linkHost interface {
	arrive(e *envelope)                          // take an inbound envelope
	abort(cause error)                           // stop the world: a stream can no longer be trusted
	stopErr() error                              // why the world stopped, or nil while it runs
	emitLifecycle(rank int, kind, detail string) // report a dial retry or an injected fault
}

// Lifecycle event kinds emitted through LifecycleHook.
const (
	LifeFailure    = "failure"    // a rank was killed or declared failed
	LifeRetry      = "retry"      // a transport dial is being retried
	LifeCheckpoint = "checkpoint" // module checkpoint saved or restored
	LifeRecovery   = "recovery"   // survivors rebuilt a smaller world
	LifeInject     = "inject"     // a frame fault was applied
)

// channelTransport is the in-memory endpoint: it hands each envelope
// straight up, and the World posts it into the destination mailbox
// under its lock; there is never an envelope in transit.
type channelTransport struct {
	up linkHost
	np int
}

func (t *channelTransport) deliver(e *envelope) error {
	if e.wdst < 0 || e.wdst >= t.np {
		return fmt.Errorf("%w: destination %d of world size %d", ErrRankOutOfRange, e.wdst, t.np)
	}
	t.up.arrive(e)
	return nil
}

func (t *channelTransport) close() error { return nil }

// every calls f each period on a goroutine that wg joins, until stop
// closes: each periodic loop of a world (run) and the reliable links'
// retransmit timer (reliable.go).
func every(wg *sync.WaitGroup, stop <-chan struct{}, period time.Duration, f func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				f()
			}
		}
	}()
}

// FrameAction is an injector's verdict on one wire frame.
type FrameAction int

const (
	FrameDeliver FrameAction = iota // pass the frame through unchanged
	FrameDrop                       // discard the frame (lossy link)
	FrameDup                        // deliver the frame twice
	FrameCorrupt                    // flip one bit: silent damage on a raw link, CRC-rejected on a reliable one
	FrameReorder                    // hold the frame until its successor overtakes it
)

// frameActionName renders an action for lifecycle events.
func frameActionName(a FrameAction) string {
	switch a {
	case FrameDrop:
		return "drop"
	case FrameDup:
		return "duplicate"
	case FrameCorrupt:
		return "corrupt"
	case FrameReorder:
		return "reorder"
	}
	return "deliver"
}

// Injector is the deterministic fault-injection interface consulted by
// the runtime at its two interposition points. Implementations must be
// safe for concurrent use by every rank. internal/faults provides a
// seed-driven implementation parsed from spec strings.
type Injector interface {
	// AtCall is consulted as world rank r enters its n-th communication
	// primitive (1-based, counted per rank). Returning true kills the
	// rank: it goes silent and its own operations return ErrRankKilled.
	AtCall(rank, call int) (kill bool)

	// AtFrame is consulted for every data frame crossing the link from
	// world rank src to dst. A positive delay stalls the frame before the
	// action applies.
	AtFrame(src, dst int) (FrameAction, time.Duration)
}

// faultableFrame reports whether a frame kind is subject to injection:
// application data and RMA traffic, never the runtime's own heartbeats
// or abort notifications.
func faultableFrame(kind int8) bool {
	return kind == kindData || kind == kindRMAReq || kind == kindRMAResp
}

// faultLayer is the frame-fault layer of the link stack (WithInjector):
// it sits directly on the endpoint, below the reliable-link layer, so
// its verdicts damage the wire. On a reliable link the ARQ above
// recovers what they break; on a raw one the damage stands — the
// teaching contrast of reliable.go: a dropped frame is simply gone (the
// run stalls until a heartbeat, op timeout or watchdog notices), a
// corrupted frame is delivered with a silently flipped payload bit —
// without a checksum the application computes a wrong answer — and a
// reordered frame breaks the non-overtaking guarantee.
type faultLayer struct {
	host linkHost // where inject events go
	in   Injector
	np   int
	next transport
	// held is the reorder holdback, one frame per link [src*np+dst]: the
	// next frame delivered on the link overtakes it.
	held []atomic.Pointer[envelope]
}

// withFrameFaults stacks the frame-fault layer of an np-rank world on
// next when there is an injector.
func withFrameFaults(in Injector, host linkHost, np int, next transport) transport {
	if in == nil {
		return next
	}
	return &faultLayer{host: host, in: in, np: np, next: next, held: make([]atomic.Pointer[envelope], np*np)}
}

// frameVerdict consults the injector about one outbound frame, applies
// any injected delay, and emits the inject lifecycle event. A frame it
// does not pass through untouched first becomes an owned copy (claim):
// the verdict may hold, copy or damage it, and a sender's lent slice is
// never the injector's to touch.
func (f *faultLayer) frameVerdict(e *envelope) FrameAction {
	if !faultableFrame(e.kind) {
		return FrameDeliver
	}
	act, delay := f.in.AtFrame(e.wsrc, e.wdst)
	if act == FrameDeliver && delay <= 0 {
		return FrameDeliver
	}
	claim(e, nil)
	if delay > 0 {
		f.host.emitLifecycle(e.wsrc, LifeInject, fmt.Sprintf("delay frame %d->%d by %v", e.wsrc, e.wdst, delay))
		time.Sleep(delay)
	}
	if act != FrameDeliver {
		f.host.emitLifecycle(e.wsrc, LifeInject, fmt.Sprintf("%s frame %d->%d (%d bytes)", frameActionName(act), e.wsrc, e.wdst, len(e.data)))
	}
	return act
}

func (f *faultLayer) deliver(e *envelope) error {
	held := &f.held[e.wsrc*f.np+e.wdst]
	switch f.frameVerdict(e) {
	case FrameDrop:
		relFramesDropped.Add(1)
		dropEnv(e)
		return nil
	case FrameReorder:
		if old := held.Swap(e); old != nil {
			// One frame is held at a time; the older one goes out now,
			// still behind whatever was delivered since it was parked.
			return f.next.deliver(old)
		}
		return nil
	case FrameCorrupt:
		// Flip one covered bit: a payload bit, or the checksum of an
		// envelope without one.
		relFramesCorrupt.Add(1)
		if len(e.data) > 0 {
			e.data[len(e.data)/2] ^= 0x20
		} else {
			e.crc ^= 0x20
		}
	case FrameDup:
		_ = f.next.deliver(cloneEnv(e))
	}
	err := f.next.deliver(e)
	if old := held.Swap(nil); old != nil {
		_ = f.next.deliver(old)
	}
	return err
}

// close closes the endpoint, then recycles every frame still held.
func (f *faultLayer) close() error {
	err := f.next.close()
	for i := range f.held {
		if e := f.held[i].Swap(nil); e != nil {
			dropEnv(e)
		}
	}
	return err
}
