package mpi

import "time"

// Event is the structured record handed to a Hook when a communication
// primitive exits. It is the PMPI-style interposition point of the
// runtime: every user-facing primitive — blocking and nonblocking
// point-to-point, collectives, probe and wait — emits exactly one Event
// per invocation, identically over the channel and TCP transports.
type Event struct {
	Rank  int       // world rank of the reporting process
	Prim  Primitive // which primitive was invoked
	Peer  int       // world rank of the peer, or the root for rooted collectives; -1 when not applicable
	Tag   int       // message tag; -1 when not applicable
	Bytes int       // user payload bytes moved by this call (best effort for collectives)

	Start   time.Time     // primitive entry time
	Dur     time.Duration // wall time spent inside the primitive
	Blocked time.Duration // of Dur, time spent blocked waiting on the runtime (match, ack, collective partner)
	Queued  time.Duration // how long the consumed message sat in the receive queue before this call drained it

	// SendID and RecvID correlate matched sends and receives for
	// message-flow tracing: the Event of the sending call carries the
	// message id in SendID and the Event of the consuming call carries
	// the same id in RecvID. Ids cross the TCP wire inside the envelope
	// header, so flows resolve identically on both transports. Zero
	// means "no message" (e.g. collectives, probes).
	SendID int64
	RecvID int64
}

// Hook observes primitive-level events. Implementations must be safe for
// concurrent use: every rank goroutine of the world calls Event. The
// runtime invokes the hook synchronously at primitive exit, so a slow
// hook slows the application — collectors should do no more than append
// under a mutex.
type Hook interface {
	Event(Event)
}

// WithHook attaches a PMPI-style profiling hook to the world. When no
// hook is attached the instrumentation reduces to one nil check per
// primitive (the production fast path).
func WithHook(h Hook) Option {
	return func(o *options) { o.hook = h }
}

// multiHook fans one event stream out to several hooks, so a post-mortem
// collector (prof) and a live registry (telemetry) can observe the same
// run. Lifecycle events are forwarded to the members that implement
// LifecycleHook.
type multiHook []Hook

// MultiHook composes hooks into one. Nil members are dropped; with zero
// or one live member it returns nil or the member itself, preserving the
// single-hook fast path.
func MultiHook(hooks ...Hook) Hook {
	var live multiHook
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// Event forwards to every member in attachment order.
func (m multiHook) Event(e Event) {
	for _, h := range m {
		h.Event(e)
	}
}

// Lifecycle forwards to the members that implement LifecycleHook.
func (m multiHook) Lifecycle(e LifecycleEvent) {
	for _, h := range m {
		if lh, ok := h.(LifecycleHook); ok {
			lh.Lifecycle(e)
		}
	}
}

// span is the one instrumentation point of a primitive: begin opens it,
// end closes it. It is a stack value; the zero span (no hook attached)
// makes end a no-op.
type span struct {
	c       *Comm
	prim    Primitive
	start   time.Time
	blocked time.Duration // the rank's parked time at entry
}

// begin records one invocation of p: it counts the call for the Table II
// accounting, ticks call-indexed fault injection, and — only when a hook
// is attached — snapshots the clock and the rank's parked time. Every
// user-facing primitive enters through it exactly once, so an injector's
// "kill rank R at call N" is deterministic regardless of transport, and a
// call cannot be counted without being reported. A kill takes effect on
// the primitive's next runtime interaction — its delivery or its blocking
// wait returns ErrRankKilled.
func (c *Comm) begin(p Primitive) span {
	c.world.stats.ranks[c.worldRank].calls[p].Add(1)
	if in := c.world.opts.injector; in != nil {
		c.mb.calls++
		if in.AtCall(c.worldRank, int(c.mb.calls)) {
			c.world.killRank(c.worldRank)
		}
	}
	if c.world.opts.hook == nil {
		return span{}
	}
	return span{c: c, prim: p, start: time.Now(), blocked: c.mb.blocked}
}

// end emits the primitive's one Event. peer and tag use -1 for "not
// applicable"; bytes, sendID, recvID and queued are zero when unknown
// (e.g. on error paths).
func (sp span) end(peer, tag, bytes int, sendID, recvID int64, queued time.Duration) {
	c := sp.c
	if c == nil {
		return
	}
	c.world.opts.hook.Event(Event{
		Rank:    c.worldRank,
		Prim:    sp.prim,
		Peer:    peer,
		Tag:     tag,
		Bytes:   bytes,
		Start:   sp.start,
		Dur:     time.Since(sp.start),
		Blocked: c.mb.blocked - sp.blocked,
		Queued:  queued,
		SendID:  sendID,
		RecvID:  recvID,
	})
}

// hooked reports whether a hook is attached. It gates the two clock reads
// outside a span: the arrival stamp in mailbox.post and the parked time
// in mailbox.block.
func (w *World) hooked() bool { return w.opts.hook != nil }

// flowID allocates the id that pairs a message's sending and consuming
// events (and a nonblocking collective's initiation with its Wait). Zero
// means "none" and is all an un-hooked world ever hands out.
func (w *World) flowID() int64 {
	if !w.hooked() {
		return 0
	}
	return w.msgCounter.Add(1)
}

// mirror emits the target-side event of a one-sided operation: the op as
// seen by the target's progress engine, with zero Dur. RecvID pairs it
// with the origin's SendID so the Chrome exporter draws origin→target
// arrows, and the counts are transport-independent, which the parity
// tests pin down.
func (w *World) mirror(target int, p Primitive, origin, bytes int, recvID int64) {
	if h := w.opts.hook; h != nil {
		h.Event(Event{Rank: target, Prim: p, Peer: origin, Tag: -1, Bytes: bytes, Start: time.Now(), RecvID: recvID})
	}
}

// queuedFor reports how long env waited in the destination mailbox before
// the consuming primitive exits. A large value means the receiver was
// late to drain an eagerly delivered message.
func queuedFor(env *envelope) time.Duration {
	if env == nil || env.arrived.IsZero() {
		return 0
	}
	if d := time.Since(env.arrived); d > 0 {
		return d
	}
	return 0
}
