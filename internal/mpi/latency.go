package mpi

import (
	"sync"
	"time"
)

// latencyTransport is the top layer of the link stack, a deterministic
// link-latency emulator (WithLinkLatency): every cross-rank envelope is
// stamped with a due time on entry and held on its source rank's FIFO
// pipe until then, so messages spend a realistic wire-transit interval
// invisibly in flight. Two properties matter:
//
//   - The sender never blocks. deliver enqueues and returns, exactly
//     like a NIC accepting a frame — so an overlapped schedule can ride
//     compute ahead of its in-flight messages, which is the effect the
//     latency-hiding modules measure.
//   - Per-source FIFO is preserved (a single ordered pipe per source),
//     which subsumes the per-(src,dst) non-overtaking order the matching
//     engine relies on.
//
// Because frames become due in enqueue order, the pipe goroutine only
// ever sleeps on its head item; a burst of sends becomes due together
// and drains back-to-back, so the pipe adds latency, not serialization.
type latencyTransport struct {
	inner transport
	delay time.Duration
	pipes []*latencyPipe
	wg    sync.WaitGroup
}

type latencyItem struct {
	e   *envelope
	due time.Time
}

type latencyPipe struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []latencyItem
	closed bool
	// held is the rendezvous sequence of the lent envelope drain has
	// taken off the queue and not yet delivered, or 0 (reclaim).
	held int64
}

// withLatency stacks the latency emulator of an np-rank world on inner
// when delay, the WithLinkLatency value, is positive. It is the top of
// the link stack, so reclaimLent finds it as the world's transport.
func withLatency(delay time.Duration, np int, inner transport) transport {
	if delay <= 0 {
		return inner
	}
	t := &latencyTransport{inner: inner, delay: delay, pipes: make([]*latencyPipe, np)}
	for i := range t.pipes {
		p := &latencyPipe{}
		p.cond = sync.NewCond(&p.mu)
		t.pipes[i] = p
		t.wg.Add(1)
		go t.drain(p)
	}
	return t
}

func (t *latencyTransport) deliver(e *envelope) error {
	p := t.pipes[e.wsrc]
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return t.inner.deliver(e)
	}
	p.queue = append(p.queue, latencyItem{e: e, due: time.Now().Add(t.delay)})
	p.mu.Unlock()
	p.cond.Broadcast() // a reclaim may wait on cond too: Signal could wake it instead of drain
	return nil
}

// reclaim is reclaimLent's share on the pipe: the lent envelope of send
// seq from src, still queued, gets a pooled copy of its view. If drain
// has it in hand, reclaim waits until it has reached the mailbox, where
// reclaimLent looks next.
func (t *latencyTransport) reclaim(src int, seq int64) {
	if src < 0 || src >= len(t.pipes) {
		return
	}
	p := t.pipes[src]
	p.mu.Lock()
	for p.held == seq {
		p.cond.Wait()
	}
	for _, it := range p.queue {
		if it.e.lent && it.e.seq == seq {
			claim(it.e, nil)
		}
	}
	p.mu.Unlock()
}

// drain delivers the pipe's items in order, sleeping until each is due.
// After close the remaining backlog is flushed without further delay.
func (t *latencyTransport) drain(p *latencyPipe) {
	defer t.wg.Done()
	for {
		p.mu.Lock()
		if p.held != 0 {
			// The previous item has reached its mailbox.
			p.held = 0
			p.cond.Broadcast()
		}
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		it := p.queue[0]
		n := copy(p.queue, p.queue[1:])
		p.queue[n] = latencyItem{}
		p.queue = p.queue[:n]
		if it.e.lent {
			p.held = it.e.seq
		}
		closed := p.closed
		p.mu.Unlock()
		if !closed {
			if d := time.Until(it.due); d > 0 {
				time.Sleep(d)
			}
		}
		_ = t.inner.deliver(it.e)
	}
}

func (t *latencyTransport) close() error {
	for _, p := range t.pipes {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.cond.Broadcast()
	}
	t.wg.Wait()
	return t.inner.close()
}
