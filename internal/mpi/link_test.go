package mpi

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// hostTap is a linkHost without a World: it records what reaches it
// over each link [src*np+dst] and closes done once want envelopes have
// arrived.
type hostTap struct {
	np   int
	want int
	done chan struct{}

	mu      sync.Mutex
	got     [][]int32 // the tags that arrived, per link
	n       int
	damaged int // arrivals whose payload no longer matches their tag
	aborts  []error
	injects map[string]int // inject events by verdict: drop, duplicate, corrupt, reorder
}

func newHostTap(np, want int) *hostTap {
	return &hostTap{np: np, want: want, done: make(chan struct{}), got: make([][]int32, np*np), injects: map[string]int{}}
}

func (h *hostTap) arrive(e *envelope) {
	h.mu.Lock()
	h.got[e.wsrc*h.np+e.wdst] = append(h.got[e.wsrc*h.np+e.wdst], e.tag)
	if binary.LittleEndian.Uint32(e.data) != uint32(e.tag) {
		h.damaged++
	}
	h.n++
	if h.n == h.want {
		close(h.done)
	}
	h.mu.Unlock()
	dropEnv(e)
}

func (h *hostTap) abort(cause error) {
	h.mu.Lock()
	h.aborts = append(h.aborts, cause)
	h.mu.Unlock()
}

func (h *hostTap) stopErr() error { return nil }

func (h *hostTap) emitLifecycle(rank int, kind, detail string) {
	h.mu.Lock()
	if kind == LifeInject {
		h.injects[strings.Fields(detail)[0]]++
	}
	h.mu.Unlock()
}

// loopEndpoint is an in-memory endpoint that counts the frames it
// carries and hands each straight up.
type loopEndpoint struct {
	up     linkHost
	mu     sync.Mutex
	frames int
}

func (l *loopEndpoint) deliver(e *envelope) error {
	l.mu.Lock()
	l.frames++
	l.mu.Unlock()
	l.up.arrive(e)
	return nil
}

func (l *loopEndpoint) close() error { return nil }

// TestLinkStackWithoutWorld builds the link stack of a three-rank world,
// latency → reliable links → frame faults, over a counting endpoint and
// a host that is not a World, and drives every link with a seeded plan
// of dropped, duplicated, reordered and corrupted frames. Every envelope
// must reach the host exactly once, in its link's order and undamaged,
// and once the stack is closed every pooled byte is back.
func TestLinkStackWithoutWorld(t *testing.T) {
	const np, perLink = 3, 200
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	before := ReliabilityStats()
	local := []int{0, 1, 2}
	host := newHostTap(np, np*(np-1)*perLink)
	arq := newARQ(host, np, local)
	end := &loopEndpoint{up: arq}
	inj := newLossyInjector(34, 0.05, 0.05, 0.05, 0.05)
	top := withLatency(100*time.Microsecond, np, arq.over(withFrameFaults(inj, host, np, end), end))

	var senders sync.WaitGroup
	for src := range local {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < perLink; i++ {
				for dst := 0; dst < np; dst++ {
					if dst == src {
						continue
					}
					e := getEnv()
					e.kind = kindData
					e.src, e.wsrc, e.wdst, e.tag = src, src, dst, int32(i)
					e.data = getBuf(4)
					binary.LittleEndian.PutUint32(e.data, uint32(i))
					if err := top.deliver(e); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	senders.Wait()
	select {
	case <-host.done:
	case <-time.After(20 * time.Second):
		host.mu.Lock()
		defer host.mu.Unlock()
		t.Fatalf("%d of %d envelopes arrived", host.n, host.want)
	}
	if err := top.close(); err != nil {
		t.Fatal(err)
	}

	for link, tags := range host.got {
		src, dst := link/np, link%np
		if src == dst {
			continue
		}
		if len(tags) != perLink {
			t.Errorf("link %d->%d: %d envelopes arrived, want %d", src, dst, len(tags), perLink)
			continue
		}
		for i, tag := range tags {
			if tag != int32(i) {
				t.Errorf("link %d->%d: arrival %d is envelope %d", src, dst, i, tag)
				break
			}
		}
	}
	if host.damaged > 0 || len(host.aborts) > 0 {
		t.Errorf("%d damaged payloads passed the CRC gate; aborts: %v", host.damaged, host.aborts)
	}
	d := ReliabilityStats().Sub(before)
	for _, verdict := range []string{"drop", "duplicate", "corrupt", "reorder"} {
		if host.injects[verdict] == 0 {
			t.Errorf("the plan issued no %s verdict: %v", verdict, host.injects)
		}
	}
	if d.Retransmits == 0 {
		t.Errorf("the reliable links never retransmitted: %+v", d)
	}
	t.Logf("%d envelopes in %d frames: %+v %v", host.want, end.frames, d, host.injects)
}
