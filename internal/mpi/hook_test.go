package mpi

import (
	"sync"
	"testing"
)

// eventLog is a minimal thread-safe Hook for the tests below.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) Event(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) byPrim() map[Primitive][]Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := make(map[Primitive][]Event)
	for _, e := range l.events {
		m[e.Prim] = append(m[e.Prim], e)
	}
	return m
}

// hookWorkload invokes every Primitive at least once, on any world of
// two or more ranks: blocking and nonblocking point-to-point, sendrecv,
// probe/get-count, wait, every blocking collective with its
// into/ring/v variants, the two nonblocking collectives, and the
// one-sided surface including the request-returning PutAsync. It calls
// Barrier once, and Split, whose exchange is no primitive of the
// program's.
func hookWorkload(c *Comm) error {
	const tag = 3
	payload := []byte("twelve bytes")
	if c.Rank() == 0 {
		if err := Send(c, payload, 1, tag); err != nil {
			return err
		}
		if _, _, err := c.RecvBytes(1, tag); err != nil {
			return err
		}
		req, err := Isend(c, payload, 1, tag+1)
		if err != nil {
			return err
		}
		if _, _, err := req.Wait(); err != nil {
			return err
		}
	} else if c.Rank() == 1 {
		st, err := c.Probe(0, tag)
		if err != nil {
			return err
		}
		if _, err := c.GetCount(st, 1); err != nil {
			return err
		}
		if _, _, err := c.RecvBytes(0, tag); err != nil {
			return err
		}
		if err := Send(c, payload, 0, tag); err != nil {
			return err
		}
		req, err := Irecv[byte](c, 0, tag+1)
		if err != nil {
			return err
		}
		if _, _, err := req.Wait(); err != nil {
			return err
		}
	}
	peer := c.Rank() ^ 1
	if peer < c.Size() {
		if _, _, err := c.SendrecvBytes(payload, peer, 9, peer, 9); err != nil {
			return err
		}
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	buf := []float64{float64(c.Rank())}
	if _, err := Bcast(c, buf, 0); err != nil {
		return err
	}
	if _, err := Allreduce(c, buf, OpSum); err != nil {
		return err
	}
	if _, err := Gather(c, buf, 0); err != nil {
		return err
	}
	if _, err := c.Split(c.Rank()%2, 0); err != nil {
		return err
	}
	if _, err := Reduce(c, buf, OpSum, 0); err != nil {
		return err
	}
	if err := hookWorkloadCollectives(c); err != nil {
		return err
	}
	return hookWorkloadRMA(c)
}

// hookWorkloadCollectives covers the collectives hookWorkload's opening
// does not: the linear rooted ones, the all-to-all, the into/ring/v
// variants and the nonblocking two.
func hookWorkloadCollectives(c *Comm) error {
	p, r := c.Size(), c.Rank()
	one := []float64{float64(r)}
	vec := func() []float64 { return make([]float64, p) }
	var atRoot []float64
	if r == 0 {
		atRoot = make([]float64, 2*p)
	}
	if _, err := Scatter(c, atRoot, 0); err != nil {
		return err
	}
	if _, err := Gatherv(c, one, 0); err != nil {
		return err
	}
	blocks := make([][]float64, p)
	for i := range blocks {
		blocks[i] = one
	}
	if _, err := Alltoallv(c, blocks); err != nil {
		return err
	}
	if err := AllreduceInto(c, vec(), OpSum); err != nil {
		return err
	}
	if _, err := AllreduceRing(c, vec(), OpSum); err != nil {
		return err
	}
	if err := ReduceInto(c, vec(), OpSum, 0); err != nil {
		return err
	}
	if err := ReduceScatterInto(c, vec(), OpSum); err != nil {
		return err
	}

	cr, err := Iallreduce(c, vec(), OpSum)
	if err != nil {
		return err
	}
	if err := cr.Wait(); err != nil {
		return err
	}
	if cr, err = Iallgather(c, vec()); err != nil {
		return err
	}
	return WaitallColl(cr)
}

// hookWorkloadRMA covers the eight one-sided primitives, each rank
// targeting its right neighbour, in fenced epochs and a flushed one.
// PutAsync completes through Waitall.
func hookWorkloadRMA(c *Comm) error {
	next := (c.Rank() + 1) % c.Size()
	word := make([]byte, 8)
	win, err := c.WinCreate(64)
	if err != nil {
		return err
	}
	if err := win.Fence(); err != nil {
		return err
	}
	if err := win.Put(next, 0, word); err != nil {
		return err
	}
	preq, err := win.PutAsync(next, 8, word)
	if err != nil {
		return err
	}
	if err := win.Accumulate(next, 16, []int64{1}, AccSum); err != nil {
		return err
	}
	if err := Waitall(preq); err != nil { // closes the epoch
		return err
	}
	if err := win.Fence(); err != nil {
		return err
	}
	if _, err := win.Get(next, 0, 8); err != nil {
		return err
	}
	if err := win.GetInto(word, next, 8); err != nil {
		return err
	}
	if _, err := win.CompareAndSwap(next, 32, 0, 1); err != nil {
		return err
	}
	if err := win.Fence(); err != nil {
		return err
	}
	if err := win.Put(next, 40, word); err != nil {
		return err
	}
	if err := win.Flush(); err != nil {
		return err
	}
	return win.Free()
}

// TestHookFiresEveryPrimitive checks that one workload touching the full
// primitive surface emits hook events for each, with sane fields.
func TestHookFiresEveryPrimitive(t *testing.T) {
	log := &eventLog{}
	if err := Run(2, hookWorkload, WithHook(log)); err != nil {
		t.Fatal(err)
	}
	got := log.byPrim()
	for _, p := range Primitives() {
		if len(got[p]) == 0 {
			t.Errorf("no hook event for %v", p)
		}
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	for _, e := range log.events {
		if e.Rank < 0 || e.Rank >= 2 {
			t.Errorf("%v: rank %d out of range", e.Prim, e.Rank)
		}
		if e.Dur < 0 || e.Blocked < 0 || e.Queued < 0 {
			t.Errorf("%v: negative timing %+v", e.Prim, e)
		}
		if e.Start.IsZero() {
			t.Errorf("%v: zero start time", e.Prim)
		}
	}
}

// primCount is a per-(rank, primitive) tally.
type primCount [numPrimitives]int64

// isMirror reports whether e is the target-side mirror of a one-sided
// operation: emitted by the target's progress engine, it is the only RMA
// event that carries a RecvID.
func isMirror(e Event) bool {
	return e.Prim >= PrimRMAPut && e.Prim <= PrimRMAWinFree && e.RecvID != 0
}

// TestHookOneCallOneEvent pins the instrumentation contract over the
// whole primitive surface and both transports: on every rank, for every
// primitive, the Table II call counter equals the number of origin-side
// hook events — a call cannot be counted without being reported, or the
// reverse. Every counted call is one the program made: Split and the
// window calls synchronize without a primitive of their own, so each
// rank counts hookWorkload's one Barrier. Target-side mirrors are
// tallied apart (they belong to no call of the reporting rank) and must
// agree across transports.
func TestHookOneCallOneEvent(t *testing.T) {
	const np = 3
	var mirrors [2][np]primCount
	for i, tc := range []struct {
		name string
		run  func(int, func(*Comm) error, ...Option) error
	}{
		{"channel", Run},
		{"tcp", RunTCP},
	} {
		log := &eventLog{}
		var calls [np]map[Primitive]int64
		err := tc.run(np, func(c *Comm) error {
			if err := hookWorkload(c); err != nil {
				return err
			}
			// A rank's own counters are final once its last primitive
			// has returned.
			calls[c.Rank()] = c.Stats().Calls[c.Rank()]
			return nil
		}, WithHook(log))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var events [np]primCount
		for _, e := range log.events {
			if !isMirror(e) {
				events[e.Rank][e.Prim]++
				continue
			}
			mirrors[i][e.Rank][e.Prim]++
			if e.Dur != 0 || e.SendID != 0 {
				t.Errorf("%s: mirror event %+v has a duration or a SendID", tc.name, e)
			}
		}
		for r := 0; r < np; r++ {
			if n := calls[r][PrimBarrier]; n != 1 {
				t.Errorf("%s: rank %d counts %d MPI_Barrier calls, want the program's 1", tc.name, r, n)
			}
		}
		for _, p := range Primitives() {
			var total int64
			for r := 0; r < np; r++ {
				total += calls[r][p]
				if calls[r][p] != events[r][p] {
					t.Errorf("%s: rank %d %v: %d calls counted, %d events", tc.name, r, p, calls[r][p], events[r][p])
				}
			}
			if total == 0 {
				t.Errorf("%s: %d calls of %v", tc.name, total, p)
			}
		}
	}
	if mirrors[0] != mirrors[1] {
		t.Errorf("mirror events differ across transports:\nchannel %v\ntcp     %v", mirrors[0], mirrors[1])
	}
}

// TestHookFlowCorrelation checks that a matched send/recv pair shares one
// message id — the flow edge the trace exporter draws — on both
// transports.
func TestHookFlowCorrelation(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(int, func(*Comm) error, ...Option) error
	}{
		{"channel", Run},
		{"tcp", RunTCP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &eventLog{}
			err := tc.run(2, func(c *Comm) error {
				if c.Rank() == 0 {
					return Send(c, []byte("flow"), 1, 5)
				}
				_, _, err := c.RecvBytes(0, 5)
				return err
			}, WithHook(log))
			if err != nil {
				t.Fatal(err)
			}
			got := log.byPrim()
			sends, recvs := got[PrimSend], got[PrimRecv]
			if len(sends) != 1 || len(recvs) != 1 {
				t.Fatalf("want 1 send + 1 recv event, got %d + %d", len(sends), len(recvs))
			}
			if sends[0].SendID == 0 {
				t.Fatal("send event has no message id")
			}
			if sends[0].SendID != recvs[0].RecvID {
				t.Fatalf("flow ids differ: send %d, recv %d", sends[0].SendID, recvs[0].RecvID)
			}
			if sends[0].Bytes != 4 || recvs[0].Bytes != 4 {
				t.Fatalf("payload bytes: send %d, recv %d, want 4", sends[0].Bytes, recvs[0].Bytes)
			}
		})
	}
}

// TestHookNilFastPath checks the un-hooked world never pays for the
// profiling layer: message ids (the only hook-driven allocation visible
// from outside a primitive) are never handed out.
func TestHookNilFastPath(t *testing.T) {
	var allocated int64
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := Send(c, []byte("x"), 1, 0); err != nil {
				return err
			}
		} else {
			if _, _, err := c.RecvBytes(0, 0); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			allocated = c.world.msgCounter.Load()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocated != 0 {
		t.Fatalf("un-hooked run allocated %d message ids, want 0", allocated)
	}
}
