package prof

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

// parityWorkload touches blocking and nonblocking point-to-point,
// sendrecv, probe/get-count, wait and a spread of collectives, with a
// deterministic number of primitive invocations per rank, so the
// per-(rank, primitive) event counts must agree exactly between the
// channel and TCP transports.
func parityWorkload(c *mpi.Comm) error {
	const tag = 2
	me, n := c.Rank(), c.Size()
	payload := make([]byte, 64)
	right, left := (me+1)%n, (me+n-1)%n
	if me%2 == 0 {
		if err := mpi.Send(c, payload, right, tag); err != nil {
			return err
		}
		if _, _, err := c.RecvBytes(left, tag); err != nil {
			return err
		}
	} else {
		if _, _, err := c.RecvBytes(left, tag); err != nil {
			return err
		}
		if err := mpi.Send(c, payload, right, tag); err != nil {
			return err
		}
	}
	sreq, err := mpi.Isend(c, payload, right, tag+1)
	if err != nil {
		return err
	}
	rreq, err := mpi.Irecv[byte](c, left, tag+1)
	if err != nil {
		return err
	}
	if _, _, err := rreq.Wait(); err != nil {
		return err
	}
	if _, _, err := sreq.Wait(); err != nil {
		return err
	}
	if _, _, err := c.SendrecvBytes(payload, right, 7, left, 7); err != nil {
		return err
	}
	if me == 0 {
		if err := mpi.Send(c, payload, 1, 9); err != nil {
			return err
		}
	}
	if me == 1 {
		st, err := c.Probe(0, 9)
		if err != nil {
			return err
		}
		if _, err := c.GetCount(st, 1); err != nil {
			return err
		}
		if _, _, err := c.RecvBytes(0, 9); err != nil {
			return err
		}
	}
	buf := []float64{float64(me)}
	if err := c.Barrier(); err != nil {
		return err
	}
	if _, err := mpi.Bcast(c, buf, 0); err != nil {
		return err
	}
	if _, err := mpi.Gather(c, buf, 0); err != nil {
		return err
	}
	cr, err := mpi.Iallgather(c, make([]float64, n))
	if err != nil {
		return err
	}
	if err := cr.Wait(); err != nil {
		return err
	}
	if _, err := mpi.Reduce(c, buf, mpi.OpSum, 0); err != nil {
		return err
	}
	if _, err := mpi.Allreduce(c, buf, mpi.OpSum); err != nil {
		return err
	}
	if _, err := mpi.Alltoallv(c, make([][]float64, n)); err != nil {
		return err
	}
	if _, err := mpi.Scatter(c, make([]float64, n), 0); err != nil {
		return err
	}
	return nil
}

// countByRankPrim reduces an event stream to sorted "rank/primitive:count"
// lines — the transport-independent signature of a run.
func countByRankPrim(events []mpi.Event) []string {
	counts := make(map[string]int)
	for _, e := range events {
		counts[fmt.Sprintf("%d/%v", e.Rank, e.Prim)]++
	}
	lines := make([]string, 0, len(counts))
	for k, n := range counts {
		lines = append(lines, fmt.Sprintf("%s:%d", k, n))
	}
	sort.Strings(lines)
	return lines
}

// TestTransportEventParity runs the same deterministic workload on the
// channel and TCP transports and requires identical per-(rank, primitive)
// hook event counts: the interposition layer must not depend on the
// transport.
func TestTransportEventParity(t *testing.T) {
	const np = 4
	chanC, tcpC := New(), New()
	if err := mpi.Run(np, parityWorkload, mpi.WithHook(chanC)); err != nil {
		t.Fatal(err)
	}
	if err := mpi.RunTCP(np, parityWorkload, mpi.WithHook(tcpC)); err != nil {
		t.Fatal(err)
	}
	chanSig := countByRankPrim(chanC.Events())
	tcpSig := countByRankPrim(tcpC.Events())
	if len(chanSig) == 0 {
		t.Fatal("channel run emitted no events")
	}
	if strings.Join(chanSig, "\n") != strings.Join(tcpSig, "\n") {
		t.Errorf("event counts diverge between transports:\nchannel:\n%s\ntcp:\n%s",
			strings.Join(chanSig, "\n"), strings.Join(tcpSig, "\n"))
	}
}

// findWait returns the aggregated wait state matching (kind, waiter,
// peer), if present.
func findWait(ws []WaitState, kind WaitKind, waiter, peer int) (WaitState, bool) {
	for _, w := range ws {
		if w.Kind == kind && w.Waiter == waiter && w.Peer == peer {
			return w, true
		}
	}
	return WaitState{}, false
}

// TestLateSenderFixture builds the canonical late-sender: rank 1 sits on
// its hands before sending, rank 0 blocks in Recv. The analysis must
// attribute the lost time to the (0 waits on 1) edge.
func TestLateSenderFixture(t *testing.T) {
	const delay = 50 * time.Millisecond
	pc := New()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			time.Sleep(delay)
			return mpi.Send(c, []byte("late"), 0, 0)
		}
		_, _, err := c.RecvBytes(1, 0)
		return err
	}, mpi.WithHook(pc))
	if err != nil {
		t.Fatal(err)
	}
	ws := WaitStates(pc.Events())
	got, ok := findWait(ws, LateSender, 0, 1)
	if !ok {
		t.Fatalf("no late-sender state for (waiter 0, peer 1); states: %+v", ws)
	}
	if got.Wait < delay/2 {
		t.Errorf("late-sender wait %v, want at least %v", got.Wait, delay/2)
	}
}

// TestLateReceiverFixture uses a synchronous send into a sleeping
// receiver: the sender's blocked rendezvous wait must show up as
// late-receiver.
func TestLateReceiverFixture(t *testing.T) {
	const delay = 50 * time.Millisecond
	pc := New()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Ssend(c, []byte("eager-but-sync"), 1, 0)
		}
		time.Sleep(delay)
		_, _, err := c.RecvBytes(0, 0)
		return err
	}, mpi.WithHook(pc))
	if err != nil {
		t.Fatal(err)
	}
	ws := WaitStates(pc.Events())
	got, ok := findWait(ws, LateReceiver, 0, 1)
	if !ok {
		t.Fatalf("no late-receiver state for (waiter 0, peer 1); states: %+v", ws)
	}
	if got.Wait < delay/2 {
		t.Errorf("late-receiver wait %v, want at least %v", got.Wait, delay/2)
	}
}

// TestCollectiveWaitFixture delays one rank before a barrier; the on-time
// rank's blocked time must be classified as collective wait.
func TestCollectiveWaitFixture(t *testing.T) {
	const delay = 50 * time.Millisecond
	pc := New()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			time.Sleep(delay)
		}
		return c.Barrier()
	}, mpi.WithHook(pc))
	if err != nil {
		t.Fatal(err)
	}
	ws := WaitStates(pc.Events())
	got, ok := findWait(ws, CollectiveWait, 0, -1)
	if !ok {
		t.Fatalf("no collective-wait state for rank 0; states: %+v", ws)
	}
	if got.Wait < delay/2 {
		t.Errorf("collective wait %v, want at least %v", got.Wait, delay/2)
	}
}

// TestQueueLatency sends eagerly into a sleeping receiver: the receive
// event must report the time the message sat in the mailbox.
func TestQueueLatency(t *testing.T) {
	const delay = 50 * time.Millisecond
	pc := New()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return mpi.Send(c, []byte("parked"), 1, 0)
		}
		time.Sleep(delay)
		_, _, err := c.RecvBytes(0, 0)
		return err
	}, mpi.WithHook(pc))
	if err != nil {
		t.Fatal(err)
	}
	var queued time.Duration
	for _, e := range pc.Events() {
		if e.Prim == mpi.PrimRecv && e.Rank == 1 {
			queued = e.Queued
		}
	}
	if queued < delay/2 {
		t.Errorf("recv event reports queue latency %v, want at least %v", queued, delay/2)
	}
}

// runPingPong produces a small profiled exchange for the exporter tests.
func runPingPong(t *testing.T) *Collector {
	t.Helper()
	pc := New()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		for i := 0; i < 3; i++ {
			if c.Rank() == 0 {
				if err := mpi.Send(c, []byte("ping"), 1, 0); err != nil {
					return err
				}
				if _, _, err := c.RecvBytes(1, 0); err != nil {
					return err
				}
			} else {
				if _, _, err := c.RecvBytes(0, 0); err != nil {
					return err
				}
				if err := mpi.Send(c, []byte("pong"), 0, 0); err != nil {
					return err
				}
			}
		}
		return nil
	}, mpi.WithHook(pc))
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

// TestFlows pairs every matched send/recv into one flow edge.
func TestFlows(t *testing.T) {
	pc := runPingPong(t)
	flows := Flows(pc.Events())
	if len(flows) != 6 {
		t.Fatalf("got %d flows, want 6 (3 pings + 3 pongs)", len(flows))
	}
	for _, f := range flows {
		if f.FromRank == f.ToRank {
			t.Errorf("flow %d connects rank %d to itself", f.ID, f.FromRank)
		}
		if f.ToTime.Before(f.FromTime) {
			t.Errorf("flow %d arrives before it departs", f.ID)
		}
	}
}

// TestFlowTailInsideSendSlice is TestFlows' race made deterministic: an
// eager receive that completes before the sender reads its end clock.
// The arrow must still leave no later than it arrives, from inside the
// sending slice.
func TestFlowTailInsideSendSlice(t *testing.T) {
	t0 := time.Now()
	send := mpi.Event{Rank: 0, Prim: mpi.PrimSend, Peer: 1, Start: t0, Dur: 10 * time.Microsecond, SendID: 1}
	recv := mpi.Event{Rank: 1, Prim: mpi.PrimRecv, Peer: 0, Start: t0.Add(time.Microsecond), Dur: 2 * time.Microsecond, RecvID: 1}
	flows := Flows([]mpi.Event{send, recv})
	if len(flows) != 1 {
		t.Fatalf("got %d flows, want 1", len(flows))
	}
	f := flows[0]
	if want := t0.Add(3 * time.Microsecond); !f.FromTime.Equal(want) || !f.ToTime.Equal(want) {
		t.Errorf("flow leaves at +%v and arrives at +%v, want both at the receive's end (+3µs)",
			f.FromTime.Sub(t0), f.ToTime.Sub(t0))
	}
	// The usual order keeps the sender's end as the tail.
	recv.Start = t0.Add(20 * time.Microsecond)
	f = Flows([]mpi.Event{send, recv})[0]
	if want := t0.Add(10 * time.Microsecond); !f.FromTime.Equal(want) {
		t.Errorf("flow leaves at +%v, want the send's end (+10µs)", f.FromTime.Sub(t0))
	}
}

// TestWriteChromeTrace checks the exported trace is valid JSON carrying
// slices, flow-start/flow-finish pairs and the caller's pid.
func TestWriteChromeTrace(t *testing.T) {
	pc := runPingPong(t)
	var buf bytes.Buffer
	if err := pc.WriteChromeTrace(&buf, 7, "pingpong"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			PID   int    `json:"pid"`
			ID    int64  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var slices, starts, finishes int
	ids := make(map[int64][2]int)
	for _, e := range doc.TraceEvents {
		if e.PID != 7 && e.Phase != "M" {
			t.Fatalf("event has pid %d, want 7", e.PID)
		}
		switch e.Phase {
		case "X":
			slices++
		case "s":
			starts++
			v := ids[e.ID]
			v[0]++
			ids[e.ID] = v
		case "f":
			finishes++
			v := ids[e.ID]
			v[1]++
			ids[e.ID] = v
		}
	}
	if slices == 0 {
		t.Error("no duration slices in trace")
	}
	if starts != 6 || finishes != 6 {
		t.Errorf("got %d flow starts and %d finishes, want 6 each", starts, finishes)
	}
	for id, v := range ids {
		if v[0] != 1 || v[1] != 1 {
			t.Errorf("flow id %d has %d starts and %d finishes, want 1+1", id, v[0], v[1])
		}
	}
}

// TestIntervalsAndSummary checks the derived compute/comm intervals and
// the critical-path summary over a run with a known laggard.
func TestIntervalsAndSummary(t *testing.T) {
	const delay = 30 * time.Millisecond
	pc := New()
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			time.Sleep(delay) // "compute"
		}
		return c.Barrier()
	}, mpi.WithHook(pc))
	if err != nil {
		t.Fatal(err)
	}
	ivs := pc.Intervals()
	var computeByRank [2]time.Duration
	for _, iv := range ivs {
		if iv.Kind == Compute {
			computeByRank[iv.Rank] += iv.Dur
		}
	}
	if computeByRank[1] < delay/2 {
		t.Errorf("rank 1 compute %v, want at least %v", computeByRank[1], delay/2)
	}
	s := Summarize(pc.Events())
	if s.Ranks != 2 {
		t.Fatalf("summary sees %d ranks, want 2", s.Ranks)
	}
	if s.MaxSpan <= 0 || s.MeanSpan <= 0 {
		t.Errorf("degenerate spans: max %v mean %v", s.MaxSpan, s.MeanSpan)
	}
	rpt := Report(pc.Events())
	for _, want := range []string{"per-primitive profile", "per-rank summary", "wait states", "MPI_Barrier"} {
		if !strings.Contains(rpt, want) {
			t.Errorf("report is missing %q", want)
		}
	}
}

// TestAccount checks the sacct-feeding rollup on a payload-bearing run.
func TestAccount(t *testing.T) {
	pc := runPingPong(t)
	a := Account(pc.Events())
	if a.CommBytes != 24 { // 6 sends x 4 bytes; receives don't double count
		t.Errorf("CommBytes %d, want 24", a.CommBytes)
	}
	if a.Elapsed <= 0 {
		t.Error("Elapsed not positive")
	}
	if a.WaitFrac < 0 || a.WaitFrac > 1 {
		t.Errorf("WaitFrac %f outside [0,1]", a.WaitFrac)
	}
}

// killInjector kills one rank at its nth primitive; frames pass through.
type killInjector struct{ rank, call int }

func (k killInjector) AtCall(rank, call int) bool { return rank == k.rank && call == k.call }
func (k killInjector) AtFrame(src, dst int) (mpi.FrameAction, time.Duration) {
	return mpi.FrameDeliver, 0
}

// TestLifecycleMarkers checks the fault-tolerance timeline flows from the
// runtime through the collector into the Chrome trace as instant events.
func TestLifecycleMarkers(t *testing.T) {
	pc := New()
	err := mpi.Run(3, func(c *mpi.Comm) error {
		if _, err := mpi.Allreduce(c, []float64{1}, mpi.OpSum[float64]); err != nil {
			var rf *mpi.RankFailedError
			if errors.As(err, &rf) {
				c.Lifecycle(mpi.LifeRecovery, "survivor saw failure")
			}
			return nil // tolerate the injected failure
		}
		return nil
	}, mpi.WithInjector(killInjector{rank: 2, call: 1}), mpi.WithHook(pc))
	if err != nil && !errors.Is(err, mpi.ErrRankKilled) {
		t.Fatalf("world error: %v", err)
	}
	evs := pc.LifecycleEvents()
	kinds := make(map[string]int)
	for _, e := range evs {
		kinds[e.Kind]++
	}
	if kinds[mpi.LifeFailure] == 0 {
		t.Fatalf("no %q lifecycle event recorded: %v", mpi.LifeFailure, kinds)
	}
	if kinds[mpi.LifeRecovery] == 0 {
		t.Fatalf("no application %q event recorded: %v", mpi.LifeRecovery, kinds)
	}
	var buf bytes.Buffer
	if err := pc.WriteChromeTrace(&buf, 0, "ft"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"i"`, `"cat":"lifecycle"`, `"name":"failure"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome trace missing %s", want)
		}
	}
}

// TestRMATargetWaitFixture: rank 0 fetches from rank 1's window over a
// link that holds every frame for delay, so its Get waits out the
// request's and the reply's transit. Rank 0's blocked time must be
// attributed to the (0 waits on 1) rma-target-wait edge.
func TestRMATargetWaitFixture(t *testing.T) {
	const delay = 50 * time.Millisecond
	pc := New()
	err := mpi.RunTCP(2, func(c *mpi.Comm) error {
		w, err := c.WinCreate(8)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := w.GetInto(make([]byte, 8), 1, 0); err != nil {
				return err
			}
		}
		return w.Free()
	}, mpi.WithHook(pc), mpi.WithLinkLatency(delay))
	if err != nil {
		t.Fatal(err)
	}
	ws := WaitStates(pc.Events())
	got, ok := findWait(ws, RMATargetWait, 0, 1)
	if !ok {
		t.Fatalf("no rma-target-wait state for (waiter 0, peer 1); states: %+v", ws)
	}
	if got.Wait < delay/2 {
		t.Errorf("rma-target wait %v, want at least %v", got.Wait, delay/2)
	}
}

// TestAccountRMAMirrorSkip: target-side mirror events repeat the origin's
// Primitive and Bytes; accounting must count the payload exactly once.
func TestAccountRMAMirrorSkip(t *testing.T) {
	now := time.Now()
	events := []mpi.Event{
		{Rank: 0, Prim: mpi.PrimRMAPut, Peer: 1, Bytes: 100, Start: now, SendID: 7},
		{Rank: 1, Prim: mpi.PrimRMAPut, Peer: 0, Bytes: 100, Start: now, RecvID: 7}, // mirror
		{Rank: 0, Prim: mpi.PrimRMAAcc, Peer: 1, Bytes: 24, Start: now, SendID: 8},
		{Rank: 1, Prim: mpi.PrimRMAAcc, Peer: 0, Bytes: 24, Start: now, RecvID: 8}, // mirror
		{Rank: 0, Prim: mpi.PrimRMAGet, Peer: 1, Bytes: 64, Start: now, SendID: 9}, // fetch: not send volume
	}
	a := Account(events)
	if a.CommBytes != 124 {
		t.Fatalf("CommBytes = %d, want 124 (origin Put 100 + origin Acc 24, mirrors skipped)", a.CommBytes)
	}
}

// Reset clears recorded events and restarts the time axis.
func (p *Collector) Reset() {
	p.mu.Lock()
	p.events = p.events[:0]
	p.lifecycle = p.lifecycle[:0]
	p.epoch = time.Now()
	p.mu.Unlock()
}
