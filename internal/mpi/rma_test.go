package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

// snapshot copies the recorded events out from under the eventLog mutex.
func (l *eventLog) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// rmaTransports runs the same world function over the channel and TCP
// transports: the ISSUE's acceptance criterion is identical one-sided
// semantics on both.
func rmaTransports(t *testing.T, np int, fn func(*Comm) error, opts ...Option) {
	t.Helper()
	t.Run("channel", func(t *testing.T) {
		if err := Run(np, fn, opts...); err != nil {
			t.Fatalf("channel transport: %v", err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		if err := RunTCP(np, fn, opts...); err != nil {
			t.Fatalf("tcp transport: %v", err)
		}
	})
}

func putInt64(w *Win, target, offset int, v int64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return w.Put(target, offset, b[:])
}

func getInt64(w *Win, target, offset int) (int64, error) {
	b, err := w.Get(target, offset, 8)
	if err != nil {
		return 0, err
	}
	v := int64(binary.LittleEndian.Uint64(b))
	Release(b)
	return v, nil
}

// TestRMAPutGetFence: every rank Puts its stamp into every member's
// window (one slot per origin), a Fence closes the epoch, and each rank
// verifies both its own region (Local) and remote regions (Get).
func TestRMAPutGetFence(t *testing.T) {
	const np = 4
	rmaTransports(t, np, func(c *Comm) error {
		w, err := c.WinCreate(8 * np)
		if err != nil {
			return err
		}
		me := int64(100 + c.Rank())
		for dst := 0; dst < np; dst++ {
			if err := putInt64(w, dst, 8*c.Rank(), me); err != nil {
				return fmt.Errorf("put to %d: %w", dst, err)
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		for origin := 0; origin < np; origin++ {
			got := int64(binary.LittleEndian.Uint64(w.Local()[8*origin:]))
			if got != int64(100+origin) {
				return fmt.Errorf("rank %d local slot %d = %d, want %d", c.Rank(), origin, got, 100+origin)
			}
		}
		// Remote verification: read the next rank's window.
		peer := (c.Rank() + 1) % np
		for origin := 0; origin < np; origin++ {
			got, err := getInt64(w, peer, 8*origin)
			if err != nil {
				return fmt.Errorf("get from %d: %w", peer, err)
			}
			if got != int64(100+origin) {
				return fmt.Errorf("rank %d remote slot %d on %d = %d, want %d", c.Rank(), origin, peer, got, 100+origin)
			}
		}
		return w.Free()
	})
}

// TestRMAGetInto exercises the allocation-free fetch variant.
func TestRMAGetInto(t *testing.T) {
	rmaTransports(t, 2, func(c *Comm) error {
		w, err := c.WinCreate(64)
		if err != nil {
			return err
		}
		for i := range w.Local() {
			w.Local()[i] = byte(c.Rank()*16 + i)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		peer := 1 - c.Rank()
		dst := make([]byte, 64)
		if err := w.GetInto(dst, peer, 0); err != nil {
			return err
		}
		for i := range dst {
			if dst[i] != byte(peer*16+i) {
				return fmt.Errorf("rank %d byte %d = %d, want %d", c.Rank(), i, dst[i], peer*16+i)
			}
		}
		return w.Free()
	})
}

// TestRMAAccumulate covers the int64 combining operators. SUM, MAX and
// MIN are commutative, so concurrent origins yield a deterministic
// result; REPLACE is exercised by a single origin.
func TestRMAAccumulate(t *testing.T) {
	const np = 4
	rmaTransports(t, np, func(c *Comm) error {
		w, err := c.WinCreate(8 * 4)
		if err != nil {
			return err
		}
		r := int64(c.Rank())
		// Slot 0: sum of all ranks; slot 1: max; slot 2: min (seeded high).
		binary.LittleEndian.PutUint64(w.Local()[16:], uint64(int64(1000)))
		if err := w.Fence(); err != nil { // publish the seed
			return err
		}
		for dst := 0; dst < np; dst++ {
			if err := w.Accumulate(dst, 0, []int64{r + 1}, AccSum); err != nil {
				return err
			}
			if err := w.Accumulate(dst, 8, []int64{r * 10}, AccMax); err != nil {
				return err
			}
			if err := w.Accumulate(dst, 16, []int64{r + 5}, AccMin); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			if err := w.Accumulate(np-1, 24, []int64{77}, AccReplace); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		local := w.Local()
		if got := int64(binary.LittleEndian.Uint64(local[0:])); got != 1+2+3+4 {
			return fmt.Errorf("rank %d SUM slot = %d, want 10", c.Rank(), got)
		}
		if got := int64(binary.LittleEndian.Uint64(local[8:])); got != 30 {
			return fmt.Errorf("rank %d MAX slot = %d, want 30", c.Rank(), got)
		}
		if got := int64(binary.LittleEndian.Uint64(local[16:])); got != 5 {
			return fmt.Errorf("rank %d MIN slot = %d, want 5", c.Rank(), got)
		}
		if c.Rank() == np-1 {
			if got := int64(binary.LittleEndian.Uint64(local[24:])); got != 77 {
				return fmt.Errorf("REPLACE slot = %d, want 77", got)
			}
		}
		return w.Free()
	})
}

// TestRMACompareAndSwap: all ranks race a CAS on rank 0's slot; exactly
// one must win, and the slot must hold the winner's stamp.
func TestRMACompareAndSwap(t *testing.T) {
	const np = 4
	rmaTransports(t, np, func(c *Comm) error {
		w, err := c.WinCreate(8)
		if err != nil {
			return err
		}
		stamp := int64(c.Rank() + 1)
		old, err := w.CompareAndSwap(0, 0, 0, stamp)
		if err != nil {
			return err
		}
		won := int64(0)
		if old == 0 {
			won = 1
		}
		winners, err := Allreduce(c, []int64{won}, OpSum)
		if err != nil {
			return err
		}
		if winners[0] != 1 {
			return fmt.Errorf("%d CAS winners, want exactly 1", winners[0])
		}
		if c.Rank() == 0 {
			v := int64(binary.LittleEndian.Uint64(w.Local()))
			if v < 1 || v > np {
				return fmt.Errorf("slot holds %d, want a rank stamp in [1,%d]", v, np)
			}
		}
		// A losing CAS must not have modified the slot: re-read and check
		// it still matches exactly one winner's stamp everywhere.
		val, err := getInt64(w, 0, 0)
		if err != nil {
			return err
		}
		vals, err := allgather(c, []int64{val})
		if err != nil {
			return err
		}
		for _, v := range vals {
			if v != vals[0] {
				return fmt.Errorf("ranks disagree on slot value: %v", vals)
			}
		}
		return w.Free()
	})
}

// TestRMASelfOps: one-sided operations where origin == target flow
// through the same request path and must behave identically.
func TestRMASelfOps(t *testing.T) {
	rmaTransports(t, 2, func(c *Comm) error {
		w, err := c.WinCreate(16)
		if err != nil {
			return err
		}
		me := c.Rank()
		if err := putInt64(w, me, 0, 7*int64(me+1)); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if err := w.Accumulate(me, 0, []int64{1}, AccSum); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		old, err := w.CompareAndSwap(me, 8, 0, 99)
		if err != nil {
			return err
		}
		if old != 0 {
			return fmt.Errorf("self-CAS old = %d, want 0", old)
		}
		v, err := getInt64(w, me, 0)
		if err != nil {
			return err
		}
		if want := 7*int64(me+1) + 1; v != want {
			return fmt.Errorf("self window = %d, want %d", v, want)
		}
		return w.Free()
	})
}

// TestRMAWindowsAcrossSplit: two disjoint sub-communicators create
// windows concurrently; the (ctx, winSeq) key must keep them separate.
func TestRMAWindowsAcrossSplit(t *testing.T) {
	const np = 4
	rmaTransports(t, np, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		w, err := sub.WinCreate(8 * sub.Size())
		if err != nil {
			return err
		}
		stamp := int64(1000*(c.Rank()%2) + sub.Rank())
		for dst := 0; dst < sub.Size(); dst++ {
			if err := putInt64(w, dst, 8*sub.Rank(), stamp); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		for origin := 0; origin < sub.Size(); origin++ {
			got := int64(binary.LittleEndian.Uint64(w.Local()[8*origin:]))
			want := int64(1000*(c.Rank()%2) + origin)
			if got != want {
				return fmt.Errorf("rank %d sub slot %d = %d, want %d (cross-communicator leak?)", c.Rank(), origin, got, want)
			}
		}
		return w.Free()
	})
}

// TestRMAErrors pins down origin-side validation.
func TestRMAErrors(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if _, err := c.WinCreate(-1); err == nil {
			return errors.New("negative WinCreate size must fail")
		}
		w, err := c.WinCreate(16)
		if err != nil {
			return err
		}
		if err := w.Put(0, 12, make([]byte, 8)); err == nil {
			return errors.New("out-of-range Put must fail")
		}
		if err := w.Put(5, 0, make([]byte, 8)); err == nil {
			return errors.New("Put to out-of-range rank must fail")
		}
		if _, err := w.Get(0, -1, 4); err == nil {
			return errors.New("negative-offset Get must fail")
		}
		if err := w.Accumulate(0, 0, []int64{1}, AccOp(9)); err == nil {
			return errors.New("unknown AccOp must fail")
		}
		if err := w.Free(); err != nil {
			return err
		}
		if err := w.Put(0, 0, make([]byte, 4)); err == nil {
			return errors.New("Put on freed Win must fail")
		}
		if err := w.Free(); err == nil {
			return errors.New("double Free must fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// rmaResilient is the fault-plane acceptance scenario: the victim dies at
// its own Fence; survivors observe RankFailedError — from a Put (or its
// Flush) to the dead rank, or already from WinCreate's internal barrier —
// then Shrink, create a fresh window on the shrunken communicator, and
// finish a clean epoch there.
func rmaResilient(victim int, final []int64) func(*Comm) error {
	return func(c *Comm) error {
		w, err := c.WinCreate(8 * c.Size())
		if c.Rank() == victim {
			if err != nil {
				return fmt.Errorf("victim WinCreate: %v", err)
			}
			// countCall sequence for this rank: WinCreate(1), whose
			// barrier is no call of its own, Fence(2) — the injector
			// fires here.
			err := w.Fence()
			if !errors.Is(err, ErrRankKilled) {
				return fmt.Errorf("victim Fence: %v, want ErrRankKilled", err)
			}
			return err // simulated crash
		}
		// The victim dies in its Fence, immediately after WinCreate's
		// barrier completed on the victim's side. A slow survivor can
		// therefore still be inside that barrier when the failure epoch
		// advances — ULFM lets a collective raise the failure at any
		// subset of ranks — so WinCreate itself may return
		// RankFailedError here. Otherwise keep issuing one-sided traffic
		// at the victim until the failure surfaces: Flush forces remote
		// completion, so the missing ack is observed; after detection
		// the mailbox's liveErr fails the Put itself.
		if err == nil {
			deadline := time.Now().Add(10 * time.Second)
			for {
				err = putInt64(w, victim, 8*c.Rank(), 1)
				if err == nil {
					err = w.Flush()
				}
				if err != nil {
					break
				}
				if time.Now().After(deadline) {
					return errors.New("survivor never observed the victim's failure")
				}
			}
		}
		if !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("survivor %d got %v, want RankFailedError", c.Rank(), err)
		}
		nc, err := c.Shrink()
		if err != nil {
			return err
		}
		nw, err := nc.WinCreate(8 * nc.Size())
		if err != nil {
			return err
		}
		for dst := 0; dst < nc.Size(); dst++ {
			if err := putInt64(nw, dst, 8*nc.Rank(), int64(nc.Rank()+1)); err != nil {
				return err
			}
		}
		if err := nw.Fence(); err != nil {
			return err
		}
		var sum int64
		for origin := 0; origin < nc.Size(); origin++ {
			sum += int64(binary.LittleEndian.Uint64(nw.Local()[8*origin:]))
		}
		final[c.Rank()] = sum
		return nw.Free()
	}
}

// TestRMAPutToFailedRank runs the recovery scenario on both transports;
// the kill index is deterministic (the victim's third primitive), so the
// test is reproducible run to run.
func TestRMAPutToFailedRank(t *testing.T) {
	const np, victim = 4, 2
	check := func(t *testing.T, err error, final []int64) {
		t.Helper()
		if err == nil || !errors.Is(err, ErrRankKilled) {
			t.Fatalf("want the victim's ErrRankKilled in the world error, got %v", err)
		}
		want := int64(1 + 2 + 3) // survivors contribute nc.Rank()+1 on a 3-rank world
		for r := 0; r < np; r++ {
			if r == victim {
				continue
			}
			if final[r] != want {
				t.Fatalf("survivor %d post-shrink window sum %d, want %d", r, final[r], want)
			}
		}
	}
	t.Run("channel", func(t *testing.T) {
		final := make([]int64, np)
		err := Run(np, rmaResilient(victim, final), WithInjector(killAtCall(victim, 2)))
		check(t, err, final)
	})
	t.Run("tcp", func(t *testing.T) {
		final := make([]int64, np)
		err := RunTCP(np, rmaResilient(victim, final), WithInjector(killAtCall(victim, 2)))
		check(t, err, final)
	})
}

// TestRMAEventParity: the profiling layer must report the same RMA event
// multiset — kind, origin/target counts and byte totals — on both
// transports. Mirror events (target side, SendID == 0) are included, so
// this also pins the progress-engine hook emission.
func TestRMAEventParity(t *testing.T) {
	const np = 3
	body := func(c *Comm) error {
		w, err := c.WinCreate(8 * np)
		if err != nil {
			return err
		}
		for dst := 0; dst < np; dst++ {
			if err := putInt64(w, dst, 8*c.Rank(), int64(c.Rank())); err != nil {
				return err
			}
			if err := w.Accumulate(dst, 8*c.Rank(), []int64{1}, AccSum); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if _, err := w.Get((c.Rank()+1)%np, 0, 8); err == nil {
			// fetched buffer deliberately leaked to the GC: parity only
		} else {
			return err
		}
		if _, err := w.CompareAndSwap((c.Rank()+1)%np, 0, -1, -2); err != nil {
			return err
		}
		return w.Free()
	}
	signature := func(events []Event) map[string]int {
		sig := make(map[string]int)
		for _, e := range events {
			if e.Prim < PrimRMAPut || e.Prim > PrimRMAWinFree {
				continue
			}
			side := "origin"
			if e.SendID == 0 && e.Prim <= PrimRMACas {
				side = "target"
			}
			sig[fmt.Sprintf("%s/%s/rank%d/bytes%d", e.Prim, side, e.Rank, e.Bytes)]++
		}
		return sig
	}
	chEv, tcpEv := &eventLog{}, &eventLog{}
	if err := Run(np, body, WithHook(chEv)); err != nil {
		t.Fatalf("channel: %v", err)
	}
	if err := RunTCP(np, body, WithHook(tcpEv)); err != nil {
		t.Fatalf("tcp: %v", err)
	}
	chSig, tcpSig := signature(chEv.snapshot()), signature(tcpEv.snapshot())
	if len(chSig) == 0 {
		t.Fatal("no RMA events recorded on the channel transport")
	}
	for k, n := range chSig {
		if tcpSig[k] != n {
			t.Errorf("event %q: channel %d, tcp %d", k, n, tcpSig[k])
		}
	}
	for k, n := range tcpSig {
		if _, ok := chSig[k]; !ok {
			t.Errorf("event %q: tcp %d, channel 0", k, n)
		}
	}
}

// TestRMAFlowPairing: every origin-side data-moving RMA event must carry
// a SendID that a target-side mirror event echoes as RecvID, so the
// Chrome exporter can draw origin→target arrows.
func TestRMAFlowPairing(t *testing.T) {
	h := &eventLog{}
	err := Run(2, func(c *Comm) error {
		w, err := c.WinCreate(8)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := putInt64(w, 1, 0, 5); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		return w.Free()
	}, WithHook(h))
	if err != nil {
		t.Fatal(err)
	}
	sends := make(map[int64]Event)
	recvs := make(map[int64]Event)
	for _, e := range h.snapshot() {
		if e.Prim != PrimRMAPut {
			continue
		}
		if e.SendID != 0 {
			sends[e.SendID] = e
		}
		if e.RecvID != 0 {
			recvs[e.RecvID] = e
		}
	}
	if len(sends) != 1 || len(recvs) != 1 {
		t.Fatalf("want 1 origin and 1 mirror Put event, got %d/%d", len(sends), len(recvs))
	}
	for id, s := range sends {
		r, ok := recvs[id]
		if !ok {
			t.Fatalf("origin SendID %d has no mirror RecvID", id)
		}
		if s.Rank != 0 || r.Rank != 1 || s.Peer != 1 || r.Peer != 0 {
			t.Fatalf("flow endpoints wrong: origin %+v mirror %+v", s, r)
		}
	}
}

// TestRMAAccessOverflow: an access whose end lies past math.MaxInt is
// rejected at the call on both transports. The range check compares the
// offset against the region size minus the length, so offset+n cannot
// wrap past it into a slice expression that panics.
func TestRMAAccessOverflow(t *testing.T) {
	rmaTransports(t, 2, func(c *Comm) error {
		w, err := c.WinCreate(64)
		if err != nil {
			return err
		}
		peer := 1 - c.Rank()
		for _, off := range []int{math.MaxInt - 3, math.MaxInt} {
			ops := []struct {
				name string
				do   func() error
			}{
				{"Put", func() error { return w.Put(peer, off, make([]byte, 8)) }},
				{"Get", func() error { _, err := w.Get(peer, off, 8); return err }},
				{"GetInto", func() error { return w.GetInto(make([]byte, 8), peer, off) }},
				{"Accumulate", func() error { return w.Accumulate(peer, off, []int64{1}, AccSum) }},
				{"CompareAndSwap", func() error { _, err := w.CompareAndSwap(peer, off, 0, 1); return err }},
			}
			for _, op := range ops {
				if err := op.do(); err == nil {
					return fmt.Errorf("%s at offset %d of a 64-byte window: no error", op.name, off)
				}
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		return w.Free()
	})
}

// TestRMAOpCodes pins the op codes on the wire: Put, Get, Accumulate
// and CompareAndSwap are 1 to 4, and every other code, 5 and 6 (once
// Lock and Unlock) among them, is a malformed entry.
func TestRMAOpCodes(t *testing.T) {
	if got := []byte{rmaPut, rmaGet, rmaAcc, rmaCas}; !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("op codes %v, want [1 2 3 4]", got)
	}
	for _, op := range []byte{0, 5, 6, 255} {
		for _, dtype := range []byte{0, 1} {
			if _, _, _, _, _, ok := rmaBatchNext(appendBatchEntry(nil, op, dtype, 0, 0, nil)); ok {
				t.Errorf("op %d dtype %d accepted", op, dtype)
			}
		}
	}
}

// FuzzRMAFrame fuzzes the decode of a single one-sided request, as a
// lone Put, Get, Accumulate or CompareAndSwap travels: one entry of the
// frame format. Arbitrary bytes must never panic, and an
// accepted entry must re-encode to the original prefix (round-trip
// property) with its data lying inside the frame.
func FuzzRMAFrame(f *testing.F) {
	f.Add(appendBatchEntry(nil, rmaPut, 0, 0, 0, []byte("hello")))
	f.Add(appendBatchEntry(nil, rmaGet, 0, 16, 0, le64s(8)))
	f.Add(appendBatchEntry(nil, rmaAcc, byte(AccSum), 0, 0, make([]byte, 16)))
	f.Add(appendBatchEntry(nil, rmaAcc, 1<<4|byte(AccMax), 8, 0, make([]byte, 8))) // an element kind beside int64: must be rejected
	f.Add(appendBatchEntry(nil, rmaCas, 0, 0, 0, le64s(42, 0)))
	f.Add(appendBatchEntry(nil, 5, 1, 0, 0, nil)) // the retired Lock code: must be rejected
	f.Add(appendBatchEntry(nil, 6, 0, 0, 0, nil)) // the retired Unlock code: must be rejected
	f.Add([]byte{})
	f.Add([]byte{255})
	f.Fuzz(func(t *testing.T, b []byte) {
		op, dtype, offset, msgid, data, ok := rmaBatchNext(b)
		if !ok {
			return
		}
		n := rmaBatchEntryLen + len(data)
		if n > len(b) {
			t.Fatalf("entry of %d bytes overruns the %d-byte frame", n, len(b))
		}
		redo := appendBatchEntry(nil, op, dtype, offset, msgid, data)
		if !bytes.Equal(redo, b[:n]) {
			t.Fatalf("request round-trip mismatch: %x -> %x", b[:n], redo)
		}
	})
}
