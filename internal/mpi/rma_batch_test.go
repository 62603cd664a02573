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

// appendBatchEntry builds one batch-frame entry the way batchAppend
// does, for tests and fuzz seeds.
func appendBatchEntry(b []byte, op, dtype byte, offset, msgid int64, data []byte) []byte {
	n := len(b)
	b = append(b, make([]byte, rmaBatchEntryLen)...)
	b[n] = op
	b[n+1] = dtype
	binary.LittleEndian.PutUint64(b[n+2:], uint64(offset))
	binary.LittleEndian.PutUint64(b[n+10:], uint64(msgid))
	binary.LittleEndian.PutUint32(b[n+18:], uint32(len(data)))
	return append(b, data...)
}

// le64s encodes vs as little-endian int64s: a Get's length, a
// CompareAndSwap's compare‖swap.
func le64s(vs ...int64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// TestRMABatchCoalescing pins the coalescing arithmetic: 100 Puts inside
// one epoch must cross as a single batch flush — ops/flushes = 100 —
// and the flush must take the shared-memory fast path on the channel
// transport and the mailbox path on TCP.
func TestRMABatchCoalescing(t *testing.T) {
	const puts = 100
	body := func(c *Comm) error {
		w, err := c.WinCreate(8 * puts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < puts; i++ {
				if err := putInt64(w, 1, 8*i, int64(i+1)); err != nil {
					return err
				}
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			local := w.Local()
			for i := 0; i < puts; i++ {
				if got := int64(binary.LittleEndian.Uint64(local[8*i:])); got != int64(i+1) {
					return fmt.Errorf("slot %d: got %d, want %d", i, got, i+1)
				}
			}
		}
		return w.Free()
	}
	check := func(t *testing.T, run func(int, func(*Comm) error, ...Option) error, wantDirect int64) {
		t.Helper()
		before := RMABatchStats()
		if err := run(2, body); err != nil {
			t.Fatal(err)
		}
		after := RMABatchStats()
		if ops := after.Ops - before.Ops; ops != puts {
			t.Errorf("coalesced ops: got %d, want %d", ops, puts)
		}
		if flushes := after.Flushes - before.Flushes; flushes != 1 {
			t.Errorf("batch flushes: got %d, want 1", flushes)
		}
		if direct := after.DirectApplies - before.DirectApplies; direct != wantDirect {
			t.Errorf("direct applies: got %d, want %d", direct, wantDirect)
		}
		if wantBytes := int64(puts * (rmaBatchEntryLen + 8)); after.Bytes-before.Bytes != wantBytes {
			t.Errorf("flushed bytes: got %d, want %d", after.Bytes-before.Bytes, wantBytes)
		}
	}
	t.Run("channel", func(t *testing.T) { check(t, Run, 1) })
	t.Run("tcp", func(t *testing.T) { check(t, RunTCP, 0) })
}

// TestRMABatchEventParity is the coalesced twin of TestRMAEventParity:
// with many Puts and Accumulates riding per-target batches, the hook
// stream — including one target-side mirror event per logical op — must
// be identical on the channel transport (shared-memory fast path) and
// TCP (mailbox batch frames). Coalescing must be invisible to
// profilers.
func TestRMABatchEventParity(t *testing.T) {
	const np = 3
	body := func(c *Comm) error {
		w, err := c.WinCreate(8 * np)
		if err != nil {
			return err
		}
		for dst := 0; dst < np; dst++ {
			for i := 0; i < 8; i++ {
				if err := putInt64(w, dst, 8*c.Rank(), int64(i)); err != nil {
					return err
				}
			}
			for i := 0; i < 4; i++ {
				if err := w.Accumulate(dst, 8*c.Rank(), []int64{1}, AccSum); err != nil {
					return err
				}
			}
		}
		if err := w.Fence(); err != nil {
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
	// Every rank emits one origin event and one target mirror per
	// logical Put; 8 Puts to each of np destinations.
	wantPuts := 8 * np
	for r := 0; r < np; r++ {
		key := fmt.Sprintf("%s/target/rank%d/bytes8", PrimRMAPut, r)
		if chSig[key] != wantPuts {
			t.Errorf("channel mirror Puts at rank %d: got %d, want %d", r, chSig[key], wantPuts)
		}
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

// TestRMAPutAsync: the request returned by PutAsync completes only when
// its issue epoch closes — Test stays false while the epoch is open,
// Flush completes it, and Wait closes the epoch itself when nothing
// else has.
func TestRMAPutAsync(t *testing.T) {
	rmaTransports(t, 2, func(c *Comm) error {
		w, err := c.WinCreate(16)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			r1, err := w.PutAsync(1, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			if err != nil {
				return err
			}
			if done, _, _, err := r1.Test(); err != nil {
				return err
			} else if done {
				return fmt.Errorf("PutAsync request done before its epoch closed")
			}
			if err := w.Flush(); err != nil {
				return err
			}
			if done, _, _, err := r1.Test(); err != nil {
				return err
			} else if !done {
				return fmt.Errorf("PutAsync request still pending after Flush closed the epoch")
			}
			r2, err := w.PutAsync(1, 8, []byte{9, 10, 11, 12, 13, 14, 15, 16})
			if err != nil {
				return err
			}
			if _, _, err := r2.Wait(); err != nil { // Wait closes the epoch itself
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
			if !bytes.Equal(w.Local(), want) {
				return fmt.Errorf("window after async puts: %v, want %v", w.Local(), want)
			}
		}
		return w.Free()
	})
}

// TestRMABatchMidEpochKill: a rank dies while its peers hold queued
// batches destined for it. The closing Fence must surface the failure
// as a RankFailedError (the batch frame lands in the dead mailbox's
// black hole and is recycled there), queued buffers destined for later
// epochs must be discarded cleanly, and a fresh world on the same pools
// must run bit-clean afterwards.
func TestRMABatchMidEpochKill(t *testing.T) {
	const np, victim = 3, 2
	body := func(c *Comm) error {
		w, err := c.WinCreate(64 * np)
		if err != nil {
			return err
		}
		// Queue a batch for every member, victim included. The victim is
		// killed at its own first Put, before anything flushes.
		block := make([]byte, 64)
		for i := range block {
			block[i] = byte(c.Rank() + i)
		}
		for dst := 0; dst < np; dst++ {
			if err := w.Put(dst, 64*c.Rank(), block); err != nil {
				if c.Rank() == victim && errors.Is(err, ErrRankKilled) {
					return err // simulated crash: die with batches queued
				}
				return err
			}
		}
		err = w.Fence()
		if err == nil {
			return fmt.Errorf("rank %d: Fence across the kill unexpectedly succeeded", c.Rank())
		}
		if !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("rank %d: Fence got %v, want RankFailedError", c.Rank(), err)
		}
		// Queue another batch after the failure is known: the epoch close
		// must discard it (and recycle the buffer) rather than wedge.
		if err := w.Put((c.Rank()+1)%np, 0, block); err == nil {
			if err := w.Flush(); err == nil {
				return fmt.Errorf("rank %d: Flush after failure unexpectedly succeeded", c.Rank())
			}
		}
		return nil
	}
	t.Run("channel", func(t *testing.T) {
		err := Run(np, body, WithInjector(killAtCall(victim, 2)), WithWatchdog(30*time.Second))
		if err == nil || !errors.Is(err, ErrRankKilled) {
			t.Fatalf("want the victim's ErrRankKilled in the world error, got %v", err)
		}
		if err := Run(np, func(c *Comm) error { return rmaHygieneTraffic(c, 10) }); err != nil {
			t.Fatalf("clean run after mid-epoch kill: %v", err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		err := RunTCP(np, body, WithInjector(killAtCall(victim, 2)), WithWatchdog(30*time.Second))
		if err == nil || !errors.Is(err, ErrRankKilled) {
			t.Fatalf("want the victim's ErrRankKilled in the world error, got %v", err)
		}
		if err := RunTCP(np, func(c *Comm) error { return rmaHygieneTraffic(c, 10) }); err != nil {
			t.Fatalf("clean run after mid-epoch kill: %v", err)
		}
	})
}

// TestRMABatchOrdering: entries within a batch apply in program order,
// so the last Put to an offset wins — on both the fast path and the
// mailbox path.
func TestRMABatchOrdering(t *testing.T) {
	rmaTransports(t, 2, func(c *Comm) error {
		w, err := c.WinCreate(8)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for v := int64(1); v <= 50; v++ {
				if err := putInt64(w, 1, 0, v); err != nil {
					return err
				}
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if got := int64(binary.LittleEndian.Uint64(w.Local())); got != 50 {
				return fmt.Errorf("last-writer-wins violated: got %d, want 50", got)
			}
		}
		return w.Free()
	})
}

// TestRMABatchEagerFlush: a batch that outgrows rmaBatchMaxBytes is
// flushed mid-epoch, so unbounded epochs hold bounded memory. All the
// data must still land.
func TestRMABatchEagerFlush(t *testing.T) {
	const chunk = 4096
	puts := rmaBatchMaxBytes/chunk + 4 // enough to trip the threshold
	rmaTransports(t, 2, func(c *Comm) error {
		w, err := c.WinCreate(chunk * puts)
		if err != nil {
			return err
		}
		before := RMABatchStats()
		if c.Rank() == 0 {
			data := make([]byte, chunk)
			for i := 0; i < puts; i++ {
				for j := range data {
					data[j] = byte(i + j)
				}
				if err := w.Put(1, chunk*i, data); err != nil {
					return err
				}
			}
			if flushes := RMABatchStats().Flushes - before.Flushes; flushes == 0 {
				return fmt.Errorf("no eager flush despite %d bytes queued", chunk*puts)
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			local := w.Local()
			for i := 0; i < puts; i++ {
				for j := 0; j < chunk; j += 997 {
					if local[chunk*i+j] != byte(i+j) {
						return fmt.Errorf("put %d byte %d corrupted", i, j)
					}
				}
			}
		}
		return w.Free()
	})
}

// TestRMAApplyOverflow feeds the target-side apply hand-built entries
// whose end lies past math.MaxInt64, as a peer process could send them:
// each must be dropped without a panic or a write, and a Get or
// CompareAndSwap must answer nil.
func TestRMAApplyOverflow(t *testing.T) {
	const off = math.MaxInt64 - 3
	frames := []struct {
		name  string
		frame []byte
	}{
		{"put", appendBatchEntry(nil, rmaPut, 0, off, 0, make([]byte, 8))},
		{"acc", appendBatchEntry(nil, rmaAcc, byte(AccSum), off, 0, le64s(1))},
		{"get", appendBatchEntry(nil, rmaGet, 0, off, 0, le64s(8))},
		{"get-huge-length", appendBatchEntry(nil, rmaGet, 0, 8, 0, le64s(math.MaxInt64))},
		{"cas", appendBatchEntry(nil, rmaCas, 0, off, 0, le64s(0, 1))},
	}
	for _, tc := range frames {
		tgt := &winTarget{buf: make([]byte, 64)}
		if resp := (&World{}).applyRMA(tgt, 0, 1, tc.frame); resp != nil {
			t.Errorf("%s: out-of-range access answered %d bytes", tc.name, len(resp))
		}
		if !bytes.Equal(tgt.buf, make([]byte, 64)) {
			t.Errorf("%s: out-of-range access wrote the region: %x", tc.name, tgt.buf)
		}
	}
}

// FuzzRMABatchFrame fuzzes the one frame format: arbitrary bytes must
// never panic, every accepted entry must re-encode to its original
// header (round-trip property), and the walk must consume the frame
// without overlap or gaps. The frame is then applied to a 64-byte region
// fenced by guard bytes, which no entry may write.
func FuzzRMABatchFrame(f *testing.F) {
	var one []byte
	one = appendBatchEntry(one, rmaPut, 0, 0, 1, []byte("payload"))
	f.Add(one)
	var multi []byte
	multi = appendBatchEntry(multi, rmaPut, 0, 64, 2, make([]byte, 16))
	multi = appendBatchEntry(multi, rmaAcc, byte(AccSum), 8, 3, make([]byte, 8))
	multi = appendBatchEntry(multi, rmaAcc, byte(AccMax), 16, 0, make([]byte, 24))
	f.Add(multi)
	f.Add(appendBatchEntry(nil, rmaPut, 0, 1<<40, 0, nil))
	f.Add(appendBatchEntry(nil, rmaGet, 0, 0, 0, nil)) // a Get without its length: must be rejected
	f.Add([]byte{})
	f.Add([]byte{255})
	f.Add(bytes.Repeat([]byte{rmaPut}, rmaBatchEntryLen))
	f.Add(appendBatchEntry(nil, rmaGet, 0, math.MaxInt64-3, 0, le64s(8)))
	f.Add(appendBatchEntry(nil, rmaPut, 0, math.MaxInt64-3, 0, make([]byte, 8)))
	f.Fuzz(func(t *testing.T, b []byte) {
		for rest := b; len(rest) > 0; {
			op, dtype, offset, msgid, data, ok := rmaBatchNext(rest)
			if !ok {
				break
			}
			next := rest[rmaBatchEntryLen+len(data):]
			redo := appendBatchEntry(nil, op, dtype, offset, msgid, data)
			if !bytes.Equal(redo, rest[:rmaBatchEntryLen+len(data)]) {
				t.Fatalf("entry round-trip mismatch: %x -> %x", rest[:rmaBatchEntryLen+len(data)], redo)
			}
			if len(next) >= len(rest) {
				t.Fatalf("walker did not advance: %d -> %d bytes", len(rest), len(next))
			}
			rest = next
		}
		const guard, size = 16, 64
		backing := bytes.Repeat([]byte{0xa5}, guard+size+guard)
		tgt := &winTarget{buf: backing[guard : guard+size : guard+size]}
		putBuf((&World{}).applyRMA(tgt, 0, 1, b))
		for i, v := range backing {
			if (i < guard || i >= guard+size) && v != 0xa5 {
				t.Fatalf("apply wrote byte %d outside the %d-byte region", i-guard, size)
			}
		}
	})
}
