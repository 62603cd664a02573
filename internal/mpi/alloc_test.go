package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// Allocation-regression tests for the zero-copy data path. Traffic runs
// under any build (so -race exercises the pooled paths); the numeric
// assertions are skipped under the race detector, whose instrumentation
// allocates. testing.AllocsPerRun counts mallocs process-wide, so the
// peer ranks' steady-state behavior is part of the budget — which is the
// point: the whole round trip must be allocation-free, not just the
// caller's half.

// TestAllocFreeEagerPingPong asserts the headline guarantee: an eager
// Send/RecvBytes round trip on the channel transport allocates
// nothing once the pools are primed.
func TestAllocFreeEagerPingPong(t *testing.T) {
	assertAllocFreePingPong(t, Run)
}

// TestAllocFreeEagerPingPongTCP holds the socket transport to the same
// guarantee: the writer sends each frame from its scratch header and the
// payload in one vectored write and the reader loop reuses one header
// buffer, so a round trip over loopback TCP allocates nothing either.
func TestAllocFreeEagerPingPongTCP(t *testing.T) {
	assertAllocFreePingPong(t, RunTCP)
}

func assertAllocFreePingPong(t *testing.T, run func(int, func(*Comm) error, ...Option) error) {
	const (
		warmup = 20
		rounds = 100
		tag    = 9
	)
	payload := make([]byte, 64)
	var avg float64
	err := run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			roundTrip := func() error {
				if err := Send(c, payload, 1, tag); err != nil {
					return err
				}
				b, _, err := c.RecvBytes(1, tag)
				if err != nil {
					return err
				}
				Release(b)
				return nil
			}
			for i := 0; i < warmup; i++ {
				if err := roundTrip(); err != nil {
					return err
				}
			}
			var inner error
			avg = testing.AllocsPerRun(rounds, func() {
				if err := roundTrip(); err != nil && inner == nil {
					inner = err
				}
			})
			return inner
		}
		// Peer: AllocsPerRun calls its body rounds+1 times (one extra
		// warmup call), so echo exactly warmup+rounds+1 messages.
		for i := 0; i < warmup+rounds+1; i++ {
			b, _, err := c.RecvBytes(0, tag)
			if err != nil {
				return err
			}
			err = Send(c, b, 0, tag)
			Release(b)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skipf("race detector instrumentation allocates; traffic ran clean (avg %.2f not asserted)", avg)
	}
	if avg >= 0.5 {
		t.Fatalf("eager ping-pong allocates %.2f allocs/op, want 0", avg)
	}
}

// TestAllocTCPLaunch pins what a RunTCP launch costs: four ranks that
// build the loopback mesh, meet at one Barrier and tear it down allocate
// at most 128 KiB per launch. Most of it is listening, dialing and
// accepting; each of the twelve connection ends adds one small read
// buffer. A 64 KiB reader and writer per end would cost 1.5 MiB.
func TestAllocTCPLaunch(t *testing.T) {
	const warmup, launches = 3, 20
	launch := func() {
		if err := RunTCP(4, func(c *Comm) error { return c.Barrier() }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		launch()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < launches; i++ {
		launch()
	}
	runtime.ReadMemStats(&after)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / launches / 1024
	if raceEnabled {
		t.Skipf("race detector instrumentation allocates; launches ran clean (%.1f KiB not asserted)", kib)
	}
	if kib > 128 {
		t.Fatalf("RunTCP(4) around one Barrier allocates %.1f KiB per launch, want <= 128", kib)
	}
}

// TestAllocTCPLaunchObjects pins the launch profile of the same
// RunTCP(4) + Barrier world by objects and bytes. It reads ~249 objects
// and ~16 KiB per launch: listening and dialing *net.TCPAddr values
// keeps the mesh off the resolver, the first dial attempt needs no
// context, and the twelve connection readers come from readerPool. The
// bounds leave ~3 % and 50 % headroom, so resolving the address
// strings (~40 objects), a deadline context per dial (~50 more) or a
// fresh 4 KiB reader per connection end (~48 KiB) each break one.
func TestAllocTCPLaunchObjects(t *testing.T) {
	const warmup, launches = 3, 20
	launch := func() {
		if err := RunTCP(4, func(c *Comm) error { return c.Barrier() }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		launch()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < launches; i++ {
		launch()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / launches
	kib := float64(after.TotalAlloc-before.TotalAlloc) / launches / 1024
	t.Logf("RunTCP(4) launch: %.1f objects, %.1f KiB", objects, kib)
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; bounds not asserted")
	}
	if objects > 256 || kib > 24 {
		t.Fatalf("RunTCP(4) around one Barrier allocates %.1f objects and %.1f KiB per launch, want <= 256 and <= 24", objects, kib)
	}
}

// TestAllocTreeAllreduceBound bounds world-wide allocations of an
// in-place tree allreduce at 4 ranks with an 8 KiB (rendezvous-path)
// buffer: 6 hops total (3 reduce + 3 broadcast), each allowed at most 2
// stray allocations.
func TestAllocTreeAllreduceBound(t *testing.T) {
	const (
		warmup = 20
		rounds = 50
		n      = 1024 // 8 KiB of float64 > the default eager threshold
	)
	var avg float64
	err := Run(4, func(c *Comm) error {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64(c.Rank() + i)
		}
		step := func() error { return AllreduceInto(c, buf, OpSum) }
		if c.Rank() == 0 {
			for i := 0; i < warmup; i++ {
				if err := step(); err != nil {
					return err
				}
			}
			var inner error
			avg = testing.AllocsPerRun(rounds, func() {
				if err := step(); err != nil && inner == nil {
					inner = err
				}
			})
			return inner
		}
		for i := 0; i < warmup+rounds+1; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skipf("race detector instrumentation allocates; traffic ran clean (avg %.2f not asserted)", avg)
	}
	const budget = 12.0 // 6 hops × 2 allocs across the whole world
	if avg > budget {
		t.Fatalf("tree allreduce allocates %.2f allocs/op world-wide, budget %v", avg, budget)
	}
}

// TestAllocStackBufferCollectives: small blocking reductions into a
// caller's stack array — the shape of distsort's and hashjoin's counters —
// allocate nothing. The fold must not let its operator escape: the hop
// state carries both the operator and the buffer, so an escaping
// operator moves the caller's array to the heap on every call.
func TestAllocStackBufferCollectives(t *testing.T) {
	const warmup, rounds = 20, 50
	var avg float64
	err := Run(4, func(c *Comm) error {
		step := func() error {
			var counts [2]int64
			counts[0] = int64(c.Rank())
			if err := AllreduceInto(c, counts[:], OpSum); err != nil {
				return err
			}
			var sums [3]float64
			sums[1] = float64(counts[0])
			return ReduceInto(c, sums[:], OpSum, 0)
		}
		if c.Rank() == 0 {
			for i := 0; i < warmup; i++ {
				if err := step(); err != nil {
					return err
				}
			}
			var inner error
			avg = testing.AllocsPerRun(rounds, func() {
				if err := step(); err != nil && inner == nil {
					inner = err
				}
			})
			return inner
		}
		for i := 0; i < warmup+rounds+1; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skipf("race detector instrumentation allocates; traffic ran clean (avg %.2f not asserted)", avg)
	}
	if avg >= 0.5 {
		t.Fatalf("stack-buffer AllreduceInto + ReduceInto allocate %.2f allocs/op world-wide, want 0", avg)
	}
}

// TestAllocCodec: encoding into a buffer with room and decoding into a
// recycled slice allocate nothing, for a plain and a named element type.
func TestAllocCodec(t *testing.T) {
	xs := make([]float64, 1000)
	named := make([]nInt16, 1000)
	buf := make([]byte, 0, 8*len(xs))
	dst := make([]float64, 0, len(xs))
	namedDst := make([]nInt16, 0, len(named))
	var err error
	avg := testing.AllocsPerRun(100, func() {
		buf = AppendMarshal(buf[:0], xs)
		if dst, err = UnmarshalInto(dst[:0], buf); err != nil {
			return
		}
		buf = AppendMarshal(buf[:0], named)
		namedDst, err = UnmarshalInto(namedDst[:0], buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skipf("race detector instrumentation allocates (avg %.2f not asserted)", avg)
	}
	if avg != 0 {
		t.Fatalf("AppendMarshal + UnmarshalInto allocate %.2f times per round, want 0", avg)
	}
}

// TestAllocReleaseOptional documents the ownership contract: a caller
// that never releases received buffers stays correct — the runtime just
// allocates fresh ones.
func TestAllocReleaseOptional(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const tag = 3
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				if err := Send(c, []byte{byte(i)}, 1, tag); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 10; i++ {
			b, _, err := c.RecvBytes(0, tag)
			if err != nil {
				return err
			}
			if len(b) != 1 || b[0] != byte(i) {
				return fmt.Errorf("message %d corrupted: %v", i, b)
			}
			// Deliberately retained: no Release.
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Error-path buffer hygiene: when a world dies mid-traffic (abort,
// injected kill, deadlock), pooled buffers that were in flight must not
// be double-released or handed out while still referenced. Each test
// drives a failing world with pooled traffic, then runs a clean world
// that reuses the same process-wide pools and verifies payload
// integrity — under -race, any buffer that escaped the ownership rules
// during teardown shows up as a data race or corrupted payload.

// hygieneTraffic exchanges distinct patterned payloads and verifies
// every received byte, releasing buffers back to the pool.
func hygieneTraffic(c *Comm, rounds int) error {
	const tag = 11
	me, n := c.Rank(), c.Size()
	peer := (me + 1) % n
	from := (me + n - 1) % n
	for i := 0; i < rounds; i++ {
		out := getBuf(256)
		for j := range out {
			out[j] = byte(me ^ i ^ j)
		}
		if me%2 == 0 {
			if err := Send(c, out, peer, tag); err != nil {
				Release(out)
				return err
			}
			b, _, err := c.RecvBytes(from, tag)
			if err != nil {
				Release(out)
				return err
			}
			for j := range b {
				if b[j] != byte(from^i^j) {
					return fmt.Errorf("round %d: byte %d corrupted: got %x want %x", i, j, b[j], byte(from^i^j))
				}
			}
			Release(b)
		} else {
			b, _, err := c.RecvBytes(from, tag)
			if err != nil {
				Release(out)
				return err
			}
			for j := range b {
				if b[j] != byte(from^i^j) {
					return fmt.Errorf("round %d: byte %d corrupted: got %x want %x", i, j, b[j], byte(from^i^j))
				}
			}
			Release(b)
			if err := Send(c, out, peer, tag); err != nil {
				return err
			}
		}
		Release(out)
	}
	return nil
}

// TestAllocHygieneAfterAbort aborts a world mid-traffic and checks the
// pools still hand out clean buffers afterwards.
func TestAllocHygieneAfterAbort(t *testing.T) {
	cause := fmt.Errorf("hygiene abort")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 3 {
			_ = hygieneTraffic(c, 2)
			c.world.abort(cause)
			return cause
		}
		return hygieneTraffic(c, 50)
	}, WithWatchdog(30*time.Second))
	if err == nil {
		t.Fatal("aborted world returned nil")
	}
	if err := Run(4, func(c *Comm) error { return hygieneTraffic(c, 50) }); err != nil {
		t.Fatalf("clean run after abort: %v", err)
	}
}

// TestAllocHygieneAfterKill injects a rank kill mid-traffic and checks
// pooled buffers survive the failure teardown intact.
func TestAllocHygieneAfterKill(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		err := hygieneTraffic(c, 50)
		if err != nil && (errors.Is(err, ErrRankKilled) || errors.Is(err, ErrRankFailed)) {
			return nil // the injected failure is the point
		}
		return err
	}, WithInjector(killAtCall(2, 7)), WithWatchdog(30*time.Second))
	if err != nil && !errors.Is(err, ErrRankKilled) {
		t.Fatalf("world error: %v", err)
	}
	if err := Run(4, func(c *Comm) error { return hygieneTraffic(c, 50) }); err != nil {
		t.Fatalf("clean run after kill: %v", err)
	}
}

// TestAllocHygieneAfterDeadlock drives two ranks into a send-send
// deadlock with pooled buffers in hand and checks the detector's
// teardown leaves the pools usable.
func TestAllocHygieneAfterDeadlock(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const tag = 12
		buf := getBuf(8192) // rendezvous-sized: blocks until the peer receives
		defer Release(buf)
		peer := 1 - c.Rank()
		if err := Send(c, buf, peer, tag); err != nil {
			return err
		}
		b, _, err := c.RecvBytes(peer, tag)
		if err != nil {
			return err
		}
		Release(b)
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	if err := Run(2, func(c *Comm) error { return hygieneTraffic(c, 50) }); err != nil {
		t.Fatalf("clean run after deadlock: %v", err)
	}
}

// TestAllocHygieneCollectiveErrors: a blocking collective that fails
// returns only an error, so every pooled buffer it held at that moment —
// the wire buffer in hand, blocks already gathered, arrivals matched to
// receives it will never finish — must go back to the pool. The gauge is
// exact: pool bytes in flight return to their pre-run level.
func TestAllocHygieneCollectiveErrors(t *testing.T) {
	const np = 4
	// Rank 2 contributes 24 elements where everyone else contributes 16.
	skewed := func(c *Comm) []float64 {
		if c.Rank() == 2 {
			return make([]float64, 24)
		}
		return make([]float64, 16)
	}
	gather := func(c *Comm) error {
		_, err := Gather(c, skewed(c), 0)
		return err
	}
	cases := []struct {
		name string
		body func(*Comm) error
		kill int // rank killed at its first primitive, or -1
		want error
	}{
		{"allgather-length-mismatch", func(c *Comm) error {
			_, err := allgather(c, skewed(c))
			return err
		}, -1, ErrLengthMismatch},
		{"gather-length-mismatch", gather, -1, ErrLengthMismatch},
		// The root holds its own block and rank 1's when rank 2's never comes.
		{"gather-rank-killed", gather, 2, ErrRankKilled},
		// A killed root fails on its first child send with the payload in hand.
		{"bcast-root-killed", func(c *Comm) error {
			_, err := Bcast(c, make([]float64, 16), 0)
			return err
		}, 0, ErrRankKilled},
	}
	runners := []struct {
		name string
		run  func(int, func(*Comm) error, ...Option) error
	}{{"channel", Run}, {"tcp", RunTCP}}
	for _, tc := range cases {
		for _, tr := range runners {
			t.Run(tc.name+"/"+tr.name, func(t *testing.T) {
				defer leakcheck.Snapshot(t, poolGauge()).Check()
				opts := []Option{WithWatchdog(30 * time.Second)}
				if tc.kill >= 0 {
					opts = append(opts, WithInjector(killAtCall(tc.kill, 1)))
				}
				if err := tr.run(np, tc.body, opts...); !errors.Is(err, tc.want) {
					t.Fatalf("world error %v, want %v", err, tc.want)
				}
			})
		}
	}
}

// TestAllocRMAPutFlush asserts the ISSUE's bounded-allocation criterion
// for the eager one-sided path: a Put+Flush cycle reuses the pending-ack
// slice and pooled buffers, so steady state stays under two allocations
// per operation (map churn in the ack table is the only tolerated
// source).
func TestAllocRMAPutFlush(t *testing.T) {
	const (
		warmup = 20
		rounds = 100
	)
	payload := make([]byte, 64)
	var avg float64
	err := Run(2, func(c *Comm) error {
		w, err := c.WinCreate(256)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			step := func() error {
				if err := w.Put(1, 0, payload); err != nil {
					return err
				}
				return w.Flush()
			}
			for i := 0; i < warmup; i++ {
				if err := step(); err != nil {
					return err
				}
			}
			var inner error
			avg = testing.AllocsPerRun(rounds, func() {
				if err := step(); err != nil && inner == nil {
					inner = err
				}
			})
			if inner != nil {
				return inner
			}
		}
		// The target parks in Free's barrier; its progress engine services
		// every Put from the delivering goroutine regardless.
		return w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skipf("race detector instrumentation allocates; traffic ran clean (avg %.2f not asserted)", avg)
	}
	if avg >= 2.0 {
		t.Fatalf("eager Put+Flush allocates %.2f allocs/op, want < 2", avg)
	}
}

// TestAllocRMABatchFlush is the batched-path bound of the ISSUE: a warm
// epoch of 16 coalesced Puts plus its closing Flush must cost at most
// two allocations for the whole batch — the pooled batch buffer, the
// envelope and the pending-ack slice are all reused, so the per-op
// marginal cost is zero.
func TestAllocRMABatchFlush(t *testing.T) {
	const (
		warmup = 20
		rounds = 100
		puts   = 16
	)
	payload := make([]byte, 64)
	var avg float64
	err := Run(2, func(c *Comm) error {
		w, err := c.WinCreate(64 * puts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			step := func() error {
				for i := 0; i < puts; i++ {
					if err := w.Put(1, 64*i, payload); err != nil {
						return err
					}
				}
				return w.Flush()
			}
			for i := 0; i < warmup; i++ {
				if err := step(); err != nil {
					return err
				}
			}
			var inner error
			avg = testing.AllocsPerRun(rounds, func() {
				if err := step(); err != nil && inner == nil {
					inner = err
				}
			})
			if inner != nil {
				return inner
			}
		}
		// The target parks in Free's barrier; batch frames are serviced
		// by the delivering goroutine (or applied directly in-process).
		return w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skipf("race detector instrumentation allocates; traffic ran clean (avg %.2f not asserted)", avg)
	}
	if avg > 2.0 {
		t.Fatalf("batched %d-Put epoch allocates %.2f allocs per flush, want <= 2", puts, avg)
	}
}

// TestAllocRMAGetCAS pins the shared-memory Get and CompareAndSwap to
// zero allocations: on the channel transport a warm GetInto and a warm
// CompareAndSwap build their one-entry frame on the stack, apply it to
// the target region in place, and draw the reply from the pool.
func TestAllocRMAGetCAS(t *testing.T) {
	const (
		warmup = 20
		rounds = 100
	)
	var getAvg, casAvg float64
	err := Run(2, func(c *Comm) error {
		w, err := c.WinCreate(64)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			dst := make([]byte, 8)
			var inner error
			get := func() {
				if err := w.GetInto(dst, 1, 8); err != nil && inner == nil {
					inner = err
				}
			}
			cas := func() {
				if _, err := w.CompareAndSwap(1, 0, 0, 0); err != nil && inner == nil {
					inner = err
				}
			}
			for i := 0; i < warmup; i++ {
				get()
				cas()
			}
			getAvg = testing.AllocsPerRun(rounds, get)
			casAvg = testing.AllocsPerRun(rounds, cas)
			if inner != nil {
				return inner
			}
		}
		return w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		t.Skipf("race detector instrumentation allocates; traffic ran clean (GetInto %.2f, CompareAndSwap %.2f not asserted)", getAvg, casAvg)
	}
	if getAvg != 0 || casAvg != 0 {
		t.Fatalf("warm GetInto %.2f allocs/op, CompareAndSwap %.2f allocs/op, want 0", getAvg, casAvg)
	}
}

// hygieneIntoTraffic is hygieneTraffic for the typed Into-variants the
// modules adopted (Isend + RecvInto with a reused scratch, ReduceInto):
// patterned int64 payloads, verified on arrival, reduced in place.
func hygieneIntoTraffic(c *Comm, rounds int) error {
	const tag = 13
	me, n := c.Rank(), c.Size()
	peer := (me + 1) % n
	from := (me + n - 1) % n
	var scratch []int64
	acc := make([]int64, 1)
	for i := 0; i < rounds; i++ {
		out := make([]int64, 32)
		for j := range out {
			out[j] = int64(me + i + j)
		}
		req, err := Isend(c, out, peer, tag)
		if err != nil {
			return err
		}
		blk, _, err := RecvInto(c, scratch[:0], from, tag)
		if err != nil {
			return err
		}
		for j := range blk {
			if blk[j] != int64(from+i+j) {
				return fmt.Errorf("round %d: elem %d corrupted: got %d want %d", i, j, blk[j], from+i+j)
			}
		}
		scratch = blk
		if err := Waitall(req); err != nil {
			return err
		}
		acc[0] = int64(me)
		if err := ReduceInto(c, acc, OpSum, 0); err != nil {
			return err
		}
		if me == 0 && acc[0] != int64(n*(n-1)/2) {
			return fmt.Errorf("round %d: reduced %d, want %d", i, acc[0], n*(n-1)/2)
		}
	}
	return nil
}

// TestAllocHygieneIntoAfterKill: the Into-variant data path must survive
// an injected failure without corrupting the process-wide pools.
func TestAllocHygieneIntoAfterKill(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		err := hygieneIntoTraffic(c, 50)
		if err != nil && (errors.Is(err, ErrRankKilled) || errors.Is(err, ErrRankFailed)) {
			return nil // the injected failure is the point
		}
		return err
	}, WithInjector(killAtCall(2, 7)), WithWatchdog(30*time.Second))
	if err != nil && !errors.Is(err, ErrRankKilled) {
		t.Fatalf("world error: %v", err)
	}
	if err := Run(4, func(c *Comm) error { return hygieneIntoTraffic(c, 50) }); err != nil {
		t.Fatalf("clean run after kill: %v", err)
	}
}

// rmaHygieneTraffic drives the one-sided path with verified payloads:
// every rank stamps a patterned block into each peer's window, fences,
// and checks what landed in its own region.
func rmaHygieneTraffic(c *Comm, rounds int) error {
	n := c.Size()
	w, err := c.WinCreate(64 * n)
	if err != nil {
		return err
	}
	for i := 0; i < rounds; i++ {
		block := getBuf(64)
		for j := range block {
			block[j] = byte(c.Rank() ^ i ^ j)
		}
		for dst := 0; dst < n; dst++ {
			if err := w.Put(dst, 64*c.Rank(), block); err != nil {
				Release(block)
				return err
			}
		}
		Release(block)
		if err := w.Fence(); err != nil {
			return err
		}
		for origin := 0; origin < n; origin++ {
			seg := w.Local()[64*origin : 64*origin+64]
			for j := range seg {
				if seg[j] != byte(origin^i^j) {
					return fmt.Errorf("round %d: origin %d byte %d corrupted: got %x want %x", i, origin, j, seg[j], byte(origin^i^j))
				}
			}
		}
		if err := w.Fence(); err != nil { // don't overwrite while peers still read
			return err
		}
	}
	return w.Free()
}

// TestAllocHygieneRMAAfterKill kills a rank mid-RMA-traffic, then runs a
// clean one-sided world on the same pools and verifies every byte.
func TestAllocHygieneRMAAfterKill(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		err := rmaHygieneTraffic(c, 20)
		if err != nil && (errors.Is(err, ErrRankKilled) || errors.Is(err, ErrRankFailed)) {
			return nil // the injected failure is the point
		}
		return err
	}, WithInjector(killAtCall(2, 9)), WithWatchdog(30*time.Second))
	if err != nil && !errors.Is(err, ErrRankKilled) {
		t.Fatalf("world error: %v", err)
	}
	if err := Run(4, func(c *Comm) error { return rmaHygieneTraffic(c, 20) }); err != nil {
		t.Fatalf("clean run after kill: %v", err)
	}
}
