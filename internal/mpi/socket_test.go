package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestBadHelloRejected: the hello is outside input — anything on the
// machine can connect to a rank's 127.0.0.1:0 port while the mesh is
// being built. A hello that names no lower rank must fail the build with
// an error (the loopback mesh once indexed its connection table with it
// and panicked), and the failed build must leave nothing behind: no
// listener, connection, connect or reader goroutine, no pooled buffer.
func TestBadHelloRejected(t *testing.T) {
	for _, hello := range []uint32{99, 1, 1<<32 - 1} {
		t.Run(fmt.Sprint(hello), func(t *testing.T) {
			defer leakcheck.Snapshot(t, poolGauge()).Check()
			lns, addrs, err := listenLoopback(2)
			if err != nil {
				t.Fatal(err)
			}
			// The stray connection sits in rank 1's accept backlog ahead of
			// rank 0's dial, so it is the first hello rank 1 reads.
			stray, err := net.DialTCP("tcp", nil, addrs[1])
			if err != nil {
				t.Fatal(err)
			}
			defer stray.Close()
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], hello)
			if _, err := stray.Write(b[:]); err != nil {
				t.Fatal(err)
			}
			ran := false
			err = run(2, nil, func(*Comm) error { ran = true; return nil },
				func(_ *World, up linkHost) (transport, error) {
					return newSocketTransport(up, []int{0, 1}, false, lns, addrs)
				})
			if err == nil || !strings.Contains(err.Error(), "bad hello") {
				t.Fatalf("mesh build with a stray hello of %d returned %v, want a bad-hello error", hello, err)
			}
			if ran {
				t.Fatal("ranks ran on a mesh that failed to build")
			}
			for r, ln := range lns {
				if _, err := ln.Accept(); err == nil {
					t.Fatalf("rank %d's listener survived the failed build", r)
				}
			}
		})
	}
}

// TestBadAddrTableFailsFast: the address table a worker receives from
// its coordinator is outside input too. A worker whose table holds a
// malformed entry next to its own good one must fail at once, naming its
// rank and the entry, not dial the entry until its 30 s budget runs out;
// and it must close its listener and leave nothing running. The test
// plays the coordinator in-process and runs rank 0's worker path.
func TestBadAddrTableFailsFast(t *testing.T) {
	for _, bad := range []string{"not-an-address", "127.0.0.1", "127.0.0.1:99999"} {
		t.Run(bad, func(t *testing.T) {
			coord, err := net.ListenTCP("tcp", loopback)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			// Snapshot after the coordinator's listener opens, and check
			// before it closes, so every descriptor counted is the worker's.
			defer leakcheck.Snapshot(t, poolGauge(), openFilesGauge(t)).Check()
			t.Setenv(envRank, "0")
			t.Setenv(envSize, "2")
			t.Setenv(envCoord, coord.Addr().String())
			t.Setenv(envProg, "p")
			registered := make(chan bool, 1)
			go func() {
				defer close(registered)
				conn, err := coord.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				var rank int
				var addr string
				if _, err := fmt.Fscanf(conn, "%d %s\n", &rank, &addr); err != nil {
					return
				}
				fmt.Fprintf(conn, "%s %s\n", addr, bad)
				registered <- true
			}()
			ran := false
			start := time.Now()
			worker, err := RunProcesses(2, "p", Programs{"p": func(*Comm) error { ran = true; return nil }})
			elapsed := time.Since(start)
			if !worker {
				t.Fatal("RunProcesses did not take the worker path")
			}
			want := fmt.Sprintf("rank 0: address table entry for rank 1 is %q", bad)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("worker with table entry %q returned %v, want an error containing %q", bad, err, want)
			}
			if elapsed > time.Second {
				t.Fatalf("worker took %v to reject table entry %q, want < 1s", elapsed, bad)
			}
			if ran {
				t.Fatal("the rank ran on a table it could not parse")
			}
			if !<-registered {
				t.Fatal("the worker never registered")
			}
		})
	}
}

// openFilesGauge counts this process's open descriptors. A listener
// left open shows in it; dialing the freed port would not tell, since
// the kernel may already have given the port to another listener.
func openFilesGauge(t *testing.T) leakcheck.Gauge {
	count := func() (int64, error) {
		fds, err := os.ReadDir("/proc/self/fd")
		return int64(len(fds)), err
	}
	if _, err := count(); err != nil {
		t.Skipf("cannot count open descriptors: %v", err)
	}
	return leakcheck.Gauge{
		Name: "open_fds",
		Read: func() int64 { n, _ := count(); return n },
	}
}

// runSplit runs one np-rank program as several Worlds inside this test
// binary, one per entry of parts, each hosting that entry's ranks and
// reaching the others over the socket mesh — a multi-process launch
// without exec, and the 1 < |local| < np case no launcher produces. It
// returns each World's error, in parts order.
func runSplit(t *testing.T, np int, parts [][]int, fn func(*Comm) error, opts ...Option) []error {
	t.Helper()
	lns, addrs, err := listenLoopback(np)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, local := range parts {
		mine := make([]net.Listener, np)
		for _, r := range local {
			mine[r] = lns[r]
		}
		wg.Add(1)
		go func(i int, local []int) {
			defer wg.Done()
			errs[i] = run(np, local, fn, func(w *World, up linkHost) (transport, error) {
				return newSocketTransport(up, local, w.opts.reliableLinks, mine, addrs)
			}, opts...)
		}(i, local)
	}
	wg.Wait()
	return errs
}

// splitModes are the two link regimes every split-world scenario runs
// under: raw sockets, and reliable links recovering a seeded 10% frame
// loss (on which a raw world would simply lose messages).
func splitModes(t *testing.T, body func(t *testing.T, opts ...Option)) {
	t.Run("raw", func(t *testing.T) { body(t) })
	t.Run("reliable-drop", func(t *testing.T) {
		before := ReliabilityStats()
		body(t, WithReliableLinks(), WithInjector(newLossyInjector(22, 0.10, 0, 0, 0)))
		if d := ReliabilityStats().Sub(before); d.FramesDropped == 0 || d.Retransmits == 0 {
			t.Errorf("drop plan never bit: %+v", d)
		}
	})
}

var splitHalves = [][]int{{0, 1}, {2, 3}}

// TestSplitWorld drives the cross-World paths of the socket transport:
// eager and rendezvous-sized point-to-point between ranks of different
// Worlds and of the same one, and collectives spanning both.
func TestSplitWorld(t *testing.T) {
	splitModes(t, func(t *testing.T, opts ...Option) {
		defer leakcheck.Snapshot(t, poolGauge()).Check()
		big := make([]float64, 100_000) // ~800 KB: rendezvous, many socket writes
		for i := range big {
			big[i] = float64(i)
		}
		errs := runSplit(t, 4, splitHalves, func(c *Comm) error {
			// A ring of small messages: 0→1 and 2→3 stay inside a World,
			// 1→2 and 3→0 cross.
			next, prev := (c.Rank()+1)%4, (c.Rank()+3)%4
			got, _, err := Sendrecv(c, []int64{int64(c.Rank())}, next, 1, prev, 1)
			if err != nil {
				return err
			}
			if got[0] != int64(prev) {
				return fmt.Errorf("ring: got %d from %d", got[0], prev)
			}
			// The large transfer crosses Worlds (0→3) and stays inside one
			// (2→3 is local to the second half).
			switch c.Rank() {
			case 0, 2:
				if err := Send(c, big, 3, 2); err != nil {
					return err
				}
			case 3:
				for _, src := range []int{0, 2} {
					in, _, err := Recv[float64](c, src, 2)
					if err != nil {
						return err
					}
					if len(in) != len(big) || in[77_777] != 77_777 {
						return fmt.Errorf("large transfer from %d corrupted", src)
					}
				}
			}
			sum, err := Allreduce(c, []int64{int64(c.Rank() + 1)}, OpSum)
			if err != nil {
				return err
			}
			if sum[0] != 10 {
				return fmt.Errorf("allreduce %d, want 10", sum[0])
			}
			out, err := Bcast(c, big[:5000], 3)
			if err != nil {
				return err
			}
			if len(out) != 5000 || out[4999] != 4999 {
				return fmt.Errorf("bcast from the far World corrupted")
			}
			return c.Barrier()
		}, opts...)
		for i, err := range errs {
			if err != nil {
				t.Errorf("world %d: %v", i, err)
			}
		}
	})
}

// TestSplitWorldUneven hosts three of four ranks in one World and the
// fourth alone (a RunProcesses worker's shape), so one side forwards to a
// single non-local peer and the other to three.
func TestSplitWorldUneven(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	errs := runSplit(t, 4, [][]int{{0, 1, 3}, {2}}, func(c *Comm) error {
		all, err := allgather(c, []int{c.Rank() * c.Rank()})
		if err != nil {
			return err
		}
		for r, v := range all {
			if v != r*r {
				return fmt.Errorf("allgather[%d] = %d", r, v)
			}
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("world %d: %v", i, err)
		}
	}
}

// TestSplitWorldShrink: two failures that the two Worlds of a split world
// learn in opposite orders. No heartbeat runs, so each World declares its
// own killed rank at once (rank 1 in the first, rank 2 in the second) and
// hears of the other's only from the survivors' agreement inside Shrink —
// as every process of a RunProcesses world keeps its own failed set. The
// survivors must still agree on both and continue on one context.
func TestSplitWorldShrink(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	kills := &testInjector{atCall: func(r, call int) bool { return (r == 1 || r == 2) && call == 1 }}
	errs := runSplit(t, 4, splitHalves, func(c *Comm) error {
		err := c.Barrier()
		if errors.Is(err, ErrRankKilled) {
			return nil // a victim: its World records the kill, the test does not
		}
		if !errors.Is(err, ErrRankFailed) {
			return fmt.Errorf("rank %d: barrier across the kills: got %v, want RankFailedError", c.Rank(), err)
		}
		nc, err := c.Shrink()
		if err != nil {
			return fmt.Errorf("rank %d: Shrink: %w", c.Rank(), err)
		}
		if nc.Size() != 2 {
			return fmt.Errorf("rank %d: shrunken size %d, want 2", c.Rank(), nc.Size())
		}
		sum, err := Allreduce(nc, []int64{int64(c.Rank())}, OpSum)
		if err == nil && sum[0] != 0+3 {
			err = fmt.Errorf("post-shrink sum %d, want 3", sum[0])
		}
		return err
	}, WithInjector(kills), WithWatchdog(10*time.Second))
	for i, err := range errs {
		if err != nil {
			t.Errorf("world %d: %v", i, err)
		}
	}
}

// TestSplitWorldLastFrameDropped: a rank's last eager send returns as
// soon as the frame is handed to the link, and with it, here, the rank's
// whole World. If the injector dropped that frame's only write, the
// retained copy is all there is: closing the transport has to wait for
// its retransmission to be acknowledged, or the receiver in the other
// World hangs on a message its sender believes delivered.
func TestSplitWorldLastFrameDropped(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	errs := runSplit(t, 2, [][]int{{0}, {1}}, func(c *Comm) error {
		if c.Rank() == 0 {
			return Send(c, []int64{7}, 1, 0)
		}
		got, _, err := Recv[int64](c, 0, 0)
		if err == nil && got[0] != 7 {
			err = fmt.Errorf("received %d, want 7", got[0])
		}
		return err
	}, WithReliableLinks(), WithInjector(oneShotFrame(FrameDrop, 0, 1)), WithWatchdog(2*time.Second))
	for i, err := range errs {
		if err != nil {
			t.Errorf("world %d: %v", i, err)
		}
	}
}

// TestAbortPropagationSplitWorld: ranks blocked in Recv observe
// ErrAborted promptly whether the aborting rank shares their World
// (rank 0) or lives in another one (ranks 2 and 3, told by notifyAbort),
// and both Worlds' errors carry the cause. The latency variant puts the
// decorator between the World and the socket transport, which once hid
// the transport's abort forwarding.
func TestAbortPropagationSplitWorld(t *testing.T) {
	splitModes(t, func(t *testing.T, opts ...Option) { testAbortSplit(t, opts...) })
	t.Run("latency", func(t *testing.T) { testAbortSplit(t, WithLinkLatency(2*time.Millisecond)) })
}

func testAbortSplit(t *testing.T, opts ...Option) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	cause := errors.New("deliberate split-world abort")
	var sawAbort atomic.Int32
	start := time.Now()
	errs := runSplit(t, 4, splitHalves, func(c *Comm) error {
		// Traffic first, so the reliable variant aborts over links that
		// have already lost and recovered frames.
		if _, err := Allreduce(c, []int64{1}, OpSum); err != nil {
			return err
		}
		// Rank 1 aborts once every other rank has reported it is past the
		// Allreduce — one still waiting there on a retransmission would see
		// the abort in the Allreduce instead of in its Recv.
		const tagReady = 8
		if c.Rank() == 1 {
			for i := 0; i < 3; i++ {
				b, _, err := c.RecvBytes(AnySource, tagReady)
				if err != nil {
					return err
				}
				Release(b)
			}
			c.world.abort(cause)
			return nil
		}
		if err := Send[byte](c, nil, 1, tagReady); err != nil {
			return err
		}
		_, _, err := c.RecvBytes(1, 9) // rank 1 never sends on tag 9
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("blocked recv got %v, want ErrAborted", err)
		}
		sawAbort.Add(1)
		return nil
	}, append(opts, WithWatchdog(60*time.Second))...)
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), cause.Error()) {
			t.Errorf("world %d's error should carry the abort cause, got %v", i, err)
		}
	}
	if n := sawAbort.Load(); n != 3 {
		t.Errorf("%d of 3 blocked receivers observed ErrAborted", n)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("abort took %v to propagate: watchdog fallback suspected", d)
	}
}

// pingPongRTT is the smallest of a few ping-pong round trips between
// ranks 0 and 1, measured on rank 0. The closing barrier keeps rank 1's
// World up until the last reply has been received: a closing latency
// pipe flushes its backlog undelayed.
func pingPongRTT(c *Comm) (time.Duration, error) {
	best := time.Duration(-1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		switch c.Rank() {
		case 0:
			if err := Send(c, []int64{int64(i)}, 1, 3); err != nil {
				return 0, err
			}
			if _, _, err := Recv[int64](c, 1, 3); err != nil {
				return 0, err
			}
		case 1:
			x, _, err := Recv[int64](c, 0, 3)
			if err != nil {
				return 0, err
			}
			if err := Send(c, x, 0, 3); err != nil {
				return 0, err
			}
		}
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return best, c.Barrier()
}

const testLinkLatency = 5 * time.Millisecond

// TestLinkLatencySplitWorld: WithLinkLatency applies when the ranks of a
// world are spread over several Worlds — a round trip between two of
// them pays the emulated latency twice.
func TestLinkLatencySplitWorld(t *testing.T) {
	defer leakcheck.Snapshot(t, poolGauge()).Check()
	errs := runSplit(t, 2, [][]int{{0}, {1}}, func(c *Comm) error {
		rtt, err := pingPongRTT(c)
		if err == nil && c.Rank() == 0 && rtt < 2*testLinkLatency {
			err = fmt.Errorf("round trip %v under a %v link latency", rtt, testLinkLatency)
		}
		return err
	}, WithLinkLatency(testLinkLatency))
	for i, err := range errs {
		if err != nil {
			t.Errorf("world %d: %v", i, err)
		}
	}
}

// TestMultiProcessLinkLatency: the same through the real launcher.
// RunProcesses once built its worker World on a path of its own that
// never installed the latency decorator, so the option was silently
// ignored there.
func TestMultiProcessLinkLatency(t *testing.T) {
	worker, err := RunProcesses(2, "rtt", Programs{"rtt": func(c *Comm) error {
		rtt, err := pingPongRTT(c)
		if err == nil && c.Rank() == 0 && rtt < 2*testLinkLatency {
			err = fmt.Errorf("round trip %v under a %v link latency", rtt, testLinkLatency)
		}
		return err
	}},
		WithChildArgs("-test.run=^"+t.Name()+"$", "-test.count=1"),
		WithChildOutput(io.Discard, io.Discard),
		WithRunOptions(WithLinkLatency(testLinkLatency)),
	)
	if err != nil {
		t.Fatal(err)
	}
	_ = worker // parent and child have nothing further to do
}
