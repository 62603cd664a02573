package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// multiProcPrograms is shared by parent and children: the children
// re-execute this test binary filtered to the same test, reach the same
// RunProcesses call, and take the worker branch. A child's test verdict
// becomes its process exit code, which the parent collects.
var multiProcPrograms = Programs{
	"allreduce": func(c *Comm) error {
		sum, err := Allreduce(c, []int64{int64(c.Rank() + 1)}, OpSum)
		if err != nil {
			return err
		}
		want := int64(c.Size() * (c.Size() + 1) / 2)
		if sum[0] != want {
			return fmt.Errorf("allreduce %d, want %d", sum[0], want)
		}
		return nil
	},
	"pingpong": func(c *Comm) error {
		if c.Size() < 2 {
			return fmt.Errorf("need 2 ranks")
		}
		switch c.Rank() {
		case 0:
			if err := Send(c, []int64{41}, 1, 0); err != nil {
				return err
			}
			got, _, err := Recv[int64](c, 1, 0)
			if err != nil {
				return err
			}
			if got[0] != 42 {
				return fmt.Errorf("echo %d", got[0])
			}
		case 1:
			x, _, err := Recv[int64](c, 0, 0)
			if err != nil {
				return err
			}
			if err := Send(c, []int64{x[0] + 1}, 0, 0); err != nil {
				return err
			}
		}
		return c.Barrier()
	},
	"bigtransfer": func(c *Comm) error {
		var big []float64
		if c.Rank() == 0 {
			big = make([]float64, 100_000)
			for i := range big {
				big[i] = float64(i)
			}
		}
		out, err := Bcast(c, big, 0)
		if err != nil {
			return err
		}
		if len(out) != 100_000 || out[77_777] != 77_777 {
			return fmt.Errorf("bcast corrupted")
		}
		return nil
	},
	"fail": func(c *Comm) error {
		if c.Rank() == 1 {
			return fmt.Errorf("intentional failure")
		}
		return nil
	},
	// rma regression-tests one-sided operations on the process transport:
	// WinCreate once panicked in the worker path (nil windows map), and
	// batched Puts plus an Accumulate must land across process
	// boundaries just as they do over channels and TCP.
	"rma": func(c *Comm) error {
		size := 0
		if c.Rank() == 0 {
			size = (c.Size() + 1) * 8
		}
		win, err := c.WinCreate(size)
		if err != nil {
			return err
		}
		var cell [8]byte
		binary.LittleEndian.PutUint64(cell[:], uint64(c.Rank()+1))
		if err := win.Put(0, c.Rank()*8, cell[:]); err != nil {
			return err
		}
		if err := win.Accumulate(0, c.Size()*8, []int64{int64(c.Rank() + 1)}, AccSum); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			local := win.Local()
			want := int64(c.Size()) * int64(c.Size()+1) / 2
			var puts int64
			for r := 0; r < c.Size(); r++ {
				puts += int64(binary.LittleEndian.Uint64(local[r*8:]))
			}
			if sum := int64(binary.LittleEndian.Uint64(local[c.Size()*8:])); puts != want || sum != want {
				return fmt.Errorf("window state puts=%d sum=%d, want %d", puts, sum, want)
			}
		}
		return win.Free()
	},
	// abortblocked regression-tests cross-process abort propagation: the
	// other ranks block in a Recv that will never be served, and must be
	// woken with ErrAborted by rank 1's Abort — promptly, through the
	// coordinator's broadcast, not via a timeout. A rank whose Recv
	// surfaces the wrong error stalls deliberately, which trips the
	// parent's elapsed-time assertion.
	"abortblocked": func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(50 * time.Millisecond)
			cause := fmt.Errorf("deliberate mp abort")
			c.world.abort(cause)
			return cause
		}
		_, _, err := c.RecvBytes(1, 99) // rank 1 never sends on tag 99
		if !errors.Is(err, ErrAborted) {
			time.Sleep(20 * time.Second) // poison the parent's promptness check
			return fmt.Errorf("blocked recv returned %v, want ErrAborted", err)
		}
		return nil
	},
}

// runMP launches the program across processes. In a child it reports the
// worker verdict through the test framework (whose exit code the parent
// observes) and returns worker=true.
func runMP(t *testing.T, np int, prog string, wantWorkerErr bool) (parentErr error, isWorker bool) {
	t.Helper()
	worker, err := RunProcesses(np, prog, multiProcPrograms,
		// A child inherits the parent's flags; under -count=N it must still
		// be a worker exactly once, or its second pass finds no coordinator.
		WithChildArgs("-test.run=^"+t.Name()+"$", "-test.count=1"),
		WithChildOutput(io.Discard, io.Discard),
	)
	if worker {
		if err != nil && !wantWorkerErr {
			t.Fatalf("worker: %v", err)
		}
		if err != nil {
			// Expected failure: fail the child's test so its process
			// exits nonzero, which is what the parent asserts on.
			t.Errorf("worker failing as scripted: %v", err)
		}
		return nil, true
	}
	return err, false
}

func TestMultiProcessAllreduce(t *testing.T) {
	err, worker := runMP(t, 3, "allreduce", false)
	if worker {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiProcessPingPong(t *testing.T) {
	err, worker := runMP(t, 2, "pingpong", false)
	if worker {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiProcessBigTransfer(t *testing.T) {
	err, worker := runMP(t, 3, "bigtransfer", false)
	if worker {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiProcessFailurePropagates(t *testing.T) {
	err, worker := runMP(t, 3, "fail", true)
	if worker {
		return
	}
	if err == nil {
		t.Fatal("child failure not reported")
	}
	if !strings.Contains(err.Error(), "rank") {
		t.Fatalf("failure not attributed: %v", err)
	}
}

// TestMultiProcessRMA runs a fence epoch of batched Puts and an
// Accumulate across OS-process boundaries — the worker-side world once
// lacked window state entirely, so WinCreate panicked under -procs.
func TestMultiProcessRMA(t *testing.T) {
	err, worker := runMP(t, 3, "rma", false)
	if worker {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestMultiProcessAbortPropagates checks the third transport honors the
// same abort contract as the channel and TCP ones (see
// TestAbortPropagationChannel/TCP in ft_test.go): ranks blocked in Recv
// across process boundaries observe ErrAborted promptly when a peer
// process aborts.
func TestMultiProcessAbortPropagates(t *testing.T) {
	start := time.Now()
	err, worker := runMP(t, 3, "abortblocked", true)
	if worker {
		return
	}
	if err == nil {
		t.Fatal("aborting world reported success")
	}
	// The abort is broadcast to every worker, so every child exits with
	// the world-abort error (the parent reports the first by rank)...
	if !strings.Contains(err.Error(), "process") {
		t.Fatalf("child failure not reported: %v", err)
	}
	// ...and the blocked ranks must have been woken by the broadcast: a
	// rank whose Recv saw the wrong error stalls 20s, and one that saw
	// nothing would hang until the 60s coordinator timeout — both trip
	// this bound.
	if d := time.Since(start); d > 15*time.Second {
		t.Fatalf("abort took %v to unblock the world", d)
	}
}

func TestRunProcessesValidation(t *testing.T) {
	if InWorker() {
		t.Skip("validation is parent-side")
	}
	if _, err := RunProcesses(2, "nonsense", multiProcPrograms); err == nil {
		t.Fatal("unknown program accepted")
	}
	if _, err := RunProcesses(0, "allreduce", multiProcPrograms); err == nil {
		t.Fatal("zero ranks accepted")
	}
}
