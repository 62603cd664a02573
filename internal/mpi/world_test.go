package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestSplitByParity(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d, want 3", sub.Size())
		}
		if sub.Rank() != c.Rank()/2 {
			return fmt.Errorf("world %d has sub rank %d, want %d", c.Rank(), sub.Rank(), c.Rank()/2)
		}
		// Collectives inside the sub-communicator must be isolated.
		sum, err := Allreduce(sub, []int{c.Rank()}, OpSum)
		if err != nil {
			return err
		}
		want := 0 + 2 + 4
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5
		}
		if sum[0] != want {
			return fmt.Errorf("world %d: sub allreduce %d, want %d", c.Rank(), sum[0], want)
		}
		// World collectives still work afterwards.
		total, err := Allreduce(c, []int{1}, OpSum)
		if err != nil {
			return err
		}
		if total[0] != 6 {
			return fmt.Errorf("world allreduce after split: %d", total[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyReversesOrder(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		sub, err := c.Split(0, -c.Rank()) // all one color, reversed keys
		if err != nil {
			return err
		}
		wantRank := c.Size() - 1 - c.Rank()
		if sub.Rank() != wantRank {
			return fmt.Errorf("world %d: sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// Rank 0 of the sub-communicator is world rank 3; check p2p
		// translation by broadcasting from sub root.
		out, err := Bcast(sub, []int{c.worldRank * 11}, 0)
		if err != nil {
			return err
		}
		if out[0] != 33 {
			return fmt.Errorf("bcast from reversed root: %d", out[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = -1 // opts out
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if sub != nil {
				return errors.New("undefined color should yield nil comm")
			}
			return nil
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d, want 3", sub.Size())
		}
		sum, err := Allreduce(sub, []int{1}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 3 {
			return fmt.Errorf("sub allreduce %d", sum[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplit(t *testing.T) {
	err := Run(8, func(c *Comm) error {
		half, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank())
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			return fmt.Errorf("quarter size %d", quarter.Size())
		}
		sum, err := Allreduce(quarter, []int{c.Rank()}, OpSum)
		if err != nil {
			return err
		}
		base := (c.Rank() / 2) * 2
		if sum[0] != base+base+1 {
			return fmt.Errorf("world %d: quarter sum %d, want %d", c.Rank(), sum[0], base*2+1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	var snap Snapshot
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := Send(c, []float64{1, 2, 3}, 1, 0); err != nil {
				return err
			}
		} else {
			if _, _, err := Recv[float64](c, 0, 0); err != nil {
				return err
			}
		}
		if _, err := Allreduce(c, []int{1}, OpSum); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap = c.Stats()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Calls[0][PrimSend]; got != 1 {
		t.Errorf("rank 0 MPI_Send count = %d, want 1", got)
	}
	if got := snap.Calls[1][PrimRecv]; got != 1 {
		t.Errorf("rank 1 MPI_Recv count = %d, want 1", got)
	}
	for r := 0; r < 2; r++ {
		if got := snap.Calls[r][PrimAllreduce]; got != 1 {
			t.Errorf("rank %d MPI_Allreduce count = %d, want 1", r, got)
		}
		if got := snap.Calls[r][PrimBarrier]; got != 1 {
			t.Errorf("rank %d MPI_Barrier count = %d, want 1", r, got)
		}
	}
	if snap.TotalWire == 0 || snap.TotalMsgs == 0 {
		t.Errorf("wire accounting empty: %+v", snap)
	}
	used := snap.PrimitivesUsed()
	if len(used) == 0 {
		t.Error("no primitives recorded")
	}
}

func TestPrimitiveNames(t *testing.T) {
	seen := map[string]Primitive{}
	for p := Primitive(0); p < numPrimitives; p++ {
		name := p.String()
		if name == "" {
			t.Fatalf("primitive %d has empty name", p)
		}
		if q, dup := seen[name]; dup {
			t.Fatalf("primitives %d and %d share the name %q", q, p, name)
		}
		seen[name] = p
	}
}

func TestSnapshotString(t *testing.T) {
	var snap Snapshot
	err := Run(2, func(c *Comm) error {
		if _, err := Allreduce(c, []int{c.Rank()}, OpSum); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap = c.Stats()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := snap.String()
	if s == "" || len(s) < 20 {
		t.Fatalf("suspicious snapshot string: %q", s)
	}
}

func TestEagerThresholdOption(t *testing.T) {
	// With a huge threshold, even big head-to-head sends stay eager and
	// the exchange completes.
	big := make([]float64, 10_000)
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		if err := Send(c, big, peer, 0); err != nil {
			return err
		}
		_, _, err := Recv[float64](c, peer, 0)
		return err
	}, WithEagerThreshold(1<<30))
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldCommBasics(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Size() != 3 {
			return fmt.Errorf("size %d", c.Size())
		}
		if c.Rank() < 0 || c.Rank() >= 3 {
			return fmt.Errorf("rank %d", c.Rank())
		}
		if c.worldRank != c.Rank() {
			return fmt.Errorf("world rank %d != rank %d on world comm", c.worldRank, c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRanksSeeDistinctComms(t *testing.T) {
	ranks := make([]bool, 5)
	err := Run(5, func(c *Comm) error {
		ranks[c.Rank()] = true // distinct indices: no data race
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ranks, []bool{true, true, true, true, true}) {
		t.Fatalf("ranks launched: %v", ranks)
	}
}

// TestConcurrentSubCommunicatorCollectives runs independent collective
// sequences in two halves of the world simultaneously — the context
// isolation that makes Split safe.
func TestConcurrentSubCommunicatorCollectives(t *testing.T) {
	err := Run(8, func(c *Comm) error {
		half, err := c.Split(c.Rank()/4, c.Rank())
		if err != nil {
			return err
		}
		// The two halves run different numbers of collectives with
		// different payloads, concurrently and unsynchronized.
		rounds := 20
		if c.Rank() < 4 {
			rounds = 35
		}
		for i := 0; i < rounds; i++ {
			sum, err := Allreduce(half, []int{1}, OpSum)
			if err != nil {
				return err
			}
			if sum[0] != 4 {
				return fmt.Errorf("round %d: cross-talk between halves: %d", i, sum[0])
			}
			all, err := allgather(half, []int{half.Rank()})
			if err != nil {
				return err
			}
			for r, v := range all {
				if v != r {
					return fmt.Errorf("allgather polluted: %v", all)
				}
			}
		}
		// Re-join the world for a final sanity collective.
		total, err := Allreduce(c, []int{1}, OpSum)
		if err != nil {
			return err
		}
		if total[0] != 8 {
			return fmt.Errorf("world collective after split: %d", total[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogDefault pins the watchdog run resolves: none where the
// precise deadlock detector runs (a clean Run), the 30-second default
// wherever the link stack cannot support it — any layer over the
// in-memory link, or the sockets — and the caller's own value always.
func TestWatchdogDefault(t *testing.T) {
	cases := []struct {
		name string
		run  runFunc
		opts []Option
		want time.Duration
	}{
		{"Run", Run, nil, 0},
		{"Run/latency", Run, []Option{WithLinkLatency(time.Millisecond)}, defaultWatchdog},
		{"Run/reliable", Run, []Option{WithReliableLinks()}, defaultWatchdog},
		{"Run/injector", Run, []Option{WithInjector(&testInjector{})}, defaultWatchdog},
		{"Run/latency/explicit", Run, []Option{WithLinkLatency(time.Millisecond), WithWatchdog(5 * time.Second)}, 5 * time.Second},
		{"RunTCP", RunTCP, nil, defaultWatchdog},
		{"RunTCP/explicit", RunTCP, []Option{WithWatchdog(time.Minute)}, time.Minute},
	}
	if defaultWatchdog != 30*time.Second {
		t.Fatalf("defaultWatchdog = %v, want 30s", defaultWatchdog)
	}
	for _, tc := range cases {
		var got time.Duration
		err := tc.run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				got = c.world.opts.watchdogTimeout
			}
			return nil
		}, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: watchdog %v, want %v", tc.name, got, tc.want)
		}
	}
}
