package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mpi"
)

// rmaDemo exercises the one-sided subsystem end to end. Rank 0 exposes
// a window of size+2 int64 cells; inside one fence epoch every rank
//
//   - Puts rank+1 into its own cell (disjoint offsets, no synchronization
//     needed beyond the closing fence),
//   - Accumulates rank+1 into the shared sum cell (the runtime applies
//     the reduction atomically at the target), and
//   - races a CompareAndSwap on the leader cell, which exactly one rank
//     wins.
//
// After the fence every rank reads the sum cell back with a one-sided
// Get and checks it against the closed form.
//
// A second epoch repeats the Put nonblocking: every rank PutAsyncs a
// scaled value over its own cell and holds the request — it completes
// only when the fence closes the epoch, which the demo makes visible by
// Testing before and Waiting after. After each fence, rank 0 reads its
// local window and checks the cells against the closed forms — the same
// totals on every run and transport — and finally prints the coalescing
// layer's counters (ops ÷ flushes is the batching ratio).
func rmaDemo(c *mpi.Comm) error {
	start := mpi.RMABatchStats()
	n := c.Size()
	size := 0
	if c.Rank() == 0 {
		size = (n + 2) * 8
	}
	win, err := c.WinCreate(size)
	if err != nil {
		return err
	}
	sumCell := n * 8
	leaderCell := (n + 1) * 8

	var cell [8]byte
	binary.LittleEndian.PutUint64(cell[:], uint64(c.Rank()+1))
	if err := win.Put(0, c.Rank()*8, cell[:]); err != nil {
		return err
	}
	if err := win.Accumulate(0, sumCell, []int64{int64(c.Rank() + 1)}, mpi.AccSum); err != nil {
		return err
	}
	old, err := win.CompareAndSwap(0, leaderCell, 0, int64(c.Rank()+1))
	if err != nil {
		return err
	}
	if err := win.Fence(); err != nil {
		return err
	}

	if old == 0 {
		fmt.Printf("rank %d won the CAS race for the leader cell\n", c.Rank())
	}
	want := int64(n) * int64(n+1) / 2
	if err := win.GetInto(cell[:], 0, sumCell); err != nil {
		return err
	}
	if got := int64(binary.LittleEndian.Uint64(cell[:])); got != want {
		return fmt.Errorf("rma demo: rank %d read accumulate cell %d, want %d", c.Rank(), got, want)
	}
	if c.Rank() == 0 {
		local := win.Local()
		var puts int64
		for r := 0; r < n; r++ {
			puts += int64(binary.LittleEndian.Uint64(local[r*8:]))
		}
		sum := int64(binary.LittleEndian.Uint64(local[sumCell:]))
		leader := int64(binary.LittleEndian.Uint64(local[leaderCell:]))
		fmt.Printf("window after fence: put cells sum %d, accumulate cell %d (want %d), leader rank %d\n",
			puts, sum, want, leader-1)
		if puts != want || sum != want || leader < 1 || leader > int64(n) {
			return fmt.Errorf("rma demo: window state inconsistent (puts=%d sum=%d leader=%d want=%d)", puts, sum, leader, want)
		}
	}

	// Rank 0 just read its exposed window, so hold every rank back until
	// the read is done — otherwise the next epoch's puts may land
	// mid-read (fences order epochs, they don't protect local loads
	// issued after the epoch closed).
	if err := c.Barrier(); err != nil {
		return err
	}

	// Second epoch: nonblocking. The queued PutAsync completes at the
	// epoch boundary, not before — Test sees it pending until the fence
	// flushes the batch, after which Wait returns immediately.
	binary.LittleEndian.PutUint64(cell[:], uint64((c.Rank()+1)*10))
	req, err := win.PutAsync(0, c.Rank()*8, cell[:])
	if err != nil {
		return err
	}
	if done, _, _, err := req.Test(); err != nil {
		return err
	} else if done {
		return fmt.Errorf("rma demo: PutAsync reported complete before the epoch closed")
	}
	if err := win.Fence(); err != nil {
		return err
	}
	if _, _, err := req.Wait(); err != nil {
		return err
	}

	if c.Rank() == 0 {
		local := win.Local()
		var puts int64
		for r := 0; r < n; r++ {
			puts += int64(binary.LittleEndian.Uint64(local[r*8:]))
		}
		fmt.Printf("window after async epoch: put cells sum %d (want %d)\n", puts, 10*want)
		if puts != 10*want {
			return fmt.Errorf("rma demo: async epoch inconsistent (puts=%d want=%d)", puts, 10*want)
		}
		d := mpi.RMABatchStats().Sub(start)
		ratio := float64(0)
		if d.Flushes > 0 {
			ratio = float64(d.Ops) / float64(d.Flushes)
		}
		fmt.Printf("batch layer: %d ops in %d flushes (ratio %.1f), %d bytes, %d direct shared-memory applies\n",
			d.Ops, d.Flushes, ratio, d.Bytes, d.DirectApplies)
	}
	return win.Free()
}
