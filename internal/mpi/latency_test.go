package mpi

import (
	"fmt"
	"testing"
	"time"
)

// TestLinkLatencyRTT: a ping-pong round trip crosses the emulated link
// twice, so its RTT must be at least 2d. Only the lower bound is
// asserted — upper bounds are scheduler noise on a loaded host.
func TestLinkLatencyRTT(t *testing.T) {
	const d = 20 * time.Millisecond
	err := Run(2, func(c *Comm) error {
		peer := 1 - c.Rank()
		start := time.Now()
		if c.Rank() == 0 {
			if err := Send(c, []int64{1}, peer, 0); err != nil {
				return err
			}
			if _, _, err := Recv[int64](c, peer, 0); err != nil {
				return err
			}
			if rtt := time.Since(start); rtt < 2*d {
				return fmt.Errorf("ping-pong RTT %v < 2×%v: link latency not applied", rtt, d)
			}
		} else {
			if _, _, err := Recv[int64](c, peer, 0); err != nil {
				return err
			}
			if err := Send(c, []int64{2}, peer, 0); err != nil {
				return err
			}
		}
		return nil
	}, WithLinkLatency(d))
	if err != nil {
		t.Fatal(err)
	}
}

// TestLinkLatencyFIFO: the delay pipe must preserve per-(src,dst) order —
// the matching engine's non-overtaking guarantee rides on it.
func TestLinkLatencyFIFO(t *testing.T) {
	const n = 64
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := Send(c, []int64{int64(i)}, 1, 5); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			v, _, err := Recv[int64](c, 0, 5)
			if err != nil {
				return err
			}
			if v[0] != int64(i) {
				return fmt.Errorf("message %d arrived out of order (payload %d)", i, v[0])
			}
		}
		return nil
	}, WithLinkLatency(500*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
}

// TestLinkLatencyNonblockingInitiation: the sender must not pay the wire
// delay — Iallreduce's initiation returns while its first segments are
// still in flight, so driving the request immediately after must leave
// it incomplete (the ring needs at least one transit per hop).
func TestLinkLatencyNonblockingInitiation(t *testing.T) {
	const d = 100 * time.Millisecond
	err := Run(2, func(c *Comm) error {
		buf := []float64{float64(c.Rank() + 1), 2, 3, 4}
		start := time.Now()
		req, err := Iallreduce(c, buf, OpSum)
		if err != nil {
			return err
		}
		req.advance(nil)
		if req.done.Load() && time.Since(start) < d {
			return fmt.Errorf("ring completed in %v, under one %v transit: latency bypassed", time.Since(start), d)
		}
		if err := req.Wait(); err != nil {
			return err
		}
		if buf[0] != 3 || buf[1] != 4 {
			return fmt.Errorf("allreduce over the emulated link got %v", buf)
		}
		return nil
	}, WithLinkLatency(d))
	if err != nil {
		t.Fatal(err)
	}
}

// TestLinkLatencyCollectives: the full blocking collective set stays
// correct when every frame transits the emulated link (small d to keep
// the test quick).
func TestLinkLatencyCollectives(t *testing.T) {
	const np = 4
	err := Run(np, func(c *Comm) error {
		sum, err := Allreduce(c, []int64{int64(c.Rank() + 1)}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != np*(np+1)/2 {
			return fmt.Errorf("allreduce got %d", sum[0])
		}
		in := make([]int64, np)
		for i := range in {
			in[i] = int64(c.Rank())
		}
		if err := ReduceScatterInto(c, in, OpSum); err != nil {
			return err
		}
		if shard := in[c.Rank()]; shard != np*(np-1)/2 {
			return fmt.Errorf("reduce-scatter got %d", shard)
		}
		return c.Barrier()
	}, WithLinkLatency(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
}
