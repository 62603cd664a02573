// Package comm implements Module 1 of the pedagogic modules: basic MPI
// communication. Its three activities — ping-pong, communication in a
// ring, and random communication — introduce MPI_Send/MPI_Recv and their
// nonblocking variants, and the deadlock demonstration shows how blocking
// message passing can hang a program (learning outcomes 1–3).
package comm

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/mpi"
)

const (
	tagPingPong = 1
	tagRing     = 2
	tagRandom   = 3
	tagCount    = 4
)

// PingPongResult reports one ping-pong run.
type PingPongResult struct {
	Rounds    int
	Bytes     int // payload size per message
	Elapsed   time.Duration
	AvgRTT    time.Duration
	Bandwidth float64 // bytes/s in one direction, counting both legs
}

// PingPong bounces a message of the given size between ranks 0 and 1 for
// the given number of rounds and returns timing on rank 0 (zero value on
// other ranks). The world must have at least 2 ranks.
func PingPong(c *mpi.Comm, rounds, msgBytes int) (PingPongResult, error) {
	if c.Size() < 2 {
		return PingPongResult{}, errors.New("comm: ping-pong needs at least 2 ranks")
	}
	if rounds <= 0 || msgBytes <= 0 {
		return PingPongResult{}, fmt.Errorf("comm: rounds %d and message size %d must be positive", rounds, msgBytes)
	}
	payload := make([]byte, msgBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := c.Barrier(); err != nil {
		return PingPongResult{}, err
	}
	start := time.Now()
	switch c.Rank() {
	case 0:
		for i := 0; i < rounds; i++ {
			if err := mpi.Send(c, payload, 1, tagPingPong); err != nil {
				return PingPongResult{}, err
			}
			back, _, err := c.RecvBytes(1, tagPingPong)
			if err != nil {
				return PingPongResult{}, err
			}
			if len(back) != msgBytes {
				return PingPongResult{}, fmt.Errorf("comm: echo of %d bytes, sent %d", len(back), msgBytes)
			}
			mpi.Release(back)
		}
	case 1:
		for i := 0; i < rounds; i++ {
			b, _, err := c.RecvBytes(0, tagPingPong)
			if err != nil {
				return PingPongResult{}, err
			}
			err = mpi.Send(c, b, 0, tagPingPong)
			mpi.Release(b)
			if err != nil {
				return PingPongResult{}, err
			}
		}
	}
	elapsed := time.Since(start)
	if err := c.Barrier(); err != nil {
		return PingPongResult{}, err
	}
	if c.Rank() != 0 {
		return PingPongResult{}, nil
	}
	res := PingPongResult{
		Rounds:  rounds,
		Bytes:   msgBytes,
		Elapsed: elapsed,
		AvgRTT:  elapsed / time.Duration(rounds),
	}
	if elapsed > 0 {
		res.Bandwidth = float64(2*rounds*msgBytes) / elapsed.Seconds()
	}
	return res, nil
}

// RingResult reports one ring-circulation run.
type RingResult struct {
	Laps    int
	Hops    int // total messages: laps × size
	Elapsed time.Duration
	Token   int // final token value, laps × size increments
}

// Ring circulates an incrementing token around the ranks for the given
// number of laps using the nonblocking Isend/Recv/Wait pattern the module
// teaches. All ranks return the same result.
func Ring(c *mpi.Comm, laps int) (RingResult, error) {
	if laps <= 0 {
		return RingResult{}, fmt.Errorf("comm: laps %d must be positive", laps)
	}
	p, r := c.Size(), c.Rank()
	right := (r + 1) % p
	left := (r - 1 + p) % p
	start := time.Now()
	// The token starts at 0 on rank 0 and is incremented on every hop;
	// one lap moves it 0 → 1 → … → p-1 → 0, so after all laps it holds
	// laps×p on rank 0.
	token := 0
	for lap := 0; lap < laps; lap++ {
		if r == 0 {
			req, err := mpi.Isend(c, []int{token + 1}, right, tagRing)
			if err != nil {
				return RingResult{}, err
			}
			in, _, err := mpi.Recv[int](c, left, tagRing)
			if err != nil {
				return RingResult{}, err
			}
			if _, _, err := req.Wait(); err != nil {
				return RingResult{}, err
			}
			token = in[0]
		} else {
			in, _, err := mpi.Recv[int](c, left, tagRing)
			if err != nil {
				return RingResult{}, err
			}
			token = in[0]
			if err := mpi.Send(c, []int{token + 1}, right, tagRing); err != nil {
				return RingResult{}, err
			}
		}
	}
	// Everybody learns the final token value from rank 0, where each lap
	// completes.
	fin, err := mpi.Bcast(c, []int{token}, 0)
	if err != nil {
		return RingResult{}, err
	}
	return RingResult{
		Laps:    laps,
		Hops:    laps * p,
		Elapsed: time.Since(start),
		Token:   fin[0],
	}, nil
}

// RandomResult reports a random-communication run.
type RandomResult struct {
	MsgsPerRank int
	TotalMsgs   int
	Elapsed     time.Duration
	Checksum    int64 // order-independent sum of received payloads
}

// RandomKnownSources is the module's first random-communication solution:
// receive from unknown senders WITHOUT MPI_ANY_SOURCE. Each rank sends
// msgsPerRank messages to random destinations; a preliminary exchange of
// per-destination counts over nonblocking point-to-point messages (the
// pattern the module leads students to invent) tells every rank exactly
// how many messages to expect from each source, so all receives name
// their sender explicitly.
func RandomKnownSources(c *mpi.Comm, msgsPerRank int, seed int64) (RandomResult, error) {
	return randomComm(c, msgsPerRank, seed, false)
}

// RandomAnySource is the module's second solution: the count exchange
// still bounds the expected total, but receives use MPI_ANY_SOURCE. The
// module asks students to compare the two for programmability and
// efficiency.
func RandomAnySource(c *mpi.Comm, msgsPerRank int, seed int64) (RandomResult, error) {
	return randomComm(c, msgsPerRank, seed, true)
}

func randomComm(c *mpi.Comm, msgsPerRank int, seed int64, anySource bool) (RandomResult, error) {
	if msgsPerRank <= 0 {
		return RandomResult{}, fmt.Errorf("comm: msgsPerRank %d must be positive", msgsPerRank)
	}
	p, r := c.Size(), c.Rank()
	rng := rand.New(rand.NewSource(seed + int64(r)*7919))
	dests := make([]int, msgsPerRank)
	counts := make([]int, p)
	for i := range dests {
		dests[i] = rng.Intn(p)
		counts[dests[i]]++
	}
	if err := c.Barrier(); err != nil {
		return RandomResult{}, err
	}
	start := time.Now()
	// Phase 1: everyone learns how many messages to expect from whom,
	// with Module 1's own primitives: Isend the count to each peer,
	// Recv one count from each peer.
	var countReqs []*mpi.Request
	for dst := 0; dst < p; dst++ {
		if dst == r {
			continue
		}
		req, err := mpi.Isend(c, []int64{int64(counts[dst])}, dst, tagCount)
		if err != nil {
			return RandomResult{}, err
		}
		countReqs = append(countReqs, req)
	}
	expected := make([]int, p)
	expected[r] = counts[r]
	for src := 0; src < p; src++ {
		if src == r {
			continue
		}
		n, _, err := mpi.Recv[int64](c, src, tagCount)
		if err != nil {
			return RandomResult{}, err
		}
		expected[src] = int(n[0])
	}
	if err := mpi.Waitall(countReqs...); err != nil {
		return RandomResult{}, err
	}
	// Phase 2: nonblocking sends, then receives.
	var reqs []*mpi.Request
	for i, d := range dests {
		req, err := mpi.Isend(c, []int64{int64(r*1_000_000 + i)}, d, tagRandom)
		if err != nil {
			return RandomResult{}, err
		}
		reqs = append(reqs, req)
	}
	var checksum int64
	if anySource {
		total := 0
		for _, n := range expected {
			total += n
		}
		for i := 0; i < total; i++ {
			xs, _, err := mpi.Recv[int64](c, mpi.AnySource, tagRandom)
			if err != nil {
				return RandomResult{}, err
			}
			checksum += xs[0]
		}
	} else {
		for src := 0; src < p; src++ {
			for i := 0; i < expected[src]; i++ {
				xs, _, err := mpi.Recv[int64](c, src, tagRandom)
				if err != nil {
					return RandomResult{}, err
				}
				checksum += xs[0]
			}
		}
	}
	if err := mpi.Waitall(reqs...); err != nil {
		return RandomResult{}, err
	}
	elapsed := time.Since(start)
	// Global order-independent checksum so every rank can verify: local
	// sums travel to rank 0 point-to-point, the total returns by
	// broadcast (MPI_Bcast is Module 1's optional collective).
	var total int64
	if r == 0 {
		total = checksum
		for src := 1; src < p; src++ {
			xs, _, err := mpi.Recv[int64](c, src, tagCount)
			if err != nil {
				return RandomResult{}, err
			}
			total += xs[0]
		}
	} else {
		if err := mpi.Send(c, []int64{checksum}, 0, tagCount); err != nil {
			return RandomResult{}, err
		}
	}
	sum, err := mpi.Bcast(c, []int64{total}, 0)
	if err != nil {
		return RandomResult{}, err
	}
	return RandomResult{
		MsgsPerRank: msgsPerRank,
		TotalMsgs:   msgsPerRank * p,
		Elapsed:     elapsed,
		Checksum:    sum[0],
	}, nil
}

// DeadlockDemo intentionally runs the head-to-head blocking exchange that
// Module 1 uses to teach deadlock: every rank synchronously sends to its
// partner before receiving. Returns the error produced by the runtime's
// deadlock detector. It must be invoked through RunDeadlockDemo, since
// the world itself fails.
func DeadlockDemo(np int) error {
	if np < 2 || np%2 != 0 {
		return fmt.Errorf("comm: deadlock demo needs an even rank count ≥ 2, got %d", np)
	}
	return mpi.Run(np, func(c *mpi.Comm) error {
		partner := c.Rank() ^ 1
		if err := mpi.Ssend(c, []int{c.Rank()}, partner, tagPingPong); err != nil {
			return err
		}
		_, _, err := mpi.Recv[int](c, partner, tagPingPong)
		return err
	})
}

// DeadlockFixed is the corrected exchange: odd ranks receive first. It
// returns nil, demonstrating the fix.
func DeadlockFixed(np int) error {
	if np < 2 || np%2 != 0 {
		return fmt.Errorf("comm: deadlock demo needs an even rank count ≥ 2, got %d", np)
	}
	return mpi.Run(np, func(c *mpi.Comm) error {
		partner := c.Rank() ^ 1
		if c.Rank()%2 == 0 {
			if err := mpi.Ssend(c, []int{c.Rank()}, partner, tagPingPong); err != nil {
				return err
			}
			_, _, err := mpi.Recv[int](c, partner, tagPingPong)
			return err
		}
		if _, _, err := mpi.Recv[int](c, partner, tagPingPong); err != nil {
			return err
		}
		return mpi.Ssend(c, []int{c.Rank()}, partner, tagPingPong)
	})
}
