package comm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/mpi"
)

func TestPingPong(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		res, err := PingPong(c, 20, 1024)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if res.Rounds != 20 || res.Bytes != 1024 {
				return fmt.Errorf("result %+v", res)
			}
			if res.AvgRTT <= 0 || res.Bandwidth <= 0 {
				return fmt.Errorf("no timing: %+v", res)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPingPongIgnoresExtraRanks(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) error {
		_, err := PingPong(c, 5, 64)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPingPongValidation(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := PingPong(c, 5, 64); err == nil {
			return errors.New("1-rank ping-pong accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := PingPong(c, 0, 64); err == nil {
			return errors.New("zero rounds accepted")
		}
		// Peers must stay consistent: both ranks get the error before
		// any communication, so no one hangs.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRingTokenValue(t *testing.T) {
	for _, np := range []int{1, 2, 3, 6} {
		for _, laps := range []int{1, 3} {
			np, laps := np, laps
			t.Run(fmt.Sprintf("np=%d laps=%d", np, laps), func(t *testing.T) {
				err := mpi.Run(np, func(c *mpi.Comm) error {
					res, err := Ring(c, laps)
					if err != nil {
						return err
					}
					if res.Token != laps*np {
						return fmt.Errorf("token %d, want %d", res.Token, laps*np)
					}
					if res.Hops != laps*np {
						return fmt.Errorf("hops %d", res.Hops)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestRingValidation(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := Ring(c, 0); err == nil {
			return errors.New("zero laps accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomCommBothVariants(t *testing.T) {
	for _, np := range []int{2, 4, 7} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			const msgs = 25
			want := ExpectedRandomChecksum(np, msgs)
			err := mpi.Run(np, func(c *mpi.Comm) error {
				known, err := RandomKnownSources(c, msgs, 99)
				if err != nil {
					return err
				}
				if known.Checksum != want {
					return fmt.Errorf("known-sources checksum %d, want %d", known.Checksum, want)
				}
				anySrc, err := RandomAnySource(c, msgs, 99)
				if err != nil {
					return err
				}
				if anySrc.Checksum != want {
					return fmt.Errorf("any-source checksum %d, want %d", anySrc.Checksum, want)
				}
				if known.TotalMsgs != msgs*np || anySrc.TotalMsgs != msgs*np {
					return fmt.Errorf("message counts %d/%d", known.TotalMsgs, anySrc.TotalMsgs)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRandomCommUsesExpectedPrimitives(t *testing.T) {
	// The module's primitive set: Isend, Recv, Wait, Send, Bcast — and
	// no collectives beyond Bcast (Table II, Module 1).
	err := mpi.Run(3, func(c *mpi.Comm) error {
		if _, err := RandomKnownSources(c, 10, 1); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap := c.Stats()
			if snap.TotalCalls(mpi.PrimIsend) == 0 {
				return errors.New("no Isend recorded")
			}
			if snap.TotalCalls(mpi.PrimBcast) == 0 {
				return errors.New("no Bcast recorded")
			}
			for _, banned := range []mpi.Primitive{mpi.PrimAllreduce, mpi.PrimScatter, mpi.PrimReduce} {
				if snap.TotalCalls(banned) != 0 {
					return fmt.Errorf("%v used but outside Module 1's primitive set", banned)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDemoDetects(t *testing.T) {
	err := DeadlockDemo(2)
	if !errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("want deadlock, got %v", err)
	}
	err = DeadlockDemo(4)
	if !errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("want deadlock at 4 ranks, got %v", err)
	}
}

func TestDeadlockDemoValidation(t *testing.T) {
	if err := DeadlockDemo(3); err == nil || errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("odd rank count: %v", err)
	}
	if err := DeadlockFixed(1); err == nil {
		t.Fatal("1-rank fixed demo accepted")
	}
}

func TestDeadlockFixedSucceeds(t *testing.T) {
	if err := DeadlockFixed(2); err != nil {
		t.Fatal(err)
	}
	if err := DeadlockFixed(6); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedRandomChecksum(t *testing.T) {
	// p=2, msgs=2: rank0 sends 0,1; rank1 sends 1000000,1000001.
	if got := ExpectedRandomChecksum(2, 2); got != 0+1+1_000_000+1_000_001 {
		t.Fatalf("checksum %d", got)
	}
}

func TestPingPongOverTCP(t *testing.T) {
	err := mpi.RunTCP(2, func(c *mpi.Comm) error {
		res, err := PingPong(c, 5, 4096)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && res.AvgRTT <= 0 {
			return errors.New("no RTT measured over TCP")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ExpectedRandomChecksum computes the checksum RandomKnownSources and
// RandomAnySource must produce for a world of size p: every rank r sends
// payloads r*1e6+i for i in [0, msgsPerRank).
func ExpectedRandomChecksum(p, msgsPerRank int) int64 {
	var sum int64
	for r := 0; r < p; r++ {
		for i := 0; i < msgsPerRank; i++ {
			sum += int64(r*1_000_000 + i)
		}
	}
	return sum
}
