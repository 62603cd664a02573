package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mpi"
)

// parityWorkload drives every instrumented primitive class — p2p
// (blocking, nonblocking, sendrecv, probe), a spread of collectives, and
// the one-sided surface — with payloads straddling the eager threshold.
// The byte counts it produces are pure functions of rank and size, so
// they must be identical on the channel and TCP transports.
func parityWorkload(c *mpi.Comm) error {
	const tag = 7
	me, n := c.Rank(), c.Size()
	small := make([]byte, 48)
	large := make([]byte, 8192) // rendezvous on the default threshold
	next, prev := (me+1)%n, (me+n-1)%n

	for _, payload := range [][]byte{small, large} {
		if me%2 == 0 {
			if err := mpi.Send(c, payload, next, tag); err != nil {
				return err
			}
			b, _, err := c.RecvBytes(prev, tag)
			if err != nil {
				return err
			}
			mpi.Release(b)
		} else {
			b, _, err := c.RecvBytes(prev, tag)
			if err != nil {
				return err
			}
			mpi.Release(b)
			if err := mpi.Send(c, payload, next, tag); err != nil {
				return err
			}
		}
	}
	req, err := mpi.Isend(c, small, next, tag+1)
	if err != nil {
		return err
	}
	rb, _, err := c.RecvBytes(prev, tag+1)
	if err != nil {
		return err
	}
	mpi.Release(rb)
	if _, _, err := req.Wait(); err != nil {
		return err
	}
	if _, _, err := c.SendrecvBytes(small, next, tag+2, prev, tag+2); err != nil {
		return err
	}

	buf := []float64{float64(me), 1, 2, 3}
	if _, err := mpi.Bcast(c, buf, 0); err != nil {
		return err
	}
	if _, err := mpi.Allreduce(c, buf, mpi.OpSum); err != nil {
		return err
	}
	if _, err := mpi.Gather(c, buf, 0); err != nil {
		return err
	}
	cr, err := mpi.Iallgather(c, make([]float64, len(buf)*n))
	if err != nil {
		return err
	}
	if err := cr.Wait(); err != nil {
		return err
	}
	if err := c.Barrier(); err != nil {
		return err
	}

	w, err := c.WinCreate(64 * n)
	if err != nil {
		return err
	}
	blk := make([]byte, 64)
	if err := w.Put(next, 64*me, blk); err != nil {
		return err
	}
	if err := w.Fence(); err != nil {
		return err
	}
	if _, err := w.Get(prev, 0, 32); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return w.Free()
}

// countSnapshot flattens the calls/bytes counters of every rank into
// sorted "rank/series value" lines; latency, blocked and queued series
// are timing-dependent and excluded by construction.
func countSnapshot(set *MPISet) []string {
	var out []string
	for r := 0; r < set.Ranks(); r++ {
		for _, ss := range set.RankRegistry(r).Snapshot() {
			if ss.Name != "mpi_calls_total" && ss.Name != "mpi_bytes_total" {
				continue
			}
			if ss.Value == 0 {
				continue
			}
			out = append(out, fmt.Sprintf("%d/%s %g", r, ss.Key(), ss.Value))
		}
	}
	sort.Strings(out)
	return out
}

// TestTransportCounterParity is the telemetry analogue of prof's
// event-parity tests: one workload, two transports, identical calls and
// bytes counters on every rank.
func TestTransportCounterParity(t *testing.T) {
	const np = 4
	runs := []struct {
		name string
		run  func(int, func(*mpi.Comm) error, ...mpi.Option) error
	}{
		{"channel", mpi.Run},
		{"tcp", mpi.RunTCP},
	}
	got := make([][]string, len(runs))
	for i, tc := range runs {
		set := NewMPISet(np)
		if err := tc.run(np, parityWorkload, mpi.WithHook(set), mpi.WithWatchdog(time.Minute)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[i] = countSnapshot(set)
		if len(got[i]) == 0 {
			t.Fatalf("%s: no counters recorded", tc.name)
		}
	}
	if a, b := strings.Join(got[0], "\n"), strings.Join(got[1], "\n"); a != b {
		t.Fatalf("counter parity violated between transports:\n--- channel ---\n%s\n--- tcp ---\n%s", a, b)
	}
}

// TestLossyLinkCounterParity is the reliability layer's promise to the
// observability stack: drops, duplicates, corruption and reordering on
// the wire are absorbed below the primitive layer, so the calls and
// bytes counters of a run over a lossy reliable link are identical to a
// clean channel run — the injected chaos is invisible to profilers.
// (The wire's side of the story lands in the process-level retransmit
// and frame counters instead; see TestGatherMergedResilienceCounters.)
func TestLossyLinkCounterParity(t *testing.T) {
	const np = 4
	const noise = "frame=drop:prob=0.02:seed=31,frame=dup:prob=0.02:seed=32," +
		"frame=corrupt:prob=0.02:seed=33,frame=reorder:prob=0.02:seed=34"
	runs := []struct {
		name string
		run  func() (*MPISet, error)
	}{
		{"channel-clean", func() (*MPISet, error) {
			set := NewMPISet(np)
			return set, mpi.Run(np, parityWorkload, mpi.WithHook(set), mpi.WithWatchdog(time.Minute))
		}},
		{"tcp-lossy", func() (*MPISet, error) {
			set := NewMPISet(np)
			return set, mpi.RunTCP(np, parityWorkload,
				mpi.WithHook(set), mpi.WithReliableLinks(),
				mpi.WithInjector(faults.MustParse(noise)), mpi.WithWatchdog(time.Minute))
		}},
	}
	got := make([][]string, len(runs))
	for i, tc := range runs {
		set, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[i] = countSnapshot(set)
		if len(got[i]) == 0 {
			t.Fatalf("%s: no counters recorded", tc.name)
		}
	}
	if a, b := strings.Join(got[0], "\n"), strings.Join(got[1], "\n"); a != b {
		t.Fatalf("wire faults leaked into the primitive counters:\n--- channel clean ---\n%s\n--- tcp lossy ---\n%s", a, b)
	}
}
