package ckpt

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// lifecycleLog records a world's lifecycle events.
type lifecycleLog struct {
	mu     sync.Mutex
	events []string
}

func (l *lifecycleLog) Event(mpi.Event) {}

func (l *lifecycleLog) Lifecycle(e mpi.LifecycleEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf("%d %s %s", e.Rank, e.Kind, e.Detail))
}

// TestProtocolColdStart: with nothing saved yet, every rank resumes from
// step 0 with no state, and no recovery is reported.
func TestProtocolColdStart(t *testing.T) {
	p := Protocol{CP: NewMem(), Every: 2, Module: "mod", Unit: "step"}
	log := &lifecycleLog{}
	err := mpi.Run(3, func(c *mpi.Comm) error {
		step, state, err := p.Restore(c, 4)
		if err != nil {
			return err
		}
		if step != 0 || state != nil {
			return fmt.Errorf("rank %d: cold start restored step %d, state %v", c.Rank(), step, state)
		}
		return nil
	}, mpi.WithHook(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.events) != 0 {
		t.Fatalf("cold start reported %v", log.events)
	}
}

// TestProtocolSaveRestore: rank 0 saves on every Every-th step only,
// building the snapshot only then, and a restart hands every rank the
// last saved step and state.
func TestProtocolSaveRestore(t *testing.T) {
	mem := NewMem()
	p := Protocol{CP: mem, Every: 2, Module: "mod", Unit: "step"}
	log := &lifecycleLog{}
	var snapshots int
	err := mpi.Run(2, func(c *mpi.Comm) error {
		for step := 1; step <= 5; step++ {
			if err := p.Save(c, step, func() []float64 {
				snapshots++ // rank 0 only: no other rank may build one
				return []float64{float64(step), -float64(step)}
			}); err != nil {
				return err
			}
		}
		step, state, err := p.Restore(c, 2)
		if err != nil {
			return err
		}
		if step != 4 || len(state) != 2 || state[0] != 4 || state[1] != -4 {
			return fmt.Errorf("rank %d restored step %d, state %v; want 4, [4 -4]", c.Rank(), step, state)
		}
		return nil
	}, mpi.WithHook(log))
	if err != nil {
		t.Fatal(err)
	}
	if snapshots != 2 || mem.Saves() != 2 {
		t.Fatalf("%d snapshots built and %d saves, want 2 and 2", snapshots, mem.Saves())
	}
	want := []string{"0 checkpoint mod step 2", "0 checkpoint mod step 4", "0 recovery mod restart from step 4", "1 recovery mod restart from step 4"}
	got := append([]string(nil), log.events...)
	if len(got) == 4 && got[2] > got[3] {
		got[2], got[3] = got[3], got[2] // the two ranks' recoveries race
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("lifecycle events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestProtocolLengthMismatch: a checkpoint of the wrong length is an
// error on rank 0, not a state read at the wrong shape.
func TestProtocolLengthMismatch(t *testing.T) {
	mem := NewMem()
	if err := mem.Save(3, mpi.AppendMarshal(nil, []float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	p := Protocol{CP: mem, Every: 1, Module: "mod", Unit: "step"}
	var rank0 error
	err := mpi.Run(2, func(c *mpi.Comm) error {
		_, state, err := p.Restore(c, 4)
		if c.Rank() == 0 {
			rank0 = err
		} else if err == nil && state != nil {
			return fmt.Errorf("rank 1 restored %v from a 3-value checkpoint", state)
		}
		return err
	})
	if err == nil || rank0 == nil || !strings.Contains(rank0.Error(), "mod: checkpoint holds 3 values, want 4") {
		t.Fatalf("world error %v, rank 0 error %v; want rank 0 to reject the length", err, rank0)
	}
}

// TestProtocolRestartNeedsStore: a restart without a store on rank 0 is
// refused.
func TestProtocolRestartNeedsStore(t *testing.T) {
	p := Protocol{Module: "mod", Unit: "step"}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		_, _, err := p.Restore(c, 1)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "mod: Restart requires a Checkpointer on rank 0") {
		t.Fatalf("got %v", err)
	}
}
