package ckpt

import (
	"fmt"

	"repro/internal/mpi"
)

// Protocol is the checkpoint/restart protocol of an iterative module
// whose state is a float64 vector that every rank holds identically
// (k-means' centroids, DDP's replicated parameters and momentum). Rank 0
// saves the state every Every steps; a restart loads it on rank 0 and
// broadcasts it, so every rank resumes from the same step.
type Protocol struct {
	CP     Checkpointer // rank 0's store; other ranks may leave it nil
	Every  int          // steps between saves; 0 disables saving
	Module string       // names the module in errors and lifecycle details ("kmeans")
	Unit   string       // what one step is called in lifecycle details ("iteration")
}

// Restore runs a restart on every rank. Rank 0 loads the latest
// checkpoint, checks that it holds n values, and broadcasts
// [step, state...], with step −1 meaning a cold start (no checkpoint
// yet). Every rank returns the step to resume from and the restored
// state, or 0 and nil on a cold start.
func (p Protocol) Restore(c *mpi.Comm, n int) (int, []float64, error) {
	var msg []float64
	if c.Rank() == 0 {
		if p.CP == nil {
			return 0, nil, fmt.Errorf("%s: Restart requires a Checkpointer on rank 0", p.Module)
		}
		step, payload, ok, err := p.CP.Load()
		if err != nil {
			return 0, nil, err
		}
		if ok {
			vals, err := mpi.Unmarshal[float64](payload)
			if err != nil {
				return 0, nil, err
			}
			if len(vals) != n {
				return 0, nil, fmt.Errorf("%s: checkpoint holds %d values, want %d (shape changed?)", p.Module, len(vals), n)
			}
			msg = append([]float64{float64(step)}, vals...)
		} else {
			msg = []float64{-1}
		}
	}
	msg, err := mpi.Bcast(c, msg, 0)
	if err != nil {
		return 0, nil, err
	}
	if msg[0] < 0 {
		return 0, nil, nil
	}
	step := int(msg[0])
	c.Lifecycle(mpi.LifeRecovery, fmt.Sprintf("%s restart from %s %d", p.Module, p.Unit, step))
	return step, msg[1:], nil
}

// Save checkpoints the state that step produced when a save is due: on
// rank 0, with a store set, every Every steps. snapshot is called only
// then, so a module whose snapshot is a copy pays for it only on a save.
// A restart from the checkpoint resumes at step.
func (p Protocol) Save(c *mpi.Comm, step int, snapshot func() []float64) error {
	if c.Rank() != 0 || p.CP == nil || p.Every <= 0 || step%p.Every != 0 {
		return nil
	}
	if err := p.CP.Save(step, mpi.AppendMarshal(nil, snapshot())); err != nil {
		return err
	}
	c.Lifecycle(mpi.LifeCheckpoint, fmt.Sprintf("%s %s %d", p.Module, p.Unit, step))
	return nil
}
