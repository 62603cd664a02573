package cluster

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/perfmodel"
)

// FuzzParseScript hardens the SLURM-script parser: arbitrary input must
// never panic, and accepted scripts must yield sane specs.
func FuzzParseScript(f *testing.F) {
	f.Add("#!/bin/bash\n#SBATCH --ntasks=4\n")
	f.Add("#SBATCH -J x -n 8 -t 1-00:00:00\n")
	f.Add("#SBATCH --time=::\n")
	f.Add("#SBATCH")
	f.Fuzz(func(t *testing.T, script string) {
		spec, err := ParseScript(script)
		if err != nil {
			return
		}
		if spec.Tasks < 0 || spec.TasksPerNode < 0 || spec.TimeLimit < 0 {
			t.Fatalf("accepted spec with negative fields: %+v", spec)
		}
	})
}

// FuzzClusterFaultOps drives the scheduler through an arbitrary
// interleaving of submissions, node failures/repairs, cancellations, and
// event steps, validating the allocation invariants after every
// operation. Each byte of the ops string is one operation; its low bits
// select the node or job. This hardens the node-failure/requeue path:
// no operation sequence may corrupt the free-core bookkeeping, place a
// job on a down node, or wedge the event loop. A second cluster with
// retention off takes the same operations, so evicted records are
// reused under every sequence: its Stats must equal the retaining
// cluster's after every operation, and cancelling an evicted id must
// report "no job" and leave the record's new owner alone.
func FuzzClusterFaultOps(f *testing.F) {
	f.Add([]byte{'s', 'f', 's', 't', 'r', 't', 't'})
	f.Add([]byte{'s', 's', 'F', 'R', 't', 't', 't', 't'})
	f.Add([]byte{'x', 'f', 't', 'r', 't', 'c', 't'})
	f.Add([]byte{'s', 'f', 'f', 'f', 't', 't', 'r', 'r', 't', 't', 't', 't'})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256] // bound simulation size
		}
		const nodes = 3
		var cs [2]*Cluster // retention on, retention off
		for i := range cs {
			c, err := New(nodes, perfmodel.DefaultMachine())
			if err != nil {
				t.Fatal(err)
			}
			cs[i] = c
		}
		c, ev := cs[0], cs[1]
		ev.SetRetainFinished(false)
		cores := perfmodel.DefaultMachine().CoresPerNode
		var ids []int
		for _, op := range ops {
			var errs [2]error
			var stepped [2]bool
			victim := -1
			if op%8 == 6 && len(ids) > 0 {
				victim = ids[int(op)%len(ids)]
			}
			for i, c := range cs {
				id := 0
				switch op % 8 {
				case 0: // 's': submit a shared requeue job
					id, errs[i] = c.Submit(JobSpec{Name: "fz", Tasks: 1 + int(op/8)%cores,
						BaseTime: time.Duration(1+op%5) * time.Minute, Requeue: true, MaxRequeues: 2})
				case 1: // 'x': submit an exclusive job, no requeue
					id, errs[i] = c.Submit(JobSpec{Name: "fx", Tasks: cores, TasksPerNode: cores,
						BaseTime: time.Minute, Exclusive: true, TimeLimit: 10 * time.Minute})
				case 2: // 'f': fail a node now
					errs[i] = c.FailNode(int(op) % nodes)
				case 3: // 'r': repair a node now
					errs[i] = c.RepairNode(int(op) % nodes)
				case 4: // 'F': schedule a failure
					errs[i] = c.ScheduleNodeFail(int(op)%nodes, c.Now()+time.Duration(op%7)*time.Minute)
				case 5: // 'R': schedule a repair
					errs[i] = c.ScheduleNodeRepair(int(op)%nodes, c.Now()+time.Duration(op%11)*time.Minute)
				case 6: // 'c': cancel some submitted job
					if victim >= 0 {
						errs[i] = c.Cancel(victim)
					}
				default: // 't': advance one event
					stepped[i] = c.Step()
				}
				if i == 0 && id > 0 {
					ids = append(ids, id)
				} else if i == 1 && id > 0 && id != ids[len(ids)-1] {
					t.Fatalf("op %q: retention off submitted job %d, retention on %d", op, id, ids[len(ids)-1])
				}
			}
			if (errs[0] == nil) != (errs[1] == nil) || stepped[0] != stepped[1] {
				t.Fatalf("op %q: retention on err %v step %v, retention off err %v step %v",
					op, errs[0], stepped[0], errs[1], stepped[1])
			}
			// A job that cannot be cancelled has finished, and with
			// retention off its record is gone from the table.
			if victim >= 0 && errs[0] != nil && !strings.Contains(errs[1].Error(), "no job") {
				t.Fatalf("cancel of evicted job %d: %v, want no job", victim, errs[1])
			}
			if on, off := c.Stats(), ev.Stats(); on != off {
				t.Fatalf("after op %q: stats with retention on %+v, off %+v", op, on, off)
			}
			for _, c := range cs {
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("after op %q: %v", op, err)
				}
			}
		}
		// The simulation must always terminate: every submitted job
		// reaches a terminal state in bounded events once all nodes are
		// repaired (requeue budgets are finite).
		for _, c := range cs {
			for i := 0; i < nodes; i++ {
				_ = c.RepairNode(i)
			}
			for limit := 0; c.Step(); limit++ {
				if limit > 10_000 {
					t.Fatal("event loop did not terminate")
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if on, off := c.Stats(), ev.Stats(); on != off {
			t.Fatalf("after drain: stats with retention on %+v, off %+v", on, off)
		}
		live := 0
		for _, id := range ids {
			j, err := c.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if j.State == Running {
				t.Fatalf("job %d still running after drain", id)
			}
			if j.State == Pending {
				live++
				// Legal only if it can never be placed; with all nodes
				// repaired and the queue drained, a placeable job must
				// have started. A pending requeued job with unexpired
				// backoff would mean Step ignored the backoff event.
				if j.eligibleAt > c.Now() {
					t.Fatalf("job %d pending with live backoff after drain", id)
				}
			}
		}
		if ev.LiveJobs() != live {
			t.Fatalf("retention off holds %d jobs after drain, want the %d pending", ev.LiveJobs(), live)
		}
	})
}

// FuzzScheduleTwin drives ScheduleTwin from fuzz bytes: the production
// scheduler and refSchedule must make the same decisions after every
// operation. The first byte picks the policy, the backfill scan cap (0, 1
// or 64) and retention. Each further byte is one operation, its low three
// bits the kind and the rest its sizes: a shared job with or without a
// time limit, a memory-bound or compute-bound kernel job, an exclusive
// job, a cancellation, a node failure with its repair, or an event step.
// Half the jobs requeue after a node failure. The seed corpus holds two
// inputs the fuzzer found against broken scans: one that skipped the
// rescan after a kernel job's backfill start, one that counted a
// backfilled job against the scan cap.
func FuzzScheduleTwin(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for cfg := byte(0); cfg < 8; cfg++ {
		ops := make([]byte, 96)
		rng.Read(ops)
		f.Add(append([]byte{cfg}, ops...))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		if len(ops) > 129 {
			ops = ops[:129] // bound simulation size
		}
		const nodes = 3
		policy, limit := PolicyBackfill, []int{0, 1, 64, 0}[ops[0]%4]
		if ops[0]%4 == 3 {
			policy = PolicyFIFO
		}
		w := NewScheduleTwin(t, "fuzz", nodes, policy, limit, ops[0]&4 == 0)
		cores := perfmodel.DefaultMachine().CoresPerNode
		var ids []int
		for _, op := range ops[1:] {
			arg := int(op >> 3)
			spec := JobSpec{Name: "fz", Tasks: 1 + arg*3%(nodes*cores),
				BaseTime: time.Duration(1+arg%7) * time.Minute, Requeue: arg&4 != 0}
			if arg%4 != 0 { // a limit below the runtime now and then: timeouts
				spec.TimeLimit = time.Duration(arg%4) * 3 * time.Minute
			}
			switch op % 8 {
			case 0: // shared job, with a limit when arg allows
			case 1: // no estimate: it never backfills
				spec.TimeLimit = 0
			case 2: // up to ~40 min on the bus alone, with 8+ ranks
				k := perfmodel.MemoryBoundKernel("stream", float64(1+arg%8)*3e13, 0.1)
				spec.Kernel = &k
			case 3:
				k := perfmodel.ComputeBoundKernel("dgemm", float64(1+arg%8)*3e13, 100)
				spec.Kernel = &k
			case 4:
				spec.Exclusive = true
				spec.TasksPerNode = 1 + arg%cores
				spec.Tasks = min(spec.Tasks, nodes*spec.TasksPerNode)
			case 5:
				if len(ids) > 0 {
					w.Cancel(ids[arg%len(ids)])
				}
				continue
			case 6:
				failAt := w.got.Now() + time.Duration(arg%5)*10*time.Second
				w.ScheduleNodeFail(arg%nodes, failAt, failAt+time.Duration(1+arg%4)*time.Minute)
				continue
			default:
				w.Step()
				continue
			}
			ids = append(ids, w.Submit(spec))
		}
		w.Drain()
	})
}
