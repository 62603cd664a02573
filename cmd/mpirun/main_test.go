package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mpi"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (regenerate with -update)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestHelpGolden pins the -help output; the fault-injection flags from
// the fault-tolerance layer must stay documented.
// Regenerate with: go test ./cmd/mpirun -run HelpGolden -update
func TestHelpGolden(t *testing.T) {
	var o options
	fs := newFlagSet(&o)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Usage()
	got := buf.String()
	checkGolden(t, "help.golden", got)
	for _, f := range []string{"-inject", "-heartbeat", "-op-timeout"} {
		if !strings.Contains(got, f+" ") && !strings.Contains(got, f+"\n") {
			t.Errorf("help output does not document %s", f)
		}
	}
}

// TestProgramListGolden pins the no-argument program listing, including
// the one-sided rma demo.
func TestProgramListGolden(t *testing.T) {
	got := programList()
	checkGolden(t, "programs.golden", got)
	if !strings.Contains(got, "rma") {
		t.Error("program listing does not include the rma demo")
	}
}

// TestRMADemo runs the demo program in process on both transports; its
// internal window checks make it self-verifying.
func TestRMADemo(t *testing.T) {
	if err := mpi.Run(4, rmaDemo); err != nil {
		t.Fatalf("channel: %v", err)
	}
	if err := mpi.RunTCP(3, rmaDemo); err != nil {
		t.Fatalf("tcp: %v", err)
	}
}

// resilientPlan is the double-kill plan the resilient demo used to lose
// about one run in fourteen: rank 1 dies entering iteration 1's Allreduce
// and rank 3 at its third primitive, while the survivors recover from
// rank 1.
const resilientPlan = "rank=3:call=3:kill,rank=1:call=2:kill"

// runResilient runs the demo in process on four ranks under inj. The only
// licensed world error is the victims' own: the survivors must finish.
func runResilient(t *testing.T, inj mpi.Injector, wrap func(func(*mpi.Comm) error) func(*mpi.Comm) error) {
	t.Helper()
	err := mpi.Run(4, wrap(resilient), mpi.WithInjector(inj))
	if err == nil || !errors.Is(err, mpi.ErrRankKilled) ||
		errors.Is(err, mpi.ErrRankFailed) || errors.Is(err, mpi.ErrAborted) || errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("resilient under %q: %v", resilientPlan, err)
	}
}

// heldKill is the plan with rank 3's kill held until ranks 0 and 2 have
// each entered their third primitive (or returned): rank 3 then dies only
// after both survivors have started recovering from rank 1's failure, with
// a failed set that does not include it yet. A Shrink that trusts that
// set builds {0, 2, 3} and fails as soon as rank 3 dies.
type heldKill struct {
	mpi.Injector
	passed [2]chan struct{} // rank 0's and rank 2's gate
	once   [2]sync.Once
}

func (h *heldKill) pass(rank int) {
	if rank == 0 || rank == 2 {
		h.once[rank/2].Do(func() { close(h.passed[rank/2]) })
	}
}

func (h *heldKill) AtCall(rank, call int) bool {
	if call == 3 {
		h.pass(rank)
		if rank == 3 {
			<-h.passed[0]
			<-h.passed[1]
		}
	}
	return h.Injector.AtCall(rank, call)
}

// TestResilientSecondKillDuringShrink forces the demo's race.
func TestResilientSecondKillDuringShrink(t *testing.T) {
	h := &heldKill{Injector: faults.MustParse(resilientPlan), passed: [2]chan struct{}{make(chan struct{}), make(chan struct{})}}
	runResilient(t, h, func(prog func(*mpi.Comm) error) func(*mpi.Comm) error {
		return func(c *mpi.Comm) error {
			defer h.pass(c.Rank())
			return prog(c)
		}
	})
}

// TestResilientDoubleKill runs the demo 200 times under its double-kill
// plan, in process, on whatever interleavings the scheduler produces.
func TestResilientDoubleKill(t *testing.T) {
	plan := faults.MustParse(resilientPlan)
	same := func(prog func(*mpi.Comm) error) func(*mpi.Comm) error { return prog }
	for i := 0; i < 200; i++ {
		runResilient(t, plan, same)
	}
}

// TestProcsForwardsRunOptions: -procs hands the runtime flags to every
// worker's world. Rank 1 receives a message nobody sends: with
// -op-timeout forwarded it fails with ErrTimeout after 200 ms, as the
// program requires; dropped, it would hang until the run's 60-second
// watchdog. -reliable rides along, so both workers frame their links
// alike or the exchange fails.
func TestProcsForwardsRunOptions(t *testing.T) {
	var o options
	if err := newFlagSet(&o).Parse([]string{"-procs", "-op-timeout", "200ms", "-reliable", "-heartbeat", "5s", "stall"}); err != nil {
		t.Fatal(err)
	}
	_, opts, err := faults.Options(o.inject, o.heartbeat, o.opTimeout, o.reliable)
	if err != nil {
		t.Fatal(err)
	}
	stall := func(c *mpi.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if _, _, err := c.RecvBytes(0, 5); !errors.Is(err, mpi.ErrTimeout) {
				return fmt.Errorf("unmatched recv returned %v, want ErrTimeout", err)
			}
		}
		return nil
	}
	worker, err := runProcs(2, "stall", mpi.Programs{"stall": stall}, opts,
		mpi.WithChildArgs("-test.run=^"+t.Name()+"$", "-test.count=1"),
		mpi.WithChildOutput(io.Discard, io.Discard))
	if worker {
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestLatencySizes runs the latency program on two ranks and checks that
// it prints one row per size, 1 B to 1 MiB in steps of 4×.
func TestLatencySizes(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := mpi.Run(2, latency)
	os.Stdout = saved
	w.Close()
	got := strings.Split(strings.TrimSpace(string(<-out)), "\n")
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(got) != 12 || strings.Fields(got[0])[0] != "bytes" {
		t.Fatalf("want a header and 11 rows, got:\n%s", strings.Join(got, "\n"))
	}
	for i, line := range got[1:] {
		f := strings.Fields(line)
		if want := fmt.Sprint(1 << (2 * i)); len(f) != 2 || f[0] != want {
			t.Errorf("row %d = %q, want size %s and a latency", i, line, want)
		} else if d, err := time.ParseDuration(f[1]); err != nil || d <= 0 {
			t.Errorf("row %d = %q: latency is not a positive duration", i, line)
		}
	}
}
