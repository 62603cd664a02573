package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestHelpGolden pins the -help output so flag drift (adding, renaming
// or re-documenting a flag without regenerating the golden) fails CI.
// Regenerate with: go test ./cmd/modulerun -run HelpGolden -update
func TestHelpGolden(t *testing.T) {
	var o options
	fs := newFlagSet(&o)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.Usage()
	got := buf.String()

	golden := filepath.Join("testdata", "help.golden")
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
		t.Errorf("help output drifted from %s (regenerate with -update)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	// The fault-tolerance, RMA and DDP flags must stay documented.
	for _, f := range []string{"-rma", "-inject", "-heartbeat", "-op-timeout", "-overlap", "-bucket-bytes", "-latency"} {
		if !strings.Contains(got, f+" ") && !strings.Contains(got, f+"\n") {
			t.Errorf("help output does not document %s", f)
		}
	}
}

// TestApplyRMA covers the -rma selection rules: substitution for the
// hash-join activity and module 7, direct launch when bare, and usage
// errors elsewhere.
func TestApplyRMA(t *testing.T) {
	cases := []struct {
		name         string
		in           options
		wantActivity string
		wantErr      bool
	}{
		{"off", options{activity: "hash-join"}, "hash-join", false},
		{"substitutes activity", options{rma: true, activity: "hash-join"}, "hash-join-rma", false},
		{"idempotent", options{rma: true, activity: "hash-join-rma"}, "hash-join-rma", false},
		{"bare runs rma variant", options{rma: true}, "hash-join-rma", false},
		{"module 7 untouched", options{rma: true, module: 7}, "", false},
		{"wrong activity", options{rma: true, activity: "ping-pong"}, "", true},
		{"wrong module", options{rma: true, module: 3}, "", true},
		{"list unaffected", options{rma: true, list: true}, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.in
			err := applyRMA(&o)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("applyRMA(%+v): expected error", tc.in)
				}
				return
			}
			if err != nil {
				t.Fatalf("applyRMA(%+v): %v", tc.in, err)
			}
			if o.activity != tc.wantActivity {
				t.Fatalf("applyRMA(%+v): activity = %q, want %q", tc.in, o.activity, tc.wantActivity)
			}
		})
	}
}

// TestApplyDDP covers the -overlap/-bucket-bytes resolution: the
// Module-8 activities are rebuilt, other activities pass through, and
// malformed values are usage errors.
func TestApplyDDP(t *testing.T) {
	ddpAct, ok := core.Find("ddp")
	if !ok {
		t.Fatal("ddp activity not registered")
	}
	pingAct, _ := core.Find("ping-pong")

	cases := []struct {
		name    string
		in      options
		a       core.Activity
		wantErr bool
	}{
		{"default on", options{overlap: "on"}, ddpAct, false},
		{"off", options{overlap: "off", bucketBytes: 64 << 10}, ddpAct, false},
		{"unparsed options", options{}, ddpAct, false},
		{"non-ddp passthrough", options{overlap: "on"}, pingAct, false},
		{"bad overlap", options{overlap: "maybe"}, ddpAct, true},
		{"negative bucket", options{overlap: "on", bucketBytes: -1}, ddpAct, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := applyDDP(&tc.in, tc.a)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("applyDDP(%+v): expected error", tc.in)
				}
				return
			}
			if err != nil {
				t.Fatalf("applyDDP(%+v): %v", tc.in, err)
			}
			if got.Name != tc.a.Name {
				t.Fatalf("applyDDP changed the activity name: %q -> %q", tc.a.Name, got.Name)
			}
		})
	}
}

// TestRunDDP runs the overlapped trainer end to end through the CLI
// entry point, exactly as `modulerun -activity ddp -np 2` would.
func TestRunDDP(t *testing.T) {
	o := options{activity: "ddp", np: 2, transport: "channel", overlap: "on"}
	fs := newFlagSet(&options{})
	if err := run(&o, fs); err != nil {
		t.Fatalf("run -activity ddp: %v", err)
	}
}

// TestRunRMA runs the one-sided hash join end to end through the CLI
// entry point, exactly as `modulerun -rma -np 2` would.
func TestRunRMA(t *testing.T) {
	o := options{rma: true, np: 2, transport: "channel"}
	fs := newFlagSet(&options{})
	if err := run(&o, fs); err != nil {
		t.Fatalf("run -rma: %v", err)
	}
}

// TestRunRejectsInjectWithScale pins the guard: fault flags do not
// silently no-op in scaling studies.
func TestRunRejectsInjectWithScale(t *testing.T) {
	o := options{activity: "ping-pong", scale: "1,2", inject: "frame=drop:prob=0.5:seed=1", transport: "channel"}
	fs := newFlagSet(&options{})
	if err := run(&o, fs); err == nil {
		t.Fatal("expected -inject with -scale to be rejected")
	}
}

// stdoutOf runs fn with os.Stdout redirected and returns what it printed.
func stdoutOf(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	err = fn()
	os.Stdout = saved
	w.Close()
	out := <-read
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	return out
}

// TestMetricsLeaveAccountingUnchanged: -metrics observes a run without
// joining it. `-activity ping-pong -np 2 -stats` prints the same calls,
// messages and wire bytes with and without -metrics, and no collective
// the program never called.
func TestMetricsLeaveAccountingUnchanged(t *testing.T) {
	accounting := func(metrics bool) (string, string) {
		o := options{activity: "ping-pong", np: 2, transport: "channel", stats: true, metrics: metrics}
		out := stdoutOf(t, func() error { return run(&o, newFlagSet(&options{})) })
		var acct []string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "world size ") || strings.HasPrefix(line, "  rank ") || strings.HasPrefix(line, "  MPI_") {
				acct = append(acct, line)
			}
		}
		return strings.Join(acct, "\n"), out
	}
	plain, _ := accounting(false)
	metered, out := accounting(true)
	if !strings.HasPrefix(plain, "world size 2, 204 messages, ") {
		t.Fatalf("unexpected accounting without -metrics:\n%s", plain)
	}
	if metered != plain {
		t.Errorf("-metrics changed the accounting:\n--- without ---\n%s\n--- with ---\n%s", plain, metered)
	}
	if strings.Contains(out, "MPI_Gatherv") {
		t.Errorf("-metrics run shows an MPI_Gatherv the program never calls:\n%s", out)
	}
	for _, want := range []string{"mpi_calls_total{prim=MPI_Send}", "straggler detector:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output is missing %q:\n%s", want, out)
		}
	}
}
