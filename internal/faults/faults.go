// Package faults parses deterministic fault-injection specifications and
// compiles them into an execution plan. A plan drives three fault planes:
//
//   - rank kills, fired at an exact per-rank MPI call count
//     (rank=2:call=50:kill);
//   - frame faults on every transport's links — drop, duplicate, corrupt,
//     reorder, or delay a data frame, selected by a seeded PRNG or an
//     exact occurrence count (frame=drop:prob=0.1:seed=7,
//     frame=corrupt:count=1, frame=delay:ms=20:src=0:dst=3);
//   - cluster node failures at a simulated time
//     (node=3:at=2m, consumed by the scheduler simulator).
//
// Multiple rules are joined with commas. Everything is deterministic:
// the same spec and seed produce the same fault sequence, so failures
// found in CI replay exactly on a laptop.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mpi"
)

// FrameRule perturbs data frames on a link. Each candidate
// frame matching the Src/Dst filters (−1 matches any rank) is faulted
// with probability Prob using the rule's seeded PRNG; Count, when
// positive, caps how many frames the rule may fault in total. Delay
// rules hold the frame for Delay before sending it.
type FrameRule struct {
	Action mpi.FrameAction
	Prob   float64
	Seed   int64
	Src    int
	Dst    int
	Count  int // 0 = unlimited
	Delay  time.Duration
}

// NodeEvent schedules a simulated cluster-node failure: node Node goes
// down At after simulation start. Consumed by internal/cluster, not by
// the MPI runtime.
type NodeEvent struct {
	Node int
	At   time.Duration
}

// Plan is a compiled fault specification. It implements mpi.Injector;
// pass it to the runtime with mpi.WithInjector(plan). A Plan is safe for
// concurrent use and single-use: its per-rule counters advance as faults
// fire. Parse a fresh Plan per run.
type Plan struct {
	kills  map[[2]int]bool // {rank, call} -> kill
	frames []*frameState
	nodes  []NodeEvent
	spec   string
}

type frameState struct {
	rule FrameRule
	mu   sync.Mutex
	rng  *rand.Rand
	hits int
}

// Parse compiles a comma-separated fault specification. An empty spec
// yields an empty plan (no faults). Grammar, per rule:
//
//	rank=R:call=N:kill
//	frame=drop|dup|corrupt|reorder|delay[:prob=P][:seed=S][:ms=D][:src=A][:dst=B][:count=N]
//	node=K:at=DUR
//
// prob defaults to 1 (every matching frame), seed to 1, src/dst to any.
// delay rules require ms; DUR accepts Go duration syntax ("90s", "2m").
func Parse(spec string) (*Plan, error) {
	p := &Plan{kills: make(map[[2]int]bool), spec: spec}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, rule := range strings.Split(spec, ",") {
		rule = strings.TrimSpace(rule)
		if rule == "" {
			continue
		}
		fields, err := splitFields(rule)
		if err != nil {
			return nil, err
		}
		switch {
		case fields["rank"] != "":
			if err := p.parseKill(rule, fields); err != nil {
				return nil, err
			}
		case fields["frame"] != "":
			if err := p.parseFrame(rule, fields); err != nil {
				return nil, err
			}
		case fields["node"] != "":
			if err := p.parseNode(rule, fields); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("faults: rule %q: must start with rank=, frame=, or node=", rule)
		}
	}
	sort.Slice(p.nodes, func(i, j int) bool { return p.nodes[i].At < p.nodes[j].At })
	return p, nil
}

// MustParse is Parse for tests and hard-coded demo specs; it panics on a
// malformed spec.
func MustParse(spec string) *Plan {
	p, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func splitFields(rule string) (map[string]string, error) {
	fields := make(map[string]string)
	for _, kv := range strings.Split(rule, ":") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			// Bare flags like "kill" parse as key with empty value.
			key, val = kv, "true"
		}
		key = strings.TrimSpace(key)
		if _, dup := fields[key]; dup {
			return nil, fmt.Errorf("faults: rule %q: duplicate field %q", rule, key)
		}
		fields[key] = strings.TrimSpace(val)
	}
	return fields, nil
}

func intField(rule string, fields map[string]string, key string, def int) (int, error) {
	v, ok := fields[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("faults: rule %q: %s=%q is not an integer", rule, key, v)
	}
	return n, nil
}

func (p *Plan) parseKill(rule string, fields map[string]string) error {
	if fields["kill"] != "true" {
		return fmt.Errorf("faults: rule %q: rank rules support only the kill action", rule)
	}
	rank, err := intField(rule, fields, "rank", -1)
	if err != nil {
		return err
	}
	call, err := intField(rule, fields, "call", -1)
	if err != nil {
		return err
	}
	if rank < 0 {
		return fmt.Errorf("faults: rule %q: rank must be >= 0", rule)
	}
	if call < 1 {
		return fmt.Errorf("faults: rule %q: call must be >= 1 (call counts are 1-based)", rule)
	}
	for key := range fields {
		switch key {
		case "rank", "call", "kill":
		default:
			return fmt.Errorf("faults: rule %q: unknown field %q", rule, key)
		}
	}
	p.kills[[2]int{rank, call}] = true
	return nil
}

func (p *Plan) parseFrame(rule string, fields map[string]string) error {
	fr := FrameRule{Prob: 1, Seed: 1, Src: -1, Dst: -1}
	switch fields["frame"] {
	case "drop":
		fr.Action = mpi.FrameDrop
	case "dup":
		fr.Action = mpi.FrameDup
	case "corrupt":
		fr.Action = mpi.FrameCorrupt
	case "reorder":
		fr.Action = mpi.FrameReorder
	case "delay":
		fr.Action = mpi.FrameDeliver // delivered, after Delay
	default:
		return fmt.Errorf("faults: rule %q: frame action must be drop, dup, corrupt, reorder, or delay", rule)
	}
	var err error
	if v, ok := fields["prob"]; ok {
		fr.Prob, err = strconv.ParseFloat(v, 64)
		if err != nil || fr.Prob < 0 || fr.Prob > 1 {
			return fmt.Errorf("faults: rule %q: prob=%q must be in [0,1]", rule, v)
		}
	}
	if v, ok := fields["seed"]; ok {
		fr.Seed, err = strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("faults: rule %q: seed=%q is not an integer", rule, v)
		}
	}
	if fr.Src, err = intField(rule, fields, "src", -1); err != nil {
		return err
	}
	if fr.Dst, err = intField(rule, fields, "dst", -1); err != nil {
		return err
	}
	if fr.Count, err = intField(rule, fields, "count", 0); err != nil {
		return err
	}
	ms, err := intField(rule, fields, "ms", 0)
	if err != nil {
		return err
	}
	fr.Delay = time.Duration(ms) * time.Millisecond
	if fields["frame"] == "delay" && fr.Delay <= 0 {
		return fmt.Errorf("faults: rule %q: delay rules require ms=<positive milliseconds>", rule)
	}
	if fields["frame"] != "delay" && fr.Delay != 0 {
		return fmt.Errorf("faults: rule %q: ms only applies to delay rules", rule)
	}
	for key := range fields {
		switch key {
		case "frame", "prob", "seed", "src", "dst", "count", "ms":
		default:
			return fmt.Errorf("faults: rule %q: unknown field %q", rule, key)
		}
	}
	p.frames = append(p.frames, &frameState{rule: fr, rng: rand.New(rand.NewSource(fr.Seed))})
	return nil
}

func (p *Plan) parseNode(rule string, fields map[string]string) error {
	node, err := intField(rule, fields, "node", -1)
	if err != nil {
		return err
	}
	if node < 0 {
		return fmt.Errorf("faults: rule %q: node must be >= 0", rule)
	}
	v, ok := fields["at"]
	if !ok {
		return fmt.Errorf("faults: rule %q: node rules require at=<duration>", rule)
	}
	at, err := time.ParseDuration(v)
	if err != nil || at < 0 {
		return fmt.Errorf("faults: rule %q: at=%q is not a non-negative duration", rule, v)
	}
	for key := range fields {
		switch key {
		case "node", "at":
		default:
			return fmt.Errorf("faults: rule %q: unknown field %q", rule, key)
		}
	}
	p.nodes = append(p.nodes, NodeEvent{Node: node, At: at})
	return nil
}

// AtCall implements mpi.Injector: report whether rank's call-th counted
// primitive is a kill point.
func (p *Plan) AtCall(rank, call int) bool {
	return p.kills[[2]int{rank, call}]
}

// AtFrame implements mpi.Injector: consult the frame rules in order and
// return the first fault that fires for a src→dst data frame. The
// per-rule PRNG draw happens only for frames matching the rule's
// filters, so the fault sequence is a deterministic function of the
// matching-frame sequence and the seed.
func (p *Plan) AtFrame(src, dst int) (mpi.FrameAction, time.Duration) {
	for _, fs := range p.frames {
		r := &fs.rule
		if r.Src >= 0 && r.Src != src {
			continue
		}
		if r.Dst >= 0 && r.Dst != dst {
			continue
		}
		fs.mu.Lock()
		if r.Count > 0 && fs.hits >= r.Count {
			fs.mu.Unlock()
			continue
		}
		fire := r.Prob >= 1 || fs.rng.Float64() < r.Prob
		if fire {
			fs.hits++
		}
		fs.mu.Unlock()
		if fire {
			return r.Action, r.Delay
		}
	}
	return mpi.FrameDeliver, 0
}

// NodeEvents returns the scheduled node failures sorted by time.
func (p *Plan) NodeEvents() []NodeEvent {
	return append([]NodeEvent(nil), p.nodes...)
}

// String returns the original specification text.
func (p *Plan) String() string { return p.spec }

// Fired reports whether a run's error is the expected outcome of the
// plan's kills, not a failure of the launcher: a victim's own
// ErrRankKilled, with no survivor failing on the rank it lost. A nil
// plan fires nothing.
func (p *Plan) Fired(err error) bool {
	return p != nil && errors.Is(err, mpi.ErrRankKilled) && !errors.Is(err, mpi.ErrRankFailed)
}

// Options maps the fault-tolerance flags both launchers declare to
// runtime options: -inject (a plan in this package's grammar, also
// returned so the launcher can report it), -heartbeat, -op-timeout and
// -reliable. A zero flag adds nothing.
func Options(inject string, heartbeat, opTimeout time.Duration, reliable bool) (*Plan, []mpi.Option, error) {
	var opts []mpi.Option
	var plan *Plan
	if inject != "" {
		var err error
		if plan, err = Parse(inject); err != nil {
			return nil, nil, err
		}
		opts = append(opts, mpi.WithInjector(plan))
	}
	if heartbeat > 0 {
		opts = append(opts, mpi.WithHeartbeat(heartbeat))
	}
	if opTimeout > 0 {
		opts = append(opts, mpi.WithOpTimeout(opTimeout))
	}
	if reliable {
		opts = append(opts, mpi.WithReliableLinks())
	}
	return plan, opts, nil
}
