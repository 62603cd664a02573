// Package chaos is a soak harness and holds only tests. Its plans are
// seeded and randomized: each seed deterministically expands into a
// combination of rank kills and wire noise (drop, duplicate, corrupt,
// reorder), so a failing seed found in CI replays exactly on a laptop.
//
// The plan grammar is the one internal/faults compiles; the harness
// runs every plan across the module × transport matrix and asserts that
// surviving ranks produce bit-identical results — or fail with the one
// typed error the plan licenses (the killed rank's ErrRankKilled) — and
// that every world shuts down without goroutine or pool-buffer leaks.
package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
)

// Kill schedules rank Rank to die at its Call-th MPI primitive.
type Kill struct {
	Rank int
	Call int
}

// Plan is one seeded chaos scenario. Frame probabilities are per-frame
// and bite on every transport, since frame faults are a layer over
// either endpoint; the harness applies them under reliable links (raw
// links turn corruption into silent wrong answers by design — that
// failure mode has its own tests).
type Plan struct {
	Seed    int64
	Kills   []Kill
	Drop    float64
	Dup     float64
	Corrupt float64
	Reorder float64
}

// derive expands one seed into a plan. np is the world size, maxCall
// the latest call a kill may target (a kill scheduled past the module's
// last primitive never fires and would weaken the run), and allowKills
// gates rank kills for modules without a resilient wrapper.
//
// Same seed, same arguments → same plan, always.
func derive(seed int64, np, maxCall int, allowKills bool) Plan {
	rng := rand.New(rand.NewSource(seed))
	p := Plan{Seed: seed}
	if allowKills {
		n := rng.Intn(3) // 0, 1 or 2 ranks die
		for _, r := range rng.Perm(np)[:n] {
			p.Kills = append(p.Kills, Kill{Rank: r, Call: 1 + rng.Intn(maxCall)})
		}
	}
	// Wire noise: each verb is on with probability 1/2, at a per-frame
	// probability up to 3% — enough to force retransmissions every run
	// without stalling the soak.
	flip := func() float64 {
		on := rng.Intn(2) == 1
		pr := 0.005 + 0.025*rng.Float64() // consume the PRNG either way
		if !on {
			return 0
		}
		return pr
	}
	p.Drop, p.Dup, p.Corrupt, p.Reorder = flip(), flip(), flip(), flip()
	if len(p.Kills) == 0 && p.Drop == 0 && p.Dup == 0 && p.Corrupt == 0 && p.Reorder == 0 {
		p.Drop = 0.01 // never derive a fault-free plan
	}
	return p
}

// Spec renders the plan in internal/faults grammar. Frame rules get
// distinct PRNG seeds derived from the plan seed so the four noise
// streams are independent but still replayable.
func (p Plan) Spec() string {
	var rules []string
	for _, k := range p.Kills {
		rules = append(rules, fmt.Sprintf("rank=%d:call=%d:kill", k.Rank, k.Call))
	}
	frame := func(verb string, prob float64, salt int64) {
		if prob > 0 {
			rules = append(rules, fmt.Sprintf("frame=%s:prob=%.4f:seed=%d", verb, prob, p.Seed*4+salt))
		}
	}
	frame("drop", p.Drop, 1)
	frame("dup", p.Dup, 2)
	frame("corrupt", p.Corrupt, 3)
	frame("reorder", p.Reorder, 4)
	return strings.Join(rules, ",")
}

// DefaultSeeds is the fixed fast subset that plain `go test` (and the
// `make check` gate) sweeps. `make chaos` widens the sweep via the
// CHAOS_SEEDS environment variable.
var DefaultSeeds = []int64{1, 2}

// seedSweep returns the seeds to run: CHAOS_SEEDS as a comma-separated list
// of integers when set, DefaultSeeds otherwise.
func seedSweep() ([]int64, error) {
	env := strings.TrimSpace(os.Getenv("CHAOS_SEEDS"))
	if env == "" {
		return DefaultSeeds, nil
	}
	var out []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("CHAOS_SEEDS: %q is not an integer: %w", f, err)
		}
		out = append(out, s)
	}
	return out, nil
}
