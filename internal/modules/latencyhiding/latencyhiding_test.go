package latencyhiding

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mpi"
)

// runVariant executes the stencil and stitches the distributed field.
func runVariant(t *testing.T, np, cells, steps int, v Variant, opts ...mpi.Option) ([]float64, Result) {
	t.Helper()
	field := make([]float64, np*cells)
	var res Result
	err := mpi.Run(np, func(c *mpi.Comm) error {
		r, local, err := Run(c, cells, steps, 0.25, v)
		if err != nil {
			return err
		}
		copy(field[c.Rank()*cells:], local)
		if c.Rank() == 0 {
			res = r
		}
		return nil
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return field, res
}

func TestVariantsMatchSequential(t *testing.T) {
	for _, np := range []int{1, 2, 4, 7} {
		for _, v := range []Variant{Blocking, Overlapped} {
			np, v := np, v
			t.Run(fmt.Sprintf("np=%d %v", np, v), func(t *testing.T) {
				const cells, steps = 64, 50
				got, res := runVariant(t, np, cells, steps, v)
				want := Sequential(np, cells, steps, 0.25)
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-12 {
						t.Fatalf("cell %d: %v != %v", i, got[i], want[i])
					}
				}
				if res.Steps != steps || res.NP != np {
					t.Fatalf("meta %+v", res)
				}
			})
		}
	}
}

func TestVariantsProduceIdenticalChecksums(t *testing.T) {
	_, blocking := runVariant(t, 4, 128, 100, Blocking)
	_, overlapped := runVariant(t, 4, 128, 100, Overlapped)
	if blocking.Checksum != overlapped.Checksum {
		t.Fatalf("checksums differ: %v vs %v", blocking.Checksum, overlapped.Checksum)
	}
	if blocking.Checksum <= 0 {
		t.Fatalf("degenerate field: checksum %v", blocking.Checksum)
	}
}

// TestOverlapMatchesBlockingWhenSendsWait: under MPI_Isend's rule a send
// buffer belongs to the runtime until its request completes, and on the
// channel transport a send that waits for its match lends its buffer
// instead of copying it. With every send waiting (a 1-byte eager
// threshold, or synchronous sends) the two halo Isends of one step are in
// flight together, so they must not share a buffer: the overlapped field
// stays bit-identical to the blocking one.
func TestOverlapMatchesBlockingWhenSendsWait(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  mpi.Option
	}{
		{"eager-threshold-1", mpi.WithEagerThreshold(1)},
		{"synchronous-sends", mpi.WithSynchronousSends()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const np, cells, steps = 4, 32, 40
			blocking, _ := runVariant(t, np, cells, steps, Blocking, tc.opt)
			overlapped, _ := runVariant(t, np, cells, steps, Overlapped, tc.opt)
			for i := range blocking {
				if math.Float64bits(blocking[i]) != math.Float64bits(overlapped[i]) {
					t.Fatalf("cell %d: overlapped %v, blocking %v", i, overlapped[i], blocking[i])
				}
			}
		})
	}
}

func TestMassConservedAwayFromBoundary(t *testing.T) {
	// With few steps the spikes cannot reach the global edges, so the
	// diffusion conserves total mass: checksum = number of spikes.
	_, res := runVariant(t, 4, 256, 20, Overlapped)
	if math.Abs(res.Checksum-4.0) > 1e-9 {
		t.Fatalf("mass not conserved: %v, want 4", res.Checksum)
	}
}

func TestDiffusionSpreads(t *testing.T) {
	field, _ := runVariant(t, 2, 64, 200, Blocking)
	// After 200 steps the spike must have spread: max well below 1.
	max := 0.0
	nonzero := 0
	for _, v := range field {
		if v > max {
			max = v
		}
		if v > 1e-15 {
			nonzero++
		}
	}
	if max > 0.5 {
		t.Fatalf("no diffusion: max %v", max)
	}
	if nonzero < 32 {
		t.Fatalf("spike did not spread: %d nonzero cells", nonzero)
	}
}

func TestValidation(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		if _, _, err := Run(c, 1, 10, 0.25, Blocking); err == nil {
			return fmt.Errorf("1 cell per rank accepted")
		}
		if _, _, err := Run(c, 16, 0, 0.25, Blocking); err == nil {
			return fmt.Errorf("0 steps accepted")
		}
		if _, _, err := Run(c, 16, 5, 0.9, Blocking); err == nil {
			return fmt.Errorf("unstable alpha accepted")
		}
		if _, _, err := Run(c, 16, 5, 0.25, Variant(9)); err == nil {
			return fmt.Errorf("unknown variant accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVariantStrings(t *testing.T) {
	if Blocking.String() == "" || Overlapped.String() == "" || Variant(7).String() == "" {
		t.Fatal("empty variant name")
	}
}

func TestOverlapUsesNonblockingPrimitives(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		if _, _, err := Run(c, 32, 10, 0.25, Overlapped); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snap := c.Stats()
			if snap.TotalCalls(mpi.PrimIsend) == 0 || snap.TotalCalls(mpi.PrimIrecv) == 0 {
				return fmt.Errorf("overlapped variant did not use Isend/Irecv")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Sequential advances the same global field on one process: the reference
// for correctness tests. Returns the final field (without ghosts).
func Sequential(p, cellsPerRank, steps int, alpha float64) []float64 {
	n := p * cellsPerRank
	u := make([]float64, n+2)
	next := make([]float64, n+2)
	for r := 0; r < p; r++ {
		u[1+r*cellsPerRank+cellsPerRank/2] = 1
	}
	for step := 0; step < steps; step++ {
		u[0], u[n+1] = 0, 0
		stencil(u, next, 1, n+1, alpha)
		u, next = next, u
	}
	return u[1 : n+1]
}
