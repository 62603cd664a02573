// Package latencyhiding implements the paper's first future-work module
// ("modules that capture excluded concepts, such as increasing focus on
// communication and latency hiding"): a 1-D heat-diffusion stencil with
// halo exchange. The blocking variant exchanges halos and then computes;
// the overlapped variant posts nonblocking halo transfers, computes the
// interior while they fly, then finishes the boundary — the canonical
// communication/computation-overlap lesson.
package latencyhiding

import (
	"fmt"
	"time"

	"repro/internal/mpi"
)

const (
	tagLeft  = 41 // halo moving toward lower ranks
	tagRight = 42 // halo moving toward higher ranks
)

// Variant selects the exchange strategy.
type Variant int

const (
	// Blocking exchanges halos with Sendrecv, then computes everything.
	Blocking Variant = iota
	// Overlapped posts Isend/Irecv, computes the interior, completes
	// the requests, then computes the two boundary cells.
	Overlapped
)

// String names the variant for reports.
func (v Variant) String() string {
	switch v {
	case Blocking:
		return "blocking"
	case Overlapped:
		return "overlapped"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Result reports one stencil run.
type Result struct {
	Variant  Variant
	NP       int
	CellsPer int // cells per rank
	Steps    int
	Elapsed  time.Duration
	// Checksum is the global sum of the final field (via MPI_Allreduce),
	// identical across variants for the same inputs.
	Checksum float64
}

// Run advances the explicit heat equation u' = u + α·(left − 2u + right)
// for the given number of steps over a global field distributed as
// cellsPerRank cells per rank, with fixed zero boundary conditions at the
// global edges. The initial condition is a unit spike in the middle of
// each rank's block (deterministic and rank-count independent only in
// checksum symmetry; tests compare variants, not rank counts).
func Run(c *mpi.Comm, cellsPerRank, steps int, alpha float64, variant Variant) (Result, []float64, error) {
	if cellsPerRank < 2 {
		return Result{}, nil, fmt.Errorf("latencyhiding: need ≥2 cells per rank, got %d", cellsPerRank)
	}
	if steps <= 0 {
		return Result{}, nil, fmt.Errorf("latencyhiding: steps %d must be positive", steps)
	}
	if alpha <= 0 || alpha > 0.5 {
		return Result{}, nil, fmt.Errorf("latencyhiding: alpha %v outside (0, 0.5]", alpha)
	}
	p, r := c.Size(), c.Rank()

	// Field with two ghost cells: u[0] and u[n+1].
	n := cellsPerRank
	u := make([]float64, n+2)
	next := make([]float64, n+2)
	u[1+n/2] = 1 // unit spike per rank

	// One-cell halo scratch, reused every step so the exchange itself
	// allocates nothing.
	var hs haloScratch

	start := time.Now()
	for step := 0; step < steps; step++ {
		switch variant {
		case Blocking:
			if err := exchangeBlocking(c, u, n, p, r, &hs); err != nil {
				return Result{}, nil, err
			}
			stencil(u, next, 1, n+1, alpha)

		case Overlapped:
			reqs, err := startExchange(c, u, n, p, r, &hs)
			if err != nil {
				return Result{}, nil, err
			}
			// Interior cells depend only on local data: compute while
			// the halos are in flight.
			stencil(u, next, 2, n, alpha)
			if err := finishExchange(c, u, reqs, n, &hs); err != nil {
				return Result{}, nil, err
			}
			// Boundary cells needed the ghosts.
			stencil(u, next, 1, 2, alpha)
			stencil(u, next, n, n+1, alpha)

		default:
			return Result{}, nil, fmt.Errorf("latencyhiding: unknown variant %d", int(variant))
		}
		u, next = next, u
	}
	elapsed := time.Since(start)

	var local float64
	for i := 1; i <= n; i++ {
		local += u[i]
	}
	sum := [1]float64{local}
	if err := mpi.AllreduceInto(c, sum[:], mpi.OpSum); err != nil {
		return Result{}, nil, err
	}
	return Result{
		Variant:  variant,
		NP:       p,
		CellsPer: n,
		Steps:    steps,
		Elapsed:  elapsed,
		Checksum: sum[0],
	}, u[1 : n+1], nil
}

// stencil applies one explicit step to cells [lo, hi).
func stencil(u, next []float64, lo, hi int, alpha float64) {
	for i := lo; i < hi; i++ {
		next[i] = u[i] + alpha*(u[i-1]-2*u[i]+u[i+1])
	}
}

// haloScratch holds the one-cell send and receive buffers the halo
// exchange reuses every step. Each direction has its own send cell: the
// overlapped exchange has both sends in flight at once, and an Isend's
// buffer belongs to the runtime until its request completes.
type haloScratch struct {
	sendLeft  [1]float64
	sendRight [1]float64
	recv      [1]float64
}

// exchangeBlocking swaps halos with deadlock-free combined send/receives.
// Edge ranks keep zero ghosts (fixed boundary).
func exchangeBlocking(c *mpi.Comm, u []float64, n, p, r int, hs *haloScratch) error {
	if r > 0 {
		hs.sendLeft[0] = u[1]
		got, _, err := mpi.SendrecvInto(c, hs.sendLeft[:], r-1, tagLeft, r-1, tagRight, hs.recv[:0])
		if err != nil {
			return err
		}
		u[0] = got[0]
	} else {
		u[0] = 0
	}
	if r < p-1 {
		hs.sendRight[0] = u[n]
		got, _, err := mpi.SendrecvInto(c, hs.sendRight[:], r+1, tagRight, r+1, tagLeft, hs.recv[:0])
		if err != nil {
			return err
		}
		u[n+1] = got[0]
	} else {
		u[n+1] = 0
	}
	return nil
}

// haloReqs carries the outstanding nonblocking halo operations.
type haloReqs struct {
	recvLeft, recvRight *mpi.Request
	sends               []*mpi.Request
}

// startExchange posts Irecv/Isend for both halos. Each send has its own
// cell, left untouched until finishExchange's Waitall completes it.
func startExchange(c *mpi.Comm, u []float64, n, p, r int, hs *haloScratch) (haloReqs, error) {
	var hr haloReqs
	var err error
	if r > 0 {
		if hr.recvLeft, err = mpi.Irecv[float64](c, r-1, tagRight); err != nil {
			return hr, err
		}
	}
	if r < p-1 {
		if hr.recvRight, err = mpi.Irecv[float64](c, r+1, tagLeft); err != nil {
			return hr, err
		}
	}
	if r > 0 {
		hs.sendLeft[0] = u[1]
		req, err := mpi.Isend(c, hs.sendLeft[:], r-1, tagLeft)
		if err != nil {
			return hr, err
		}
		hr.sends = append(hr.sends[:0], req)
	}
	if r < p-1 {
		hs.sendRight[0] = u[n]
		req, err := mpi.Isend(c, hs.sendRight[:], r+1, tagRight)
		if err != nil {
			return hr, err
		}
		hr.sends = append(hr.sends, req)
	}
	return hr, nil
}

// finishExchange completes the halo transfers and installs the ghosts,
// decoding into the reused scratch so the wire buffers are recycled.
func finishExchange(c *mpi.Comm, u []float64, hr haloReqs, n int, hs *haloScratch) error {
	if hr.recvLeft != nil {
		got, _, err := mpi.WaitRecvInto(hr.recvLeft, hs.recv[:0])
		if err != nil {
			return err
		}
		u[0] = got[0]
	} else {
		u[0] = 0
	}
	if hr.recvRight != nil {
		got, _, err := mpi.WaitRecvInto(hr.recvRight, hs.recv[:0])
		if err != nil {
			return err
		}
		u[n+1] = got[0]
	} else {
		u[n+1] = 0
	}
	return mpi.Waitall(hr.sends...)
}
