// Package kmeans implements Module 5 of the pedagogic modules:
// distributed k-means clustering with alternating phases of synchronous
// computation and communication. The module's two communication options
// are both provided: ExplicitAssignments ships every point's cluster
// assignment to rank 0 each iteration (simple, communication-heavy);
// WeightedMeans reduces per-cluster coordinate sums and counts (minimal
// communication). Students observe the compute/communication balance flip
// with k (learning outcomes 4, 8, 10–15).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/ckpt"
	"repro/internal/data"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// CommOption selects the module's centroid-update communication scheme.
type CommOption int

const (
	// WeightedMeans allreduces k×(dim+1) partial sums — the efficient
	// option.
	WeightedMeans CommOption = iota
	// ExplicitAssignments gathers every point assignment onto rank 0,
	// which recomputes and redistributes centroids — the explicit,
	// communication-heavy option.
	ExplicitAssignments
)

// String names the option for reports.
func (o CommOption) String() string {
	switch o {
	case WeightedMeans:
		return "weighted-means"
	case ExplicitAssignments:
		return "explicit-assignments"
	default:
		return fmt.Sprintf("CommOption(%d)", int(o))
	}
}

// Config parameterizes a clustering run.
type Config struct {
	K       int
	MaxIter int
	// Tol is the centroid-movement convergence threshold (squared
	// Euclidean). Zero means exact: stop when no centroid moves; a
	// negative Tol never converges, +Inf stops after one iteration, and
	// NaN is rejected.
	Tol float64
	// Option selects the communication scheme (default WeightedMeans).
	Option CommOption
	// Seed drives the deterministic initial centroid choice.
	Seed int64
	// Checkpoint, when set on rank 0, persists (iteration, centroids)
	// every CheckpointEvery iterations during Distributed. Other ranks
	// may leave it nil.
	Checkpoint ckpt.Checkpointer
	// CheckpointEvery is the iteration period between saves; 0 disables
	// checkpointing even when Checkpoint is set.
	CheckpointEvery int
	// Restart resumes Distributed from rank 0's latest checkpoint
	// instead of the initial centroids. It must be set on every rank
	// (the restored state is broadcast); the resumed run reproduces the
	// uninterrupted run's centroids bit for bit. If no checkpoint
	// exists the run starts from the beginning.
	Restart bool
}

// Result reports one clustering run.
type Result struct {
	K          int
	NP         int
	N          int // global point count
	Iterations int
	Converged  bool
	Inertia    float64 // sum of squared distances to assigned centroids
	Elapsed    time.Duration
	ComputeDur time.Duration // this rank's assignment/update time
	CommDur    time.Duration // this rank's communication time
	Centroids  data.Points
}

// Sequential runs Lloyd's algorithm on one process — the module's
// baseline and the reference the distributed tests compare against.
func Sequential(pts data.Points, cfg Config) (Result, []int, error) {
	if err := validate(pts, cfg); err != nil {
		return Result{}, nil, err
	}
	res, assign := lloyd(pts, initialCentroids(pts, cfg.K, cfg.Seed), cfg)
	return res, assign, nil
}

// lloyd iterates from cent (which it owns and updates in place) until no
// centroid moves more than cfg.Tol or cfg.MaxIter is reached.
func lloyd(pts, cent data.Points, cfg Config) (Result, []int) {
	n := pts.N()
	assign := make([]int, n)
	sums := make([]float64, cfg.K*pts.Dim)
	counts := make([]float64, cfg.K)
	res := Result{K: cfg.K, NP: 1, N: n}
	start := time.Now()
	for it := 0; it < cfg.MaxIter; it++ {
		res.Iterations = it + 1
		assignAndSum(pts, cent, assign, sums, counts)
		if !updateCentroids(cent, sums, counts, cfg.Tol) {
			res.Converged = true
			break
		}
	}
	res.Elapsed = time.Since(start)
	res.Inertia = inertia(pts, cent, assign)
	res.Centroids = cent
	return res, assign
}

// Distributed runs the module's distributed k-means. Every rank holds
// the full dataset (the module prescribes a single input dataset each
// rank reads); MPI_Scatter hands each rank its N/p-point share, and
// initial centroids are computed locally from the shared dataset, so the
// prescribed weighted-means configuration touches exactly Table II's
// Module 5 primitives (MPI_Scatter, MPI_Allreduce). Each iteration
// alternates local assignment with the selected global update. Every
// rank returns the same centroids; assignments are returned for the
// local share along with its global offset.
func Distributed(c *mpi.Comm, pts data.Points, cfg Config) (Result, []int, int, error) {
	p, r := c.Size(), c.Rank()
	if err := validate(pts, cfg); err != nil {
		return Result{}, nil, 0, err
	}
	if pts.N()%p != 0 {
		return Result{}, nil, 0, fmt.Errorf("kmeans: N=%d not divisible by %d ranks (the module prescribes N/p points per rank)", pts.N(), p)
	}
	n, dim := pts.N(), pts.Dim

	start := time.Now()
	var sendCoords []float64
	if r == 0 {
		sendCoords = pts.Coords
	}
	localCoords, err := mpi.Scatter(c, sendCoords, 0)
	if err != nil {
		return Result{}, nil, 0, err
	}
	local := data.Points{Dim: dim, Coords: localCoords}
	offset := r * (n / p)

	// Initial centroids are a deterministic function of the shared
	// dataset: every rank computes the same ones with no communication.
	cent := initialCentroids(pts, cfg.K, cfg.Seed)

	// Restart: rank 0 restores the latest checkpoint and broadcasts
	// (iteration, centroids); every rank resumes mid-trajectory. The
	// remaining iterations recompute exactly what the uninterrupted run
	// would have, so the final centroids are bit-identical.
	proto := ckpt.Protocol{CP: cfg.Checkpoint, Every: cfg.CheckpointEvery, Module: "kmeans", Unit: "iteration"}
	startIter := 0
	if cfg.Restart {
		step, state, err := proto.Restore(c, cfg.K*dim)
		if err != nil {
			return Result{}, nil, 0, err
		}
		if state != nil {
			startIter = step
			copy(cent.Coords, state)
		}
	}

	assign := make([]int, local.N())
	res := Result{K: cfg.K, NP: p, N: n}
	var computeDur, commDur time.Duration

	// Per-iteration scratch, hoisted out of the loop so the steady state
	// allocates nothing in the module. sums and counts are the two halves
	// of the packed allreduce payload, so the weighted-means option
	// reduces them where they were accumulated; under the explicit option
	// rank 0 recomputes the global sums into them, and assign64 and
	// movedFlag are that option's wire-typed assignments and verdict.
	payload := make([]float64, cfg.K*(dim+1))
	sums, counts := payload[:cfg.K*dim], payload[cfg.K*dim:]
	var assign64 []int64
	var movedFlag []float64
	if cfg.Option == ExplicitAssignments {
		assign64 = make([]int64, local.N())
		movedFlag = make([]float64, 1)
	}

	for it := startIter; it < cfg.MaxIter; it++ {
		res.Iterations = it + 1

		computeStart := time.Now()
		assignAndSum(local, cent, assign, sums, counts)
		computeDur += time.Since(computeStart)

		commStart := time.Now()
		var moved bool
		switch cfg.Option {
		case WeightedMeans:
			// The efficient option: one in-place Allreduce of k×(dim+1)
			// values updates every rank's centroids identically.
			if err = mpi.AllreduceInto(c, payload, mpi.OpSum); err == nil {
				moved = updateCentroids(cent, sums, counts, cfg.Tol)
			}
		case ExplicitAssignments:
			moved, err = explicitUpdate(c, local, cent, assign, assign64, sums, counts, movedFlag, cfg.Tol)
		default:
			err = fmt.Errorf("kmeans: unknown comm option %d", int(cfg.Option))
		}
		if err != nil {
			return Result{}, nil, 0, err
		}
		commDur += time.Since(commStart)

		// The checkpoint captures the post-update state: a restart
		// resumes at iteration it+1 with these exact centroids.
		if err := proto.Save(c, it+1, func() []float64 { return cent.Coords }); err != nil {
			return Result{}, nil, 0, err
		}
		if !moved {
			res.Converged = true
			break
		}
	}

	// Global inertia for verification (MPI_Allreduce, the module's
	// optional primitive).
	tot := [1]float64{inertia(local, cent, assign)}
	if err := mpi.AllreduceInto(c, tot[:], mpi.OpSum); err != nil {
		return Result{}, nil, 0, err
	}
	res.Inertia = tot[0]
	res.Elapsed = time.Since(start)
	res.ComputeDur = computeDur
	res.CommDur = commDur
	res.Centroids = cent
	return res, assign, offset, nil
}

// DistributedResilient is Distributed wrapped in the runtime's respawn
// recovery loop: when a rank dies mid-run, the survivors rebuild the
// world at full width (mpi.Comm.RespawnAndRestore), the replacement rank
// joins, and the whole clustering restarts from rank 0's latest
// checkpoint — so the final centroids are bit-identical to an
// uninterrupted run. Every rank must pass the same cfg, and for
// recovery to survive the death of rank 0 itself the Checkpointer must
// be reachable from every rank (a shared ckpt.Mem or a shared path).
// The killed rank's call still returns ErrRankKilled — its replacement
// runs on a fresh goroutine and its copy of the results is discarded;
// survivors return the post-recovery result.
func DistributedResilient(c *mpi.Comm, pts data.Points, cfg Config) (Result, []int, int, error) {
	var (
		res    Result
		assign []int
		off    int
	)
	myRank := c.Rank()
	err := c.RunResilient(func(rc *mpi.Comm, restart bool) error {
		rcfg := cfg
		// Post-failure retries resume from the checkpoint when there is
		// one; without a checkpointer they recompute from scratch, which
		// is equally bit-identical — the algorithm is deterministic.
		rcfg.Restart = cfg.Restart || (restart && cfg.Checkpoint != nil)
		r, a, o, err := Distributed(rc, pts, rcfg)
		if err == nil && rc.Rank() == myRank {
			res, assign, off = r, a, o
		}
		return err
	})
	if err != nil {
		return Result{}, nil, 0, err
	}
	return res, assign, off, nil
}

// explicitUpdate is the communication-heavy option: every rank ships its
// point coordinates and assignments to rank 0 (describing the assignment
// of points to centroids explicitly), which recomputes centroids and
// broadcasts them back. assign64, sums, counts and movedFlag are the
// caller's per-run scratch.
func explicitUpdate(c *mpi.Comm, local, cent data.Points, assign []int, assign64 []int64, sums, counts, movedFlag []float64, tol float64) (bool, error) {
	for i, a := range assign {
		assign64[i] = int64(a)
	}
	allAssign, err := mpi.Gather(c, assign64, 0)
	if err != nil {
		return false, err
	}
	allCoords, err := mpi.Gather(c, local.Coords, 0)
	if err != nil {
		return false, err
	}
	var newCent []float64
	if c.Rank() == 0 {
		movedFlag[0] = 0
		if recomputeCentroids(cent, allCoords, allAssign, sums, counts, tol) {
			movedFlag[0] = 1
		}
		newCent = cent.Coords
	}
	newCent, err = mpi.Bcast(c, newCent, 0)
	if err != nil {
		return false, err
	}
	copy(cent.Coords, newCent)
	mv, err := mpi.Bcast(c, movedFlag, 0)
	if err != nil {
		return false, err
	}
	return mv[0] == 1, nil
}

// IterationKernel characterizes one k-means iteration for the roofline
// model: the module's Section III-F analysis of when the algorithm is
// compute-bound (large k) versus communication-bound (small k) on a real
// cluster, where per-collective latency is significant. Assignment costs
// ≈3·dim flops per point per centroid; the weighted-means option moves
// 2·log2(p) latency-bound messages of k·(dim+1) floats per iteration,
// while the explicit option gathers every point and assignment to rank 0
// and broadcasts centroids back.
func IterationKernel(n, dim, k, p int, opt CommOption) perfmodel.Kernel {
	flops := float64(n) * float64(k) * float64(3*dim)
	bytes := float64(n) * float64(dim) * 8 // stream the local points
	kern := perfmodel.Kernel{
		Name:  fmt.Sprintf("kmeans-n%d-k%d-%s", n, k, opt),
		Flops: flops,
		Bytes: bytes,
	}
	logp := 0
	for q := 1; q < p; q <<= 1 {
		logp++
	}
	switch opt {
	case ExplicitAssignments:
		kern.CommBytes = float64(n)*float64(dim+1)*8 + float64(k*dim*8*p)
		kern.CommMsgs = 2 * p
	default: // WeightedMeans
		kern.CommBytes = float64(2*logp) * float64(k*(dim+1)*8)
		kern.CommMsgs = 2 * logp
	}
	return kern
}

// validate checks configuration invariants. A ragged dataset is rejected
// here because the compute loops index Coords directly: nothing
// downstream would notice a tail that is not a whole point.
func validate(pts data.Points, cfg Config) error {
	if err := pts.Validate(); err != nil {
		return fmt.Errorf("kmeans: %w", err)
	}
	if cfg.K <= 0 {
		return fmt.Errorf("kmeans: k=%d must be positive", cfg.K)
	}
	if n := pts.N(); n < cfg.K {
		return fmt.Errorf("kmeans: %d points for k=%d clusters", n, cfg.K)
	}
	if cfg.MaxIter <= 0 {
		return fmt.Errorf("kmeans: max iterations %d must be positive", cfg.MaxIter)
	}
	if math.IsNaN(cfg.Tol) { // every `dist > tol` would be false: converged at once
		return fmt.Errorf("kmeans: tolerance is NaN")
	}
	return nil
}

// PlusPlusCentroids implements k-means++ seeding (Arthur & Vassilvitskii):
// centroids are drawn with probability proportional to squared distance
// from the nearest chosen centroid. It is the "improve the algorithm
// beyond the module" initialization (learning outcome 15), typically
// converging in fewer iterations with lower inertia than the module's
// naive strided choice. Deterministic for a fixed seed.
func PlusPlusCentroids(pts data.Points, k int, seed int64) data.Points {
	rng := rand.New(rand.NewSource(seed))
	n, dim := pts.N(), pts.Dim
	pc := pts.Coords[:n*dim]
	coords := make([]float64, 0, k*dim)
	first := rng.Intn(n)
	chosen := pc[first*dim : (first+1)*dim]
	coords = append(coords, chosen...)
	// dist2[i] tracks squared distance to the nearest chosen centroid.
	dist2 := make([]float64, n)
	total := 0.0
	for i := range dist2 {
		dist2[i] = data.SquaredDistance(pc[i*dim:(i+1)*dim], chosen)
		total += dist2[i]
	}
	for c := 1; c < k; c++ {
		var idx int
		if total <= 0 {
			idx = rng.Intn(n) // all points coincide with a centroid
		} else {
			target := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, d := range dist2 {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		chosen = pc[idx*dim : (idx+1)*dim]
		coords = append(coords, chosen...)
		for i := range dist2 {
			if d := data.SquaredDistance(pc[i*dim:(i+1)*dim], chosen); d < dist2[i] {
				total -= dist2[i] - d
				dist2[i] = d
			}
		}
	}
	return data.Points{Dim: dim, Coords: coords}
}

// SequentialWithCentroids runs Lloyd's algorithm from the given initial
// centroids — the hook the k-means++ ablation uses.
func SequentialWithCentroids(pts data.Points, init data.Points, cfg Config) (Result, []int, error) {
	if err := validate(pts, cfg); err != nil {
		return Result{}, nil, err
	}
	if init.Dim != pts.Dim || len(init.Coords) != cfg.K*pts.Dim {
		return Result{}, nil, fmt.Errorf("kmeans: init centroids %d×%d, want %d×%d", init.N(), init.Dim, cfg.K, pts.Dim)
	}
	cent := data.Points{Dim: init.Dim, Coords: append([]float64(nil), init.Coords...)}
	res, assign := lloyd(pts, cent, cfg)
	return res, assign, nil
}

// initialCentroids picks k distinct points deterministically from the
// dataset (evenly strided with a seed-driven start), so sequential and
// distributed runs start identically.
func initialCentroids(pts data.Points, k int, seed int64) data.Points {
	n := pts.N()
	stride := n / k
	if stride == 0 {
		stride = 1
	}
	startIdx := int(seed % int64(stride))
	if startIdx < 0 {
		startIdx += stride
	}
	coords := make([]float64, 0, k*pts.Dim)
	for i := 0; i < k; i++ {
		idx := (startIdx + i*stride) % n
		coords = append(coords, pts.At(idx)...)
	}
	return data.Points{Dim: pts.Dim, Coords: coords}
}

// The per-iteration compute: one pass over the flat coordinate arrays
// that finds each point's nearest centroid and accumulates the
// per-cluster sums the centroid update needs.
//
// Every squared distance is evaluated exactly as data.SquaredDistance
// would — the same subtractions, squares and additions in the same order
// (its leading 0 + d₀² is d₀² itself: a square is never −0) — so
// assignments and centroids do not depend on which loop computed them.
// The argmin compares the distances' bit patterns as integers: a sum of
// squares is +0 or positive, and on such values math.Float64bits order is
// float order, with NaN of either sign above +Inf — where `d < best`,
// false for every NaN, leaves it too. An integer compare-and-select
// compiles to conditional moves, so the scan has no branch that depends
// on the data.
//
// At dim 2 one scan over the centroids serves a block of four points:
// each centroid is loaded once and measured against all four, whose
// coordinates stay in registers, and each point keeps its own chain in
// ascending centroid order, so the lowest index wins a tie. The block's
// points are then added into the sums in point order. A last block of
// fewer than four repeats its last point in the unused lanes and drops
// their results. Any other dim scans once per point, in two independent
// chains over the even- and the odd-indexed centroids, so neither waits
// on the other's arithmetic; each keeps its own lowest index, and the
// merge lets the lower index win a tie between them.
//
// The scans are functions of their own for the compiler's sake: it turns
// a select into a branch again when the selected index goes on to address
// a load, as the winner does in the sums, and inside the point loop it
// runs out of registers.

// infBits is the argmin's starting value: like `d < +Inf`, only a finite
// distance compares below it.
const infBits = 0x7FF0000000000000

// assignAndSum writes each point's nearest-centroid index into assign —
// the lowest index wins a tie, and a point with no finite distance gets
// 0 — and accumulates per-cluster coordinate sums and counts, in point
// order, into sums (len k·dim) and counts (len k), zeroing them first.
func assignAndSum(pts, cent data.Points, assign []int, sums, counts []float64) {
	clear(sums)
	clear(counts)
	dim, cc := pts.Dim, cent.Coords
	pc := pts.Coords[:len(assign)*dim]
	if dim == 2 { // the paper's and every in-tree activity's case
		var tail [8]float64
		for i := 0; i < len(assign); i += 4 {
			blk := pc[2*i:]
			if len(blk) < 8 {
				// The tail block repeats the last point in its unused lanes.
				for l := range tail {
					tail[l] = blk[min(l, len(blk)-2+l%2)]
				}
				blk = tail[:]
			}
			p := (*[8]float64)(blk)
			var best [4]int
			best[0], best[1], best[2], best[3] = nearest2x4(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7], cc)
			for l, b := range best[:min(4, len(assign)-i)] {
				assign[i+l] = b
				counts[b]++
				s := sums[2*b:][:2]
				s[0] += p[2*l]
				s[1] += p[2*l+1]
			}
		}
		return
	}
	for i := range assign {
		p := pc[i*dim : (i+1)*dim]
		best := nearest(p, cc)
		assign[i] = best
		counts[best]++
		s := sums[best*dim:][:len(p)]
		for d, v := range p {
			s[d] += v
		}
	}
}

// nearest returns the index of the centroid in cc nearest to p.
func nearest(p, cc []float64) int {
	// even and odd record len(q) where their chain found its minimum.
	even, evenBits := len(cc), uint64(infBits)
	odd, oddBits := len(cc), uint64(infBits)
	q := cc
	for ; len(q) >= 2*len(p); q = q[2*len(p):] {
		q0, q1 := q[:len(p)], q[len(p):][:len(p)]
		var s0, s1 float64
		for d, v := range p {
			t0, t1 := v-q0[d], v-q1[d]
			s0 += t0 * t0
			s1 += t1 * t1
		}
		b0, b1 := math.Float64bits(s0), math.Float64bits(s1)
		if b0 < evenBits {
			even = len(q)
		}
		evenBits = min(b0, evenBits)
		if b1 < oddBits {
			odd = len(q)
		}
		oddBits = min(b1, oddBits)
	}
	if len(q) >= len(p) { // odd k: the last centroid has an even index
		b := math.Float64bits(data.SquaredDistance(p, q[:len(p)]))
		if b < evenBits {
			even = len(q)
		}
		evenBits = min(b, evenBits)
	}
	return mergeChains(len(cc)-even, evenBits, len(cc)-odd, oddBits, len(p))
}

// nearest2x4 returns the indices of the centroids in cc nearest to the
// four dim-2 points (x0, y0) … (x3, y3).
func nearest2x4(x0, y0, x1, y1, x2, y2, x3, y3 float64, cc []float64) (int, int, int, int) {
	// i0…i3 record the offset in cc where their point found its minimum.
	i0, b0 := 0, uint64(infBits)
	i1, b1 := 0, uint64(infBits)
	i2, b2 := 0, uint64(infBits)
	i3, b3 := 0, uint64(infBits)
	for j := 0; j < len(cc)-1; j += 2 {
		cx, cy := cc[j], cc[j+1]
		dx0, dy0 := x0-cx, y0-cy
		d0 := math.Float64bits(dx0*dx0 + dy0*dy0)
		if d0 < b0 {
			i0 = j
		}
		b0 = min(b0, d0)
		dx1, dy1 := x1-cx, y1-cy
		d1 := math.Float64bits(dx1*dx1 + dy1*dy1)
		if d1 < b1 {
			i1 = j
		}
		b1 = min(b1, d1)
		dx2, dy2 := x2-cx, y2-cy
		d2 := math.Float64bits(dx2*dx2 + dy2*dy2)
		if d2 < b2 {
			i2 = j
		}
		b2 = min(b2, d2)
		dx3, dy3 := x3-cx, y3-cy
		d3 := math.Float64bits(dx3*dx3 + dy3*dy3)
		if d3 < b3 {
			i3 = j
		}
		b3 = min(b3, d3)
	}
	return i0 >> 1, i1 >> 1, i2 >> 1, i3 >> 1
}

// mergeChains picks the winner of the two chains. evenOff and oddOff are
// the coordinate offsets of the centroid pairs in which the chains found
// their minima (0 for a chain that found no finite distance, which then
// loses or ties at index 0 or 1 with +Inf).
func mergeChains(evenOff int, evenBits uint64, oddOff int, oddBits uint64, dim int) int {
	even, odd := evenOff/dim, oddOff/dim+1
	best := even
	if oddBits < evenBits {
		best = odd
	}
	if oddBits == evenBits {
		best = min(even, odd)
	}
	return best
}

// recomputeCentroids is rank 0's half of the explicit option: the global
// sums and counts from every rank's gathered points and assignments, in
// point order, then the centroid update.
func recomputeCentroids(cent data.Points, coords []float64, assign []int64, sums, counts []float64, tol float64) bool {
	clear(sums)
	clear(counts)
	dim := cent.Dim
	coords = coords[:len(assign)*dim]
	for i, a := range assign {
		counts[a]++
		s := sums[int(a)*dim:][:dim]
		for d, v := range coords[i*dim : (i+1)*dim] {
			s[d] += v
		}
	}
	return updateCentroids(cent, sums, counts, tol)
}

// updateCentroids moves centroids to their cluster means and reports
// whether any moved more than tol (squared distance). Empty clusters keep
// their previous position.
func updateCentroids(cent data.Points, sums []float64, counts []float64, tol float64) bool {
	dim := cent.Dim
	moved := false
	for c, n := range counts {
		if n == 0 {
			continue
		}
		row := cent.Coords[c*dim : (c+1)*dim]
		sum := sums[c*dim:][:len(row)]
		var dist float64
		for d, old := range row {
			mean := sum[d] / n
			t := mean - old
			dist += t * t
			row[d] = mean
		}
		if dist > tol {
			moved = true
		}
	}
	return moved
}

// inertia sums squared distances from points to their assigned centroids.
func inertia(pts data.Points, cent data.Points, assign []int) float64 {
	dim := pts.Dim
	pc := pts.Coords[:len(assign)*dim]
	var s float64
	for i, a := range assign {
		s += data.SquaredDistance(pc[i*dim:(i+1)*dim], cent.Coords[a*dim:(a+1)*dim])
	}
	return s
}
