// Package distsort implements Module 3 of the pedagogic modules: a
// distributed bucket sort. Activity 1 sorts uniformly distributed keys
// with equal-width buckets; activity 2 repeats it on exponentially
// distributed keys, exposing data-dependent load imbalance; activity 3
// fixes the imbalance with histogram-derived equi-depth bucket boundaries
// (learning outcomes 4, 8–11). A sample-based splitter is included as an
// ablation.
package distsort

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mpi"
)

const (
	tagBoundary  = 11
	tagExchange  = 12
	tagImbalance = 13
	tagBounds    = 14
)

// Splitter selects bucket boundaries for the exchange phase.
type Splitter int

const (
	// EqualWidth divides the global key range into p equal-width
	// buckets (activities 1 and 2).
	EqualWidth Splitter = iota
	// Histogram builds a histogram on rank 0's local data and derives
	// equi-depth boundaries from it (activity 3).
	Histogram
	// Sampled gathers a regular sample from every rank and picks
	// boundaries from the sorted sample (ablation).
	Sampled
)

// String names the splitter for reports.
func (s Splitter) String() string {
	switch s {
	case EqualWidth:
		return "equal-width"
	case Histogram:
		return "histogram"
	case Sampled:
		return "sampled"
	default:
		return fmt.Sprintf("Splitter(%d)", int(s))
	}
}

// HistogramBins is the bin count of the activity-3 histogram.
const HistogramBins = 1024

// Result reports one distributed sort.
type Result struct {
	NP          int
	LocalN      int // keys initially on this rank
	SortedN     int // keys on this rank after the exchange
	Splitter    Splitter
	Elapsed     time.Duration
	ExchangeDur time.Duration
	SortDur     time.Duration
	// Imbalance is max bucket size over mean bucket size across ranks
	// (1.0 = perfectly balanced). Same value on every rank.
	Imbalance float64
}

// ckptPhaseSorted tags a distsort checkpoint taken after the exchange
// and local sort — the expensive phases a restart can skip.
const ckptPhaseSorted = 1

// Options configures the optional fault-tolerance behavior of SortOpts.
type Options struct {
	// Checkpoint, when set, persists this rank's sorted bucket after
	// the exchange + sort phases. Unlike kmeans, every rank owns
	// distinct post-exchange data, so each rank carries its own
	// checkpointer.
	Checkpoint ckpt.Checkpointer
	// Restart reloads the saved bucket and skips the boundary,
	// exchange, and sort phases entirely; only the imbalance reduction
	// re-runs. All ranks must set it together, and each rank's
	// checkpoint must exist.
	Restart bool
}

// Sort performs the distributed bucket sort of the module: each rank
// contributes its local keys; after the call each rank holds one sorted
// bucket, where bucket i precedes bucket i+1, and the concatenation of
// all buckets is the sorted dataset. The data stays distributed to
// reflect datasets exceeding single-node memory.
func Sort(c *mpi.Comm, local []float64, splitter Splitter) ([]float64, Result, error) {
	return SortOpts(c, local, splitter, Options{})
}

// SortOpts is Sort with checkpoint/restart support.
func SortOpts(c *mpi.Comm, local []float64, splitter Splitter, opt Options) ([]float64, Result, error) {
	p := c.Size()
	start := time.Now()

	if opt.Restart {
		if opt.Checkpoint == nil {
			return nil, Result{}, fmt.Errorf("distsort: Restart requires a per-rank Checkpointer")
		}
		phase, payload, ok, err := opt.Checkpoint.Load()
		if err != nil {
			return nil, Result{}, err
		}
		if !ok {
			return nil, Result{}, fmt.Errorf("distsort: rank %d has no checkpoint to restart from", c.Rank())
		}
		if phase != ckptPhaseSorted {
			return nil, Result{}, fmt.Errorf("distsort: rank %d checkpoint at unknown phase %d", c.Rank(), phase)
		}
		mine, err := mpi.Unmarshal[float64](payload)
		if err != nil {
			return nil, Result{}, err
		}
		c.Lifecycle(mpi.LifeRecovery, fmt.Sprintf("distsort restart: %d keys reloaded", len(mine)))
		imb, err := shareImbalance(c, len(mine))
		if err != nil {
			return nil, Result{}, err
		}
		return mine, Result{
			NP:        p,
			LocalN:    len(local),
			SortedN:   len(mine),
			Splitter:  splitter,
			Elapsed:   time.Since(start),
			Imbalance: imb,
		}, nil
	}

	boundaries, err := computeBoundaries(c, local, splitter)
	if err != nil {
		return nil, Result{}, err
	}

	send, ends := partition(local, boundaries)

	// Exchange with the primitive set Table II prescribes for Module 3:
	// nonblocking sends of every block, then every inbound block sized
	// with MPI_Probe + MPI_Get_count before any is received, so the
	// bucket is allocated once at its final length and each receive
	// decodes the wire bytes into their final place (the keys destined
	// to ourselves skip the network).
	exchangeStart := time.Now()
	r := c.Rank()
	reqs := make([]*mpi.Request, 0, p-1)
	counts := make([]int, p)
	var own []float64
	lo := 0
	for dst, hi := range ends {
		blk := send[lo:hi]
		lo = hi
		if dst == r {
			own = blk
			continue
		}
		req, err := mpi.Isend(c, blk, dst, tagExchange)
		if err != nil {
			return nil, Result{}, err
		}
		reqs = append(reqs, req)
	}
	total := len(own)
	counts[r] = len(own)
	for src := range counts {
		if src == r {
			continue
		}
		st, err := c.Probe(src, tagExchange)
		if err != nil {
			return nil, Result{}, err
		}
		if counts[src], err = c.GetCount(st, 8); err != nil {
			return nil, Result{}, err
		}
		total += counts[src]
	}
	mine := make([]float64, total)
	at := 0
	for src, n := range counts {
		if src == r {
			copy(mine[at:], own)
		} else if _, _, err := mpi.RecvInto(c, mine[at:at:at+n], src, tagExchange); err != nil {
			return nil, Result{}, err
		}
		at += n
	}
	if err := mpi.Waitall(reqs...); err != nil {
		return nil, Result{}, err
	}
	exchangeDur := time.Since(exchangeStart)

	// Every send has completed, so the send buffer is free: it is the
	// local sort's scratch unless skew made this bucket outgrow it.
	sortStart := time.Now()
	scratch := send
	if len(scratch) < len(mine) {
		scratch = make([]float64, len(mine))
	}
	radixSort(mine, scratch)
	sortDur := time.Since(sortStart)

	// The sorted bucket is this rank's entire post-exchange state; once
	// saved, a restart skips boundary computation, the all-to-all
	// exchange, and the local sort.
	if opt.Checkpoint != nil {
		if err := opt.Checkpoint.Save(ckptPhaseSorted, mpi.AppendMarshal(nil, mine)); err != nil {
			return nil, Result{}, err
		}
		c.Lifecycle(mpi.LifeCheckpoint, fmt.Sprintf("distsort post-sort: %d keys", len(mine)))
	}

	imb, err := shareImbalance(c, len(mine))
	if err != nil {
		return nil, Result{}, err
	}

	return mine, Result{
		NP:          p,
		LocalN:      len(local),
		SortedN:     len(mine),
		Splitter:    splitter,
		Elapsed:     time.Since(start),
		ExchangeDur: exchangeDur,
		SortDur:     sortDur,
		Imbalance:   imb,
	}, nil
}

// SortResilient is SortOpts wrapped in the runtime's respawn recovery
// loop: when a rank dies mid-sort, the survivors rebuild the world at
// full width (mpi.Comm.RespawnAndRestore) and the sort re-runs. Because
// every rank owns distinct data, recovery needs rank-indexed access to
// both inputs and checkpoints — a replacement runs on behalf of the
// dead rank:
//
//   - localFor(rank) returns the rank's original unsorted keys (in
//     practice: re-read from the shared input);
//   - ckptFor(rank) returns the rank's checkpointer, or nil to disable
//     checkpointing.
//
// Whether a retry restarts from checkpoints is decided collectively: an
// Allreduce(min) of "I have a checkpoint" ensures all ranks take the
// same path even when a kill lands mid-save and only some ranks
// persisted their buckets. The killed rank's call returns ErrRankKilled;
// survivors return their post-recovery bucket.
func SortResilient(c *mpi.Comm, splitter Splitter, localFor func(rank int) []float64, ckptFor func(rank int) ckpt.Checkpointer) ([]float64, Result, error) {
	var (
		mine []float64
		res  Result
	)
	myRank := c.Rank()
	err := c.RunResilient(func(rc *mpi.Comm, restart bool) error {
		opt := Options{}
		if ckptFor != nil {
			opt.Checkpoint = ckptFor(rc.Rank())
		}
		if restart && opt.Checkpoint != nil {
			have := int64(0)
			if _, _, ok, err := opt.Checkpoint.Load(); err == nil && ok {
				have = 1
			}
			all, err := mpi.Allreduce(rc, []int64{have}, mpi.OpMin)
			if err != nil {
				return err
			}
			opt.Restart = all[0] == 1
		}
		m, r, err := SortOpts(rc, localFor(rc.Rank()), splitter, opt)
		if err == nil && rc.Rank() == myRank {
			mine, res = m, r
		}
		return err
	})
	if err != nil {
		return nil, Result{}, err
	}
	return mine, res, nil
}

// shareImbalance computes max/mean bucket size across ranks: in-place
// MPI_Reduce of bucket sizes onto rank 0, which shares the verdict with
// everyone over point-to-point messages. Only rank 0 reads the reduced
// values, so the in-place variant's "non-root buffer unspecified"
// contract is safe here.
func shareImbalance(c *mpi.Comm, bucketLen int) (float64, error) {
	p, r := c.Size(), c.Rank()
	sum := [1]float64{float64(bucketLen)}
	if err := mpi.ReduceInto(c, sum[:], mpi.OpSum, 0); err != nil {
		return 0, err
	}
	maxSize := [1]float64{float64(bucketLen)}
	if err := mpi.ReduceInto(c, maxSize[:], mpi.OpMax, 0); err != nil {
		return 0, err
	}
	imb := 1.0
	if r == 0 {
		mean := sum[0] / float64(p)
		if mean > 0 {
			imb = maxSize[0] / mean
		}
		for dst := 1; dst < p; dst++ {
			if err := mpi.Send(c, []float64{imb}, dst, tagImbalance); err != nil {
				return 0, err
			}
		}
		return imb, nil
	}
	v, _, err := mpi.Recv[float64](c, 0, tagImbalance)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

// computeBoundaries returns p-1 ascending bucket boundaries; bucket i is
// (boundary[i-1], boundary[i]].
func computeBoundaries(c *mpi.Comm, local []float64, splitter Splitter) ([]float64, error) {
	p := c.Size()
	switch splitter {
	case EqualWidth:
		lo, hi, err := globalRange(c, local)
		if err != nil {
			return nil, err
		}
		bounds := make([]float64, p-1)
		width := (hi - lo) / float64(p)
		for i := range bounds {
			bounds[i] = lo + width*float64(i+1)
		}
		return bounds, nil

	case Histogram:
		// Activity 3: rank 0 histograms its LOCAL data (the module's
		// prescription — local data approximates the global
		// distribution) and derives equi-depth boundaries, shared over
		// point-to-point messages like the rest of the module.
		lo, hi, err := globalRange(c, local)
		if err != nil {
			return nil, err
		}
		if c.Rank() == 0 {
			bounds := equiDepthBoundaries(local, lo, hi, p)
			for dst := 1; dst < p; dst++ {
				if err := mpi.Send(c, bounds, dst, tagBounds); err != nil {
					return nil, err
				}
			}
			return bounds, nil
		}
		bounds, _, err := mpi.Recv[float64](c, 0, tagBounds)
		return bounds, err

	case Sampled:
		// Every rank contributes a regular sample of its sorted data
		// (sorted by the local phase's kernel: O(n), not O(n log n));
		// rank 0 picks every p-th quantile of the pooled sample.
		const perRank = 64
		sorted := append([]float64(nil), local...)
		RadixSortFloat64s(sorted)
		sample := make([]float64, 0, perRank)
		for i := 0; i < perRank; i++ {
			if len(sorted) == 0 {
				break
			}
			sample = append(sample, sorted[i*len(sorted)/perRank])
		}
		pooled, err := mpi.Gatherv(c, sample, 0)
		if err != nil {
			return nil, err
		}
		var bounds []float64
		if c.Rank() == 0 {
			var flat []float64
			for _, blk := range pooled {
				flat = append(flat, blk...)
			}
			sort.Float64s(flat)
			bounds = make([]float64, p-1)
			if len(flat) > 0 { // else no rank holds a key and any boundaries do
				for i := range bounds {
					bounds[i] = flat[(i+1)*len(flat)/p]
				}
			}
		}
		return mpi.Bcast(c, bounds, 0)

	default:
		return nil, fmt.Errorf("distsort: unknown splitter %d", int(splitter))
	}
}

// globalRange computes the global min and max of the distributed keys
// with MPI_Reduce onto rank 0, which redistributes the result over
// point-to-point messages (keeping to Module 3's primitive set).
func globalRange(c *mpi.Comm, local []float64) (float64, float64, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, k := range local {
		if k < lo {
			lo = k
		}
		if k > hi {
			hi = k
		}
	}
	mins := [1]float64{lo}
	if err := mpi.ReduceInto(c, mins[:], mpi.OpMin, 0); err != nil {
		return 0, 0, err
	}
	maxs := [1]float64{hi}
	if err := mpi.ReduceInto(c, maxs[:], mpi.OpMax, 0); err != nil {
		return 0, 0, err
	}
	p := c.Size()
	if c.Rank() == 0 {
		rng := []float64{mins[0], maxs[0]}
		for dst := 1; dst < p; dst++ {
			if err := mpi.Send(c, rng, dst, tagBounds); err != nil {
				return 0, 0, err
			}
		}
		return rng[0], rng[1], nil
	}
	rng, _, err := mpi.Recv[float64](c, 0, tagBounds)
	if err != nil {
		return 0, 0, err
	}
	return rng[0], rng[1], nil
}

// equiDepthBoundaries histograms keys over [lo, hi] into HistogramBins
// bins and returns p-1 boundaries splitting the mass into p equal parts.
func equiDepthBoundaries(keys []float64, lo, hi float64, p int) []float64 {
	hist := make([]int, HistogramBins)
	width := (hi - lo) / float64(HistogramBins)
	if width == 0 {
		width = 1
	}
	for _, k := range keys {
		b := int((k - lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= HistogramBins {
			b = HistogramBins - 1
		}
		hist[b]++
	}
	bounds := make([]float64, p-1)
	target := len(keys) / p
	cum, next := 0, 1
	for b := 0; b < HistogramBins && next < p; b++ {
		cum += hist[b]
		for next < p && cum >= next*target {
			bounds[next-1] = lo + width*float64(b+1)
			next++
		}
	}
	// Any unset trailing boundaries collapse to hi.
	for i := next - 1; i < p-1; i++ {
		bounds[i] = hi
	}
	return bounds
}

// bucketOf locates the bucket of k given ascending boundaries: the first
// i with bounds[i] >= k (so a NaN falls in the last bucket). It halves
// the len(bounds)+1 candidates by arithmetic on the comparison, not by a
// branch on it, so a key costs no mispredicted jump at any rank count.
func bucketOf(k float64, bounds []float64) int {
	base, n := 0, len(bounds)+1
	for n > 1 {
		half := n / 2
		base += half * b2i(!(bounds[base+half-1] >= k))
		n -= half
	}
	return base
}

// b2i is 1 for true and 0 for false, compiled to a flag set, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// partition groups keys by destination bucket in one exact-size buffer,
// count then fill: bucket b is send[ends[b-1]:ends[b]] (from 0 for b = 0)
// and keeps the input order. Each pass searches each key's bucket; the
// search is cheaper than reading back a remembered one.
func partition(keys, bounds []float64) (send []float64, ends []int) {
	ends = make([]int, len(bounds)+1)
	for _, k := range keys {
		ends[bucketOf(k, bounds)]++
	}
	start := 0
	for b, n := range ends {
		ends[b], start = start, start+n
	}
	send = make([]float64, len(keys))
	for _, k := range keys {
		b := bucketOf(k, bounds)
		send[ends[b]] = k
		ends[b]++ // the cursor of b finishes on its end
	}
	return send, ends
}

// VerifyDistributedSorted checks the global sort invariant: each rank's
// bucket is locally sorted, and the maximum of every earlier bucket is at
// most this rank's minimum. It sticks to Module 3's primitive set: the
// running maximum travels rank-to-rank over MPI_Send/MPI_Recv, the
// verdict is folded onto rank 0 with MPI_Reduce and redistributed
// point-to-point. Every rank receives the same verdict.
func VerifyDistributedSorted(c *mpi.Comm, mine []float64) (bool, error) {
	p, r := c.Size(), c.Rank()
	ok := 1.0
	for i := 1; i < len(mine); i++ {
		if mine[i-1] > mine[i] {
			ok = 0
			break
		}
	}
	// Chain pass: rank r receives the maximum over buckets 0..r-1,
	// checks it against its own minimum, and forwards the running max.
	runningMax := math.Inf(-1)
	if r > 0 {
		left, _, err := mpi.Recv[float64](c, r-1, tagBoundary)
		if err != nil {
			return false, err
		}
		runningMax = left[0]
		if len(mine) > 0 && runningMax > mine[0] {
			ok = 0
		}
	}
	if len(mine) > 0 && mine[len(mine)-1] > runningMax {
		runningMax = mine[len(mine)-1]
	}
	if r < p-1 {
		if err := mpi.Send(c, []float64{runningMax}, r+1, tagBoundary); err != nil {
			return false, err
		}
	}
	verdict := [1]float64{ok}
	if err := mpi.ReduceInto(c, verdict[:], mpi.OpMin, 0); err != nil {
		return false, err
	}
	if r == 0 {
		for dst := 1; dst < p; dst++ {
			if err := mpi.Send(c, verdict[:], dst, tagBoundary); err != nil {
				return false, err
			}
		}
		return verdict[0] == 1, nil
	}
	v, _, err := mpi.Recv[float64](c, 0, tagBoundary)
	if err != nil {
		return false, err
	}
	return v[0] == 1, nil
}

// SequentialSort is the single-process baseline the module compares
// against: no exchange phase, just the local sort the ranks run, given
// its scratch up front as they are.
func SequentialSort(keys []float64) ([]float64, time.Duration) {
	out := append([]float64(nil), keys...)
	scratch := make([]float64, len(out))
	start := time.Now()
	radixSort(out, scratch)
	return out, time.Since(start)
}
