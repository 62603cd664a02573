// Package hashjoin implements the paper's second future-work direction
// ("modules with other data-intensive algorithms so students have some
// choice"): a distributed partitioned hash join, the equi-join workhorse
// of the database systems the modules' motivation keeps returning to.
//
// The plan is the textbook GRACE join: both relations are hash-partitioned
// on the join key across ranks (MPI_Alltoallv-style exchange built from
// the module-level primitives), each rank builds an in-memory hash table
// over its build-side partition and probes it with its probe-side
// partition, and the global result cardinality is reduced onto rank 0.
//
// The local data path is three count-then-fill kernels shared by every
// distributed join in the package: partition (histogram, prefix sum,
// scatter into one backing array), buildTable (a flat CSR hash table)
// and table.probe (count the matches, allocate the output once, fill
// it). None of them allocates per tuple or per key.
package hashjoin

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/mpi"
)

const (
	tagBuild = 51
	tagProbe = 52
)

// Tuple is a relation row: a join key and a payload identifier.
type Tuple struct {
	Key     int64
	Payload int64
}

// Pair is one join match: the payloads of the joined build and probe
// tuples.
type Pair struct {
	BuildPayload, ProbePayload int64
}

// Result reports one distributed join.
type Result struct {
	NP           int
	BuildN       int   // local build tuples before partitioning
	ProbeN       int   // local probe tuples before partitioning
	Matches      int64 // global match count (rank 0; via MPI_Reduce)
	LocalMatches int
	Elapsed      time.Duration
	PartitionDur time.Duration
	BuildDur     time.Duration
	ProbeDur     time.Duration
	// Imbalance is max/mean local build-partition size across ranks.
	Imbalance float64
}

// hashKey maps a join key to its owning rank. Splitmix-style finalizer:
// adjacent keys land on different ranks, so skew comes only from true
// key-frequency skew.
func hashKey(k int64, p int) int {
	x := uint64(k) * 0x9e3779b97f4a7c15
	x ^= x >> 32
	return int(x % uint64(p))
}

// Join executes the distributed hash join. Each rank contributes its
// local fragments of the build and probe relations; the returned pairs
// are the matches assigned to this rank (all matches for keys it owns).
// Only rank 0's Matches is the global count.
func Join(c *mpi.Comm, build, probe []Tuple) ([]Pair, Result, error) {
	p := c.Size()
	start := time.Now()
	res := Result{NP: p, BuildN: len(build), ProbeN: len(probe)}

	// Partition the build relation by key hash, exchange it and build.
	partStart := time.Now()
	myBuild, part, err := exchange(c, build, tagBuild, nil, nil)
	if err != nil {
		return nil, res, fmt.Errorf("hashjoin: build exchange: %w", err)
	}
	res.PartitionDur = time.Since(partStart)

	buildStart := time.Now()
	myBuildN := len(myBuild) / 2
	tbl, err := buildTable(myBuildN, func(i int) (key, payload int64) {
		return myBuild[2*i], myBuild[2*i+1]
	})
	if err != nil {
		return nil, res, err
	}
	res.BuildDur = time.Since(buildStart)

	// The build's buffers are dead now: exchange returned after every
	// send that read the partition completed, and the table holds its
	// own copy of the stream. The probe exchange reuses both.
	partStart = time.Now()
	myProbe, _, err := exchange(c, probe, tagProbe, part, myBuild)
	if err != nil {
		return nil, res, fmt.Errorf("hashjoin: probe exchange: %w", err)
	}
	res.PartitionDur += time.Since(partStart)

	probeStart := time.Now()
	out := tbl.probe(myProbe)
	res.ProbeDur = time.Since(probeStart)
	res.LocalMatches = len(out)

	if err := finishStats(c, &res, len(out), myBuildN); err != nil {
		return nil, res, err
	}
	res.Elapsed = time.Since(start)
	return out, res, nil
}

// finishStats reduces the global match count and build balance onto rank
// 0, in place (MPI_Reduce via the allocation-free ReduceInto variant).
func finishStats(c *mpi.Comm, res *Result, localMatches, myBuildN int) error {
	counts := []int64{int64(localMatches), int64(myBuildN)}
	if err := mpi.ReduceInto(c, counts, mpi.OpSum, 0); err != nil {
		return err
	}
	maxBuild := []int64{int64(myBuildN)}
	if err := mpi.ReduceInto(c, maxBuild, mpi.OpMax, 0); err != nil {
		return err
	}
	if c.Rank() == 0 {
		res.Matches = counts[0]
		mean := float64(counts[1]) / float64(res.NP)
		if mean > 0 {
			res.Imbalance = float64(maxBuild[0]) / mean
		} else {
			res.Imbalance = 1
		}
	}
	return nil
}

// tupleBytes is the footprint of one tuple on the wire and in the
// chunk-reserved RMA window: key and payload, two little-endian int64
// words.
const tupleBytes = 16

// partition hash-partitions tuples across p owners, in wire format:
// parts[dst] holds the tuples hashKey sends to dst, in input order, and
// counts[dst] how many. Count, prefix-sum, scatter: one histogram pass
// sizes one backing array exactly, and every part is a sub-slice of it
// with its capacity clipped to its own share, so a scatter that overran
// the histogram would panic rather than spill into the neighbour. The
// backing array is spare when spare has room for every tuple, and a
// fresh one otherwise; it is returned as buf, so that a later partition
// can reuse it once nothing reads the parts.
func partition(tuples []Tuple, p int, spare []byte) (parts [][]byte, counts []int64, buf []byte) {
	counts = make([]int64, p)
	for _, t := range tuples {
		counts[hashKey(t.Key, p)]++
	}
	buf = spare[:0]
	if n := len(tuples) * tupleBytes; cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	parts = make([][]byte, p)
	lo := 0
	for dst, n := range counts {
		hi := lo + int(n)*tupleBytes
		parts[dst] = buf[lo:lo:hi]
		lo = hi
	}
	for _, t := range tuples {
		dst := hashKey(t.Key, p)
		n := len(parts[dst])
		b := parts[dst][:n+tupleBytes]
		binary.LittleEndian.PutUint64(b[n:], uint64(t.Key))
		binary.LittleEndian.PutUint64(b[n+8:], uint64(t.Payload))
		parts[dst] = b
	}
	return parts, counts, buf
}

// tupleAt decodes the tuple at the head of b.
func tupleAt(b []byte) (key, payload int64) {
	return int64(binary.LittleEndian.Uint64(b)), int64(binary.LittleEndian.Uint64(b[8:]))
}

// exchange hash-partitions tuples by key and redistributes them with the
// module-level point-to-point pattern (Isend all partitions, receive one
// block from every peer). It returns this rank's share as a flat stream:
// tuple i is flat[2i] (key), flat[2i+1] (payload). part and flat are
// spare buffers for the partition and the stream, each used when it has
// room; the partition's buffer is returned too, and is dead on return,
// since exchange waits for every send that reads it.
func exchange(c *mpi.Comm, tuples []Tuple, tag int, part []byte, flat []int64) ([]int64, []byte, error) {
	p, r := c.Size(), c.Rank()
	parts, _, part := partition(tuples, p, part)
	reqs := make([]*mpi.Request, 0, p-1)
	for dst := 0; dst < p; dst++ {
		if dst == r {
			continue
		}
		req, err := mpi.Isend(c, parts[dst], dst, tag)
		if err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, req)
	}
	// Hash partitioning makes what comes in about what goes out, so size
	// the stream from the outgoing total plus an eighth (a rank's share
	// of uniform keys strays by a percent or so) and decode every block
	// into its spare capacity: UnmarshalInto fills dst's backing array
	// when the block fits, so then the block is already in place. Under
	// skew it does not fit, arrives in a fresh slice and is appended.
	if want := 2 * (len(tuples) + len(tuples)/8); cap(flat) < want {
		flat = make([]int64, 0, want)
	}
	flat, err := mpi.UnmarshalInto(flat[:0], parts[r])
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < p-1; i++ {
		spare := cap(flat) - len(flat)
		blk, _, err := mpi.RecvInto(c, flat[len(flat):len(flat)], mpi.AnySource, tag)
		if err != nil {
			return nil, nil, err
		}
		if len(blk) <= spare {
			flat = flat[:len(flat)+len(blk)]
		} else {
			flat = append(flat, blk...)
		}
	}
	if err := mpi.Waitall(reqs...); err != nil {
		return nil, nil, err
	}
	if len(flat)%2 != 0 {
		return nil, nil, fmt.Errorf("hashjoin: odd tuple stream length %d", len(flat))
	}
	return flat, part, nil
}

// table is the build side's hash table, flat (CSR): distinct keys are
// open-addressed with linear probing over a power-of-two slot array at
// load <= 0.5, and slot s owns the contiguous run
// payloads[off[s]:off[s+1]], in build order. An empty slot owns an empty
// run. Four arrays whatever the key count; a probe reads one run.
type table struct {
	keys     []int64  // slot -> key, meaningful where the run is non-empty
	off      []uint32 // slot -> start of its run; len(keys)+1 entries
	payloads []int64
}

// buildTable builds the table over n tuples read through at, which must
// return the same tuple for the same index on every pass. The slot array
// is sized by the distinct keys, so that a table over many duplicates
// stays in cache: the power of two at or above 2.25 × distinctEstimate,
// never above nextPow2(2n). Pass 1 (claimSlots) finds or claims each
// tuple's slot and counts it, and starts over at nextPow2(2n) should the
// keys outgrow half the slots (a low estimate); the size is a function
// of the keys alone. A prefix sum turns the counts into run starts, and
// pass 2 scatters the payloads. The tuples are read through an index so
// that the one-sided builds scan their window bytes in place.
func buildTable(n int, at func(i int) (key, payload int64)) (table, error) {
	if n > math.MaxInt32 {
		return table{}, fmt.Errorf("hashjoin: %d build tuples on one rank exceed the table's 32-bit offsets", n)
	}
	slotOf := make([]uint32, n)
	full := nextPow2(2 * n)
	sized := min(nextPow2(int(math.Ceil(2.25*distinctEstimate(slotOf, at)))), full)
	t, ok := claimSlots(sized, slotOf, at)
	if !ok {
		t, _ = claimSlots(full, slotOf, at)
	}
	// Shifted exclusive prefix sum: off[s+1] becomes the start of run s,
	// and the scatter below advances it to the run's end, which is the
	// start of run s+1.
	sum := uint32(0)
	for s := 1; s < len(t.off); s++ {
		sum, t.off[s] = sum+t.off[s], sum
	}
	t.payloads = make([]int64, n)
	for i, s := range slotOf {
		_, payload := at(i)
		t.payloads[t.off[s+1]] = payload
		t.off[s+1]++
	}
	return t, nil
}

// distinctEstimate estimates how many distinct keys the len(scratch)
// tuples read through at carry, by linear counting over the bits of
// scratch, which it leaves dirty: each key sets the bit hashSlot picks
// among m, the largest power of two of them, and d distinct keys leave
// about m·e^(-d/m) of the m clear, so d ≈ m·ln(m/clear). With m >= 16n
// >= 16d at least 15/16 of the bits stay clear, and the estimate is
// tight.
func distinctEstimate(scratch []uint32, at func(i int) (key, payload int64)) float64 {
	if len(scratch) == 0 {
		return 0
	}
	bitmap := scratch[:1<<(bits.Len(uint(len(scratch)))-1)]
	m := 32 * len(bitmap)
	for i := range scratch {
		key, _ := at(i)
		b := hashSlot(key, m)
		bitmap[b>>5] |= 1 << (b & 31)
	}
	set := 0
	for _, w := range bitmap {
		set += bits.OnesCount32(w)
	}
	return float64(m) * math.Log(float64(m)/float64(m-set))
}

// claimSlots is pass 1 over a table of the given number of slots: it
// finds or claims each tuple's slot, records it in slotOf and counts the
// tuple into off[s+1], which until the prefix sum is slot s's tuple
// count, zero marking the slot empty. It gives up, reporting false, on
// the claim that would take the load past one half.
func claimSlots(slots int, slotOf []uint32, at func(i int) (key, payload int64)) (table, bool) {
	t := table{keys: make([]int64, slots), off: make([]uint32, slots+1)}
	claimed := 0
	for i := range slotOf {
		key, _ := at(i)
		s := hashSlot(key, slots)
		for t.off[s+1] != 0 && t.keys[s] != key {
			s = (s + 1) & (slots - 1)
		}
		if t.off[s+1] == 0 {
			if claimed++; claimed > slots/2 {
				return t, false
			}
			t.keys[s] = key
		}
		t.off[s+1]++
		slotOf[i] = uint32(s)
	}
	return t, true
}

// run returns the bounds of key's run of build payloads: the run of the
// slot that holds key or, for a key the table lacks, of the empty slot
// its probe stops at, which is empty.
func (t *table) run(key int64) (lo, hi uint32) {
	mask := len(t.keys) - 1
	s := hashSlot(key, len(t.keys))
	for t.off[s] != t.off[s+1] && t.keys[s] != key {
		s = (s + 1) & mask
	}
	return t.off[s], t.off[s+1]
}

// probe joins a flat probe stream against the table, and consumes the
// stream: one lookup pass records each probe tuple's run (start and
// length, packed in a word) over the tuple's key, which the lookup is
// the last to read, and adds up the lengths; the output is allocated at
// exactly that size, and the fill copies the recorded runs into it by
// index — probe order, and build order within one probe tuple, the order
// a map of appended slices would give. A miss records an empty run, so
// no marker can collide with a real one.
func (t *table) probe(probe []int64) []Pair {
	n := len(probe) / 2
	total := 0
	for i := 0; i < n; i++ {
		lo, hi := t.run(probe[2*i])
		probe[2*i] = int64(uint64(lo)<<32 | uint64(hi-lo))
		total += int(hi - lo)
	}
	if total == 0 {
		return nil
	}
	out := make([]Pair, total)
	j := 0
	for i := 0; i < n; i++ {
		r := uint64(probe[2*i])
		lo := uint32(r >> 32)
		run := t.payloads[lo : lo+uint32(r)]
		dst, pp := out[j:j+len(run)], probe[2*i+1]
		for k, bp := range run {
			dst[k] = Pair{BuildPayload: bp, ProbePayload: pp}
		}
		j += len(run)
	}
	return out
}

// Sequential joins the full relations on one process — the reference
// the tests and the benchmark verify against (nothing times it as a
// scaling baseline). It deliberately stays the plain
// map-of-slices join and shares nothing with the flat kernels the
// distributed joins run on: it is what they are checked against.
func Sequential(build, probe []Tuple) []Pair {
	table := make(map[int64][]int64, len(build))
	for _, t := range build {
		table[t.Key] = append(table[t.Key], t.Payload)
	}
	var out []Pair
	for _, t := range probe {
		for _, bp := range table[t.Key] {
			out = append(out, Pair{BuildPayload: bp, ProbePayload: t.Payload})
		}
	}
	return out
}

// RMA build phase: instead of exchanging build tuples with two-sided
// sends, every rank deposits its build tuples directly into the owning
// rank's window, and the owner builds its table over the window bytes.
// The probe side stays two-sided, so the equivalence tests compare
// exactly the phase that differs. Two deposit strategies are
// implemented — they are the before and after of the module's measure →
// explain → optimize study:
//
//   - JoinRMAPerTuple claims a window slot per tuple by advancing the
//     owner's tail counter with CompareAndSwap and Puts the tuple body
//     into it: a faithful rendition of the naive one-sided pattern.
//     Every claim is a synchronous round trip, so the build phase pays
//     per-op latency × tuples and loses to the two-sided exchange by an
//     order of magnitude.
//
//   - JoinRMA reserves one contiguous run of slots per owner — a single
//     CompareAndSwap loop on a tail counter — and deposits the whole
//     run with one Put. The runtime coalesces those Puts per target and
//     flushes them as single batch frames at the Fence, so the entire
//     build costs O(ranks) round trips instead of O(tuples), and the
//     one-sided build reaches parity with the two-sided exchange.

// hashSlot maps a key to its home slot in the build table, with a
// different mixer than hashKey, so the owner assignment and the slot
// position are independent.
func hashSlot(k int64, slots int) int {
	x := uint64(k) * 0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int(x & uint64(slots-1))
}

// nextPow2 returns the smallest power of two >= n (and >= 2).
func nextPow2(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// JoinRMA executes the distributed hash join with a one-sided build
// phase over an RMA window, using the chunk-reserved deposit: one
// CompareAndSwap loop per owner to reserve a run of slots on the
// owner's tail counter, one Put per owner carrying every tuple bound
// there, one Fence. The Puts coalesce in the runtime's per-target
// batches and cross as single frames, so the build performs O(ranks)
// round trips regardless of relation size. The returned pairs are this
// rank's matches, exactly as Join produces (up to ordering).
func JoinRMA(c *mpi.Comm, build, probe []Tuple) ([]Pair, Result, error) {
	p := c.Size()
	start := time.Now()
	res := Result{NP: p, BuildN: len(build), ProbeN: len(probe)}

	// Gather this rank's deposits per owner, and size the window: the
	// partition's histogram is how many tuples this rank sends each
	// owner, and after the Allreduce perOwner[r] is exactly how many
	// tuples rank r will own, so each region is provisioned tight — a
	// tail counter in the first 8 bytes plus that many tuple slots.
	parts, mine, part := partition(build, p, nil)
	perOwner := append([]int64(nil), mine...)
	if err := mpi.AllreduceInto(c, perOwner, mpi.OpSum); err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma sizing: %w", err)
	}

	buildStart := time.Now()
	win, err := c.WinCreate(8 + int(perOwner[c.Rank()])*tupleBytes)
	if err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma window: %w", err)
	}
	// Deposit: reserve a contiguous run of mine[owner] slots by
	// advancing the owner's tail counter with CAS (the loop converges in
	// at most np attempts: every failure means another rank reserved its
	// run), then Put the whole run at the reserved offset. The partition
	// is already in wire format and Put captures the bytes into the
	// target's batch before returning, so nothing is marshalled here, and
	// the partition is dead once the last Put returns: the probe exchange
	// reuses its buffer.
	for owner := 0; owner < p; owner++ {
		n := mine[owner]
		if n == 0 {
			continue
		}
		base := int64(0)
		for {
			old, err := win.CompareAndSwap(owner, 0, base, base+n)
			if err != nil {
				return nil, res, fmt.Errorf("hashjoin: rma reserve: %w", err)
			}
			if old == base {
				break
			}
			base = old
		}
		if err := win.Put(owner, 8+int(base)*tupleBytes, parts[owner]); err != nil {
			return nil, res, fmt.Errorf("hashjoin: rma put: %w", err)
		}
	}
	return buildAndProbe(c, win, probe, part, res, start, buildStart)
}

// JoinRMAPerTuple is the un-optimized one-sided build the module's
// performance study starts from: every tuple claims its own slot on the
// owner's tail counter with CompareAndSwap, as JoinRMA claims a run,
// before its body is Put there. Each claim is a synchronous round trip
// to the owner, so the build phase pays per-op latency × tuples — the
// behavior whose profile (rma-target-wait dominating) motivates the
// batched deposit JoinRMA uses. A claim costs one CompareAndSwap plus
// one per claim another rank made on the same owner since this rank's
// last, so the build stays linear in tuples whatever the keys. It
// produces output identical to Join and JoinRMA; it is kept so the
// before/after gap stays reproducible.
func JoinRMAPerTuple(c *mpi.Comm, build, probe []Tuple) ([]Pair, Result, error) {
	p := c.Size()
	start := time.Now()
	res := Result{NP: p, BuildN: len(build), ProbeN: len(probe)}

	// Size each region exactly, as JoinRMA does: a tail counter plus
	// one slot per tuple the owner will hold.
	perOwner := make([]int64, p)
	for _, t := range build {
		perOwner[hashKey(t.Key, p)]++
	}
	if err := mpi.AllreduceInto(c, perOwner, mpi.OpSum); err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma sizing: %w", err)
	}

	buildStart := time.Now()
	win, err := c.WinCreate(8 + int(perOwner[c.Rank()])*tupleBytes)
	if err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma window: %w", err)
	}
	// Deposit: claim the owner's next slot with CAS, starting from the
	// tail this rank last saw there, then Put the tuple body. The kv
	// scratch is reused, so the deposit loop does not allocate per tuple.
	tail := make([]int64, p)
	var kv []byte
	for _, t := range build {
		owner := hashKey(t.Key, p)
		for {
			old, err := win.CompareAndSwap(owner, 0, tail[owner], tail[owner]+1)
			if err != nil {
				return nil, res, fmt.Errorf("hashjoin: rma claim: %w", err)
			}
			if old == tail[owner] {
				break
			}
			tail[owner] = old
		}
		kv = mpi.AppendMarshal(kv[:0], []int64{t.Key, t.Payload})
		if err := win.Put(owner, 8+int(tail[owner])*tupleBytes, kv); err != nil {
			return nil, res, fmt.Errorf("hashjoin: rma put: %w", err)
		}
		tail[owner]++
	}
	return buildAndProbe(c, win, probe, nil, res, start, buildStart)
}

// buildAndProbe is the tail both one-sided joins share once their
// deposits are issued: the Fence that completes them, the build over the
// local region in place (the tail counter says how many tuples landed,
// dense from offset 8), the two-sided probe exchange (partitioning into
// part when it has room), the local probe, window retirement and the
// global reductions.
func buildAndProbe(c *mpi.Comm, win *mpi.Win, probe []Tuple, part []byte, res Result, start, buildStart time.Time) ([]Pair, Result, error) {
	if err := win.Fence(); err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma fence: %w", err)
	}
	local := win.Local()
	myBuildN := int(binary.LittleEndian.Uint64(local))
	tbl, err := buildTable(myBuildN, func(i int) (key, payload int64) {
		return tupleAt(local[8+i*tupleBytes:])
	})
	if err != nil {
		return nil, res, err
	}
	res.BuildDur = time.Since(buildStart)

	partStart := time.Now()
	myProbe, _, err := exchange(c, probe, tagProbe, part, nil)
	if err != nil {
		return nil, res, fmt.Errorf("hashjoin: probe exchange: %w", err)
	}
	res.PartitionDur = time.Since(partStart)

	probeStart := time.Now()
	out := tbl.probe(myProbe)
	res.ProbeDur = time.Since(probeStart)
	res.LocalMatches = len(out)

	if err := win.Free(); err != nil {
		return nil, res, fmt.Errorf("hashjoin: rma free: %w", err)
	}
	if err := finishStats(c, &res, len(out), myBuildN); err != nil {
		return nil, res, err
	}
	res.Elapsed = time.Since(start)
	return out, res, nil
}
