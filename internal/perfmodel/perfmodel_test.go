package perfmodel

import (
	"math"
	"strings"
	"testing"
)

func TestNewCacheValidation(t *testing.T) {
	if _, err := NewCache(0, 64, 8); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewCache(1024, 48, 2); err == nil {
		t.Fatal("non-power-of-two line accepted")
	}
	if _, err := NewCache(1000, 64, 8); err == nil {
		t.Fatal("non-divisible size accepted")
	}
	if _, err := NewCache(32*1024, 64, 8); err != nil {
		t.Fatalf("valid cache rejected: %v", err)
	}
}

func TestCacheHitsOnRepeat(t *testing.T) {
	c, err := NewCache(4096, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("repeat access missed")
	}
	if !c.Access(63) {
		t.Fatal("same-line access missed")
	}
	if c.Access(64) {
		t.Fatal("next-line cold access hit")
	}
	if c.Accesses() != 4 || c.Misses() != 2 {
		t.Fatalf("counters %d/%d", c.Accesses(), c.Misses())
	}
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate %v", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Direct-mapped-ish: 2 ways, line 64, 2 sets → size 256.
	c, err := NewCache(256, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Three lines mapping to set 0: line numbers 0, 2, 4 (set = line & 1).
	c.Access(0 * 64)
	c.Access(2 * 64)
	c.Access(4 * 64) // evicts line 0 (LRU)
	if c.Access(0 * 64) {
		t.Fatal("evicted line still resident")
	}
	if !c.Access(4 * 64) {
		t.Fatal("recently used line evicted")
	}
}

func TestCacheLRUTouchRefreshes(t *testing.T) {
	c, _ := NewCache(256, 64, 2)
	c.Access(0 * 64)
	c.Access(2 * 64)
	c.Access(0 * 64) // refresh line 0: now line 2 is LRU
	c.Access(4 * 64) // evicts line 2
	if !c.Access(0 * 64) {
		t.Fatal("refreshed line was evicted")
	}
	if c.Access(2 * 64) {
		t.Fatal("LRU line survived eviction")
	}
}

func TestCacheWorkingSetSweep(t *testing.T) {
	// Streaming a working set that fits: second pass all hits. One that
	// exceeds capacity with LRU and a single pass direction: all misses.
	c, _ := NewCache(32*1024, 64, 8)
	small := 16 * 1024
	c.AccessRange(0, small)
	before := c.Misses()
	c.AccessRange(0, small)
	if c.Misses() != before {
		t.Fatalf("second pass over fitting working set missed %d times", c.Misses()-before)
	}
	c.Reset()
	big := 64 * 1024
	c.AccessRange(0, big)
	before = c.Misses()
	c.AccessRange(0, big)
	misses2 := c.Misses() - before
	if misses2 < int64(big/64/2) {
		t.Fatalf("oversized working set should thrash, second pass missed only %d", misses2)
	}
}

func TestMachineValidate(t *testing.T) {
	m := DefaultMachine()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.CoreBW = m.NodeBW * 2
	if err := bad.Validate(); err == nil {
		t.Fatal("core BW > node BW accepted")
	}
	bad = m
	bad.CoresPerNode = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestComputeBoundScalesLinearly(t *testing.T) {
	m := DefaultMachine()
	k := ComputeBoundKernel("matmul-like", 1e12, 100) // 100 flops/byte
	sp, err := m.Speedup(k, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp[19] < 18 {
		t.Fatalf("compute-bound speedup at 20 cores = %v, want ≈20", sp[19])
	}
	// Monotone non-decreasing.
	for i := 1; i < len(sp); i++ {
		if sp[i] < sp[i-1]-1e-9 {
			t.Fatalf("speedup dips at p=%d: %v < %v", i+1, sp[i], sp[i-1])
		}
	}
}

func TestMemoryBoundSaturates(t *testing.T) {
	m := DefaultMachine()
	k := MemoryBoundKernel("stream-like", 1e11, 0.1) // 0.1 flops/byte
	sp, err := m.Speedup(k, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	sat := m.SaturationCores() // ≈ 8.3 with defaults
	// Speedup at 20 cores must be near the saturation point, far from 20.
	if sp[19] > sat*1.3 {
		t.Fatalf("memory-bound speedup %v exceeds saturation %v", sp[19], sat)
	}
	if sp[19] < sat*0.7 {
		t.Fatalf("memory-bound speedup %v too far below saturation %v", sp[19], sat)
	}
	// And it must clearly trail the compute-bound curve: Figure 1 shape.
	ck := ComputeBoundKernel("compute", 1e12, 100)
	csp, _ := m.Speedup(ck, 20, 1)
	if sp[19] > csp[19]/1.5 {
		t.Fatalf("curves not separated: mem %v vs compute %v", sp[19], csp[19])
	}
}

func TestTwoNodesBeatOneForMemoryBound(t *testing.T) {
	// Module 4 activity 3: p ranks on 2 nodes outperform p ranks on 1
	// node because aggregate memory bandwidth doubles.
	m := DefaultMachine()
	k := MemoryBoundKernel("rtree-query", 1e11, 0.2)
	one, err := m.Time(k, Placement{Ranks: 16, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	two, err := m.Time(k, Placement{Ranks: 16, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if float64(one)/float64(two) < 1.5 {
		t.Fatalf("2 nodes not clearly faster: 1 node %v, 2 nodes %v", one, two)
	}
	// A compute-bound kernel should gain much less.
	ck := ComputeBoundKernel("brute-force", 1e12, 100)
	cone, _ := m.Time(ck, Placement{Ranks: 16, Nodes: 1})
	ctwo, _ := m.Time(ck, Placement{Ranks: 16, Nodes: 2})
	if float64(cone)/float64(ctwo) > 1.2 {
		t.Fatalf("compute-bound gained too much from 2 nodes: %v vs %v", cone, ctwo)
	}
}

func TestPlacementValidation(t *testing.T) {
	m := DefaultMachine()
	k := ComputeBoundKernel("x", 1e9, 10)
	if _, err := m.Time(k, Placement{Ranks: 0, Nodes: 1}); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := m.Time(k, Placement{Ranks: 1, Nodes: 2}); err == nil {
		t.Fatal("ranks < nodes accepted")
	}
	if _, err := m.Time(k, Placement{Ranks: 64, Nodes: 1}); err == nil {
		t.Fatal("oversubscribed node accepted")
	}
}

func TestSerialFractionLimitsSpeedup(t *testing.T) {
	m := DefaultMachine()
	k := ComputeBoundKernel("half-serial", 1e12, 100)
	k.SerialFraction = 0.5
	sp, err := m.Speedup(k, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp[19] > 2.0 {
		t.Fatalf("Amdahl violated: f=0.5 but speedup %v > 2", sp[19])
	}
}

func TestCommunicationCostAddsUp(t *testing.T) {
	m := DefaultMachine()
	k := ComputeBoundKernel("kmeans-iter", 1e10, 50)
	k.CommBytes = 1e9
	k.CommMsgs = 1000
	intra, err := m.Time(k, Placement{Ranks: 8, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := m.Time(k, Placement{Ranks: 8, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Network is 10× slower than memory: spanning nodes must cost more
	// for this communication-heavy kernel.
	if inter <= intra {
		t.Fatalf("cross-node communication free: intra %v, inter %v", intra, inter)
	}
}

func TestTerribleTwins(t *testing.T) {
	m := DefaultMachine()
	memJob := Job{Name: "mem", Kernel: MemoryBoundKernel("mem", 1e11, 0.1), Ranks: 10}
	cpuJob := Job{Name: "cpu", Kernel: ComputeBoundKernel("cpu", 1e12, 100), Ranks: 10}

	memTwins, _, err := m.CoSchedule(memJob, memJob)
	if err != nil {
		t.Fatal(err)
	}
	cpuTwins, _, err := m.CoSchedule(cpuJob, cpuJob)
	if err != nil {
		t.Fatal(err)
	}
	if memTwins < 1.5 {
		t.Fatalf("memory-bound twins slowdown %v, want ≥1.5", memTwins)
	}
	if cpuTwins > 1.05 {
		t.Fatalf("compute-bound twins slowdown %v, want ≈1", cpuTwins)
	}
	// Mixed pairing barely hurts the memory-bound job.
	mixed, _, err := m.CoSchedule(memJob, cpuJob)
	if err != nil {
		t.Fatal(err)
	}
	if mixed > memTwins {
		t.Fatalf("mixed pairing (%v) worse than twins (%v)", mixed, memTwins)
	}
}

func TestCoScheduleChoiceAnswersQuiz4(t *testing.T) {
	// Section IV-B: Program 1 scales poorly (memory-bound) on node 1;
	// Program 2 scales well (compute-bound) on node 2. The other user's
	// job is typical memory-hungry HPC code. Sharing node 2 (the
	// compute-bound program) minimizes degradation: answer "Program 2 /
	// Compute Node 2".
	m := DefaultMachine()
	programs := [2]Job{
		{Name: "program1", Kernel: MemoryBoundKernel("p1", 1e11, 0.1), Ranks: 20},
		{Name: "program2", Kernel: ComputeBoundKernel("p2", 1e12, 100), Ranks: 20},
	}
	theirs := Job{Name: "other-user", Kernel: MemoryBoundKernel("other", 1e11, 0.1), Ranks: 10}
	choice, slowdowns, err := m.CoScheduleChoice(programs, theirs)
	if err != nil {
		t.Fatal(err)
	}
	if choice != 1 {
		t.Fatalf("quiz answer = program %d (slowdowns %v), want program 2", choice+1, slowdowns)
	}
	if slowdowns[1] >= slowdowns[0] {
		t.Fatalf("slowdowns not ordered: %v", slowdowns)
	}
}

func TestCoScheduleRejectsOversubscription(t *testing.T) {
	m := DefaultMachine()
	j := Job{Kernel: ComputeBoundKernel("x", 1e9, 10), Ranks: 20}
	if _, _, err := m.CoSchedule(j, j); err == nil {
		t.Fatal("40 ranks on a 32-core node accepted")
	}
}

func TestArithmeticIntensity(t *testing.T) {
	k := Kernel{Flops: 100, Bytes: 50}
	if got := k.ArithmeticIntensity(); got != 2 {
		t.Fatalf("AI %v", got)
	}
	if got := (Kernel{Flops: 1}).ArithmeticIntensity(); got != 0 {
		t.Fatalf("zero-byte AI %v", got)
	}
}

func TestScalingCurve(t *testing.T) {
	m := DefaultMachine()
	k := ComputeBoundKernel("x", 1e11, 100)
	curve, err := m.ScalingCurve(k, []int{1, 2, 4, 8, 16, 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(curve[1]-1) > 1e-9 {
		t.Fatalf("S(1) = %v", curve[1])
	}
	if curve[20] < curve[16] {
		t.Fatalf("curve not monotone: %v", curve)
	}
}

func TestRooflineChart(t *testing.T) {
	m := DefaultMachine()
	kernels := []Kernel{
		MemoryBoundKernel("stream", 1e11, 0.1),
		ComputeBoundKernel("dgemm", 1e12, 100),
	}
	chart := m.RooflineChart(kernels, 60, 16)
	for _, want := range []string{"roofline", "ridge point", "stream", "dgemm", "memory-bound", "compute-bound", "*"} {
		if !strings.Contains(chart, want) {
			t.Fatalf("chart missing %q:\n%s", want, chart)
		}
	}
	// Letters for both kernels must appear.
	if !strings.Contains(chart, "a") || !strings.Contains(chart, "b") {
		t.Fatalf("kernel markers missing:\n%s", chart)
	}
}

func TestRooflineChartDegenerateSizes(t *testing.T) {
	m := DefaultMachine()
	chart := m.RooflineChart(nil, 1, 1) // clamped to sane minimums
	if !strings.Contains(chart, "ridge") {
		t.Fatal("tiny chart broke")
	}
}
