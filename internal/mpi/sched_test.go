package mpi

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The schedules as pure functions: no world, no goroutines. Every rank's
// schedule for one collective runs against an in-memory FIFO per ordered
// pair of ranks, on symbolic data — a segment's value is the expression
// that produced it, so "(2+(3+0))" records both which ranks were folded
// and in what association order.

// symMsg is one symbolic message: the segment it holds (-1 for a barrier
// token), that segment's expression, and for the barrier the set of ranks
// the sender knew had arrived.
type symMsg struct {
	seg  int32
	val  string
	know uint
}

type symRank struct {
	s       sched
	buf     []string // one expression per segment
	decoded []int    // times each segment was overwritten by an arrival
	know    uint     // barrier: ranks known to have entered
	wire    *symMsg  // the arrival in hand, as hopRun keeps it
	h       hop
	waiting bool
	done    bool
}

// runSymbolic executes all p schedules of one collective to completion
// and checks the transport-level properties: every receive finds, at the
// head of its peer's queue, a message holding the segment the hop
// expects; no rank is left waiting; no message is left over.
func runSymbolic(t *testing.T, kind schedKind, p, root int, init func(r, seg int) string) []*symRank {
	t.Helper()
	ranks := make([]*symRank, p)
	for r := range ranks {
		s := newSched(kind, p, r, root)
		x := &symRank{s: s, buf: make([]string, s.segs()), decoded: make([]int, s.segs()), know: 1 << r}
		for i := range x.buf {
			x.buf[i] = init(r, i)
		}
		ranks[r] = x
	}
	queue := make(map[[2]int32][]symMsg)
	for progress := true; progress; {
		progress = false
		for i, x := range ranks {
			r := int32(i)
			if x.done {
				continue
			}
			if x.waiting {
				q := queue[[2]int32{x.h.from, r}]
				if len(q) == 0 {
					continue
				}
				m := q[0]
				queue[[2]int32{x.h.from, r}] = q[1:]
				want := x.h.recvSeg
				if x.h.recv == recvDiscard {
					want = -1
				}
				if m.seg != want {
					t.Fatalf("%v p=%d root=%d: rank %d expected segment %d from rank %d, head of queue holds %d",
						kind, p, root, r, want, x.h.from, m.seg)
				}
				switch x.h.recv {
				case recvDiscard:
					x.know |= m.know
				case recvFold:
					x.buf[m.seg] = "(" + x.buf[m.seg] + "+" + m.val + ")"
				case recvDecode:
					x.buf[m.seg] = m.val
					x.decoded[m.seg]++
				}
				x.wire = &m
				x.waiting = false
				progress = true
				continue
			}
			h, ok := x.s.next()
			progress = true
			if !ok {
				x.done = true
				continue
			}
			x.h = h
			if h.send != sendNone {
				var m symMsg
				switch h.send {
				case sendToken:
					m = symMsg{seg: -1, know: x.know}
				case sendSeg:
					m = symMsg{seg: h.sendSeg, val: x.buf[h.sendSeg]}
				case sendWire:
					if x.wire == nil || x.wire.seg != h.sendSeg {
						t.Fatalf("%v p=%d root=%d: rank %d forwards segment %d but holds %+v", kind, p, root, r, h.sendSeg, x.wire)
					}
					m = *x.wire
				}
				queue[[2]int32{r, h.to}] = append(queue[[2]int32{r, h.to}], m)
			}
			x.waiting = h.recv != recvNone
		}
	}
	for r, x := range ranks {
		if !x.done {
			t.Fatalf("%v p=%d root=%d: rank %d stuck waiting on rank %d", kind, p, root, r, x.h.from)
		}
	}
	for pair, q := range queue {
		if len(q) != 0 {
			t.Fatalf("%v p=%d root=%d: %d messages %d→%d never received", kind, p, root, len(q), pair[0], pair[1])
		}
	}
	return ranks
}

// ranksIn lists the rank numbers appearing in a fold expression, sorted.
func ranksIn(expr string) []int {
	var out []int
	for _, f := range strings.FieldsFunc(expr, func(c rune) bool { return c < '0' || c > '9' }) {
		n, _ := strconv.Atoi(f)
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

func everyRankOnce(p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = i
	}
	return out
}

// binomialFold is the fold order of the binomial reduction, stated
// recursively: the node at root-relative position rel folds its children
// rel|1, rel|2, rel|4, … (those below its own level, bound) in that
// order, each child contributing its own subtree's fold.
func binomialFold(p, root, rel, bound int) string {
	acc := strconv.Itoa((rel + root) % p)
	for m := 1; m < bound && m < p; m <<= 1 {
		if rel|m < p {
			acc = "(" + acc + "+" + binomialFold(p, root, rel|m, m) + ")"
		}
	}
	return acc
}

// ringFold is the fold order of the shifted ring for segment j: it starts
// at rank j+1 and each rank it passes through folds it into its own copy,
// ending at rank j.
func ringFold(p, j int) string {
	acc := strconv.Itoa((j + 1) % p)
	for k := 2; k <= p; k++ {
		acc = "(" + strconv.Itoa((j+k)%p) + "+" + acc + ")"
	}
	return acc
}

func byRank(r, _ int) string { return strconv.Itoa(r) }

func TestSchedulesSymbolic(t *testing.T) {
	for p := 1; p <= 9; p++ {
		ranks := runSymbolic(t, schedBarrier, p, noRoot, byRank)
		for r, x := range ranks {
			if x.know != 1<<p-1 {
				t.Errorf("barrier p=%d: rank %d left knowing only ranks %b", p, r, x.know)
			}
		}

		for root := 0; root < p; root++ {
			ranks = runSymbolic(t, schedBcast, p, root, func(r, _ int) string {
				if r == root {
					return "payload"
				}
				return ""
			})
			for r, x := range ranks {
				want := 1
				if r == root {
					want = 0
				}
				if x.buf[0] != "payload" || x.decoded[0] != want {
					t.Errorf("bcast p=%d root=%d: rank %d holds %q after %d arrivals", p, root, r, x.buf[0], x.decoded[0])
				}
			}

			ranks = runSymbolic(t, schedReduce, p, root, byRank)
			got := ranks[root].buf[0]
			if want := binomialFold(p, root, 0, p); got != want {
				t.Errorf("reduce p=%d root=%d: fold order %s, want %s", p, root, got, want)
			}
			if !slices.Equal(ranksIn(got), everyRankOnce(p)) {
				t.Errorf("reduce p=%d root=%d: result %s does not fold every rank exactly once", p, root, got)
			}
		}

		ranks = runSymbolic(t, schedAllgather, p, noRoot, func(r, seg int) string {
			if seg == r {
				return strconv.Itoa(r)
			}
			return ""
		})
		for r, x := range ranks {
			for seg, v := range x.buf {
				want := 1
				if seg == r {
					want = 0
				}
				if v != strconv.Itoa(seg) || x.decoded[seg] != want {
					t.Errorf("allgather p=%d: rank %d block %d holds %q after %d arrivals", p, r, seg, v, x.decoded[seg])
				}
			}
		}

		ranks = runSymbolic(t, schedReduceScatter, p, noRoot, byRank)
		for r, x := range ranks {
			if x.buf[r] != ringFold(p, r) {
				t.Errorf("reduce-scatter p=%d: rank %d shard %s, want %s", p, r, x.buf[r], ringFold(p, r))
			}
			if !slices.Equal(ranksIn(x.buf[r]), everyRankOnce(p)) {
				t.Errorf("reduce-scatter p=%d: shard %s does not fold every rank exactly once", p, x.buf[r])
			}
		}

		ranks = runSymbolic(t, schedAllreduceRing, p, noRoot, byRank)
		for r, x := range ranks {
			for seg, v := range x.buf {
				if v != ringFold(p, seg) {
					t.Errorf("ring allreduce p=%d: rank %d segment %d is %s, want %s", p, r, seg, v, ringFold(p, seg))
				}
			}
		}
	}
}
