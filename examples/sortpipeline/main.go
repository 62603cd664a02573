// Sortpipeline: Module 3's full arc in one run — sort an exponential
// dataset with equal-width buckets (severe imbalance), then with
// histogram-derived equi-depth buckets (balanced), and report per-rank
// load and the phase timings.
//
//	go run ./examples/sortpipeline
package main

import (
	"fmt"
	"log"

	"repro/internal/data"
	"repro/internal/modules/distsort"
	"repro/internal/mpi"
)

func main() {
	const n = 400_000
	const np = 4
	keys := data.ExponentialKeys(n, 1.0, 99)
	fmt.Printf("sorting %d exponentially distributed keys on %d ranks\n\n", n, np)

	for _, splitter := range []distsort.Splitter{distsort.EqualWidth, distsort.Histogram, distsort.Sampled} {
		sizes := make([]int, np)
		var res distsort.Result
		err := mpi.Run(np, func(c *mpi.Comm) error {
			var local []float64
			for i := c.Rank(); i < len(keys); i += np {
				local = append(local, keys[i])
			}
			mine, r, err := distsort.Sort(c, local, splitter)
			if err != nil {
				return err
			}
			ok, err := distsort.VerifyDistributedSorted(c, mine)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("global order violated")
			}
			sizes[c.Rank()] = len(mine)
			if c.Rank() == 0 {
				res = r
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12v imbalance %.2f  exchange %-10v sort %-10v buckets %v\n",
			res.Splitter, res.Imbalance, res.ExchangeDur, res.SortDur, sizes)
	}

	fmt.Println("\nequal-width buckets overload rank 0 with the exponential head;")
	fmt.Println("histogram and sampled splitters restore ≈1.0 balance.")

	seq, dur := distsort.SequentialSort(keys)
	fmt.Printf("\nsequential baseline: %v (no exchange phase needed)\n", dur)
	_ = seq
}
