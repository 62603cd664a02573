// Asteroids: Module 4's motivating scenario. A synthetic asteroid catalog
// is queried for "all asteroids with a light curve amplitude between
// 0.2–1.0 and a rotation period between 30–100 hours", comparing the
// brute-force scan against the supplied R-tree, then running the module's
// strong-scaling and node-placement analyses.
//
//	go run ./examples/asteroids
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/data"
	"repro/internal/modules/rangequery"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const nAsteroids = 60_000
	catalog := data.AsteroidCatalog(nAsteroids, 2026)
	pts := data.AsteroidPoints(catalog)
	query := rangequery.AsteroidQuery()
	fmt.Fprintf(w, "catalog: %d asteroids; query: amplitude %.1f–%.1f mag, period %.0f–%.0f h\n\n",
		nAsteroids, query.Min[0], query.Max[0], query.Min[1], query.Max[1])

	// Mix the headline query with a broader survey workload.
	queries := append([]data.Rect{query}, data.UniformRects(1000, 2, 0, 3, 0.4, 7)...)
	for i := range queries[1:] {
		// Periods are log-spread; widen the period axis of the survey
		// queries so they hit something.
		queries[i+1].Min[1] *= 300
		queries[i+1].Max[1] = queries[i+1].Min[1] + 50
	}

	for _, method := range []rangequery.Method{rangequery.BruteForce, rangequery.RTree, rangequery.RTreeSTR} {
		err := mpi.Run(4, func(c *mpi.Comm) error {
			res, err := rangequery.Distributed(c, pts, queries, method)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Fprintf(w, "%-12v %8d hits  build %-10v search %-10v pruned %.1f%%\n",
					res.Method, res.TotalHits, res.BuildDur, res.SearchDur, res.WorkPruned*100)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	// The module's activity-3 lesson, on the modeled cluster: the
	// memory-bound R-tree search gains from spreading over two nodes.
	fmt.Fprintln(w, "\nresource-allocation study (roofline model, 16 ranks):")
	m := perfmodel.DefaultMachine()
	brute, indexed := rangequery.Kernels(nAsteroids, len(queries), 2, 0.95)
	for _, k := range []perfmodel.Kernel{brute, indexed} {
		one, two, err := rangequery.NodePlacementStudy(m, k, 16)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-14s 1 node: %-12v 2 nodes: %-12v gain %.2fx\n",
			k.Name, one, two, float64(one)/float64(two))
	}
	fmt.Fprintln(w, "\nthe indexed search is memory-bound: doubling aggregate memory")
	fmt.Fprintln(w, "bandwidth (2 nodes) speeds it up; the compute-bound scan barely moves.")
	return nil
}
