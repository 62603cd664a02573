// Benchmark harness: one benchmark per table and figure of the paper plus
// one per module claim and per ablation called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Shape expectations (who wins, by what factor) are asserted by the unit
// tests; the benchmarks measure the real costs behind those claims and
// attach domain metrics via ReportMetric (miss rates, imbalance, wire
// bytes).
package repro_test

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"math/rand"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/curriculum"
	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/metrics"
	"repro/internal/modules/comm"
	"repro/internal/modules/ddp"
	"repro/internal/modules/distmatrix"
	"repro/internal/modules/distsort"
	"repro/internal/modules/hashjoin"
	"repro/internal/modules/kmeans"
	"repro/internal/modules/latencyhiding"
	"repro/internal/modules/rangequery"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/quiz"
	"repro/internal/rtree"
	"repro/internal/warmup"
)

// ---- Tables ----

// BenchmarkTable1_Curriculum regenerates and validates the Table I
// learning-outcome matrix.
func BenchmarkTable1_Curriculum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := curriculum.Validate(); err != nil {
			b.Fatal(err)
		}
		if curriculum.RenderTableI() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2_PrimitiveUsage runs every prescribed module activity
// and verifies the invoked MPI primitives against Table II.
func BenchmarkTable2_PrimitiveUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		checks, err := core.VerifyTableII()
		if err != nil {
			b.Fatal(err)
		}
		for _, mc := range checks {
			if !mc.OK() {
				b.Fatalf("module %d: %+v", mc.Module, mc)
			}
		}
	}
}

// BenchmarkTable3_Demographics regenerates the cohort table.
func BenchmarkTable3_Demographics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if curriculum.CohortSize() != 10 || curriculum.RenderTableIII() == "" {
			b.Fatal("table III broken")
		}
	}
}

// BenchmarkTable4_QuizStats recomputes the Table IV statistics from the
// reconstructed Figure 2 dataset with the paper's formulas.
func BenchmarkTable4_QuizStats(b *testing.B) {
	var st quiz.TableIV
	for i := 0; i < b.N; i++ {
		st = quiz.Reconstructed.Stats()
		if st.Pairs != 42 {
			b.Fatalf("pairs %d", st.Pairs)
		}
	}
	b.ReportMetric(st.MeanRelIncrease*100, "relincr%")
	b.ReportMetric(st.MeanRelDecrease*100, "reldecr%")
}

// ---- Figures ----

// BenchmarkFigure1_SpeedupCurves evaluates the modeled speedup curves of
// the memory-bound and compute-bound quiz-question programs.
func BenchmarkFigure1_SpeedupCurves(b *testing.B) {
	m := perfmodel.DefaultMachine()
	ranks := []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	p1 := perfmodel.MemoryBoundKernel("program1", 1e11, 0.1)
	p2 := perfmodel.ComputeBoundKernel("program2", 1e12, 100)
	var s1, s2 map[int]float64
	for i := 0; i < b.N; i++ {
		var err error
		s1, err = m.ScalingCurve(p1, ranks, 1)
		if err != nil {
			b.Fatal(err)
		}
		s2, err = m.ScalingCurve(p2, ranks, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s1[20], "memS(20)")
	b.ReportMetric(s2[20], "cpuS(20)")
}

// BenchmarkFigure2_Rendering regenerates the per-student score figure.
func BenchmarkFigure2_Rendering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if quiz.RenderFigure2(quiz.Reconstructed) == "" {
			b.Fatal("empty figure")
		}
	}
}

// ---- Module 1: MPI communication ----

func BenchmarkModule1_PingPong(b *testing.B) {
	for _, size := range []int{8, 1024, 65536} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			err := mpi.Run(2, func(c *mpi.Comm) error {
				res, err := comm.PingPong(c, b.N, size)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					b.ReportMetric(float64(res.AvgRTT.Nanoseconds()), "rtt-ns")
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkModule1_RandomComm(b *testing.B) {
	for _, variant := range []string{"known-sources", "any-source"} {
		b.Run(variant, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(4, func(c *mpi.Comm) error {
					if variant == "known-sources" {
						_, err := comm.RandomKnownSources(c, 50, 7)
						return err
					}
					_, err := comm.RandomAnySource(c, 50, 7)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Module 2: distance matrix ----

// BenchmarkModule2_Kernels compares the row-wise and tiled kernels on the
// module's 90-dimensional data: the locality claim, measured for real.
func BenchmarkModule2_Kernels(b *testing.B) {
	pts := data.UniformPoints(1500, distmatrix.DefaultDim, 0, 1, 42)
	b.Run("row-wise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			distmatrix.RowWise(pts, 0, 128)
		}
	})
	for _, tile := range []int{8, 32, 64, 256} {
		b.Run(fmt.Sprintf("tiled=%d", tile), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				distmatrix.Tiled(pts, 0, 128, tile)
			}
		})
	}
}

// BenchmarkModule2_CacheSim replays both access streams through the cache
// simulator (the module's perf-tool substitute) and reports miss rates.
func BenchmarkModule2_CacheSim(b *testing.B) {
	cache, err := perfmodel.NewCache(256*1024, 64, 8)
	if err != nil {
		b.Fatal(err)
	}
	var rep distmatrix.CacheReport
	for i := 0; i < b.N; i++ {
		rep, err = distmatrix.SimulateCache(cache, 2000, distmatrix.DefaultDim, 32, distmatrix.DefaultTile)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.RowWiseMissRate*100, "rowmiss%")
	b.ReportMetric(rep.TiledMissRate*100, "tilemiss%")
}

// BenchmarkModule2_Distributed runs the full scatter/compute/reduce
// pipeline at several rank counts.
func BenchmarkModule2_Distributed(b *testing.B) {
	pts := data.UniformPoints(512, distmatrix.DefaultDim, 0, 1, 42)
	for _, np := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(np, func(c *mpi.Comm) error {
					_, err := distmatrix.Distributed(c, pts, distmatrix.DefaultTile)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Module 3: distribution sort ----

// BenchmarkModule3_Sort covers the module's three activities plus the
// sampled-splitter ablation, reporting the load imbalance of each.
func BenchmarkModule3_Sort(b *testing.B) {
	const n = 200_000
	cases := []struct {
		name     string
		keys     []float64
		splitter distsort.Splitter
	}{
		{"uniform/equal-width", data.UniformKeys(n, 0, 1000, 11), distsort.EqualWidth},
		{"exponential/equal-width", data.ExponentialKeys(n, 1, 12), distsort.EqualWidth},
		{"exponential/histogram", data.ExponentialKeys(n, 1, 12), distsort.Histogram},
		{"exponential/sampled", data.ExponentialKeys(n, 1, 12), distsort.Sampled},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var imb float64
			for i := 0; i < b.N; i++ {
				err := mpi.Run(4, func(c *mpi.Comm) error {
					var local []float64
					for j := c.Rank(); j < len(tc.keys); j += 4 {
						local = append(local, tc.keys[j])
					}
					_, res, err := distsort.Sort(c, local, tc.splitter)
					if c.Rank() == 0 {
						imb = res.Imbalance
					}
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(imb, "imbalance")
		})
	}
	b.Run("sequential-baseline", func(b *testing.B) {
		keys := data.UniformKeys(n, 0, 1000, 11)
		for i := 0; i < b.N; i++ {
			distsort.SequentialSort(keys)
		}
	})
}

// ---- Module 4: range queries ----

// BenchmarkModule4_Query compares brute force with the R-tree: the
// efficiency-vs-scalability claim's efficiency half.
func BenchmarkModule4_Query(b *testing.B) {
	pts := data.UniformPoints(50_000, 2, 0, 100, 5)
	queries := data.UniformRects(500, 2, 0, 100, 4, 6)
	for _, m := range []rangequery.Method{rangequery.BruteForce, rangequery.RTree} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := rangequery.Sequential(pts, queries, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModule4_IndexBuild isolates index-construction cost.
func BenchmarkModule4_IndexBuild(b *testing.B) {
	pts := data.UniformPoints(50_000, 2, 0, 100, 5)
	b.Run("r-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rtree.Bulk(pts, rtree.DefaultMaxEntries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkModule4_PlacementModel evaluates the activity-3 study: the
// indexed search on 1 vs 2 modeled nodes.
func BenchmarkModule4_PlacementModel(b *testing.B) {
	m := perfmodel.DefaultMachine()
	_, indexed := rangequery.Kernels(100_000, 10_000, 2, 0.95)
	var one, two time.Duration
	for i := 0; i < b.N; i++ {
		var err error
		one, two, err = rangequery.NodePlacementStudy(m, indexed, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(one)/float64(two), "2node-gain")
}

// ---- Module 5: k-means ----

// BenchmarkModule5_KMeans sweeps k for both communication options,
// reporting wire bytes per iteration — the communication-volume claim.
func BenchmarkModule5_KMeans(b *testing.B) {
	pts, _ := data.GaussianMixture(8192, 2, 8, 2.0, 100, 6)
	for _, opt := range []kmeans.CommOption{kmeans.WeightedMeans, kmeans.ExplicitAssignments} {
		for _, k := range []int{2, 16, 64} {
			b.Run(fmt.Sprintf("%v/k=%d", opt, k), func(b *testing.B) {
				var wirePerIter float64
				for i := 0; i < b.N; i++ {
					err := mpi.Run(4, func(c *mpi.Comm) error {
						res, _, _, err := kmeans.Distributed(c, pts, kmeans.Config{
							K: k, MaxIter: 8, Seed: 1, Tol: -1, Option: opt,
						})
						if err != nil {
							return err
						}
						if c.Rank() == 0 {
							wirePerIter = float64(c.Stats().TotalWire) / float64(res.Iterations)
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(wirePerIter, "wireB/iter")
			})
		}
	}
}

// ---- Ablations (DESIGN.md) ----

// BenchmarkAblation_AllreduceAlgorithms compares the binomial-tree and
// ring allreduce algorithms across payload sizes.
func BenchmarkAblation_AllreduceAlgorithms(b *testing.B) {
	for _, n := range []int{64, 4096, 262144} {
		buf := make([]float64, n)
		b.Run(fmt.Sprintf("tree/n=%d", n), func(b *testing.B) {
			err := mpi.Run(4, func(c *mpi.Comm) error {
				for i := 0; i < b.N; i++ {
					if _, err := mpi.Allreduce(c, buf, mpi.OpSum); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
		b.Run(fmt.Sprintf("ring/n=%d", n), func(b *testing.B) {
			err := mpi.Run(4, func(c *mpi.Comm) error {
				for i := 0; i < b.N; i++ {
					if _, err := mpi.AllreduceRing(c, buf, mpi.OpSum); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblation_AllreduceInto compares the allocating Allreduce with
// the in-place AllreduceInto on the same reused buffer — the zero-copy
// data path's headline saving for iterative algorithms.
func BenchmarkAblation_AllreduceInto(b *testing.B) {
	for _, n := range []int{4096, 262144} {
		b.Run(fmt.Sprintf("alloc/n=%d", n), func(b *testing.B) {
			err := mpi.Run(4, func(c *mpi.Comm) error {
				buf := make([]float64, n)
				for i := 0; i < b.N; i++ {
					if _, err := mpi.Allreduce(c, buf, mpi.OpSum); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
		b.Run(fmt.Sprintf("in-place/n=%d", n), func(b *testing.B) {
			err := mpi.Run(4, func(c *mpi.Comm) error {
				buf := make([]float64, n)
				for i := 0; i < b.N; i++ {
					if err := mpi.AllreduceInto(c, buf, mpi.OpSum); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblation_EagerVsRendezvous measures the protocol cutover cost.
func BenchmarkAblation_EagerVsRendezvous(b *testing.B) {
	payload := make([]byte, 16*1024)
	run := func(b *testing.B, opts ...mpi.Option) {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			for i := 0; i < b.N; i++ {
				if c.Rank() == 0 {
					if err := mpi.Send(c, payload, 1, 0); err != nil {
						return err
					}
					buf, _, err := c.RecvBytes(1, 0)
					if err != nil {
						return err
					}
					mpi.Release(buf)
				} else {
					buf, _, err := c.RecvBytes(0, 0)
					if err != nil {
						return err
					}
					err = mpi.Send(c, buf, 0, 0)
					mpi.Release(buf)
					if err != nil {
						return err
					}
				}
			}
			return nil
		}, opts...)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("eager", func(b *testing.B) { run(b, mpi.WithEagerThreshold(1<<20)) })
	b.Run("rendezvous", func(b *testing.B) { run(b, mpi.WithEagerThreshold(1)) })
}

// BenchmarkAblation_Transports compares the channel and TCP transports on
// the same ping-pong.
func BenchmarkAblation_Transports(b *testing.B) {
	body := func(b *testing.B) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			res, err := comm.PingPong(c, b.N, 4096)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				b.ReportMetric(float64(res.AvgRTT.Nanoseconds()), "rtt-ns")
			}
			return nil
		}
	}
	b.Run("channel", func(b *testing.B) {
		if err := mpi.Run(2, body(b)); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("tcp", func(b *testing.B) {
		if err := mpi.RunTCP(2, body(b)); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkAblation_MapReduceCombiner quantifies the combiner's shuffle
// saving.
func BenchmarkAblation_MapReduceCombiner(b *testing.B) {
	var splits []string
	for i := 0; i < 20; i++ {
		splits = append(splits, "alpha beta gamma delta alpha beta gamma alpha beta alpha")
	}
	for _, useCombiner := range []bool{true, false} {
		name := "with-combiner"
		if !useCombiner {
			name = "no-combiner"
		}
		b.Run(name, func(b *testing.B) {
			job := mapreduce.WordCount()
			if !useCombiner {
				job.Combiner = nil
			}
			perRank := make([]int, 4)
			for i := 0; i < b.N; i++ {
				err := mpi.Run(4, func(c *mpi.Comm) error {
					_, st, err := mapreduce.Run(c, job, splits)
					perRank[c.Rank()] = st.ShuffledKVs // distinct indices
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			total := 0
			for _, n := range perRank {
				total += n
			}
			b.ReportMetric(float64(total), "shuffledKV")
		})
	}
}

// BenchmarkAblation_SchedulerBackfill measures scheduler throughput on a
// mixed job stream.
func BenchmarkAblation_SchedulerBackfill(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(8, perfmodel.DefaultMachine())
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 100; j++ {
			tasks := 4 + (j%5)*12
			_, err := c.Submit(cluster.JobSpec{
				Name:      fmt.Sprintf("job%d", j),
				Tasks:     tasks,
				BaseTime:  time.Duration(10+j%30) * time.Second,
				TimeLimit: time.Duration(60) * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		c.Drain()
	}
}

// BenchmarkAblation_SpeedupAnalysis exercises the metrics pipeline used
// by every scaling report.
func BenchmarkAblation_SpeedupAnalysis(b *testing.B) {
	s := metrics.Series{Name: "x"}
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		s.Points = append(s.Points, metrics.Point{P: p, Time: time.Second / time.Duration(p)})
	}
	for i := 0; i < b.N; i++ {
		if _, err := s.Speedup(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.KarpFlatt(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Extension modules (the paper's future work) ----

// BenchmarkExtension_Stencil compares blocking and overlapped halo
// exchange in the latency-hiding module.
func BenchmarkExtension_Stencil(b *testing.B) {
	for _, v := range []latencyhiding.Variant{latencyhiding.Blocking, latencyhiding.Overlapped} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(4, func(c *mpi.Comm) error {
					_, _, err := latencyhiding.Run(c, 4096, 100, 0.25, v)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtension_HashJoin measures the distributed join phases.
func BenchmarkExtension_HashJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var build, probe []hashjoin.Tuple
	for i := 0; i < 100_000; i++ {
		build = append(build, hashjoin.Tuple{Key: rng.Int63n(20_000), Payload: int64(i)})
		probe = append(probe, hashjoin.Tuple{Key: rng.Int63n(20_000), Payload: int64(i)})
	}
	b.Run("distributed-np4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			err := mpi.Run(4, func(c *mpi.Comm) error {
				var lb, lp []hashjoin.Tuple
				for j := c.Rank(); j < len(build); j += 4 {
					lb = append(lb, build[j])
					lp = append(lp, probe[j])
				}
				_, _, err := hashjoin.Join(c, lb, lp)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hashjoin.Sequential(build, probe)
		}
	})
}

// ---- One-sided (RMA) benchmarks: BENCH_rma.json ----

// BenchmarkRMA_PutLatency measures completed-Put latency (Put + Flush)
// across the eager/rendezvous boundary. The target rank parks in Free's
// barrier: the progress engine services every request, so this is the
// pure one-sided path with no target-side software in the loop.
func BenchmarkRMA_PutLatency(b *testing.B) {
	for _, size := range []int{8, 512, 4096, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			buf := make([]byte, size)
			err := mpi.Run(2, func(c *mpi.Comm) error {
				win, err := c.WinCreate(size)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := win.Put(1, 0, buf); err != nil {
							return err
						}
						if err := win.Flush(); err != nil {
							return err
						}
					}
					b.StopTimer()
				}
				return win.Free()
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
		})
	}
}

// BenchmarkRMA_BatchedPut measures the amortized per-Put cost when ops
// coalesce into per-target batches: b.N Puts with one Flush every K,
// so ns/op is the marginal price of a queued Put plus its share of the
// batch round trip. Compare against BenchmarkRMA_PutLatency/8B, where
// every Put pays a full round trip.
func BenchmarkRMA_BatchedPut(b *testing.B) {
	for _, batch := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("every%d", batch), func(b *testing.B) {
			buf := make([]byte, 8)
			err := mpi.Run(2, func(c *mpi.Comm) error {
				win, err := c.WinCreate(8 * batch)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := win.Put(1, 8*(i%batch), buf); err != nil {
							return err
						}
						if i%batch == batch-1 {
							if err := win.Flush(); err != nil {
								return err
							}
						}
					}
					if err := win.Flush(); err != nil {
						return err
					}
					b.StopTimer()
				}
				return win.Free()
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(8)
		})
	}
}

// BenchmarkRMA_GetLatency measures the fetch round trip with a reused
// destination buffer (GetInto), the one-sided analogue of ping-pong.
func BenchmarkRMA_GetLatency(b *testing.B) {
	for _, size := range []int{8, 512, 4096, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			err := mpi.Run(2, func(c *mpi.Comm) error {
				win, err := c.WinCreate(size)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					dst := make([]byte, size)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := win.GetInto(dst, 1, 0); err != nil {
							return err
						}
					}
					b.StopTimer()
				}
				return win.Free()
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
		})
	}
}

// BenchmarkRMA_EpochSync measures the cost of a collective fence
// closing one 8-byte Put to the neighbour on 4 ranks.
func BenchmarkRMA_EpochSync(b *testing.B) {
	const np = 4
	b.Run("fence-np4", func(b *testing.B) {
		err := mpi.Run(np, func(c *mpi.Comm) error {
			win, err := c.WinCreate(8 * np)
			if err != nil {
				return err
			}
			buf := make([]byte, 8)
			target := (c.Rank() + 1) % np
			if c.Rank() == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if err := win.Put(target, 8*c.Rank(), buf); err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				b.StopTimer()
			}
			return win.Free()
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkRMA_HashJoinBuild compares the two build phases of the
// extension join on identical relations: the two-sided exchange
// build against the one-sided CAS-claim/Put deposit into remote windows
// (EXPERIMENTS.md records the study).
func BenchmarkRMA_HashJoinBuild(b *testing.B) {
	const np, perRank = 4, 5_000
	locals := make([][2][]hashjoin.Tuple, np)
	for r := 0; r < np; r++ {
		rng := rand.New(rand.NewSource(int64(r) + 77))
		for i := 0; i < perRank; i++ {
			locals[r][0] = append(locals[r][0], hashjoin.Tuple{Key: rng.Int63n(5000), Payload: rng.Int63()})
			locals[r][1] = append(locals[r][1], hashjoin.Tuple{Key: rng.Int63n(5000), Payload: rng.Int63()})
		}
	}
	b.Run("two-sided-np4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			err := mpi.Run(np, func(c *mpi.Comm) error {
				_, _, err := hashjoin.Join(c, locals[c.Rank()][0], locals[c.Rank()][1])
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rma-np4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			err := mpi.Run(np, func(c *mpi.Comm) error {
				_, _, err := hashjoin.JoinRMA(c, locals[c.Rank()][0], locals[c.Rank()][1])
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Nonblocking collectives + DDP overlap: BENCH_ddp.json ----

// ddpLinkLatency is the emulated one-way interconnect latency of the
// DDP overlap study: commodity-cluster scale, and coarse enough for the
// emulator's timer sleeps to honor accurately. Loopback between
// in-process ranks is orders of magnitude faster than any real fabric —
// the *-loopback baselines below measure exactly that — so the study
// runs on the latency-emulated link, where a blocking flush schedule
// pays every ring hop's transit on the critical path and the overlapped
// schedule hides it behind backward compute.
const ddpLinkLatency = time.Millisecond

// ddpBenchConfig is the shape the overlap study measures: deep enough to
// pack into many gradient buckets (each flush a point where a ring can
// start riding behind the remaining backward) with a small per-rank
// batch, so communication is a real fraction of the step.
func ddpBenchConfig(overlap, zero1 bool) ddp.Config {
	return ddp.Config{
		Layers:       []int{64, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 128, 16},
		BatchPerRank: 4,
		BucketBytes:  128 << 10,
		Overlap:      overlap,
		Zero1:        zero1,
		Seed:         3,
	}
}

func benchDDPStep(b *testing.B, overlap, zero1 bool, opts ...mpi.Option) {
	cfg := ddpBenchConfig(overlap, zero1)
	var params, buckets int
	err := mpi.Run(4, func(c *mpi.Comm) error {
		tr, err := ddp.NewTrainer(c, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			params, buckets = tr.Params(), tr.Buckets()
		}
		for i := 0; i < 3; i++ {
			if _, err := tr.Step(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if _, err := tr.Step(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			b.StopTimer()
		}
		return nil
	}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(params), "params")
	b.ReportMetric(float64(buckets), "buckets")
}

// BenchmarkDDP_Step times one data-parallel optimizer step at np=4 on
// the emulated 1 ms interconnect: the sequential baseline blocks at
// every bucket flush, the overlapped schedule initiates each bucket's
// collective and keeps computing backward — identical numerics
// (asserted bit-exact by the ddp tests), different wall time. The
// *-loopback pair repeats the comparison on the raw in-process
// transport, where transit is near-zero and there is nothing to hide.
// EXPERIMENTS.md records the study.
func BenchmarkDDP_Step(b *testing.B) {
	lat := mpi.WithLinkLatency(ddpLinkLatency)
	b.Run("overlap", func(b *testing.B) { benchDDPStep(b, true, false, lat) })
	b.Run("sequential", func(b *testing.B) { benchDDPStep(b, false, false, lat) })
	b.Run("zero1-overlap", func(b *testing.B) { benchDDPStep(b, true, true, lat) })
	b.Run("overlap-loopback", func(b *testing.B) { benchDDPStep(b, true, false) })
	b.Run("sequential-loopback", func(b *testing.B) { benchDDPStep(b, false, false) })
}

// BenchmarkIallreduce measures the initiate+Wait latency of the
// nonblocking ring allreduce at np=4 across the payload range the DDP
// buckets use (the blocking Allreduce baselines live in
// BenchmarkAblation_AllreduceAlgorithms).
func BenchmarkIallreduce(b *testing.B) {
	for _, n := range []int{1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", n*8/1024), func(b *testing.B) {
			err := mpi.Run(4, func(c *mpi.Comm) error {
				buf := make([]float64, n) // zeros: sums stay finite at any b.N
				for i := 0; i < 3; i++ {
					req, err := mpi.Iallreduce(c, buf, mpi.OpSum)
					if err != nil {
						return err
					}
					if err := req.Wait(); err != nil {
						return err
					}
				}
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					req, err := mpi.Iallreduce(c, buf, mpi.OpSum)
					if err != nil {
						return err
					}
					if err := req.Wait(); err != nil {
						return err
					}
				}
				if c.Rank() == 0 {
					b.StopTimer()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n * 8))
		})
	}
}

// BenchmarkExtension_WarmupGrading measures the auto-grader over the full
// exercise set.
func BenchmarkExtension_WarmupGrading(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ex := range warmup.Exercises() {
			if err := warmup.GradeReference(ex, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblation_RTreeConstruction compares Guttman insertion against
// STR bulk packing — the outcome-15 "improve the algorithm" exercise.
func BenchmarkAblation_RTreeConstruction(b *testing.B) {
	pts := data.UniformPoints(50_000, 2, 0, 100, 5)
	b.Run("insertion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rtree.Bulk(pts, rtree.DefaultMaxEntries); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("str-packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rtree.BulkSTR(pts, rtree.DefaultMaxEntries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_KMeansInit compares the module's naive strided
// seeding against k-means++, reporting converged inertia.
func BenchmarkAblation_KMeansInit(b *testing.B) {
	pts, _ := data.GaussianMixture(4000, 2, 6, 0.4, 200, 11)
	cfg := kmeans.Config{K: 6, MaxIter: 100, Seed: 1}
	b.Run("naive", func(b *testing.B) {
		var inertia float64
		for i := 0; i < b.N; i++ {
			res, _, err := kmeans.Sequential(pts, cfg)
			if err != nil {
				b.Fatal(err)
			}
			inertia = res.Inertia
		}
		b.ReportMetric(inertia, "inertia")
	})
	b.Run("kmeans++", func(b *testing.B) {
		var inertia float64
		for i := 0; i < b.N; i++ {
			init := kmeans.PlusPlusCentroids(pts, cfg.K, cfg.Seed)
			res, _, err := kmeans.SequentialWithCentroids(pts, init, cfg)
			if err != nil {
				b.Fatal(err)
			}
			inertia = res.Inertia
		}
		b.ReportMetric(inertia, "inertia")
	})
}

// countingHook is the cheapest possible mpi.Hook: one atomic add per
// event. It isolates the runtime's interposition cost from any real
// collector's work.
type countingHook struct{ n atomic.Int64 }

func (h *countingHook) Event(mpi.Event) { h.n.Add(1) }

// BenchmarkAblation_ProfilingOverhead runs the same distributed k-means
// uninstrumented and under a minimal hook. The "off" case exercises the
// nil-hook fast path (a single nil check per primitive), so off vs the
// historical un-hooked runtime should be indistinguishable, and "on"
// shows the full per-event interposition cost.
func BenchmarkAblation_ProfilingOverhead(b *testing.B) {
	pts, _ := data.GaussianMixture(4096, 2, 4, 1.0, 100, 3)
	cfg := kmeans.Config{K: 4, MaxIter: 8, Seed: 1, Tol: -1, Option: kmeans.WeightedMeans}
	run := func(b *testing.B, opts ...mpi.Option) {
		for i := 0; i < b.N; i++ {
			err := mpi.Run(4, func(c *mpi.Comm) error {
				_, _, _, err := kmeans.Distributed(c, pts, cfg)
				return err
			}, opts...)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("on", func(b *testing.B) {
		h := &countingHook{}
		run(b, mpi.WithHook(h))
		b.ReportMetric(float64(h.n.Load())/float64(b.N), "events/op")
	})
}

// BenchmarkAblation_LocalSort compares the stdlib comparison sort against
// the radix sort that is Module 3's local sort phase (learning outcome
// 15: O(n) passes against O(n log n) comparisons).
func BenchmarkAblation_LocalSort(b *testing.B) {
	keys := data.UniformKeys(1_000_000, 0, 1e6, 13)
	b.Run("stdlib", func(b *testing.B) {
		buf := make([]float64, len(keys))
		for i := 0; i < b.N; i++ {
			copy(buf, keys)
			b.StartTimer()
			sort.Float64s(buf)
			b.StopTimer()
		}
	})
	b.Run("radix", func(b *testing.B) {
		buf := make([]float64, len(keys))
		for i := 0; i < b.N; i++ {
			copy(buf, keys)
			b.StartTimer()
			distsort.RadixSortFloat64s(buf)
			b.StopTimer()
		}
	})
}
