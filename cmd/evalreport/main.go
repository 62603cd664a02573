// Command evalreport regenerates every table and figure of the paper's
// evaluation:
//
//	evalreport -table 1     # learning outcomes × Bloom levels (Table I)
//	evalreport -table 2     # MPI primitives per module, verified against the runtime (Table II)
//	evalreport -table 3     # cohort demographics (Table III)
//	evalreport -table 4     # quiz statistics from the reconstructed dataset (Table IV)
//	evalreport -figure 1    # modeled speedup curves of the quiz question programs
//	evalreport -figure 2    # per-student pre/post quiz scores
//	evalreport -question 4  # the Section IV-B co-scheduling question, answered by the simulator
//	evalreport -quizbank    # one mechanically-answered question per quiz
//	evalreport -claims      # measured per-module claims (§III-C…F)
//	evalreport -all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/curriculum"
	"repro/internal/data"
	"repro/internal/modules/distmatrix"
	"repro/internal/modules/distsort"
	"repro/internal/modules/kmeans"
	"repro/internal/modules/rangequery"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/quiz"
)

func main() {
	table := flag.Int("table", 0, "render table 1-4")
	figure := flag.Int("figure", 0, "render figure 1-2")
	question := flag.Int("question", 0, "answer the quiz question (4)")
	quizbank := flag.Bool("quizbank", false, "derive one question per quiz from the simulators")
	claims := flag.Bool("claims", false, "measure the per-module claims of §III-C…F")
	roofline := flag.Bool("roofline", false, "plot the module kernels on the machine roofline")
	all := flag.Bool("all", false, "render everything")
	flag.Parse()

	if err := run(os.Stdout, *table, *figure, *question, *quizbank, *claims, *roofline, *all); err != nil {
		fmt.Fprintln(os.Stderr, "evalreport:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, table, figure, question int, quizbank, claims, roofline, all bool) error {
	ran := false
	if all || table == 1 {
		header(w, "Table I: student learning outcomes")
		fmt.Fprint(w, curriculum.RenderTableI())
		ran = true
	}
	if all || table == 2 {
		header(w, "Table II: MPI primitives per module (paper)")
		fmt.Fprint(w, curriculum.RenderTableII())
		if err := verifyTable2(w); err != nil {
			return err
		}
		ran = true
	}
	if all || table == 3 {
		header(w, "Table III: cohort demographics")
		fmt.Fprint(w, curriculum.RenderTableIII())
		fmt.Fprintf(w, "cohort size %d, traditional CS background %d\n",
			curriculum.CohortSize(), curriculum.TraditionalCSCount())
		ran = true
	}
	if all || table == 4 {
		header(w, "Table IV: quiz statistics (reconstructed dataset)")
		st := quiz.Reconstructed.Stats()
		fmt.Fprint(w, st.Render())
		fmt.Fprintln(w, "\nresiduals against the published Table IV:")
		res := st.CompareToPaper()
		keys := make([]string, 0, len(res))
		for k := range res {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-20s %.5f\n", k, res[k])
		}
		ran = true
	}
	if all || figure == 1 {
		header(w, "Figure 1: speedup of the two quiz-question programs (modeled)")
		if err := figure1(w); err != nil {
			return err
		}
		ran = true
	}
	if all || figure == 2 {
		header(w, "Figure 2: pre/post quiz scores per student")
		fmt.Fprint(w, quiz.RenderFigure2(quiz.Reconstructed))
		ran = true
	}
	if all || question == 4 {
		header(w, "Section IV-B: example quiz question")
		q, err := quiz.CoSchedulingQuestion(perfmodel.DefaultMachine())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, q.Text)
		for i, c := range q.Choices {
			marker := " "
			if i == q.Answer {
				marker = "*"
			}
			fmt.Fprintf(w, "  (%d) %s %s\n", i+1, c, marker)
		}
		fmt.Fprintln(w, "(* = answer derived from the co-scheduling model)")
		ran = true
	}
	if all || quizbank {
		header(w, "Quiz bank: answers derived from the simulators")
		bank, err := quiz.Bank(perfmodel.DefaultMachine())
		if err != nil {
			return err
		}
		for _, q := range bank {
			fmt.Fprintf(w, "quiz %d: %s\n", q.Quiz, q.Text)
			for i, choice := range q.Choices {
				marker := " "
				if i == q.Answer {
					marker = "*"
				}
				fmt.Fprintf(w, "  (%d)%s %s\n", i+1, marker, choice)
			}
		}
		ran = true
	}
	if all || claims {
		header(w, "Per-module claims, measured (§III-C…F)")
		if err := moduleClaims(w); err != nil {
			return err
		}
		ran = true
	}
	if all || roofline {
		header(w, "Roofline: where the module kernels sit")
		m := perfmodel.DefaultMachine()
		brute, indexed := rangequery.Kernels(100_000, 10_000, 2, 0.95)
		kernels := []perfmodel.Kernel{
			distmatrix.Kernel(4000, distmatrix.DefaultDim),
			perfmodel.MemoryBoundKernel("distribution-sort", 1e10, 0.15),
			brute,
			indexed,
			kmeans.IterationKernel(100_000, 2, 64, 32, kmeans.WeightedMeans),
		}
		fmt.Fprint(w, m.RooflineChart(kernels, 64, 16))
		ran = true
	}
	if !ran {
		flag.Usage()
		return errors.New("choose -table, -figure, -question, -quizbank, -claims or -all")
	}
	return nil
}

// moduleClaims measures the headline claim of each module and prints the
// EXPERIMENTS.md numbers live.
func moduleClaims(w io.Writer) error {
	// Module 2: cache miss rates of the two kernels.
	cache, err := perfmodel.NewCache(256*1024, 64, 8)
	if err != nil {
		return err
	}
	rep, err := distmatrix.SimulateCache(cache, 2000, distmatrix.DefaultDim, 32, distmatrix.DefaultTile)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "module 2 (locality): row-wise miss rate %.1f%%, tiled %.1f%% (%.0fx fewer misses)\n",
		rep.RowWiseMissRate*100, rep.TiledMissRate*100, float64(rep.RowWiseMisses)/float64(rep.TiledMisses))

	// Module 3: imbalance across splitters on exponential data.
	keys := data.ExponentialKeys(100_000, 1, 12)
	for _, sp := range []distsort.Splitter{distsort.EqualWidth, distsort.Histogram} {
		var imb float64
		err := mpi.Run(4, func(c *mpi.Comm) error {
			var local []float64
			for i := c.Rank(); i < len(keys); i += 4 {
				local = append(local, keys[i])
			}
			_, res, err := distsort.Sort(c, local, sp)
			if c.Rank() == 0 {
				imb = res.Imbalance
			}
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "module 3 (balance): %s splitter imbalance %.2f on exponential keys\n", sp, imb)
	}

	// Module 4: pruning + modeled scalability split.
	pts := data.UniformPoints(20_000, 2, 0, 100, 5)
	queries := data.UniformRects(300, 2, 0, 100, 4, 6)
	var pruned float64
	err = mpi.Run(4, func(c *mpi.Comm) error {
		res, err := rangequery.Distributed(c, pts, queries, rangequery.RTree)
		if c.Rank() == 0 {
			pruned = res.WorkPruned
		}
		return err
	})
	if err != nil {
		return err
	}
	m := perfmodel.DefaultMachine()
	brute, indexed := rangequery.Kernels(100_000, 10_000, 2, pruned)
	bsp, err := m.Speedup(brute, 20, 1)
	if err != nil {
		return err
	}
	isp, err := m.Speedup(indexed, 20, 1)
	if err != nil {
		return err
	}
	one, two, err := rangequery.NodePlacementStudy(m, indexed, 16)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "module 4 (efficiency vs scalability): R-tree prunes %.1f%% of work; modeled speedup at 20 ranks: brute %.1fx vs indexed %.1fx; 2-node placement gain %.2fx\n",
		pruned*100, bsp[19], isp[19], float64(one)/float64(two))

	// Module 5: communication volumes of the two options.
	kpts, _ := data.GaussianMixture(8192, 2, 8, 2.0, 100, 6)
	for _, opt := range []kmeans.CommOption{kmeans.WeightedMeans, kmeans.ExplicitAssignments} {
		var root *mpi.Comm
		var iters int
		err := mpi.Run(4, func(c *mpi.Comm) error {
			res, _, _, err := kmeans.Distributed(c, kpts, kmeans.Config{K: 16, MaxIter: 10, Seed: 1, Tol: -1, Option: opt})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				root, iters = c, res.Iterations
			}
			return nil
		})
		if err != nil {
			return err
		}
		// The counters are world-wide, so read them once every rank has
		// returned: rank 0 can leave the last broadcast while another
		// rank is still forwarding it.
		wire := root.Stats().TotalWire
		fmt.Fprintf(w, "module 5 (communication): %-22v %6d wire bytes/iteration\n", opt, wire/int64(iters))
	}
	return nil
}

func header(w io.Writer, s string) {
	fmt.Fprintf(w, "\n=== %s ===\n", s)
}

// verifyTable2 runs the modules and prints the runtime verification.
func verifyTable2(w io.Writer) error {
	fmt.Fprintln(w, "\nruntime verification (primitives actually invoked by the implementations):")
	checks, err := core.VerifyTableII()
	if err != nil {
		return err
	}
	for _, mc := range checks {
		status := "OK"
		if !mc.OK() {
			status = fmt.Sprintf("MISMATCH missing=%v unexpected=%v", mc.MissingRequired, mc.Unexpected)
		}
		fmt.Fprintf(w, "  module %d: %-8s used: %s\n", mc.Module, status, strings.Join(mc.Used, ", "))
	}
	return nil
}

// figure1 prints the two modeled speedup curves: Program 1 saturating
// like Figure 1(a), Program 2 near-linear like Figure 1(b).
func figure1(w io.Writer) error {
	m := perfmodel.DefaultMachine()
	ranks := []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	p1 := perfmodel.MemoryBoundKernel("program1", 1e11, 0.1)
	p2 := perfmodel.ComputeBoundKernel("program2", 1e12, 100)
	c1, err := m.ScalingCurve(p1, ranks, 1)
	if err != nil {
		return err
	}
	c2, err := m.ScalingCurve(p2, ranks, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %22s %22s\n", "cores", "Program 1 (mem-bound)", "Program 2 (cpu-bound)")
	for _, p := range ranks {
		fmt.Fprintf(w, "%6d %10.2f %s %10.2f %s\n",
			p, c1[p], sparkbar(c1[p], 20), c2[p], sparkbar(c2[p], 20))
	}
	fmt.Fprintf(w, "\nProgram 1 saturates near %.1f cores (node bandwidth / core bandwidth);\n", m.SaturationCores())
	fmt.Fprintln(w, "Program 2 scales almost linearly to 20 cores — the Figure 1 shapes.")
	return nil
}

func sparkbar(v float64, max int) string {
	n := int(v + 0.5)
	if n > max {
		n = max
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("▒", n)
}
