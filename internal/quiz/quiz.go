// Package quiz reproduces the paper's efficacy evaluation: the pre/post
// module-completion quiz scores of Figure 2, the derived statistics of
// Table IV (including the paper's mean-relative-increase/decrease
// formulas), and the Section IV-B example quiz question, which the
// perfmodel co-scheduling simulator answers mechanically.
//
// The paper publishes only aggregates; the per-student dataset here is
// reconstructed by constraint search (cmd/quizsolve) to satisfy every
// hard count in Table IV exactly and every published mean as closely as
// the aggregates permit. EXPERIMENTS.md records the residuals.
package quiz

import (
	"fmt"
	"math"
	"strings"
)

// NumStudents and NumQuizzes fix the cohort shape (Table III: 10
// students; five modules → five quizzes).
const (
	NumStudents = 10
	NumQuizzes  = 5
)

// ScorePair is one student's pre- and post-module scores for one quiz,
// in [0, 1]. Invalid pairs (student skipped one or both quizzes) are
// excluded from the study, as Section IV-A describes.
type ScorePair struct {
	Pre, Post float64
	Valid     bool
}

// Dataset is the full Figure 2 score grid: Scores[s][q] is student s+1's
// pair for quiz q+1.
type Dataset struct {
	Scores [NumStudents][NumQuizzes]ScorePair
}

// TableIV holds the statistics the paper derives from Figure 2.
type TableIV struct {
	Pairs    int // valid pre/post pairs
	Equal    int
	Increase int
	Decrease int
	// MeanRelIncrease and MeanRelDecrease use the paper's formula
	// (1/n)·Σ |a_j − b_j| / b_j with a = pre and b = post, over the
	// increasing and decreasing pairs respectively.
	MeanRelIncrease float64
	MeanRelDecrease float64
	// QuizMeanPre/Post are per-quiz means over valid pairs, in [0, 1].
	QuizMeanPre  [NumQuizzes]float64
	QuizMeanPost [NumQuizzes]float64
}

// PaperTableIV is Table IV exactly as published.
var PaperTableIV = TableIV{
	Pairs:           42,
	Equal:           17,
	Increase:        19,
	Decrease:        6,
	MeanRelIncrease: 0.4786,
	MeanRelDecrease: 0.2730,
	QuizMeanPre:     [NumQuizzes]float64{0.8889, 0.8222, 0.6950, 0.6071, 0.8021},
	QuizMeanPost:    [NumQuizzes]float64{0.9815, 0.8889, 0.7778, 0.6786, 0.7917},
}

// epsilon tolerates float noise when classifying equal pairs.
const epsilon = 1e-9

// Stats derives Table IV from the dataset using the paper's formulas.
func (d Dataset) Stats() TableIV {
	var t TableIV
	var incSum, decSum float64
	var quizN [NumQuizzes]int
	for s := 0; s < NumStudents; s++ {
		for q := 0; q < NumQuizzes; q++ {
			p := d.Scores[s][q]
			if !p.Valid {
				continue
			}
			t.Pairs++
			quizN[q]++
			t.QuizMeanPre[q] += p.Pre
			t.QuizMeanPost[q] += p.Post
			switch {
			case math.Abs(p.Post-p.Pre) <= epsilon:
				t.Equal++
			case p.Post > p.Pre:
				t.Increase++
				incSum += math.Abs(p.Pre-p.Post) / p.Post
			default:
				t.Decrease++
				decSum += math.Abs(p.Pre-p.Post) / p.Post
			}
		}
	}
	if t.Increase > 0 {
		t.MeanRelIncrease = incSum / float64(t.Increase)
	}
	if t.Decrease > 0 {
		t.MeanRelDecrease = decSum / float64(t.Decrease)
	}
	for q := 0; q < NumQuizzes; q++ {
		if quizN[q] > 0 {
			t.QuizMeanPre[q] /= float64(quizN[q])
			t.QuizMeanPost[q] /= float64(quizN[q])
		}
	}
	return t
}

// StudentsAllNonDecreasing returns the 1-based ids of students whose
// valid pairs all stayed equal or increased — the paper reports six such
// students (#2, 5, 6, 8, 9, 10).
func (d Dataset) StudentsAllNonDecreasing() []int {
	var out []int
	for s := 0; s < NumStudents; s++ {
		ok := true
		any := false
		for q := 0; q < NumQuizzes; q++ {
			p := d.Scores[s][q]
			if !p.Valid {
				continue
			}
			any = true
			if p.Post < p.Pre-epsilon {
				ok = false
				break
			}
		}
		if any && ok {
			out = append(out, s+1)
		}
	}
	return out
}

// CompletedAll returns the 1-based ids of students with all five pairs
// valid; the paper reports seven of ten.
func (d Dataset) CompletedAll() []int {
	var out []int
	for s := 0; s < NumStudents; s++ {
		all := true
		for q := 0; q < NumQuizzes; q++ {
			if !d.Scores[s][q].Valid {
				all = false
				break
			}
		}
		if all {
			out = append(out, s+1)
		}
	}
	return out
}

// Render prints the statistics in the layout of Table IV.
func (t TableIV) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %s\n", "Statistic", "Value")
	fmt.Fprintf(&b, "%-40s %d\n", "Total Pre & Post Quiz Pairs", t.Pairs)
	fmt.Fprintf(&b, "%-40s %d\n", "Pre & Post: Equal in Score", t.Equal)
	fmt.Fprintf(&b, "%-40s %d\n", "Pre & Post: Increase in Score (i)", t.Increase)
	fmt.Fprintf(&b, "%-40s %d\n", "Pre & Post: Decrease in Score (d)", t.Decrease)
	fmt.Fprintf(&b, "%-40s %.2f%%\n", "Mean Relative Performance Increase", t.MeanRelIncrease*100)
	fmt.Fprintf(&b, "%-40s %.2f%%\n", "Mean Relative Performance Decrease", t.MeanRelDecrease*100)
	for q := 0; q < NumQuizzes; q++ {
		fmt.Fprintf(&b, "Mean Quiz %d Grade Pre (Post)%12s %.2f%% (%.2f%%)\n",
			q+1, "", t.QuizMeanPre[q]*100, t.QuizMeanPost[q]*100)
	}
	return b.String()
}

// CompareToPaper reports the absolute residual of every Table IV field
// against the published values, for EXPERIMENTS.md.
func (t TableIV) CompareToPaper() map[string]float64 {
	p := PaperTableIV
	out := map[string]float64{
		"pairs":             math.Abs(float64(t.Pairs - p.Pairs)),
		"equal":             math.Abs(float64(t.Equal - p.Equal)),
		"increase":          math.Abs(float64(t.Increase - p.Increase)),
		"decrease":          math.Abs(float64(t.Decrease - p.Decrease)),
		"mean_rel_increase": math.Abs(t.MeanRelIncrease - p.MeanRelIncrease),
		"mean_rel_decrease": math.Abs(t.MeanRelDecrease - p.MeanRelDecrease),
	}
	for q := 0; q < NumQuizzes; q++ {
		out[fmt.Sprintf("quiz%d_pre", q+1)] = math.Abs(t.QuizMeanPre[q] - p.QuizMeanPre[q])
		out[fmt.Sprintf("quiz%d_post", q+1)] = math.Abs(t.QuizMeanPost[q] - p.QuizMeanPost[q])
	}
	return out
}
