package quiz

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/perfmodel"
)

func TestReconstructedMatchesHardConstraints(t *testing.T) {
	if err := Reconstructed.Validate(); err != nil {
		t.Fatal(err)
	}
	st := Reconstructed.Stats()
	p := PaperTableIV
	if st.Pairs != p.Pairs {
		t.Errorf("pairs %d, want %d", st.Pairs, p.Pairs)
	}
	if st.Equal != p.Equal {
		t.Errorf("equal %d, want %d", st.Equal, p.Equal)
	}
	if st.Increase != p.Increase {
		t.Errorf("increase %d, want %d", st.Increase, p.Increase)
	}
	if st.Decrease != p.Decrease {
		t.Errorf("decrease %d, want %d", st.Decrease, p.Decrease)
	}
}

func TestReconstructedMatchesCohortStructure(t *testing.T) {
	if got := Reconstructed.CompletedAll(); len(got) != 7 {
		t.Fatalf("complete students %v, want 7 of them", got)
	}
	want := []int{2, 5, 6, 8, 9, 10}
	if got := Reconstructed.StudentsAllNonDecreasing(); !reflect.DeepEqual(got, want) {
		t.Fatalf("non-decreasing students %v, want %v", got, want)
	}
}

func TestReconstructedMeansCloseToPaper(t *testing.T) {
	res := Reconstructed.Stats().CompareToPaper()
	for key, delta := range res {
		if delta > 0.02 {
			t.Errorf("residual %s = %.4f exceeds 0.02", key, delta)
		}
	}
}

func TestStatsOnHandCraftedDataset(t *testing.T) {
	var d Dataset
	d.Scores[0][0] = ScorePair{Pre: 0.5, Post: 1.0, Valid: true}  // increase
	d.Scores[1][0] = ScorePair{Pre: 0.8, Post: 0.8, Valid: true}  // equal
	d.Scores[2][0] = ScorePair{Pre: 1.0, Post: 0.75, Valid: true} // decrease
	st := d.Stats()
	if st.Pairs != 3 || st.Increase != 1 || st.Equal != 1 || st.Decrease != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Paper formula |pre-post|/post: increase (0.5)/1.0 = 0.5; decrease
	// 0.25/0.75 = 1/3.
	if math.Abs(st.MeanRelIncrease-0.5) > 1e-12 {
		t.Fatalf("rel increase %v", st.MeanRelIncrease)
	}
	if math.Abs(st.MeanRelDecrease-1.0/3) > 1e-12 {
		t.Fatalf("rel decrease %v", st.MeanRelDecrease)
	}
	if math.Abs(st.QuizMeanPre[0]-(0.5+0.8+1.0)/3) > 1e-12 {
		t.Fatalf("quiz 1 pre mean %v", st.QuizMeanPre[0])
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	var d Dataset
	d.Scores[0][0] = ScorePair{Pre: 1.5, Post: 0.5, Valid: true}
	if err := d.Validate(); err == nil {
		t.Fatal("score > 1 accepted")
	}
	d.Scores[0][0] = ScorePair{Pre: -0.1, Post: 0.5, Valid: true}
	if err := d.Validate(); err == nil {
		t.Fatal("negative score accepted")
	}
	d.Scores[0][0] = ScorePair{Pre: 2, Post: 2, Valid: false}
	if err := d.Validate(); err != nil {
		t.Fatal("invalid pair should be ignored")
	}
}

func TestSolveDeterministic(t *testing.T) {
	a := Solve(7, 20_000)
	b := Solve(7, 20_000)
	if a != b {
		t.Fatal("same seed produced different datasets")
	}
	c := Solve(8, 20_000)
	if a == c {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestSolveSatisfiesHardConstraintsQuickly(t *testing.T) {
	// Even a short search must satisfy every count constraint, because
	// they hold by construction.
	d := Solve(3, 10_000)
	st := d.Stats()
	if st.Pairs != 42 || st.Equal != 17 || st.Increase != 19 || st.Decrease != 6 {
		t.Fatalf("counts %+v", st)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCoSchedulingQuestion(t *testing.T) {
	q, err := CoSchedulingQuestion(perfmodel.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	if q.Answer != 1 {
		t.Fatalf("answer %d, want 1 (Program 2/Compute Node 2)", q.Answer)
	}
	if q.Quiz != 4 || len(q.Choices) != 2 {
		t.Fatalf("question meta %+v", q)
	}
	if !strings.Contains(q.Choices[q.Answer], "Program 2") {
		t.Fatalf("answer choice %q", q.Choices[q.Answer])
	}
}

func TestRenderTableIV(t *testing.T) {
	out := PaperTableIV.Render()
	for _, want := range []string{"47.86%", "27.30%", "88.89% (98.15%)", "80.21% (79.17%)", "42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFigure2(t *testing.T) {
	out := RenderFigure2(Reconstructed)
	if !strings.Contains(out, "Quiz 5") || !strings.Contains(out, "student 10") {
		t.Fatalf("figure rendering:\n%s", out[:200])
	}
	if !strings.Contains(out, "excluded") {
		t.Fatal("missing pairs not marked excluded")
	}
}

func TestPaperTableIVSelfConsistent(t *testing.T) {
	p := PaperTableIV
	if p.Equal+p.Increase+p.Decrease != p.Pairs {
		t.Fatalf("published counts inconsistent: %d+%d+%d != %d",
			p.Equal, p.Increase, p.Decrease, p.Pairs)
	}
}

func TestBankDerivesAllAnswers(t *testing.T) {
	bank, err := Bank(perfmodel.DefaultMachine())
	if err != nil {
		t.Fatal(err)
	}
	if len(bank) != 5 {
		t.Fatalf("%d questions, want 5", len(bank))
	}
	wantAnswers := []int{0, 1, 1, 1, 0}
	for i, q := range bank {
		if q.Quiz != i+1 {
			t.Fatalf("question %d labeled quiz %d", i, q.Quiz)
		}
		if q.Text == "" || len(q.Choices) < 2 {
			t.Fatalf("degenerate question %+v", q)
		}
		if q.Answer != wantAnswers[i] {
			t.Fatalf("quiz %d answer %d, want %d", q.Quiz, q.Answer, wantAnswers[i])
		}
	}
}

// Validate checks structural invariants: scores within [0, 1].
func (d Dataset) Validate() error {
	for s := 0; s < NumStudents; s++ {
		for q := 0; q < NumQuizzes; q++ {
			p := d.Scores[s][q]
			if !p.Valid {
				continue
			}
			if p.Pre < 0 || p.Pre > 1 || p.Post < 0 || p.Post > 1 {
				return fmt.Errorf("quiz: student %d quiz %d scores (%v, %v) outside [0,1]", s+1, q+1, p.Pre, p.Post)
			}
		}
	}
	return nil
}
