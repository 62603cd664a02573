package curriculum

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTableIShape(t *testing.T) {
	if len(TableI) != 15 {
		t.Fatalf("%d outcomes, want 15", len(TableI))
	}
	// Spot checks against the paper.
	if TableI[0].Levels != [NumModules]Bloom{Apply, 0, 0, 0, 0} {
		t.Fatalf("outcome 1 levels %v", TableI[0].Levels)
	}
	if TableI[7].Levels[4] != Create {
		t.Fatalf("outcome 8 module 5 should be Create, got %v", TableI[7].Levels[4])
	}
	if TableI[9].Levels != [NumModules]Bloom{0, Evaluate, Evaluate, Evaluate, Evaluate} {
		t.Fatalf("outcome 10 levels %v", TableI[9].Levels)
	}
	if TableI[14].Levels != [NumModules]Bloom{0, 0, Create, Create, Create} {
		t.Fatalf("outcome 15 levels %v", TableI[14].Levels)
	}
}

func TestModule1OnlyAppliesBasics(t *testing.T) {
	// Module 1 covers exactly outcomes 1, 2, 3, 11, all at Apply.
	for _, o := range TableI {
		l := o.Levels[0]
		switch o.ID {
		case 1, 2, 3, 11:
			if l != Apply {
				t.Fatalf("outcome %d module 1 level %v, want A", o.ID, l)
			}
		default:
			if l != NotCovered {
				t.Fatalf("outcome %d unexpectedly covered by module 1", o.ID)
			}
		}
	}
}

func TestBloomProgression(t *testing.T) {
	// Later modules carry the Create-level outcomes: every C sits in
	// modules 3-5, never in modules 1-2.
	for _, o := range TableI {
		for m, l := range o.Levels {
			if l == Create && m < 2 {
				t.Fatalf("outcome %d has Create in module %d", o.ID, m+1)
			}
		}
	}
}

func TestRequirementFor(t *testing.T) {
	cases := []struct {
		prim   string
		module int
		want   Requirement
	}{
		{"MPI_Send", 1, Required},
		{"MPI_Send", 2, No},
		{"MPI_Send", 3, Optional},
		{"MPI_Scatter", 2, Required},
		{"MPI_Scatter", 5, Optional},
		{"MPI_Reduce", 3, Required},
		{"MPI_Reduce", 5, No},
		{"MPI_Allreduce", 5, Optional},
		{"MPI_Get_count", 3, Optional},
		{"MPI_Bcast", 1, Optional},
		{"MPI_Bcast", 5, No},
		// Variants resolution.
		{"MPI_Wait", 1, Required},     // direct row
		{"MPI_Wait", 3, Optional},     // via variants row
		{"MPI_Probe", 3, Optional},    // via variants row
		{"MPI_Sendrecv", 1, Optional}, // via variants row
		{"MPI_Probe", 2, No},
		{"MPI_Alltoall", 1, No},
		{"MPI_Nonsense", 1, No},
		{"MPI_Send", 0, No}, // module out of range
		{"MPI_Send", 6, No},
	}
	for _, c := range cases {
		if got := RequirementFor(c.prim, c.module); got != c.want {
			t.Errorf("RequirementFor(%q, %d) = %v, want %v", c.prim, c.module, got, c.want)
		}
	}
}

func TestRequiredPrimitives(t *testing.T) {
	check := func(module int, want ...string) {
		t.Helper()
		got := RequiredPrimitives(module)
		if len(got) != len(want) {
			t.Fatalf("module %d required %v, want %v", module, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("module %d required %v, want %v", module, got, want)
			}
		}
	}
	check(1, "MPI_Isend", "MPI_Recv", "MPI_Send", "MPI_Wait")
	check(2, "MPI_Reduce", "MPI_Scatter")
	check(3, "MPI_Reduce")
	check(4, "MPI_Reduce")
	check(5)
}

func TestDemographics(t *testing.T) {
	if CohortSize() != 10 {
		t.Fatalf("cohort %d", CohortSize())
	}
	if TraditionalCSCount() != 3 {
		t.Fatalf("traditional CS %d", TraditionalCSCount())
	}
	if len(TableIII) != 5 {
		t.Fatalf("%d demographic rows", len(TableIII))
	}
}

func TestRenderings(t *testing.T) {
	t1 := RenderTableI()
	if !strings.Contains(t1, "deadlock") || !strings.Contains(t1, "M1 M2 M3 M4 M5") {
		t.Fatalf("Table I rendering:\n%s", t1)
	}
	t2 := RenderTableII()
	if !strings.Contains(t2, "MPI_Scatter") || !strings.Contains(t2, "R") {
		t.Fatalf("Table II rendering:\n%s", t2)
	}
	t3 := RenderTableIII()
	if !strings.Contains(t3, "Astronomy") {
		t.Fatalf("Table III rendering:\n%s", t3)
	}
}

func TestBloomAndRequirementStrings(t *testing.T) {
	if NotCovered.String() != "-" || Apply.String() != "A" || Evaluate.String() != "E" || Create.String() != "C" {
		t.Fatal("bloom strings")
	}
	if No.String() != "-" || Required.String() != "R" || Optional.String() != "N" {
		t.Fatal("requirement strings")
	}
}
