// Package curriculum encodes the paper's curricular metadata as typed,
// validated data: Table I (student learning outcomes × Bloom levels ×
// modules), Table II (MPI primitive requirements per module) and Table
// III (cohort demographics). The runtime verification in internal/core
// checks Table II against the primitives the module implementations
// actually invoke.
package curriculum

import (
	"fmt"
	"sort"
	"strings"
)

// NumModules is the number of pedagogic modules.
const NumModules = 5

// Bloom is a Bloom-taxonomy level as used in Table I.
type Bloom byte

const (
	// NotCovered marks an outcome a module does not address.
	NotCovered Bloom = 0
	// Apply, Evaluate and Create are the three levels the paper uses.
	Apply    Bloom = 'A'
	Evaluate Bloom = 'E'
	Create   Bloom = 'C'
)

// String renders the level as in Table I.
func (b Bloom) String() string {
	if b == NotCovered {
		return "-"
	}
	return string(byte(b))
}

// Outcome is one row of Table I.
type Outcome struct {
	ID     int
	Text   string
	Levels [NumModules]Bloom // per module, index 0 = Module 1
}

// TableI is the paper's learning-outcome matrix, verbatim.
var TableI = []Outcome{
	{1, "Implement several canonical MPI communication patterns.",
		[NumModules]Bloom{Apply, 0, 0, 0, 0}},
	{2, "Understand blocking and non-blocking message passing.",
		[NumModules]Bloom{Apply, 0, 0, 0, 0}},
	{3, "Examine how blocking message passing may lead to deadlock.",
		[NumModules]Bloom{Apply, 0, 0, 0, 0}},
	{4, "Understand MPI collective communication primitives.",
		[NumModules]Bloom{0, Apply, Evaluate, Evaluate, Evaluate}},
	{5, "Understand how data locality can be exploited to improve performance through the use of tiling.",
		[NumModules]Bloom{0, Evaluate, 0, 0, 0}},
	{6, "Understand the performance trade-offs between small and large tile sizes.",
		[NumModules]Bloom{0, Evaluate, 0, 0, 0}},
	{7, "Utilize a performance tool to measure cache misses.",
		[NumModules]Bloom{0, Apply, 0, 0, 0}},
	{8, "Understand how various algorithm components scale as a function of the number of process ranks.",
		[NumModules]Bloom{0, Evaluate, Evaluate, Evaluate, Create}},
	{9, "Understand how different input data distributions may impact load balancing.",
		[NumModules]Bloom{0, 0, Evaluate, 0, 0}},
	{10, "Discover how compute-bound and memory-bound algorithms vary in their scalability.",
		[NumModules]Bloom{0, Evaluate, Evaluate, Evaluate, Evaluate}},
	{11, "Understand common patterns in distributed-memory programs (e.g., alternating phases of computation and communication).",
		[NumModules]Bloom{Apply, Apply, Evaluate, Apply, Create}},
	{12, "Reason about performance based on algorithm characteristics (i.e., beyond asymptotic performance).",
		[NumModules]Bloom{0, 0, Evaluate, Evaluate, Evaluate}},
	{13, "Reason about performance based on communication patterns and volumes.",
		[NumModules]Bloom{0, 0, Evaluate, 0, Evaluate}},
	{14, "Reason about resource allocation alternatives.",
		[NumModules]Bloom{0, 0, Apply, Evaluate, Create}},
	{15, "Reason about how the algorithms can be improved beyond the scope of the module.",
		[NumModules]Bloom{0, 0, Create, Create, Create}},
}

// Requirement is a Table II cell: whether a module requires a primitive.
type Requirement byte

const (
	// No means the primitive is not part of the module.
	No Requirement = 0
	// Required (R) and Optional (N: "not required but may be employed")
	// follow Table II's legend.
	Required Requirement = 'R'
	Optional Requirement = 'N'
)

// String renders the cell as in Table II.
func (r Requirement) String() string {
	if r == No {
		return "-"
	}
	return string(byte(r))
}

// PrimitiveRow is one row of Table II. The "MPI_Send and MPI_Recv
// variants" row covers Ssend/Isend-style variants plus Probe, which
// students may need to size buffers.
type PrimitiveRow struct {
	Name    string // MPI-style primitive name
	Modules [NumModules]Requirement
}

// TableII is the paper's primitive-requirement matrix, verbatim.
var TableII = []PrimitiveRow{
	{"MPI_Send", [NumModules]Requirement{Required, 0, Optional, 0, 0}},
	{"MPI_Recv", [NumModules]Requirement{Required, 0, Optional, 0, 0}},
	{"MPI_Isend", [NumModules]Requirement{Required, 0, 0, 0, 0}},
	{"MPI_Wait", [NumModules]Requirement{Required, 0, 0, 0, 0}},
	{"MPI_Bcast", [NumModules]Requirement{Optional, 0, 0, 0, 0}},
	{"MPI_Send and MPI_Recv variants", [NumModules]Requirement{Optional, 0, Optional, 0, 0}},
	{"MPI_Scatter", [NumModules]Requirement{0, Required, 0, 0, Optional}},
	{"MPI_Reduce", [NumModules]Requirement{0, Required, Required, Required, 0}},
	{"MPI_Get_count", [NumModules]Requirement{0, 0, Optional, 0, 0}},
	{"MPI_Allreduce", [NumModules]Requirement{0, 0, 0, 0, Optional}},
}

// SendRecvVariants lists the primitives the "variants" row of Table II
// covers in this implementation.
var SendRecvVariants = []string{"MPI_Isend", "MPI_Irecv", "MPI_Wait", "MPI_Sendrecv", "MPI_Probe"}

// RequirementFor looks up the Table II cell for a primitive name and a
// 1-based module. A primitive whose direct row does not cover the module
// can still be covered by the "MPI_Send and MPI_Recv variants" row (e.g.
// MPI_Wait has its own row only for Module 1, but completing an MPI_Isend
// in Module 3 falls under the variants entry).
func RequirementFor(primitive string, module int) Requirement {
	if module < 1 || module > NumModules {
		return No
	}
	direct := No
	for _, row := range TableII {
		if row.Name == primitive {
			direct = row.Modules[module-1]
			break
		}
	}
	if direct != No {
		return direct
	}
	for _, v := range SendRecvVariants {
		if v == primitive {
			for _, row := range TableII {
				if row.Name == "MPI_Send and MPI_Recv variants" {
					return row.Modules[module-1]
				}
			}
		}
	}
	return No
}

// RequiredPrimitives returns the Table II primitives marked R for a
// 1-based module.
func RequiredPrimitives(module int) []string {
	var out []string
	for _, row := range TableII {
		if row.Modules[module-1] == Required {
			out = append(out, row.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Demographic is one row of Table III.
type Demographic struct {
	Program string
	Count   int
	Detail  string
}

// TableIII is the cohort, verbatim (10 students, 3 with a traditional
// computer-science background).
var TableIII = []Demographic{
	{"Computer Science (BS)", 1, ""},
	{"Computer Science (MS)", 1, ""},
	{"Electrical Engineering (MS)", 2, ""},
	{"Astronomy & Planetary Science (PhD)", 1, ""},
	{"Informatics & Computing (PhD)", 5, "1×bioinformatics, 1×CS, 1×ecoinformatics, 2×EE"},
}

// CohortSize sums Table III.
func CohortSize() int {
	total := 0
	for _, d := range TableIII {
		total += d.Count
	}
	return total
}

// TraditionalCSCount returns the number of students with a traditional
// computer-science background (the paper counts three: one BS, one MS,
// one CS-track PhD).
func TraditionalCSCount() int {
	n := 0
	for _, d := range TableIII {
		if strings.HasPrefix(d.Program, "Computer Science") {
			n += d.Count
		}
		if strings.Contains(d.Detail, "1×CS") {
			n++
		}
	}
	return n
}

// Validate cross-checks the tables' internal consistency.
func Validate() error {
	for i, o := range TableI {
		if o.ID != i+1 {
			return fmt.Errorf("curriculum: outcome %d has id %d", i+1, o.ID)
		}
		covered := false
		for _, l := range o.Levels {
			switch l {
			case NotCovered, Apply, Evaluate, Create:
			default:
				return fmt.Errorf("curriculum: outcome %d has invalid level %q", o.ID, l)
			}
			if l != NotCovered {
				covered = true
			}
		}
		if !covered {
			return fmt.Errorf("curriculum: outcome %d covered by no module", o.ID)
		}
	}
	for m := 0; m < NumModules; m++ {
		any := false
		for _, o := range TableI {
			if o.Levels[m] != NotCovered {
				any = true
				break
			}
		}
		if !any {
			return fmt.Errorf("curriculum: module %d teaches no outcome", m+1)
		}
	}
	for _, row := range TableII {
		for m, r := range row.Modules {
			switch r {
			case No, Required, Optional:
			default:
				return fmt.Errorf("curriculum: %s module %d has invalid requirement %q", row.Name, m+1, r)
			}
		}
	}
	if CohortSize() != 10 {
		return fmt.Errorf("curriculum: cohort size %d, want 10", CohortSize())
	}
	if TraditionalCSCount() != 3 {
		return fmt.Errorf("curriculum: %d traditional CS students, want 3", TraditionalCSCount())
	}
	return nil
}

// RenderTableI prints the learning-outcome matrix as in the paper.
func RenderTableI() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-80s %s\n", "#", "Student Learning Outcome", "M1 M2 M3 M4 M5")
	for _, o := range TableI {
		fmt.Fprintf(&b, "%-3d %-80s ", o.ID, truncate(o.Text, 80))
		for m := 0; m < NumModules; m++ {
			fmt.Fprintf(&b, "%-3s", o.Levels[m])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// RenderTableII prints the primitive matrix as in the paper.
func RenderTableII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %s\n", "MPI Primitive", "M1 M2 M3 M4 M5")
	for _, row := range TableII {
		fmt.Fprintf(&b, "%-34s ", row.Name)
		for m := 0; m < NumModules; m++ {
			fmt.Fprintf(&b, "%-3s", row.Modules[m])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// RenderTableIII prints the demographics as in the paper.
func RenderTableIII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %s\n", "Program", "Number")
	for _, d := range TableIII {
		detail := ""
		if d.Detail != "" {
			detail = " (" + d.Detail + ")"
		}
		fmt.Fprintf(&b, "%-40s %d%s\n", d.Program, d.Count, detail)
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
