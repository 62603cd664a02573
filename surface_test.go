package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceKeep lists the exported names in internal/ that no non-test
// file uses, each with the reason it stays exported. A name is written
// as its package directory under internal/, then the name, with the
// receiver type between them for a method: "mpi.Win.GetInto".
var surfaceKeep = map[string]string{
	"mpi.Exscan":                   "DESIGN.md lists it with the collectives",
	"mpi.Win.GetInto":              "README.md teaches it with the one-sided operations",
	"mpi.Win.LockShared":           "README.md teaches it with the passive-target epochs",
	"mpi.Win.GetAsync":             "README.md teaches it as MPI_Rget",
	"mpi.Comm.Abort":               "README.md teaches it with the failure semantics",
	"mpi.Ibcast":                   "README.md teaches it with the nonblocking collectives",
	"mpi.Ireduce":                  "README.md teaches it with the nonblocking collectives",
	"mpi.Ibarrier":                 "README.md teaches it with the nonblocking collectives",
	"mpi.ReduceScatter":            "README.md teaches it with the nonblocking collectives",
	"mpi.Alltoall":                 "README.md and DESIGN.md list it with the collectives",
	"cluster.Cluster.Cancel":       "DESIGN.md teaches it as scancel",
	"modules/distmatrix.TileSweep": "DESIGN.md teaches it as outcome 6's tile sweep",
	"mpi.Comm.Iprobe":              "curriculum.SendRecvVariants names MPI_Iprobe",
	"mpi.Scatterv":                 "PrimScatterv is in the primitive table",

	// Seams that tests in other packages set, so export_test.go
	// cannot hold them.
	"mpi.WithEagerThreshold":                 "hashjoin, latencyhiding and the root benchmarks set it",
	"mpi.WithSynchronousSends":               "hashjoin and latencyhiding tests set it",
	"mpi.WithChildArgs":                      "cmd/mpirun's tests set it",
	"mpi.WithChildOutput":                    "cmd/mpirun's tests set it",
	"ckpt.MemCheckpointer.Saves":             "the kmeans and distsort restart tests count saves",
	"modules/distsort.SortResilient":         "the distsort and chaos tests respawn through it",
	"modules/kmeans.PlusPlusCentroids":       "the kmeans tests and root benchmarks seed with it",
	"modules/kmeans.SequentialWithCentroids": "the kmeans tests and root benchmarks run it",

	"leakcheck.State.Check": "the leakcheck package exists for tests",
}

// TestExportedSurfaceHasCallers fails when an exported func, type,
// const or var in internal/, or an exported method of an exported type
// there, has no use in any non-test file of the module and is not in
// surfaceKeep, and when an entry of surfaceKeep names a declaration
// that is gone or has gained a use.
//
// Uses are found by name, from the syntax alone: any identifier with
// the declared name, in any non-test file, other than a declaration's
// own name. So a name that shares its spelling with a used one (two
// packages' Sequential) counts as used.
func TestExportedSurfaceHasCallers(t *testing.T) {
	type file struct {
		dir string
		f   *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported declarations in internal/, keyed as in surfaceKeep.
	decls := map[string]*ast.Ident{}
	add := func(dir, key string, id *ast.Ident) {
		if ast.IsExported(id.Name) {
			decls[strings.TrimPrefix(dir, "internal/")+"."+key] = id
		}
	}
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(fl.dir, d.Name.Name, d.Name)
					continue
				}
				recv := receiverType(d.Recv.List[0].Type)
				if ast.IsExported(recv) {
					add(fl.dir, recv+"."+d.Name.Name, d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(fl.dir, s.Name.Name, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(fl.dir, id.Name, id)
						}
					}
				}
			}
		}
	}

	// Uses: every identifier of every non-test file but the declared
	// names themselves.
	declared := map[*ast.Ident]bool{}
	for _, id := range decls {
		declared[id] = true
	}
	used := map[string]bool{}
	for _, fl := range files {
		ast.Inspect(fl.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var problems []string
	for key, id := range decls {
		_, kept := surfaceKeep[key]
		switch {
		case !used[id.Name] && !kept:
			problems = append(problems, key+" is exported, but no non-test file uses it: delete it, unexport it, or say in surfaceKeep why it stays")
		case used[id.Name] && kept:
			problems = append(problems, "surfaceKeep lists "+key+", but a non-test file uses it now: drop the entry")
		}
	}
	for key := range surfaceKeep {
		if _, ok := decls[key]; !ok {
			problems = append(problems, "surfaceKeep lists "+key+", which is not an exported declaration in internal/: drop the entry")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// receiverType returns the name of a method's receiver type, without
// pointer or type parameters.
func receiverType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
