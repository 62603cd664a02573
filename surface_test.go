package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// surfaceKeep lists the declarations in internal/ that no binary
// reaches but that stay, each with the reason. A declaration is written
// as its package directory under internal/, then the name, with the
// receiver type between them for a method: "mpi.Win.GetInto". Each
// entry is a root of the reachability walk, so what a kept declaration
// uses counts as reached too.
var surfaceKeep = map[string]string{
	// Seams that tests in other packages set or call, so a _test.go
	// file of the declaring package cannot hold them.
	"mpi.WithEagerThreshold":                 "hashjoin, latencyhiding and the root benchmarks set it",
	"mpi.WithSynchronousSends":               "hashjoin and latencyhiding tests set it",
	"mpi.WithChildArgs":                      "cmd/mpirun's tests set it",
	"mpi.WithChildOutput":                    "cmd/mpirun's tests set it",
	"ckpt.MemCheckpointer.Saves":             "the kmeans and distsort restart tests count saves",
	"modules/distsort.SortResilient":         "the distsort and chaos tests respawn through it",
	"modules/kmeans.PlusPlusCentroids":       "the kmeans tests and root benchmarks seed with it",
	"modules/kmeans.SequentialWithCentroids": "the kmeans tests and root benchmarks run it",
	"cluster.Cluster.Cancel":                 "bench/workloads.go reads Stats.Cancelled, which only Cancel moves",
	"cluster.Cluster.Now":                    "the workload tests step the clock from it",
	"curriculum.Validate":                    "the root benchmarks check the registry with it",
	"faults.MustParse":                       "tests in mpirun, chaos, distsort, kmeans, telemetry and workload build plans with it",
	"modules/rangequery.Sequential":          "the root benchmarks compare against it",

	"leakcheck.Snapshot":    "the leakcheck package exists for tests",
	"leakcheck.State.Check": "the leakcheck package exists for tests",
}

// ifaceMethodNames are the method names of the standard-library
// interfaces whose implementations the runtime calls for us (fmt,
// sort, heap, flag, io, encoding/json, errors), so no call site names them.
var ifaceMethodNames = []string{
	"Error", "String", "Format", "Len", "Less", "Swap", "Push", "Pop",
	"Set", "Read", "Write", "Close", "MarshalJSON", "Is", "Unwrap",
}

// TestSurfaceReachable fails when a non-test declaration in internal/
// (a func, method, type, const or var, exported or not) is not reached
// from a binary and surfaceKeep does not name it, and when an entry of
// surfaceKeep names a declaration that is gone or that a binary reaches.
//
// The roots are the main and init functions of cmd/, bench/ and
// examples/, every init function, every package-level var initialiser
// and, after the stale-entry check, the surfaceKeep entries. A reached
// declaration marks every func, method, type, const and var it names
// (resolved by go/types, so two packages' Sequential are told apart).
// A method is also reached when its receiver type is, and its name is
// a method of an interface declared in the module or of one in
// ifaceMethodNames. A const of an iota block is reached with its block.
func TestSurfaceReachable(t *testing.T) {
	pkgs, fset := loadModule(t)
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}

	decls := map[types.Object]*surfaceDecl{}
	byKey := map[string]*surfaceDecl{}
	type root struct {
		node ast.Node
		info *types.Info
	}
	var roots []root
	ifaceNames := map[string]bool{}
	for _, n := range ifaceMethodNames {
		ifaceNames[n] = true
	}
	// methods lists each named type's methods, for the interface rule.
	methods := map[types.Object][]*surfaceDecl{}
	for _, p := range pkgs {
		pkgDir := strings.TrimPrefix(p.ImportPath, "repro/")
		internal := strings.HasPrefix(pkgDir, "internal/")
		binary := p.Name == "main"
		// add records a declaration; the names of one iota block share
		// the block's declaration.
		var block *surfaceDecl
		add := func(id *ast.Ident, node ast.Node, key string) *surfaceDecl {
			d := block
			if d == nil {
				d = &surfaceDecl{node: node, info: p.info}
			}
			if d.where == "" {
				pos := fset.Position(id.Pos())
				rel, _ := filepath.Rel(dir, pos.Filename)
				d.where = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)
			}
			if internal {
				key = strings.TrimPrefix(pkgDir, "internal/") + "." + key
				d.keys = append(d.keys, key)
				byKey[key] = d
			}
			decls[p.info.Defs[id]] = d
			return d
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				block = nil
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						if decl.Name.Name == "init" || (binary && decl.Name.Name == "main") {
							roots = append(roots, root{decl, p.info})
							continue
						}
						add(decl.Name, decl, decl.Name.Name)
						continue
					}
					recv := surfaceRecv(decl.Recv.List[0].Type)
					d := add(decl.Name, decl, recv.Name+"."+decl.Name.Name)
					d.method = decl.Name.Name
					tn := p.info.Uses[recv]
					methods[tn] = append(methods[tn], d)
				case *ast.GenDecl:
					if decl.Tok == token.CONST && surfaceUsesIota(decl) {
						block = &surfaceDecl{node: decl, info: p.info}
					}
					for _, s := range decl.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, s.Name.Name)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										ifaceNames[n.Name] = true
									}
								}
							}
						case *ast.ValueSpec:
							if decl.Tok == token.VAR {
								for _, v := range s.Values {
									roots = append(roots, root{v, p.info})
								}
							}
							for _, id := range s.Names {
								if id.Name != "_" {
									add(id, s, id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	// Walk: a reached declaration names others through info.Uses; a
	// reached type brings along its methods that implement an interface.
	var work []*surfaceDecl
	reach := func(d *surfaceDecl) {
		if d != nil && !d.reached {
			d.reached = true
			work = append(work, d)
		}
	}
	visit := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				reach(decls[surfaceOrigin(info.Uses[id])])
			}
			return true
		})
	}
	drain := func() {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			visit(d.node, d.info)
			if tn := d.typeName(); tn != nil {
				for _, m := range methods[tn] {
					if ifaceNames[m.method] {
						reach(m)
					}
				}
			}
		}
	}
	for _, r := range roots {
		visit(r.node, r.info)
	}
	drain()

	var problems []string
	for key := range surfaceKeep {
		d := byKey[key]
		switch {
		case d == nil:
			problems = append(problems, "surfaceKeep lists "+key+", which is not a declaration in internal/: drop the entry")
		case d.reached:
			problems = append(problems, fmt.Sprintf("surfaceKeep lists %s (%s), but a binary reaches it now: drop the entry", key, d.where))
		default:
			reach(d)
		}
	}
	drain()
	for key, d := range byKey {
		if !d.reached && d.keys[0] == key {
			key = strings.Join(d.keys, ", ")
			problems = append(problems, fmt.Sprintf("%s (%s) is reached from no binary: delete it, move it into a _test.go file, or say in surfaceKeep why it stays", key, d.where))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// surfaceDecl is one package-level declaration of the module: its
// syntax (a whole iota block for a const in one), and whether the walk
// has reached it.
type surfaceDecl struct {
	keys    []string // its names, for internal/ declarations only
	method  string   // the method name, for a method
	where   string   // file:line of its first name
	node    ast.Node
	info    *types.Info
	reached bool
}

// typeName returns the declared type name of a TypeSpec, or nil.
func (d *surfaceDecl) typeName() types.Object {
	if s, ok := d.node.(*ast.TypeSpec); ok {
		return d.info.Defs[s.Name]
	}
	return nil
}

// surfacePkg is one type-checked package of the module.
type surfacePkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Main bool }

	files []*ast.File
	info  *types.Info
}

// module is the module type-checked once for every test that reads it
// (TestSurfaceReachable, TestRuntimeLayers), which must not modify it.
var module struct {
	once sync.Once
	pkgs []*surfacePkg
	fset *token.FileSet
	err  error
}

// loadModule returns the module's packages, type-checked on first use.
func loadModule(t *testing.T) ([]*surfacePkg, *token.FileSet) {
	t.Helper()
	module.once.Do(func() { module.pkgs, module.fset, module.err = checkModule() })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs, module.fset
}

// checkModule lists the module's packages with their dependencies and
// type-checks each module package from its non-test source, in
// dependency order, importing everything else from export data.
func checkModule() ([]*surfacePkg, *token.FileSet, error) {
	out, err := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Name,Dir,GoFiles,Export,Module", "./...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, nil, fmt.Errorf("go list: %v\n%s", err, ee.Stderr)
		}
		return nil, nil, err
	}
	fset := token.NewFileSet()
	export := map[string]string{}
	var pkgs []*surfacePkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(surfacePkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, err
		}
		if p.Module != nil && p.Module.Main {
			if len(p.GoFiles) > 0 { // else a package of tests only
				pkgs = append(pkgs, p)
			}
		} else {
			export[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := export[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	imp := surfaceImporter(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	for _, p := range pkgs {
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, p.files, p.info)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
	}
	return pkgs, fset, nil
}

type surfaceImporter func(string) (*types.Package, error)

func (f surfaceImporter) Import(path string) (*types.Package, error) { return f(path) }

// surfaceOrigin maps a method or field of an instantiated generic type
// back to its declaration.
func surfaceOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// surfaceRecv returns a method's receiver type name, without pointer
// or type parameters.
func surfaceRecv(x ast.Expr) *ast.Ident {
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
			return e
		default:
			panic(fmt.Sprintf("receiver %T", x))
		}
	}
}

// surfaceUsesIota reports whether a const block numbers with iota.
func surfaceUsesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}
