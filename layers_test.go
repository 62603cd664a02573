package repro_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// runtimeLayers is internal/mpi's message path as layers, bottom up.
// Every non-test file of the package sits in exactly one, and a file
// may name what its own layer and the layers below it declare. The link
// stack reaches the world above it only through the linkHost interface
// (link.go), so it names nothing of the World. request.go sits with the
// point-to-point files: a Request completes through Comm's receive and
// ack paths and its hook span.
var runtimeLayers = []struct {
	name  string
	files []string
}{
	{"codec and pool", []string{"envelope.go", "pool.go", "reduce.go", "mpi.go"}},
	{"link stack", []string{"link.go", "tcp.go", "reliable.go", "latency.go", "process.go"}},
	{"mailbox", []string{"mailbox.go"}},
	{"p2p, hook and stats", []string{"comm.go", "request.go", "hook.go", "stats.go"}},
	{"collectives", []string{"sched.go", "collectives.go", "icoll.go", "group.go"}},
	{"rma, ulfm and respawn", []string{"rma.go", "ulfm.go", "respawn.go"}},
	{"world", []string{"world.go", "fault.go"}},
}

// layerEdge is one upward file edge: from names what up declares.
type layerEdge struct{ from, up string }

// layerAllow lists the upward edges that stay, each with the reason and
// a ceiling on its reference count. Every edge into the World's files
// (world.go and fault.go) is a rank-side layer reaching the world it
// runs in; none comes from the link stack.
var layerAllow = map[layerEdge]struct {
	max int
	why string
}{
	{"mpi.go", "hook.go"}:          {1, "options carry the Hook that WithHook installs"},
	{"mpi.go", "link.go"}:          {1, "options carry the Injector that WithInjector installs"},
	{"request.go", "rma.go"}:       {4, "a Win.PutAsync request completes with its window's epoch"},
	{"mailbox.go", "world.go"}:     {10, "a mailbox acks through World.deliver and reports parks to the deadlock census"},
	{"mailbox.go", "fault.go"}:     {5, "a wait gives up on a kill, a declared failure or its deadline"},
	{"comm.go", "world.go"}:        {11, "a Comm is a rank's handle on its World: delivery, sequences, accounting, options"},
	{"hook.go", "world.go"}:        {10, "a span reads the World's hook, flow-id counter and accounting"},
	{"hook.go", "fault.go"}:        {4, "a span checks the kill plan at call entry and forwards lifecycle events"},
	{"collectives.go", "world.go"}: {1, "a collective reads the World's options"},
	{"icoll.go", "world.go"}:       {2, "an advance holds the World's collActive gate for the deadlock detector"},
	{"group.go", "world.go"}:       {5, "Split keys its context in the World's registry (ctxFor)"},
	{"rma.go", "world.go"}:         {22, "the window registry lives on the World, and one-sided traffic leaves through World.deliver"},
	{"rma.go", "fault.go"}:         {3, "a one-sided access fails fast on a killed target"},
	{"ulfm.go", "world.go"}:        {6, "recovery keys its successor's context in the World's registry"},
	{"ulfm.go", "fault.go"}:        {3, "recovery agrees on the World's failure view"},
	{"respawn.go", "world.go"}:     {13, "respawn resets a rank's World state and relaunches it"},
	{"respawn.go", "fault.go"}:     {10, "respawn reads and clears the World's failure state"},
}

// TestRuntimeLayers type-checks internal/mpi (through loadModule, which
// TestSurfaceReachable shares) and counts, per pair of files, the
// references from one file to a package-level declaration, field or
// method that a file of a higher layer declares. It fails on an upward
// edge layerAllow does not name, on one past its ceiling, on an entry
// whose edge is gone and on a file with no layer. With -v it prints
// every upward edge and the totals.
func TestRuntimeLayers(t *testing.T) {
	pkgs, fset := loadModule(t)
	var mpi *surfacePkg
	for _, p := range pkgs {
		if p.ImportPath == "repro/internal/mpi" {
			mpi = p
		}
	}
	if mpi == nil {
		t.Fatal("repro/internal/mpi is not in the module")
	}
	layerOf := map[string]int{}
	for i, l := range runtimeLayers {
		for _, f := range l.files {
			layerOf[f] = i
		}
	}
	present := map[string]bool{}
	counts := map[layerEdge]int{}
	names := map[layerEdge]map[string]bool{}
	for _, f := range mpi.files {
		from := filepath.Base(fset.Position(f.Pos()).Filename)
		present[from] = true
		lf, ok := layerOf[from]
		if !ok {
			t.Errorf("internal/mpi/%s has no layer in runtimeLayers", from)
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := surfaceOrigin(mpi.info.Uses[id])
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != mpi.ImportPath {
				return true
			}
			if v, ok := obj.(*types.Var); ok && !v.IsField() && obj.Parent() != obj.Pkg().Scope() {
				return true // a local variable or parameter
			}
			up := filepath.Base(fset.Position(obj.Pos()).Filename)
			if lu, ok := layerOf[up]; ok && lu > lf {
				e := layerEdge{from, up}
				counts[e]++
				if names[e] == nil {
					names[e] = map[string]bool{}
				}
				names[e][obj.Name()] = true
			}
			return true
		})
	}
	for f := range layerOf {
		if !present[f] {
			t.Errorf("runtimeLayers lists %s, which is not a non-test file of internal/mpi", f)
		}
	}

	var edges []layerEdge
	total, linkToWorld, avoidWorld := 0, 0, 0
	for e, n := range counts {
		edges = append(edges, e)
		total += n
		switch {
		case e.up != "world.go" && e.up != "fault.go":
			avoidWorld += n
		case runtimeLayers[layerOf[e.from]].name == "link stack":
			linkToWorld += n
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].up < edges[j].up
	})
	for _, e := range edges {
		n, allow := counts[e], layerAllow[e]
		t.Logf("%-14s -> %-9s %3d (ceiling %d)", e.from, e.up, n, allow.max)
		var named []string
		for name := range names[e] {
			named = append(named, name)
		}
		sort.Strings(named)
		switch {
		case allow.why == "":
			t.Errorf("%s names %s of %s, a higher layer: move the declaration down, or say in layerAllow why the edge stays", e.from, strings.Join(named, ", "), e.up)
		case n > allow.max:
			t.Errorf("%s makes %d references to %s (%s), above its ceiling of %d", e.from, n, e.up, strings.Join(named, ", "), allow.max)
		}
	}
	for e := range layerAllow {
		if counts[e] == 0 {
			t.Errorf("layerAllow lists %s -> %s, which makes no reference now: drop the entry", e.from, e.up)
		}
	}
	t.Logf("link files' references into world.go/fault.go: %d", linkToWorld)
	t.Logf("upward references that avoid World: %d", avoidWorld)
	t.Logf("%d upward edges, %d references", len(edges), total)
}
