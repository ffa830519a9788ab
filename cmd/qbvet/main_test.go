package main

import (
	"go/ast"
	"go/types"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// loadRepo type-checks the repository's own tree.
func loadRepo(t *testing.T) []*analysis.Package {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(strings.TrimSpace(string(out)))
	pkgs, err := analysis.NewLoader(root).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestSuiteCleanOnRepo runs the full qbvet suite over the repository's
// own tree: the codebase must satisfy every invariant it preaches.
func TestSuiteCleanOnRepo(t *testing.T) {
	diags, err := analysis.Run(loadRepo(t), Suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// wireImplementers names, in scope order, the concrete types of
// internal/wire that implement (by value or by pointer) the package's
// interface iface — exported or not.
func wireImplementers(t *testing.T, iface string) []string {
	t.Helper()
	for _, p := range loadRepo(t) {
		if p.ImportPath != "repro/internal/wire" {
			continue
		}
		scope := p.Types.Scope()
		want := scope.Lookup(iface).Type().Underlying().(*types.Interface)
		var impls []string
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			if types.Implements(tn.Type(), want) || types.Implements(types.NewPointer(tn.Type()), want) {
				impls = append(impls, name)
			}
		}
		return impls
	}
	t.Fatal("repro/internal/wire not loaded")
	return nil
}

// TestWireHasOneBackend pins the one-backend-stack collapse: exactly one
// type in internal/wire implements wire.Backend. Reconnection and
// namespacing are links beneath that one view, so a second implementation
// means flush-before-read, retry and error recording have been copied
// again.
func TestWireHasOneBackend(t *testing.T) {
	if impls, want := wireImplementers(t, "Backend"), []string{"StoreClient"}; !reflect.DeepEqual(impls, want) {
		t.Fatalf("wire.Backend implementations in internal/wire = %v, want %v", impls, want)
	}
}

// TestWireHasTwoLinks pins the connection seam beneath that view: the
// unexported link interface is implemented by a connection and by a
// self-healing connection, nothing else. The connection pool that was a
// third link measured neutral on the traffic it was built for
// (docs/bench/pr24) and was deleted; a new layer between a view and its
// connection has to show up here first.
func TestWireHasTwoLinks(t *testing.T) {
	if impls, want := wireImplementers(t, "link"), []string{"Client", "Reconnector"}; !reflect.DeepEqual(impls, want) {
		t.Fatalf("link implementations in internal/wire = %v, want %v", impls, want)
	}
}

// TestWireHasOneCodec pins the single wire codec: no type declared in
// internal/wire holds state from encoding/gob. Since protocol v7 every op,
// the hello included, rides the field-wise binary codec; gob is left only
// for formats at rest (snapshot files, storeSnapshot blobs), which are
// encoded into local buffers, never kept on a connection.
func TestWireHasOneCodec(t *testing.T) {
	// fromGob reports whether a type is, or is built from, an encoding/gob
	// named type.
	var fromGob func(types.Type) bool
	fromGob = func(typ types.Type) bool {
		switch t := typ.(type) {
		case *types.Named:
			return t.Obj().Pkg() != nil && t.Obj().Pkg().Path() == "encoding/gob"
		case *types.Pointer:
			return fromGob(t.Elem())
		case *types.Slice:
			return fromGob(t.Elem())
		case *types.Array:
			return fromGob(t.Elem())
		case *types.Map:
			return fromGob(t.Key()) || fromGob(t.Elem())
		case *types.Chan:
			return fromGob(t.Elem())
		}
		return false
	}
	for _, p := range loadRepo(t) {
		if p.ImportPath != "repro/internal/wire" {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); fromGob(f.Type()) {
					t.Errorf("wire.%s.%s is a %s: connections speak one codec", name, f.Name(), f.Type())
				}
			}
		}
		return
	}
	t.Fatal("repro/internal/wire not loaded")
}

// TestNothingPoolsBuffers pins the one send path per connection end: no
// non-test file of the repository uses sync.Pool. Each end frames in
// place into a buffer its frameWriter owns, so nothing is borrowed that
// could be returned twice, leaked on an error path or used after return.
// A pool that comes back must bring a checker for those mistakes with it.
func TestNothingPoolsBuffers(t *testing.T) {
	for _, p := range loadRepo(t) {
		for id, obj := range p.TypesInfo.Uses {
			if tn, ok := obj.(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
				t.Errorf("%s: sync.Pool: frame into a buffer the sender owns", p.Fset.Position(id.Pos()))
			}
		}
	}
}

// TestOwnerHasOneExecutor pins the one query path: outside its tests, the
// QB owner (the *Owner methods and the package's plain functions) reaches
// a technique's search (Search or SearchBatch) from one function,
// searchEnc, which the one executor, executeViewBatch, calls. A second
// caller means a second executor, with its own merge, view and failure
// semantics. Other owners are out of scope: VerticalOwner's column fetch
// logs no view and merges nothing, so it calls its column store directly.
func TestOwnerHasOneExecutor(t *testing.T) {
	for _, p := range loadRepo(t) {
		if p.ImportPath != "repro/internal/owner" {
			continue
		}
		callers := map[string]bool{}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || (fn.Recv != nil && types.ExprString(fn.Recv.List[0].Type) != "*Owner") {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if s := p.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal &&
						s.Obj().Pkg().Path() == "repro/internal/technique" &&
						(s.Obj().Name() == "Search" || s.Obj().Name() == "SearchBatch") {
						callers[fn.Name.Name] = true
					}
					return true
				})
			}
		}
		if want := map[string]bool{"searchEnc": true}; !reflect.DeepEqual(callers, want) {
			t.Fatalf("functions of internal/owner calling a technique search = %v, want only searchEnc", callers)
		}
		return
	}
	t.Fatal("repro/internal/owner not loaded")
}

// TestTechniqueHasOneStoreContract pins the one encrypted-store contract:
// outside its tests, internal/technique never asserts or switches a store
// to a store interface (every store implements all of EncStore, so such a
// probe guards a fallback nothing runs), never calls AttrColumn (a full
// column pull is AttrColumnSince from the zero version), and declares
// BatchEncStore and VersionedEncStore only as aliases of EncStore.
func TestTechniqueHasOneStoreContract(t *testing.T) {
	storeNames := map[string]bool{"EncStore": true, "BatchEncStore": true, "VersionedEncStore": true}
	for _, p := range loadRepo(t) {
		if p.ImportPath != "repro/internal/technique" {
			continue
		}
		// isStore reports whether a type expression denotes one of the store
		// interfaces, through an alias or not.
		isStore := func(e ast.Expr) bool {
			tv, ok := p.TypesInfo.Types[e]
			if !ok {
				return false
			}
			for _, typ := range []types.Type{tv.Type, types.Unalias(tv.Type)} {
				if n, ok := typ.(interface{ Obj() *types.TypeName }); ok && n.Obj().Pkg() == p.Types && storeNames[n.Obj().Name()] {
					return true
				}
			}
			return false
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					if n.Type != nil && isStore(n.Type) {
						t.Errorf("%s: type assertion to a store interface", p.Fset.Position(n.Pos()))
					}
				case *ast.CaseClause:
					for _, e := range n.List {
						if isStore(e) {
							t.Errorf("%s: type switch case on a store interface", p.Fset.Position(e.Pos()))
						}
					}
				case *ast.SelectorExpr:
					if s := p.TypesInfo.Selections[n]; s != nil && s.Obj().Name() == "AttrColumn" {
						t.Errorf("%s: AttrColumn called; a full pull is AttrColumnSince from the zero version", p.Fset.Position(n.Pos()))
					}
				case *ast.TypeSpec:
					if (n.Name.Name == "BatchEncStore" || n.Name.Name == "VersionedEncStore") && !n.Assign.IsValid() {
						t.Errorf("%s: %s is its own type, not an alias of EncStore", p.Fset.Position(n.Pos()), n.Name.Name)
					}
				}
				return true
			})
		}
		return
	}
	t.Fatal("repro/internal/technique not loaded")
}
