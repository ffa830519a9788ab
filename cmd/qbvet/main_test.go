package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"iter"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// repo is the repository's own tree, type-checked once per test binary:
// the pins below only read it.
var repo struct {
	once sync.Once
	pkgs []*analysis.Package
	err  error
}

// loadRepo returns the repository's own tree, type-checked.
func loadRepo(t *testing.T) []*analysis.Package {
	t.Helper()
	repo.once.Do(func() { repo.pkgs, repo.err = analysis.NewLoader("").Load("repro/...") })
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.pkgs
}

// repoPackage returns the repository's package with the given import path.
func repoPackage(t *testing.T, path string) *analysis.Package {
	t.Helper()
	for _, p := range loadRepo(t) {
		if p.ImportPath == path {
			return p
		}
	}
	t.Fatalf("%s not loaded", path)
	return nil
}

// decls yields each top-level declaration of p with the name of the
// function it declares — f, or (*T).m for a method — or "" for others.
func decls(p *analysis.Package) iter.Seq2[string, ast.Decl] {
	return func(yield func(string, ast.Decl) bool) {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				name := ""
				if fn, ok := decl.(*ast.FuncDecl); ok {
					name = fn.Name.Name
					if fn.Recv != nil {
						name = "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + name
					}
				}
				if !yield(name, decl) {
					return
				}
			}
		}
	}
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
	scope := repoPackage(t, "repro/internal/wire").Types.Scope()
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

// TestReconnectRestoresNoData pins that a reconnect restores the
// connection, not the data: wire.StoreClient holds no copy of a relation,
// and outside its tests internal/wire builds an opPlainLoad request only
// in (*StoreClient).Load. An owner-side mirror re-shipped on reconnect
// overwrote the clear-text tuples other writers had inserted since, and
// a cloud that lost acknowledged tuples must fail loudly, not be refilled.
func TestReconnectRestoresNoData(t *testing.T) {
	p := repoPackage(t, "repro/internal/wire")
	scope := p.Types.Scope()
	plainLoad := scope.Lookup("opPlainLoad")
	st := scope.Lookup("StoreClient").Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); types.TypeString(f.Type(), nil) == "*repro/internal/relation.Relation" {
			t.Errorf("wire.StoreClient.%s is a %s: a view keeps lengths, not relations", f.Name(), f.Type())
		}
	}
	for name, decl := range decls(p) {
		if name == "" || name == "(*StoreClient).Load" {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			key, _ := kv.Key.(*ast.Ident)
			val, _ := kv.Value.(*ast.Ident)
			if key != nil && key.Name == "Op" && val != nil && p.TypesInfo.Uses[val] == plainLoad {
				t.Errorf("%s: %s builds an opPlainLoad request; only (*StoreClient).Load ships a relation", p.Fset.Position(kv.Pos()), name)
			}
			return true
		})
	}
}

// TestCloudHasOneAdmissionLevel pins the cloud's one admission level: a
// per-connection bound on ops in flight. Outside its tests internal/wire
// declares no identifier containing "Workers" but connWorkers (the seam
// tests use to pin that bound), and (*Cloud).ServeConn makes one channel,
// the semaphore its decode loop takes a slot of before it spawns an op. A
// per-namespace bound, a runtime override of it or a second in-flight
// bound beside the semaphore has to show up here first.
func TestCloudHasOneAdmissionLevel(t *testing.T) {
	p := repoPackage(t, "repro/internal/wire")
	for id, obj := range p.TypesInfo.Defs {
		if obj != nil && strings.Contains(id.Name, "Workers") && id.Name != "connWorkers" {
			t.Errorf("%s: internal/wire declares %s: the cloud has one admission level, per connection", p.Fset.Position(id.Pos()), id.Name)
		}
	}
	chans := 0
	for name, decl := range decls(p) {
		if name != "(*Cloud).ServeConn" {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fun, ok := call.Fun.(*ast.Ident)
			if !ok || fun.Name != "make" {
				return true
			}
			if _, builtin := p.TypesInfo.Uses[fun].(*types.Builtin); builtin {
				if _, isChan := p.TypesInfo.TypeOf(call.Args[0]).Underlying().(*types.Chan); isChan {
					chans++
				}
			}
			return true
		})
	}
	if chans != 1 {
		t.Errorf("(*Cloud).ServeConn makes %d channels, want 1: one semaphore bounds both execution and a flooding peer", chans)
	}
}

// TestRingRidesPlainConnections pins the ring's one repair path: no
// non-test file of internal/ring names the self-healing link. A ring node
// connection is a plain *wire.Client redialed after the down-cooldown, and
// a replica that lost state is caught up by quarantine, anti-entropy and
// readmission; a Reconnector beneath a replica would replay an owner-side
// mirror into the node as a second, racing repair.
func TestRingRidesPlainConnections(t *testing.T) {
	banned := map[string]bool{"Reconnector": true, "NewReconnector": true, "DialReconnect": true, "ReconnectOptions": true}
	p := repoPackage(t, "repro/internal/ring")
	for id, obj := range p.TypesInfo.Uses {
		if obj.Pkg() != nil && obj.Pkg().Path() == "repro/internal/wire" && banned[obj.Name()] {
			t.Errorf("%s: wire.%s: ring nodes ride plain connections", p.Fset.Position(id.Pos()), obj.Name())
		}
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
	scope := repoPackage(t, "repro/internal/wire").Types.Scope()
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
}

// TestWireHasOneBinSearch pins the one clear-text read: the op table of
// internal/wire holds exactly one plain-search op, and outside its tests
// the package reaches the clear-text store's search only through the
// conditional call, (*storage.PlainStore).SearchSince, once, in server.go.
// An unconditional search is the conditional one from the zero version; a
// second search op or a call of PlainStore.Search would be a second path
// that resends whole bins an owner already holds.
func TestWireHasOneBinSearch(t *testing.T) {
	p := repoPackage(t, "repro/internal/wire")
	var ops []string
	for _, obj := range p.TypesInfo.Defs {
		if c, ok := obj.(*types.Const); ok && c.Parent() == p.Types.Scope() &&
			types.TypeString(c.Type(), nil) == "repro/internal/wire.op" && strings.HasPrefix(c.Name(), "opPlainSearch") {
			ops = append(ops, c.Name())
		}
	}
	sort.Strings(ops)
	if len(ops) != 1 {
		t.Errorf("the op table holds %d plain-search ops %v, want 1", len(ops), ops)
	}
	var calls []string
	for id, obj := range p.TypesInfo.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil || types.TypeString(recv.Type(), nil) != "*repro/internal/storage.PlainStore" || !strings.Contains(fn.Name(), "Search") {
			continue
		}
		pos := p.Fset.Position(id.Pos())
		calls = append(calls, filepath.Base(pos.Filename)+":"+fn.Name())
	}
	sort.Strings(calls)
	if want := []string{"server.go:SearchSince"}; !reflect.DeepEqual(calls, want) {
		t.Errorf("internal/wire searches the clear-text store through %v, want only %v", calls, want)
	}
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

// TestTokensCompareInOnePlace pins the cloud's one token check: outside
// its tests, only wire.tokenMatches calls hmac.Equal or a function of
// crypto/subtle, and outside internal/storage a reference to a stored
// token hash (wire.hashToken, (*storage.Store).OwnerHash,
// Cloud.ringTokenHash) is an argument of tokenMatches, a nil check, or
// one of the three sites that store a hash: SetRingToken, the owner claim
// in (*Cloud).dispatch and storeSnapshotOf. A hash that reaches ==,
// bytes.Equal or a second comparison leaks through its timing how much
// of a forged owner or ring token matched.
func TestTokensCompareInOnePlace(t *testing.T) {
	hashes := map[string]bool{"repro/internal/wire.hashToken": true, "repro/internal/wire.ringTokenHash": true,
		"repro/internal/storage.OwnerHash": true}
	for _, p := range loadRepo(t) {
		for name, decl := range decls(p) {
			if p.ImportPath == "repro/internal/wire" && name == "tokenMatches" {
				continue
			}
			ok := map[ast.Node]bool{} // the expressions a hash may be
			pass := func(es ...ast.Expr) {
				for _, e := range es {
					ok[ast.Unparen(e)] = true
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if callee := objName(analysis.CalleeObj(p.TypesInfo, n)); callee == "repro/internal/wire.tokenMatches" ||
						callee == "repro/internal/storage.ClaimOwner" && name == "(*Cloud).dispatch" {
						pass(n.Args...)
					}
					if ok[n] {
						pass(n.Fun)
					}
				case *ast.SelectorExpr:
					if ok[n] {
						pass(n.Sel)
					}
				case *ast.BinaryExpr:
					if (n.Op == token.EQL || n.Op == token.NEQ) && (isNil(p, n.X) || isNil(p, n.Y)) {
						pass(n.X, n.Y)
					}
				case *ast.AssignStmt:
					if name == "(*Cloud).SetRingToken" {
						pass(append(n.Lhs, n.Rhs...)...)
					}
				case *ast.KeyValueExpr:
					if name == "storeSnapshotOf" {
						pass(n.Value)
					}
				case *ast.Ident:
					if key := objName(p.TypesInfo.Uses[n]); key == "crypto/hmac.Equal" || strings.HasPrefix(key, "crypto/subtle.") {
						t.Errorf("%s: %s in %s: tokens compare only in wire.tokenMatches", p.Fset.Position(n.Pos()), key, name)
					} else if hashes[key] && !ok[n] && p.ImportPath != "repro/internal/storage" {
						t.Errorf("%s: %s in %s is not an argument of tokenMatches, a nil check or a stored hash: tokens compare only in wire.tokenMatches",
							p.Fset.Position(n.Pos()), key, name)
					}
				}
				return true
			})
		}
	}
}

// objName names obj as pkgpath.name, or "" when it belongs to no package.
func objName(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// isNil reports whether e is the untyped nil.
func isNil(p *analysis.Package, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	_, isNil := p.TypesInfo.Uses[id].(*types.Nil)
	return ok && isNil
}

// TestClockReadsAreNamed pins where internal/wire and internal/ring read
// or wait on the wall clock: outside their tests, time.Now, Sleep, After,
// Tick, NewTimer, NewTicker, AfterFunc, Since and Until are used only in
// wire/clock.go, the real wire.Clock the reconnect backoff runs on so its
// tests do not sleep wall time, and at the ring sites named below, as
// often as listed. A ring site that moves onto an injected clock leaves
// by deleting its entry.
func TestClockReadsAreNamed(t *testing.T) {
	clockFunc := regexp.MustCompile(`^(Now|Sleep|After|Tick|NewTimer|NewTicker|AfterFunc|Since|Until)$`)
	want := map[string]int{"ring.(*nodeConn).downLocked": 1, "ring.(*nodeConn).markDownLocked": 1,
		"ring.(*Coordinator).Run": 2, "ring.(*Coordinator).confirmDivergence": 1}
	got := map[string][]string{}
	for _, pkg := range []string{"wire", "ring"} {
		p := repoPackage(t, "repro/internal/"+pkg)
		for name, decl := range decls(p) {
			if pkg == "wire" && filepath.Base(p.Fset.Position(decl.Pos()).Filename) == "clock.go" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := p.TypesInfo.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
						clockFunc.MatchString(fn.Name()) && fn.Type().(*types.Signature).Recv() == nil {
						got[pkg+"."+name] = append(got[pkg+"."+name], p.Fset.Position(id.Pos()).String())
					}
				}
				return true
			})
		}
	}
	for site := range got {
		want[site] += 0 // an unnamed site is allowed no reads
	}
	for site, n := range want {
		if len(got[site]) != n {
			t.Errorf("%s reads the wall clock %d times %v, want %d: wire reads it through wire.Clock, ring at named sites only", site, len(got[site]), got[site], n)
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
	p := repoPackage(t, "repro/internal/owner")
	callers := map[string]bool{}
	for name, decl := range decls(p) {
		if name == "" || strings.HasPrefix(name, "(") && !strings.HasPrefix(name, "(*Owner).") {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s := p.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal &&
				s.Obj().Pkg().Path() == "repro/internal/technique" &&
				(s.Obj().Name() == "Search" || s.Obj().Name() == "SearchBatch") {
				callers[strings.TrimPrefix(name, "(*Owner).")] = true
			}
			return true
		})
	}
	if want := map[string]bool{"searchEnc": true}; !reflect.DeepEqual(callers, want) {
		t.Fatalf("functions of internal/owner calling a technique search = %v, want only searchEnc", callers)
	}
}

// TestTechniqueHasOneStoreContract pins the one encrypted-store contract:
// outside its tests, internal/technique never asserts or switches a store
// to a store interface (every store implements all of EncStore, so such a
// probe guards a fallback nothing runs), never calls AttrColumn (a full
// column pull is AttrColumnSince from the zero version), and declares
// BatchEncStore and VersionedEncStore only as aliases of EncStore.
func TestTechniqueHasOneStoreContract(t *testing.T) {
	storeNames := map[string]bool{"EncStore": true, "BatchEncStore": true, "VersionedEncStore": true}
	p := repoPackage(t, "repro/internal/technique")
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
}

// TestEveryBinaryHasAConsumer pins that no binary sits unexercised: every
// main package under cmd/ has a test file of its own, or a Makefile
// recipe builds it (make smoke, lint and audit run what they build). A
// binary nothing runs rots unseen, as the SQL shell did at 0 % coverage.
func TestEveryBinaryHasAConsumer(t *testing.T) {
	var mains []*analysis.Package
	for _, p := range loadRepo(t) {
		if strings.HasPrefix(p.ImportPath, "repro/cmd/") && p.Types.Name() == "main" {
			mains = append(mains, p)
		}
	}
	makefile, err := os.ReadFile(filepath.Join(repoPackage(t, "repro").Dir, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no main package under cmd/ loaded")
	}
	for _, p := range mains {
		tests, err := filepath.Glob(filepath.Join(p.Dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		cmd := "./cmd/" + filepath.Base(p.Dir)
		built := regexp.MustCompile(`(?m)^\t.*\bbuild\b.*` + regexp.QuoteMeta(cmd) + `(\s|$)`).Match(makefile)
		if len(tests) == 0 && !built {
			t.Errorf("%s has no test file and no Makefile recipe builds it", cmd)
		}
	}
}

// TestEveryConfigFieldHasASetter pins that repro.Config carries no option
// only its own package reads: every exported field is assigned somewhere
// in the non-test code of another package — a binary, an example, the
// load generator or the benchmark — by key in a composite literal or as
// x.F = …. A field nothing outside the root package sets is a knob no
// user reaches; an ablation that needs it can set the internal option
// directly, as the bin-shape benchmark sets core.Options.
func TestEveryConfigFieldHasASetter(t *testing.T) {
	isConfig := func(typ types.Type) bool {
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		return typ != nil && types.TypeString(typ, nil) == "repro.Config"
	}
	set := make(map[string]bool)
	fields := repoPackage(t, "repro").Types.Scope().Lookup("Config").Type().Underlying().(*types.Struct)
	for _, p := range loadRepo(t) {
		if p.ImportPath == "repro" {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if !isConfig(p.TypesInfo.TypeOf(n)) {
						return true
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								set[key.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if s := p.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.FieldVal && isConfig(s.Recv()) {
								set[sel.Sel.Name] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	for i := 0; i < fields.NumFields(); i++ {
		if f := fields.Field(i); f.Exported() && !set[f.Name()] {
			t.Errorf("repro.Config.%s is set nowhere outside the root package", f.Name())
		}
	}
}
