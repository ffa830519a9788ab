// Package lockdiscipline machine-checks the locking conventions
// docs/ARCHITECTURE.md states in prose:
//
//  1. no field of a lock-guarded object is written while only its read
//     lock is held (RLock regions are read-only);
//  2. inside internal/storage — the package owning the per-store lock
//     discipline — every direct mutation of a shared lock-bearing object
//     (Store, StoreSet, EncryptedStore, token shards) must be dominated
//     by a .Lock() on one of that object's mutexes. Locally constructed
//     objects (constructors building a store nobody shares yet) are
//     exempt.
//
// Copied locks (a mutex passed, returned or assigned by value) are go
// vet's copylocks check, which `make lint` runs; this pass does not repeat
// it.
//
// The analysis is intra-procedural and linear in source order, which
// matches how the repository writes critical sections (lock at the top,
// unlock via defer or straight-line code). Mutations through method calls
// are deliberately out of scope: methods synchronize internally, and rule
// 2 is about the raw field writes only the owning package can make.
//
// Helpers that run inside a caller's critical section declare it with the
// repository convention — a name ending in Locked, or a doc comment
// containing "caller holds" — and are analyzed with the receiver already
// write-locked.
package lockdiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the lockdiscipline pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "per-store write-lock discipline: no writes under RLock, storage mutations dominated by the write lock",
	Run:  run,
}

// scopePkgs are the packages where rule 2 (unlocked-mutation) applies.
var scopePkgs = []string{"repro/internal/storage"}

func inScope(pkgPath string) bool {
	for _, p := range scopePkgs {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				newWalker(pass, fn).walkBlock(fn.Body)
			}
		}
	}
	return nil
}

// --- the lock-state walker ----------------------------------------------

type lockState int

const (
	unlocked lockState = iota
	readLocked
	writeLocked
)

type walker struct {
	pass *analysis.Pass
	// state tracks, per root object, the strongest lock taken on one of
	// the object's own mutexes so far (linear source order).
	state map[types.Object]lockState
	// localOrigin marks roots constructed inside this function (fresh
	// composite literals / make / new): nobody shares them yet, so
	// unlocked writes are fine.
	localOrigin map[types.Object]bool
	// recv is the method receiver object, if any.
	recv     types.Object
	scoped   bool // rule 2 applies (storage package)
	funcLits int
}

func newWalker(pass *analysis.Pass, fn *ast.FuncDecl) *walker {
	w := &walker{
		pass:        pass,
		state:       make(map[types.Object]lockState),
		localOrigin: make(map[types.Object]bool),
		scoped:      inScope(pass.Pkg.Path()),
	}
	if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
		w.recv = analysis.ObjOf(pass.TypesInfo, fn.Recv.List[0].Names[0])
	}
	// Locked-helper convention: a method named ...Locked, or documented
	// "caller holds <mu>", runs with the receiver's write lock already
	// held by its caller. Its receiver starts write-locked.
	if w.recv != nil && isLockedHelper(fn) {
		w.state[w.recv] = writeLocked
	}
	return w
}

// isLockedHelper reports the repository's caller-holds-lock convention:
// either the function name carries the Locked suffix, or the doc comment
// says the caller holds a lock.
func isLockedHelper(fn *ast.FuncDecl) bool {
	if strings.HasSuffix(fn.Name.Name, "Locked") {
		return true
	}
	if fn.Doc == nil {
		return false
	}
	doc := strings.ToLower(fn.Doc.Text())
	return strings.Contains(doc, "caller holds") ||
		strings.Contains(doc, "caller must hold") ||
		strings.Contains(doc, "callers hold")
}

func (w *walker) walkBlock(b *ast.BlockStmt) {
	for _, st := range b.List {
		w.walkStmt(st)
	}
}

func (w *walker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		w.noteLockCall(st.X, false)
		w.checkExprStores(st.X)
	case *ast.DeferStmt:
		// defer mu.Unlock()/RUnlock() releases at return: the lock stays
		// held for the remainder of the linear walk, which is the
		// behavior we want for domination checks.
		w.noteLockCall(st.Call, true)
	case *ast.AssignStmt:
		w.checkAssign(st)
	case *ast.IncDecStmt:
		w.checkStoreAt(st.X)
	case *ast.BlockStmt:
		w.walkBlock(st)
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.walkBlock(st.Body)
		if st.Else != nil {
			w.walkStmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.walkBlock(st.Body)
	case *ast.RangeStmt:
		w.noteLocalOriginRange(st)
		w.walkBlock(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					w.walkStmt(cs)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					w.walkStmt(cs)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				for _, cs := range cc.Body {
					w.walkStmt(cs)
				}
			}
		}
	case *ast.GoStmt:
		// A spawned goroutine does not inherit the spawner's lock state.
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			saved := w.state
			w.state = make(map[types.Object]lockState)
			w.walkBlock(fl.Body)
			w.state = saved
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.noteLocalOriginSpec(vs)
				}
			}
		}
	case *ast.ReturnStmt, *ast.BranchStmt, *ast.EmptyStmt, *ast.SendStmt, *ast.LabeledStmt:
	}
	// Function literals assigned or passed inline: walk with fresh state
	// only for go statements (handled above); inline literals run on the
	// current goroutine and inherit the lock state, so walk them in
	// place.
	if _, ok := s.(*ast.GoStmt); !ok {
		ast.Inspect(s, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				w.funcLits++
				if w.funcLits < 8 { // guard against pathological nesting
					w.walkBlock(fl.Body)
				}
				return false
			}
			switch n.(type) {
			case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				return false // already walked structurally
			}
			return true
		})
	}
}

// noteLockCall updates lock state when e is mu.Lock/RLock/Unlock/RUnlock
// on a mutex field of some root object.
func (w *walker) noteLockCall(e ast.Expr, deferred bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	method := sel.Sel.Name
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return
	}
	// The receiver of Lock() must be a mutex: root.mu.Lock(), root.mu
	// being a sync.Mutex/RWMutex field (possibly nested).
	tv, ok := w.pass.TypesInfo.Types[sel.X]
	if !ok || !analysis.IsMutexType(tv.Type) {
		return
	}
	root := analysis.RootIdent(sel.X)
	if root == nil {
		return
	}
	obj := analysis.ObjOf(w.pass.TypesInfo, root)
	if obj == nil {
		return
	}
	switch method {
	case "Lock", "TryLock":
		w.state[obj] = writeLocked
	case "RLock", "TryRLock":
		if w.state[obj] < readLocked {
			w.state[obj] = readLocked
		}
	case "Unlock":
		if !deferred {
			w.state[obj] = unlocked
		}
	case "RUnlock":
		if !deferred && w.state[obj] == readLocked {
			w.state[obj] = unlocked
		}
	}
}

// checkExprStores handles delete(m, k) and append-into-field via
// expression statements (rare; appends usually assign).
func (w *walker) checkExprStores(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if analysis.IsBuiltin(w.pass.TypesInfo, call, "delete") && len(call.Args) > 0 {
		w.checkStoreAt(call.Args[0])
	}
}

func (w *walker) checkAssign(as *ast.AssignStmt) {
	// Track locally constructed objects first (x := &T{...}).
	w.noteLocalOriginAssign(as)
	for _, lhs := range as.Lhs {
		w.checkStoreAt(lhs)
	}
}

// checkStoreAt flags a direct write to a field/element of a shared
// lock-bearing object made without the required lock.
func (w *walker) checkStoreAt(lhs ast.Expr) {
	// Only selector/index chains are field writes; a bare ident is a
	// local rebind.
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	root := analysis.RootIdent(lhs)
	if root == nil {
		return
	}
	obj := analysis.ObjOf(w.pass.TypesInfo, root)
	if obj == nil || w.localOrigin[obj] {
		return
	}
	// The root must itself be (a pointer to) a lock-bearing struct; a
	// write into a plain local slice/map is not lock-guarded state.
	if !analysis.ContainsMutex(analysis.Deref(obj.Type())) {
		return
	}
	switch w.state[obj] {
	case writeLocked:
		return
	case readLocked:
		w.pass.Reportf(lhs.Pos(),
			"write to %s.%s while holding only the read lock; RLock regions must be read-only",
			root.Name, storePath(lhs))
	case unlocked:
		if !w.scoped {
			return
		}
		w.pass.Reportf(lhs.Pos(),
			"mutation of %s.%s is not dominated by a write lock on %s; take .Lock() first (see ARCHITECTURE.md, per-store lock discipline)",
			root.Name, storePath(lhs), root.Name)
	}
}

// storePath renders the written chain minus the root for the message.
func storePath(lhs ast.Expr) string {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return storePath(x.X) + "[...]"
	case *ast.StarExpr:
		return storePath(x.X)
	}
	return "?"
}

// --- local-origin tracking ----------------------------------------------

func (w *walker) noteLocalOriginAssign(as *ast.AssignStmt) {
	if as.Tok.String() != ":=" {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || i >= len(as.Rhs) && len(as.Rhs) != 1 {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else {
			rhs = as.Rhs[0]
		}
		if isFreshValue(w.pass.TypesInfo, rhs) {
			if obj := analysis.ObjOf(w.pass.TypesInfo, id); obj != nil {
				w.localOrigin[obj] = true
			}
		}
	}
}

func (w *walker) noteLocalOriginSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if len(vs.Values) == 0 {
			// var x T — zero value, locally owned until shared.
			if obj := analysis.ObjOf(w.pass.TypesInfo, name); obj != nil {
				w.localOrigin[obj] = true
			}
			continue
		}
		if i < len(vs.Values) && isFreshValue(w.pass.TypesInfo, vs.Values[i]) {
			if obj := analysis.ObjOf(w.pass.TypesInfo, name); obj != nil {
				w.localOrigin[obj] = true
			}
		}
	}
}

func (w *walker) noteLocalOriginRange(st *ast.RangeStmt) {
	// Range VALUE variables are copies; writes to their fields mutate the
	// copy, not shared state.
	if id, ok := st.Value.(*ast.Ident); ok && id.Name != "_" {
		if obj := analysis.ObjOf(w.pass.TypesInfo, id); obj != nil {
			if _, isPtr := obj.Type().Underlying().(*types.Pointer); !isPtr {
				w.localOrigin[obj] = true
			}
		}
	}
}

// isFreshValue: composite literals, &literals, new(T), make(...) — values
// no other goroutine can hold yet.
func isFreshValue(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := x.X.(*ast.CompositeLit)
		return lit
	case *ast.CallExpr:
		return analysis.IsBuiltin(info, x, "new") || analysis.IsBuiltin(info, x, "make")
	}
	return false
}
