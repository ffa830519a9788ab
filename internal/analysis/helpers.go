package analysis

import (
	"go/ast"
	"go/types"
)

// Shared AST/type predicates used by the qbvet analyzers.

// Deref strips one level of pointer.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// IsNamed reports whether t (after pointer stripping) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	n, ok := Deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// IsMutexType reports whether t is sync.Mutex or sync.RWMutex.
func IsMutexType(t types.Type) bool {
	return IsNamed(t, "sync", "Mutex") || IsNamed(t, "sync", "RWMutex")
}

// ContainsMutex reports whether t is, or is a struct directly embedding or
// declaring a field of, a sync mutex type (pointers don't count: holding a
// *Mutex by value is fine).
func ContainsMutex(t types.Type) bool {
	if IsMutexType(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if IsMutexType(ft) {
			return true
		}
		// One nested level covers the shapes in this repo (e.g. a struct
		// holding an array of lock-guarded shards).
		if arr, ok := ft.Underlying().(*types.Array); ok && ContainsMutex(arr.Elem()) {
			return true
		}
	}
	return false
}

// CalleeObj resolves the object a call expression invokes (function,
// method or builtin), or nil for indirect calls through expressions.
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call
	}
	return nil
}

// IsConversion reports whether call is a type conversion (string(x),
// []byte(x), T(x)).
func IsConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// IsBuiltin reports whether call invokes the named builtin.
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// RootIdent returns the base identifier of a selector/index/star/paren
// chain (s.tokens[i].m -> s), or nil when the chain roots elsewhere (a
// call result, a literal).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// ObjOf returns the object an identifier uses or defines.
func ObjOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
