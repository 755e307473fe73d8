// Package frozenmut enforces the //pdnlint:frozen immutability
// contract. A type whose declaration doc carries the directive (e.g.
// sparse.Pattern, rmesh.Topology) promises that values are immutable
// once constructed: downstream code may share them freely across
// goroutines and cache keys may hash their contents. The analyzer
// rejects
//
//   - writes to fields of a frozen value (x.f = v, x.f += v, x.f++),
//   - writes through a frozen value's pointer-typed fields (*x.p = v,
//     x.p.g = v),
//   - element writes through a frozen value's slices, whether reached
//     via a field (x.col[i] = v) or a slice-returning method
//     (s := x.Rows(); s[0] = v),
//   - retention of such slices outside the declaring package — storing
//     one into a struct field, map/slice element, or package variable
//     aliases internals the frozen contract says nobody else mutates.
//
// Two exceptions. Construction: a value the current function freshly
// created (x := &T{...}, new(T), or a composite literal) may be
// populated field by field before it is published — the builder pattern
// sparse.Builder.Freeze and rmesh build on. Lazy initialization: writes
// inside the function literal of x.once.Do(func() { ... }), where once
// is a sync.Once field of the same frozen value x, happen exactly once
// and are published by the Once to every later reader, so the value
// still looks immutable from outside. The frozen marker travels
// as a fact on the type's object, so packages that only import the type
// see the same contract the declaring package declared.
package frozenmut

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pdn3d/internal/lint/analysis"
)

// Analyzer is the frozenmut check.
var Analyzer = &analysis.Analyzer{
	Name: "frozenmut",
	Doc: "flags mutation of //pdnlint:frozen types: field writes, writes " +
		"through their pointer fields, element writes through their slices, " +
		"and retention of their internal slices outside the declaring package",
	Run:       run,
	UsesFacts: true,
}

// FrozenFact marks a type name whose declaration carries
// //pdnlint:frozen.
type FrozenFact struct{}

// AFact implements analysis.Fact.
func (*FrozenFact) AFact() {}

// directive is the doc-comment line that freezes a type.
const directive = "//pdnlint:frozen"

func run(pass *analysis.Pass) error {
	exportFrozen(pass)
	for _, f := range pass.Files {
		checkFile(pass, f)
	}
	return nil
}

// exportFrozen scans type declarations for the frozen directive and
// publishes a FrozenFact for each marked type.
func exportFrozen(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasDirective(ts.Doc) && !(len(gd.Specs) == 1 && hasDirective(gd.Doc)) {
					continue
				}
				if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
					pass.ExportObjectFact(obj, &FrozenFact{})
				}
			}
		}
	}
}

func hasDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// frozenName returns the named type behind t (unwrapping pointers) if
// it carries a FrozenFact, else nil.
func frozenName(pass *analysis.Pass, t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj == nil {
		return nil
	}
	var fact FrozenFact
	if !pass.ImportObjectFact(obj, &fact) {
		return nil
	}
	return obj
}

// checkFile walks one file's functions; each function gets its own
// fresh-value and frozen-view sets.
func checkFile(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		checkFunc(pass, fn)
	}
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	info := pass.TypesInfo
	fresh := freshLocals(info, fn.Body)
	views := frozenViews(pass, fn.Body, fresh)
	inits := onceInits(pass, fn.Body)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, lhs, fresh, views, inits)
			}
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				checkRetention(pass, n, fresh)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, n.X, fresh, views, inits)
		case *ast.UnaryExpr:
			// &x.f on a frozen value is not a write, but taking the
			// address of a field is the doorway to one; leave reads and
			// addresses alone — the write itself will be caught wherever
			// it happens if it stays in typed code.
		}
		return true
	})
}

// freshLocals collects local variables bound to values this function
// constructed itself: x := &T{...}, x := T{...}, x := new(T). Writes
// through them are construction, not mutation.
func freshLocals(info *types.Info, body ast.Node) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	isFreshExpr := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			_, lit := ast.Unparen(e.X).(*ast.CompositeLit)
			return e.Op == token.AND && lit
		case *ast.CallExpr:
			if id := funIdent(e); id != nil && id.Name == "new" {
				_, builtin := info.Uses[id].(*types.Builtin)
				return builtin
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isFreshExpr(rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					fresh[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					fresh[obj] = true
				}
			}
		}
		return true
	})
	return fresh
}

// onceInit is the function literal of an x.once.Do(func() { ... }) call
// on a frozen value x whose once field is a sync.Once.
type onceInit struct {
	lit   *ast.FuncLit
	owner ast.Expr // x
}

// onceInits collects the lazy-initialization blocks in body: calls
// x.f.Do(func() { ... }) where x is frozen and f is a sync.Once field.
func onceInits(pass *analysis.Pass, body ast.Node) []onceInit {
	info := pass.TypesInfo
	var out []onceInit
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit)
		do, ok2 := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !ok2 || do.Sel.Name != "Do" {
			return true
		}
		once, ok := ast.Unparen(do.X).(*ast.SelectorExpr)
		if !ok || !isSyncOnce(info.Types[once].Type) {
			return true
		}
		if sel, ok := info.Selections[once]; ok && sel.Kind() == types.FieldVal && frozenName(pass, info.Types[once.X].Type) != nil {
			out = append(out, onceInit{lit: lit, owner: once.X})
		}
		return true
	})
	return out
}

func isSyncOnce(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Once" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// inOnceInit reports whether a write at pos into frozen value x sits
// inside a lazy-initialization block on x's own once field.
func inOnceInit(info *types.Info, inits []onceInit, x ast.Expr, pos token.Pos) bool {
	for _, in := range inits {
		if in.lit.Pos() <= pos && pos < in.lit.End() && sameValue(info, in.owner, x) {
			return true
		}
	}
	return false
}

// sameValue reports whether a and b name the same variable, or the same
// field path from it (t, t.topo, ...).
func sameValue(info *types.Info, a, b ast.Expr) bool {
	switch a := ast.Unparen(a).(type) {
	case *ast.Ident:
		b, ok := ast.Unparen(b).(*ast.Ident)
		return ok && info.Uses[a] != nil && info.Uses[a] == info.Uses[b]
	case *ast.SelectorExpr:
		b, ok := ast.Unparen(b).(*ast.SelectorExpr)
		return ok && info.Uses[a.Sel] == info.Uses[b.Sel] && sameValue(info, a.X, b.X)
	}
	return false
}

func funIdent(call *ast.CallExpr) *ast.Ident {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	return id
}

// frozenViews collects locals aliasing a frozen value's internal
// slices: s := x.col (field of frozen, slice-typed) or s := x.Rows()
// (slice-returning method on frozen receiver). Element writes through
// them mutate the frozen value.
func frozenViews(pass *analysis.Pass, body ast.Node, fresh map[types.Object]bool) map[types.Object]*types.TypeName {
	info := pass.TypesInfo
	views := map[types.Object]*types.TypeName{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			owner := viewOrigin(pass, rhs, fresh)
			if owner == nil {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					views[obj] = owner
				} else if obj := info.Uses[id]; obj != nil {
					views[obj] = owner
				}
			}
		}
		return true
	})
	return views
}

// viewOrigin reports the frozen type whose internals e aliases, if any:
// a slice-typed field selector on a non-fresh frozen value, or a
// slice-returning method call with a frozen receiver.
func viewOrigin(pass *analysis.Pass, e ast.Expr, fresh map[types.Object]bool) *types.TypeName {
	info := pass.TypesInfo
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; !ok || !isSliceType(tv.Type) {
		return nil
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if owner := frozenName(pass, info.Types[e.X].Type); owner != nil && !isFreshExpr(info, e.X, fresh) {
				return owner
			}
		}
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if owner := frozenName(pass, info.Types[sel.X].Type); owner != nil && !isFreshExpr(info, sel.X, fresh) {
				return owner
			}
		}
	}
	return nil
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isFreshExpr reports whether e is (or selects from) a variable the
// current function constructed itself.
func isFreshExpr(info *types.Info, e ast.Expr, fresh map[types.Object]bool) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			return obj != nil && fresh[obj]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

// frozenField returns the frozen type owning field selector e (x.f on a
// frozen x this function did not construct) and the selector, else nils.
func frozenField(pass *analysis.Pass, e ast.Expr, fresh map[types.Object]bool) (*types.TypeName, *ast.SelectorExpr) {
	info := pass.TypesInfo
	x, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	if sel, ok := info.Selections[x]; !ok || sel.Kind() != types.FieldVal {
		return nil, nil
	}
	owner := frozenName(pass, info.Types[x.X].Type)
	if owner == nil || isFreshExpr(info, x.X, fresh) {
		return nil, nil
	}
	return owner, x
}

// reportPtrField reports a write through e when e is a pointer-typed
// field of a frozen value: the pointee belongs to the value as much as
// its direct fields do.
func reportPtrField(pass *analysis.Pass, at ast.Node, e ast.Expr, fresh map[types.Object]bool, inits []onceInit) {
	owner, x := frozenField(pass, e, fresh)
	if owner == nil || inOnceInit(pass.TypesInfo, inits, x.X, at.Pos()) {
		return
	}
	if _, ptr := pass.TypesInfo.Types[x].Type.Underlying().(*types.Pointer); ptr {
		pass.Reportf(at.Pos(), "write through pointer field %s of frozen type %s; values are immutable after construction",
			x.Sel.Name, owner.Name())
	}
}

// checkWrite reports a mutation if lhs writes into a frozen value.
func checkWrite(pass *analysis.Pass, lhs ast.Expr, fresh map[types.Object]bool, views map[types.Object]*types.TypeName, inits []onceInit) {
	info := pass.TypesInfo
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.StarExpr:
		// *x.p = v
		reportPtrField(pass, lhs, lhs.X, fresh, inits)
	case *ast.SelectorExpr:
		owner, _ := frozenField(pass, lhs, fresh)
		if owner == nil {
			// x.p.g = v: an implicit dereference of pointer field p.
			reportPtrField(pass, lhs, lhs.X, fresh, inits)
			return
		}
		if inOnceInit(info, inits, lhs.X, lhs.Pos()) {
			return
		}
		pass.Reportf(lhs.Pos(), "write to field %s of frozen type %s; values are immutable after construction",
			lhs.Sel.Name, owner.Name())
	case *ast.IndexExpr:
		// x.col[i] = v — element write through a frozen value's field.
		if owner, x := frozenField(pass, lhs.X, fresh); owner != nil {
			if !inOnceInit(info, inits, x.X, lhs.Pos()) {
				pass.Reportf(lhs.Pos(), "element write through field %s of frozen type %s",
					x.Sel.Name, owner.Name())
			}
			return
		}
		// s[i] = v where s aliases frozen internals.
		if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			obj := info.Uses[id]
			if obj == nil {
				obj = info.Defs[id]
			}
			if owner := views[obj]; owner != nil {
				pass.Reportf(lhs.Pos(), "element write through a slice view of frozen type %s (%s aliases its internals)",
					owner.Name(), id.Name)
			}
		}
	}
}

// checkRetention reports, outside the declaring package, stores that
// retain a frozen value's internal slice somewhere longer-lived than a
// local: a struct field, a map or slice element, or a package variable.
func checkRetention(pass *analysis.Pass, as *ast.AssignStmt, fresh map[types.Object]bool) {
	info := pass.TypesInfo
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		owner := viewOrigin(pass, rhs, fresh)
		if owner == nil || owner.Pkg() == pass.Pkg {
			continue
		}
		switch lhs := ast.Unparen(as.Lhs[i]).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
			pass.Reportf(as.Lhs[i].Pos(), "retaining an internal slice of frozen type %s outside its package; copy it instead of aliasing",
				owner.Name())
		case *ast.Ident:
			if obj := info.Uses[lhs]; obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
					pass.Reportf(as.Lhs[i].Pos(), "retaining an internal slice of frozen type %s in package variable %s; copy it instead of aliasing",
						owner.Name(), lhs.Name)
				}
			}
		}
	}
}
