package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"github.com/coyote-sim/coyote/internal/lint/flow"
)

// SpecWriteAnalyzer proves the speculative layer's write isolation
// statically: every store to hart/cache/memory state reachable from a
// speculative-phase root must flow through the journal, buffered-write
// and snapshot APIs that live in the spec.go files — otherwise an
// aborted speculation would leave committed state corrupted.
//
// Roots are functions annotated //coyote:specphase. The analyzer walks
// the static call graph from them (mem.Memory methods are the descent
// boundary: reads are harmless, writes are rule R3). Functions defined
// in a file named spec.go are the trusted journal implementation: they
// are walked for reachability but their own stores are not checked.
//
// A type is *protected* when it has a BeginSpec method (Hart, Cache).
// A protected field is *covered* when the type's spec.go mentions it —
// i.e. the snapshot/journal machinery saves or restores it, so direct
// stores elsewhere on the spec path are rolled back on abort.
//
// Rules, in the order checked per store/call site:
//
//	R1: store touching an uncovered field of a protected type — the
//	    journal cannot roll it back.
//	R2: store through a pointer/slice/map-rooted parameter or receiver
//	    chain with no protected field at all — caller-visible state
//	    outside the journal's reach (also reported for stores whose
//	    access path cannot be resolved).
//	R3: direct call to Memory.Write*/Reset — raw memory mutation that
//	    must go through the deferred-write journal instead.
//	R4: store to a package-level variable on the spec path.
//	R5: dynamic call (func value or interface method) — the analyzer
//	    cannot see what it mutates.
//
// //coyote:specwrite-ok <justification> exempts one site (same line or
// the line above), a whole function (doc comment), or — for R1 — a
// field declaration (every store to that field is then trusted).
var SpecWriteAnalyzer = &Analyzer{
	Name:       "specwrite",
	Doc:        "stores on speculative-phase paths must flow through the spec.go journal/snapshot APIs",
	RunProgram: runSpecWrite,
}

// specFileName is the basename that marks a file as part of the trusted
// journal implementation.
const specFileName = "spec.go"

func runSpecWrite(pass *ProgramPass) {
	fprog := pass.Program.Flow()

	byPath := make(map[string]*Package, len(pass.Program.Packages))
	for _, pkg := range pass.Program.Packages {
		byPath[pkg.ImportPath] = pkg
	}

	var roots []*flow.Func
	for key, fn := range pass.Program.Funcs {
		if FuncAnnotation(fn.Decl, "specphase") {
			roots = append(roots, fprog.Funcs[key])
		}
	}
	if len(roots) == 0 {
		return
	}

	covered := coveredSpecFields(pass.Program)

	w := &flow.Walker{
		Prog: fprog,
		Boundary: func(fn *flow.Func) bool {
			return recvNamed(fn.Obj) != nil && recvNamed(fn.Obj).Obj().Name() == "Memory"
		},
	}

	ctx := &specCtx{pass: pass, byPath: byPath, covered: covered}
	for _, fn := range w.Reachable(roots) {
		if filepath.Base(fn.File(fprog.Fset)) == specFileName {
			continue // trusted journal implementation
		}
		if w.Boundary(fn) {
			// Boundary functions (Memory methods) are reached but not part
			// of the checked surface: the R3 rule flags the *call* that
			// crosses into them, which is where the journal bypass happens.
			continue
		}
		ctx.checkFunc(fn)
	}
}

type specCtx struct {
	pass    *ProgramPass
	byPath  map[string]*Package
	covered map[string]map[string]bool // type key → field → covered
}

// coveredSpecFields collects, per protected type, the fields mentioned
// anywhere in the spec.go files of the type's own package — the set the
// snapshot/journal machinery knows how to save and restore.
func coveredSpecFields(prog *Program) map[string]map[string]bool {
	covered := map[string]map[string]bool{}
	for _, pkg := range prog.Packages {
		for i, f := range pkg.Files {
			if filepath.Base(pkg.Filenames[i]) != specFileName {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				owner, field, ok := flow.FieldOwner(pkg.Info, sel)
				if !ok {
					return true
				}
				key := typeKey(owner)
				if covered[key] == nil {
					covered[key] = map[string]bool{}
				}
				covered[key][field] = true
				return true
			})
		}
	}
	return covered
}

func (ctx *specCtx) checkFunc(fn *flow.Func) {
	info := fn.Pkg.Info
	if FuncAnnotation(fn.Decl, "specwrite-ok") {
		return
	}
	env := flow.BuildAliases(info, fn.Decl.Body)
	params := paramObjects(info, fn.Decl)

	flow.ForEachStore(fn.Decl.Body, func(st flow.Store) {
		ctx.checkStore(fn, info, env, params, st)
	})
	flow.ForEachCall(info, fn.Decl.Body, func(call *ast.CallExpr, callee *types.Func) {
		ctx.checkCall(fn, call, callee)
	})
}

func (ctx *specCtx) checkStore(fn *flow.Func, info *types.Info, env flow.AliasEnv, params map[types.Object]bool, st flow.Store) {
	// Bare identifier: a fresh binding or plain local/parameter value
	// assignment never mutates journaled state. Deliberately NOT resolved
	// through the alias environment — reassigning a pointer variable is
	// not a store to its old pointee.
	if id, ok := st.Target.(*ast.Ident); ok {
		if info.Defs[id] != nil {
			return // := binding
		}
		v, isVar := info.ObjectOf(id).(*types.Var)
		if isVar && (flow.Chain{Root: v}).IsGlobal() {
			ctx.report(fn, st.Pos, nil, "",
				fmt.Sprintf("R4: store to package-level variable %s on a speculative path — spec state must live in the journal", v.Name()))
		}
		return
	}

	// R1: any uncovered protected field along the (syntactic) access path.
	pairs := protectedFieldPairs(info, st.Target)
	if len(pairs) > 0 {
		for _, p := range pairs {
			if ctx.covered[typeKey(p.owner)][p.field] {
				continue
			}
			ctx.report(fn, st.Pos, p.owner, p.field,
				fmt.Sprintf("R1: store to %s.%s on a speculative path, but %s never mentions the field — an abort cannot roll it back; route it through the journal or cover it in a snapshot",
					p.owner.Obj().Name(), p.field, specFileName))
		}
		return // all-covered protected stores are journal-restorable
	}

	ch, ok := flow.ResolveChain(info, env, st.Target)
	if !ok {
		ctx.report(fn, st.Pos, nil, "",
			"R2: store through an unresolved access path on a speculative path — cannot prove the target is journaled")
		return
	}
	if ch.IsGlobal() {
		ctx.report(fn, st.Pos, nil, "",
			fmt.Sprintf("R4: store to package-level variable %s on a speculative path — spec state must live in the journal", ch.Root.Name()))
		return
	}
	if params[ch.Root] && pointerLike(ch.Root.Type()) {
		// A store that resolves (possibly through aliases like
		// c := &h.cold) into a field of a protected receiver is
		// judged by that field's journal coverage, same as a syntactic
		// selector store — so spec.go coverage and field-declaration
		// exemptions apply to pointer-into-field access too.
		if owner := protectedRootNamed(ch.Root.Type()); owner != nil && len(ch.Path) > 0 {
			field := ch.Path[0]
			if ctx.covered[typeKey(owner)][field] {
				return
			}
			ctx.report(fn, st.Pos, owner, field,
				fmt.Sprintf("R1: store to %s.%s on a speculative path, but %s never mentions the field — an abort cannot roll it back; route it through the journal or cover it in a snapshot",
					owner.Obj().Name(), field, specFileName))
			return
		}
		ctx.report(fn, st.Pos, nil, "",
			fmt.Sprintf("R2: store through %s mutates caller-visible state on a speculative path with no journal coverage", ch.Root.Name()))
	}
}

// protectedRootNamed returns the spec-protected named type behind a
// (possibly pointer) root type, or nil.
func protectedRootNamed(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n := flow.NamedOf(t)
	if n != nil && isSpecProtected(n) {
		return n
	}
	return nil
}

func (ctx *specCtx) checkCall(fn *flow.Func, call *ast.CallExpr, callee *types.Func) {
	if callee == nil {
		if valueOnlyFuncCall(fn.Pkg.Info, call) || localClosureCall(fn, call) {
			// A func-value call whose parameters are all value-typed cannot
			// reach journaled state through its arguments. Mutation through
			// captured variables is covered separately: closures defined in
			// walked functions have their stores checked inline, and
			// closures installed from outside the speculative phase are part
			// of the setup boundary (DESIGN.md §12 caveats).
			return
		}
		ctx.report(fn, call.Pos(), nil, "",
			"R5: dynamic call (func value or interface method) on a speculative path — the analyzer cannot prove what it mutates")
		return
	}
	recv := recvNamed(callee)
	if recv != nil && recv.Obj().Name() == "Memory" &&
		(strings.HasPrefix(callee.Name(), "Write") || callee.Name() == "Reset") {
		ctx.report(fn, call.Pos(), nil, "",
			fmt.Sprintf("R3: direct Memory.%s on a speculative path — raw memory writes must go through the deferred-write journal (memWrite*)", callee.Name()))
	}
}

// report emits a finding unless a specwrite-ok directive covers the site,
// the enclosing function, or (for R1) the field's declaration.
func (ctx *specCtx) report(fn *flow.Func, pos token.Pos, fieldOwner *types.Named, field string, msg string) {
	pkg := ctx.byPath[fn.Pkg.Path]
	if pkg != nil && pkg.Directives.At(ctx.pass.Program.Fset, pos, "specwrite-ok") != nil {
		return
	}
	if fieldOwner != nil && ctx.fieldExempt(fieldOwner, field) {
		return
	}
	ctx.pass.Report(Diagnostic{Pos: pos, Message: msg + " (//coyote:specwrite-ok with justification to override)"})
}

// fieldExempt checks for a specwrite-ok directive at the field's
// declaration in the owning type's source package.
func (ctx *specCtx) fieldExempt(owner *types.Named, field string) bool {
	if owner.Obj().Pkg() == nil {
		return false
	}
	pkg := ctx.byPath[owner.Obj().Pkg().Path()]
	if pkg == nil {
		return false
	}
	// Re-resolve through the source-checked package so positions land in
	// the loader's FileSet even when owner came from export data.
	obj := pkg.Types.Scope().Lookup(owner.Obj().Name())
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == field {
			return pkg.Directives.At(ctx.pass.Program.Fset, f.Pos(), "specwrite-ok") != nil
		}
	}
	return false
}

type fieldPair struct {
	owner *types.Named
	field string
}

// protectedFieldPairs collects every (protected type, field) selection in
// the store target expression. A type is protected when it declares a
// BeginSpec method.
func protectedFieldPairs(info *types.Info, target ast.Expr) []fieldPair {
	var out []fieldPair
	ast.Inspect(target, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		owner, field, ok := flow.FieldOwner(info, sel)
		if ok && isSpecProtected(owner) {
			out = append(out, fieldPair{owner: owner, field: field})
		}
		return true
	})
	return out
}

func isSpecProtected(n *types.Named) bool {
	for i := 0; i < n.NumMethods(); i++ {
		if n.Method(i).Name() == "BeginSpec" {
			return true
		}
	}
	return false
}

// paramObjects returns the set of parameter and receiver objects of decl.
func paramObjects(info *types.Info, decl *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	add(decl.Recv)
	add(decl.Type.Params)
	return out
}

// valueOnlyFuncCall reports whether call invokes a plain func value (not
// an interface method) whose parameters all have value (non-pointer-like)
// types. Such a call cannot mutate anything through its arguments.
func valueOnlyFuncCall(info *types.Info, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isSel := info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			return false // interface method: the receiver is reachable state
		}
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if mutableThrough(sig.Params().At(i).Type()) {
			return false
		}
	}
	return true
}

// localClosureCall reports whether call invokes a func value held in a
// local variable of fn whose every assignment is a function literal.
// Each such literal's body is syntactically inside fn, so its stores and
// calls are already checked inline by checkFunc — dispatching through
// the variable adds no unchecked behavior. (A reassignment through a
// pointer to the variable would evade the ident scan; the interpreter
// style this serves — op-table closures like intBin — never does that.)
func localClosureCall(fn *flow.Func, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	info := fn.Pkg.Info
	v, ok := info.Uses[id].(*types.Var)
	if !ok || (flow.Chain{Root: v}).IsGlobal() {
		return false
	}
	if v.Pos() < fn.Decl.Pos() || v.Pos() > fn.Decl.End() {
		return false
	}
	assigns, funcLits := 0, 0
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				lid, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := types.Object(info.Defs[lid])
				if obj == nil {
					obj = info.Uses[lid]
				}
				if obj != v {
					continue
				}
				assigns++
				if len(st.Rhs) == len(st.Lhs) {
					if _, isLit := ast.Unparen(st.Rhs[i]).(*ast.FuncLit); isLit {
						funcLits++
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if info.Defs[name] != v || i >= len(st.Values) {
					continue
				}
				assigns++
				if _, isLit := ast.Unparen(st.Values[i]).(*ast.FuncLit); isLit {
					funcLits++
				}
			}
		}
		return true
	})
	return assigns > 0 && assigns == funcLits
}

// mutableThrough reports whether a value of type t lets its recipient
// mutate state the sender can observe.
func mutableThrough(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Interface, *types.Signature:
		return true
	}
	return false
}

// pointerLike reports whether a store through a chain rooted at a value
// of type t is visible to the caller.
func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// recvNamed returns the named receiver type of fn, or nil for plain
// functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return flow.NamedOf(sig.Recv().Type())
}

// typeKey is a package-path-qualified type name, stable across the
// source-checked and export-data views of the same type.
func typeKey(n *types.Named) string {
	if p := n.Obj().Pkg(); p != nil {
		return p.Path() + "." + n.Obj().Name()
	}
	return n.Obj().Name()
}
