package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"github.com/coyote-sim/coyote/internal/lint/flow"
)

// KeyTaintAnalyzer is the static proof behind the result cache's key
// exclusions (DESIGN.md §11, §12). The cache key deliberately omits the
// execution-strategy fields — Workers, Hart.DisableBlockCache,
// CheckpointAt — on the strength of a
// determinism argument: they cannot influence committed results. This
// analyzer turns that argument into an interprocedural dataflow check:
//
//   - sources: every read of a key-excluded Config field;
//   - sinks: stores into Result fields (except the wall-clock and
//     parallel-orchestrator audit fields, which legitimately vary),
//     stats counters, trace emission, event scheduling, and the
//     cycle/event-calendar state;
//   - any proven source→sink flow is an error with NO escape hatch:
//     either the flow is removed, or the field moves into the canonical
//     key with a SchemaVersion bump.
//
// When the rcache and core packages are both in the loaded tree the
// analyzer additionally proves three meta-properties, so the key
// encoder, the exclusion list and this static proof can never drift:
//
//   - the exclusion set *derived from the encoder* (Config-field
//     universe minus the fields rcache.CanonicalBytes reads) must equal
//     the analyzer's source list;
//   - it must equal the rcache.ExcludedConfigFields declaration that
//     the fuzz harness asserts against;
//   - the inverse direction: every key-included field must be read
//     somewhere in the simulator — a key-included field nobody reads is
//     a pure false-miss generator and is flagged as dead.
var KeyTaintAnalyzer = &Analyzer{
	Name:       "keytaint",
	Doc:        "proves key-excluded execution-strategy fields cannot flow into cached results, and key-included fields are live",
	RunProgram: runKeyTaint,
}

// keyExcludedFields is the analyzer's built-in source list: dotted paths
// relative to core.Config. It is cross-checked against the encoder and
// against rcache.ExcludedConfigFields whenever those packages are loaded,
// and doubles as the fallback source spec for partial loads (fixtures,
// seeded-mutation tests on a package subset).
var keyExcludedFields = []string{
	"Workers",
	"Hart.DisableBlockCache",
	"CheckpointAt",
}

// keyResultAuditFields are Result fields that legitimately depend on
// execution strategy and are NOT cache-poisoning sinks: wall-clock time
// the parallel-orchestrator audit counters and the run loop's host-work
// counters are explicitly documented as non-deterministic, and the cache
// stores them only as provenance.
var keyResultAuditFields = map[string]bool{
	"WallTime": true,
	"Par":      true,
	"Host":     true,
}

func runKeyTaint(pass *ProgramPass) {
	fprog := pass.Program.Flow()

	excluded := keyExcludedFields
	rcachePkg := findPackage(pass.Program, "internal/rcache")
	corePkg := findPackage(pass.Program, "internal/core")
	if rcachePkg != nil && corePkg != nil {
		if computed, ok := crossCheckKeySets(pass, fprog, rcachePkg, corePkg); ok {
			excluded = computed
		}
	}

	leafLabel := make(map[string]flow.Label, len(excluded))
	labelPath := make([]string, len(excluded))
	for i, path := range excluded {
		leaf := path
		if j := strings.LastIndexByte(path, '.'); j >= 0 {
			leaf = path[j+1:]
		}
		leafLabel[leaf] = flow.Label(i)
		labelPath[i] = path
	}

	cfg := &flow.TaintConfig{
		SourceOf: func(owner *types.Named, field string) (flow.Label, bool) {
			if owner.Obj().Name() != "Config" {
				return 0, false
			}
			l, ok := leafLabel[field]
			return l, ok
		},
		SinkOf: func(owner *types.Named, field string) (string, bool) {
			switch owner.Obj().Name() {
			case "Result":
				if keyResultAuditFields[field] {
					return "", false
				}
				return "Result." + field, true
			case "Stats":
				return "stats counter Stats." + field, true
			case "Engine":
				return "event-calendar state Engine." + field, true
			case "System":
				if field == "cycle" {
					return "cycle state System.cycle", true
				}
			}
			return "", false
		},
		CallSinkOf: func(fn *types.Func) (string, bool) {
			recv := recvTypeName(fn)
			switch {
			case fn.Name() == "Event" && (recv == "Tracer" || recv == "Writer"):
				return "trace emission " + recv + ".Event", true
			case strings.HasPrefix(fn.Name(), "Schedule") && recv == "Engine":
				return "event scheduling Engine." + fn.Name(), true
			}
			return "", false
		},
		LabelName: func(l flow.Label) string {
			if int(l) < len(labelPath) {
				return labelPath[l]
			}
			return fmt.Sprintf("label%d", l)
		},
	}

	for _, f := range flow.RunTaint(fprog, cfg) {
		src := pass.Program.Fset.Position(f.SrcPos)
		pass.Report(Diagnostic{
			Pos: f.Pos,
			Message: fmt.Sprintf(
				"key-excluded execution-strategy field Config.%s (read at %s:%d) flows into %s; "+
					"cached results would depend on a field outside the cache key — "+
					"remove the flow or move the field into rcache.CanonicalBytes with a SchemaVersion bump (no escape hatch)",
				cfg.LabelName(f.Label), shortFile(src.Filename), src.Line, f.Sink),
		})
	}
}

// recvTypeName returns the name of fn's receiver type ("" for plain
// functions), looking through pointers and interfaces.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if n, isNamed := t.(*types.Named); isNamed {
		return n.Obj().Name()
	}
	return ""
}

func findPackage(prog *Program, suffix string) *Package {
	for _, pkg := range prog.Packages {
		if pkg.ImportPath == suffix || strings.HasSuffix(pkg.ImportPath, "/"+suffix) {
			return pkg
		}
	}
	return nil
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// ---- encoder cross-check and liveness --------------------------------

// universeField is one leaf of the recursively flattened core.Config:
// its dotted path, the named struct type declaring the leaf, and the
// field declaration position.
type universeField struct {
	path  string
	owner *types.Named
	leaf  string
	pos   token.Pos
}

// crossCheckKeySets derives the key-excluded set from the encoder's own
// source, verifies it against the analyzer spec and the exported
// exclusion list, and runs the dead-included-field check. Returns the
// derived exclusion set and whether it is usable as the taint source
// spec.
func crossCheckKeySets(pass *ProgramPass, fprog *flow.Program, rcachePkg, corePkg *Package) ([]string, bool) {
	universe := configUniverse(corePkg)
	if len(universe) == 0 {
		return nil, false
	}
	canonical := fprog.Funcs[rcachePkg.ImportPath+".CanonicalBytes"]
	if canonical == nil {
		pass.Report(Diagnostic{
			Pos:     rcachePkg.Files[0].Pos(),
			Message: "rcache.CanonicalBytes not found; the key encoder moved without updating keytaint",
		})
		return nil, false
	}

	encoded := encodedConfigFields(fprog, canonical)
	var computed []string
	for _, uf := range universe {
		if !encoded[uf.path] {
			computed = append(computed, uf.path)
		}
	}
	sort.Strings(computed)

	ok := true
	if !equalStringSets(computed, keyExcludedFields) {
		pass.Report(Diagnostic{
			Pos: canonical.Decl.Pos(),
			Message: fmt.Sprintf(
				"key exclusion drift: fields the encoder omits %v != keytaint source spec %v; "+
					"update lint.keyExcludedFields, rcache.ExcludedConfigFields and the package comment together",
				computed, sortedCopy(keyExcludedFields)),
		})
		ok = false
	}

	declPos, declared := excludedFieldsDecl(rcachePkg)
	if declared == nil {
		pass.Report(Diagnostic{
			Pos:     canonical.Decl.Pos(),
			Message: "rcache.ExcludedConfigFields declaration not found; the exclusion list must be declared as a string-literal slice",
		})
		ok = false
	} else if !equalStringSets(sortedCopy(declared), computed) {
		pass.Report(Diagnostic{
			Pos: declPos,
			Message: fmt.Sprintf(
				"rcache.ExcludedConfigFields %v disagrees with the fields the encoder actually omits %v",
				declared, computed),
		})
		ok = false
	}

	// Inverse direction: a key-included field nobody outside the encoder
	// reads cannot affect results, so every distinct value of it is a
	// false cache miss.
	live := liveConfigFields(pass.Program)
	for _, uf := range universe {
		if !encoded[uf.path] {
			continue
		}
		if !live[fieldKeyOf(uf.owner, uf.leaf)] {
			pass.Report(Diagnostic{
				Pos: uf.pos,
				Message: fmt.Sprintf(
					"key-included config field %s is never read by the simulator: every distinct value is a pure false-miss generator — "+
						"use the field or move it to the exclusion list (which requires a determinism proof in the golden matrix)",
					uf.path),
			})
		}
	}

	return computed, ok
}

// configUniverse flattens core.Config's exported fields into leaf paths,
// recursing through named struct-typed fields (Hart, Uncore, the cache
// configs under them).
func configUniverse(corePkg *Package) []universeField {
	obj := corePkg.Types.Scope().Lookup("Config")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	var out []universeField
	var rec func(n *types.Named, prefix string)
	rec = func(n *types.Named, prefix string) {
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			path := f.Name()
			if prefix != "" {
				path = prefix + "." + f.Name()
			}
			if sub := flow.NamedOf(f.Type()); sub != nil {
				if _, isStruct := sub.Underlying().(*types.Struct); isStruct {
					rec(sub, path)
					continue
				}
			}
			out = append(out, universeField{path: path, owner: n, leaf: f.Name(), pos: f.Pos()})
		}
	}
	rec(named, "")
	return out
}

// encodedConfigFields extracts the set of Config leaf paths the encoder
// reads, following local aliases (`h := cfg.Hart`) and same-package
// helper calls (`e.cacheCfg(name, h.L1I)`) with parameter substitution.
func encodedConfigFields(fprog *flow.Program, canonical *flow.Func) map[string]bool {
	out := map[string]bool{}
	sig := canonical.Obj.Type().(*types.Signature)
	roots := map[types.Object]string{}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if n := flow.NamedOf(p.Type()); n != nil && n.Obj().Name() == "Config" {
			roots[p] = ""
		}
	}
	if len(roots) == 0 {
		return out
	}
	markEncodedReads(fprog, canonical, roots, out, 0)
	return out
}

func markEncodedReads(fprog *flow.Program, fn *flow.Func, roots map[types.Object]string, out map[string]bool, depth int) {
	if depth > 5 {
		return
	}
	info := fn.Pkg.Info
	env := flow.BuildAliases(info, fn.Decl.Body)
	resolve := func(e ast.Expr) (string, bool) {
		ch, ok := flow.ResolveChain(info, env, e)
		if !ok {
			return "", false
		}
		prefix, tracked := roots[ch.Root]
		if !tracked {
			return "", false
		}
		parts := append([]string{}, ch.Path...)
		if prefix != "" {
			parts = append(strings.Split(prefix, "."), parts...)
		}
		return strings.Join(parts, "."), true
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			if path, ok := resolve(e); ok && path != "" {
				out[path] = true
			}
		case *ast.CallExpr:
			callee := flow.StaticCallee(info, e)
			if callee == nil || callee.Pkg() != fn.Obj.Pkg() {
				return true
			}
			target := fprog.Resolve(callee)
			if target == nil {
				return true
			}
			tsig := target.Obj.Type().(*types.Signature)
			sub := map[types.Object]string{}
			for i, arg := range e.Args {
				if i >= tsig.Params().Len() {
					break
				}
				if path, ok := resolve(arg); ok {
					sub[tsig.Params().At(i)] = path
				}
			}
			if len(sub) > 0 {
				markEncodedReads(fprog, target, sub, out, depth+1)
			}
		}
		return true
	})
}

// excludedFieldsDecl parses the rcache.ExcludedConfigFields string-slice
// literal from the AST.
func excludedFieldsDecl(pkg *Package) (token.Pos, []string) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != "ExcludedConfigFields" || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						return name.Pos(), nil
					}
					var out []string
					for _, el := range lit.Elts {
						bl, ok := el.(*ast.BasicLit)
						if !ok || bl.Kind != token.STRING {
							return name.Pos(), nil
						}
						s, err := strconv.Unquote(bl.Value)
						if err != nil {
							return name.Pos(), nil
						}
						out = append(out, s)
					}
					return name.Pos(), out
				}
			}
		}
	}
	return token.NoPos, nil
}

// liveConfigFields scans every loaded package except the key encoder and
// the tooling for field *reads* on any type named Config; writes (plain
// assignment targets) do not count as uses.
func liveConfigFields(prog *Program) map[string]bool {
	live := map[string]bool{}
	for _, pkg := range prog.Packages {
		if skipForLiveness(pkg.ImportPath) {
			continue
		}
		writes := map[*ast.SelectorExpr]bool{}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
					return true
				}
				for _, lhs := range as.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || writes[sel] {
					return true
				}
				owner, field, ok := flow.FieldOwner(pkg.Info, sel)
				if !ok || owner.Obj().Name() != "Config" {
					return true
				}
				live[fieldKeyOf(owner, field)] = true
				return true
			})
		}
	}
	return live
}

// skipForLiveness excludes packages whose Config reads don't make a
// field semantically live: the key encoder itself, the lint tooling, and
// command-line drivers (flag plumbing reads every field).
func skipForLiveness(importPath string) bool {
	switch {
	case strings.HasSuffix(importPath, "internal/rcache"),
		strings.Contains(importPath, "internal/lint"),
		strings.Contains(importPath, "/cmd/"):
		return true
	}
	return false
}

func fieldKeyOf(owner *types.Named, field string) string {
	if p := owner.Obj().Pkg(); p != nil {
		return p.Path() + "." + owner.Obj().Name() + "." + field
	}
	return owner.Obj().Name() + "." + field
}

func equalStringSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sortedCopy(a), sortedCopy(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func sortedCopy(s []string) []string {
	c := append([]string{}, s...)
	sort.Strings(c)
	return c
}
