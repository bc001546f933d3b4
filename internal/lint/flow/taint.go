package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"time"
)

// Label identifies one taint source class (for keytaint: one excluded
// config field).
type Label int

// TaintConfig declares an analysis: which field reads introduce taint,
// which field stores and which calls are sinks. Matching is structural
// (named type + field/method name) so the same analyzer logic runs on
// the real simulator packages and on small fixture packages.
type TaintConfig struct {
	// SourceOf reports whether reading owner.field yields a taint label.
	SourceOf func(owner *types.Named, field string) (Label, bool)
	// SinkOf reports whether storing into owner.field is a sink, with a
	// human-readable sink description.
	SinkOf func(owner *types.Named, field string) (string, bool)
	// CallSinkOf reports whether passing a tainted argument to fn (which
	// may be an interface method) is a sink.
	CallSinkOf func(fn *types.Func) (string, bool)
	// LabelName renders a label for diagnostics.
	LabelName func(Label) string
}

// Finding is one proven source→sink flow.
type Finding struct {
	Pos    token.Pos // the sink store or call
	Sink   string    // sink description
	Label  Label     // which source reaches it
	SrcPos token.Pos // where the tainted value was read
}

// ---- taint atoms -----------------------------------------------------
//
// Inside one function, a taint set is a set of atoms: source labels,
// "this part of parameter i was tainted at entry" markers, and "the
// current value of global g" markers. Summaries are expressed over the
// same atoms, which is what makes them transfer functions: a call site
// instantiates the callee's summary by substituting the actual argument
// taint values for the parameter atoms.

type atomKind uint8

const (
	aSrc atomKind = iota
	aParam
	aGlobal
)

type atom struct {
	kind   atomKind
	label  Label
	param  int
	path   string // for aParam: the access path under the parameter
	global types.Object
}

// aset maps each atom to the position that introduced it (provenance for
// diagnostics). Union keeps the first position seen — stable under the
// monotone fixpoint.
type aset map[atom]token.Pos

func (s aset) union(o aset) bool {
	changed := false
	for a, pos := range o {
		if _, ok := s[a]; !ok {
			s[a] = pos
			changed = true
		}
	}
	return changed
}

func (s aset) clone() aset {
	c := make(aset, len(s))
	for a, p := range s {
		c[a] = p
	}
	return c
}

// ---- structured taint values -----------------------------------------
//
// tval is the taint of one expression value, field-sensitively: atoms
// keyed by the relative access path they attach to ("" is the value as a
// whole, "blockOff" a field, "*" an element). Keeping structure across
// composite literals, returns and parameter substitution is what stops
// one tainted field from smearing the entire object graph it is stored
// into.
type tval map[string]aset

func (tv tval) add(rel string, a atom, pos token.Pos) bool {
	s := tv[rel]
	if s == nil {
		s = aset{}
		tv[rel] = s
	}
	if _, ok := s[a]; ok {
		return false
	}
	s[a] = pos
	return true
}

func (tv tval) unionAt(rel string, o aset) bool {
	if len(o) == 0 {
		return false
	}
	s := tv[rel]
	if s == nil {
		s = aset{}
		tv[rel] = s
	}
	return s.union(o)
}

func (tv tval) unionTv(o tval) bool {
	changed := false
	for rel, as := range o {
		if tv.unionAt(rel, as) {
			changed = true
		}
	}
	return changed
}

func (tv tval) isEmpty() bool {
	for _, as := range tv {
		if len(as) > 0 {
			return false
		}
	}
	return true
}

// flatten merges every path's atoms — the value "as data", used at sinks,
// in arithmetic and for conservative containment.
func (tv tval) flatten() aset {
	out := aset{}
	for _, as := range tv {
		out.union(as)
	}
	return out
}

// sub projects the taint visible through one more access-path step (or a
// dotted path). Whole-value taint ("" or a proper prefix of path) applies
// to every part, so it lands on the projection's "" — except parameter
// markers, which refine instead: "this part IS param i's q part" projected
// through the remaining path r becomes aParam(i, q.r), not "depends on all
// of param i". Without the refinement every method call echoes a
// whole-receiver marker into each written field and field sensitivity
// collapses across call boundaries.
func (tv tval) sub(path string) tval {
	if path == "" {
		out := tval{}
		out.unionTv(tv)
		return out
	}
	out := tval{}
	for rel, as := range tv {
		switch {
		case rel == path:
			out.unionAt("", as)
		case rel == "" || strings.HasPrefix(path, rel+"."):
			remainder := path
			if rel != "" {
				remainder = path[len(rel)+1:]
			}
			for a, pos := range as {
				if a.kind == aParam {
					a.path = pathJoin(a.path, remainder)
				}
				out.add("", a, pos)
			}
		case strings.HasPrefix(rel, path+"."):
			out.unionAt(rel[len(path)+1:], as)
		}
	}
	return out
}

// at is the flat taint visible at path.
func (tv tval) at(path string) aset {
	out := aset{}
	for rel, as := range tv {
		if pathOverlap(rel, path) {
			out.union(as)
		}
	}
	return out
}

// mergeAt grafts sub under prefix.
func (tv tval) mergeAt(prefix string, sub tval) bool {
	changed := false
	for rel, as := range sub {
		if tv.unionAt(pathJoin(prefix, rel), as) {
			changed = true
		}
	}
	return changed
}

func (tv tval) size() int {
	n := 0
	for _, as := range tv {
		n += len(as)
	}
	return n
}

// pathOverlap reports whether one relative dotted path contains the
// other ("" is the whole value and overlaps everything).
func pathOverlap(a, b string) bool {
	if a == "" || b == "" {
		return true
	}
	return prefixOverlap(a, b)
}

// pathJoin concatenates relative paths under the same k-limit chains use.
func pathJoin(a, b string) string {
	var segs []string
	if a != "" {
		segs = strings.Split(a, ".")
	}
	if b != "" {
		segs = append(segs, strings.Split(b, ".")...)
	}
	if len(segs) > maxPathLen {
		segs = append(segs[:maxPathLen-1], "*")
	}
	return strings.Join(segs, ".")
}

// pathOf renders a chain's segments as a relative path.
func pathOf(ch Chain) string {
	return strings.Join(ch.Path, ".")
}

// chainExtend pushes a relative path onto a chain, k-limited.
func chainExtend(ch Chain, rel string) Chain {
	if rel == "" {
		return ch
	}
	for _, seg := range strings.Split(rel, ".") {
		ch = ch.push(seg)
	}
	return ch
}

// sinkFlow records "taint from `from` reaches the sink at pos".
type sinkFlow struct {
	pos  token.Pos
	desc string
	from aset
}

// summary is one function's transfer function plus its accumulated sink
// flows (own sinks and sinks lifted from callees, re-expressed over this
// function's atoms).
type summary struct {
	results   []tval
	paramOut  map[int]tval // keyed by path relative to the parameter root
	globalOut map[types.Object]aset
	sinks     map[string]*sinkFlow // keyed by pos+desc
}

func newSummary() *summary {
	return &summary{
		paramOut:  map[int]tval{},
		globalOut: map[types.Object]aset{},
		sinks:     map[string]*sinkFlow{},
	}
}

// size is a monotonicity-based change signature: every update only adds
// atoms or flows, so total element count grows iff anything changed.
func (s *summary) size() int {
	n := 0
	for _, r := range s.results {
		n += r.size()
	}
	for _, p := range s.paramOut {
		n += p.size()
	}
	for _, g := range s.globalOut {
		n += len(g)
	}
	for _, sf := range s.sinks {
		n += 1 + len(sf.from)
	}
	return n
}

// taintEngine is the whole-program fixpoint state.
type taintEngine struct {
	prog      *Program
	cfg       *TaintConfig
	summaries map[string]*summary
	// globalSrc holds, per package-level var, the source labels proven to
	// flow into it (param atoms resolved away at the stores' call sites).
	globalSrc map[types.Object]aset
	changed   bool
}

// RunTaint computes per-function transfer summaries to fixpoint over the
// call graph and returns every proven source→sink flow.
func RunTaint(prog *Program, cfg *TaintConfig) []Finding {
	e := &taintEngine{
		prog:      prog,
		cfg:       cfg,
		summaries: map[string]*summary{},
		globalSrc: map[types.Object]aset{},
	}
	keys := make([]string, 0, len(prog.Funcs))
	for k := range prog.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Outer fixpoint: re-analyze every function until no summary and no
	// global taint set grows. Monotone over a finite atom domain, so it
	// terminates; the iteration cap is a belt-and-suspenders backstop.
	debug := os.Getenv("COYOTE_FLOW_DEBUG") != ""
	for iter := 0; iter < 32; iter++ {
		e.changed = false
		start := time.Now()
		for _, k := range keys {
			fstart := time.Now()
			e.analyze(prog.Funcs[k])
			if debug {
				if d := time.Since(fstart); d > 500*time.Millisecond {
					fmt.Fprintf(os.Stderr, "flow:   slow func %s took=%v summary=%d\n", k, d, e.summaries[k].size())
					e.summaries[k].dump(os.Stderr)
				}
			}
		}
		if debug {
			total := 0
			for _, s := range e.summaries {
				total += s.size()
			}
			fmt.Fprintf(os.Stderr, "flow: iter %d changed=%v summarySize=%d took=%v\n",
				iter, e.changed, total, time.Since(start))
		}
		if !e.changed {
			break
		}
	}

	seen := map[string]bool{}
	var out []Finding
	for _, k := range keys {
		sum := e.summaries[k]
		if sum == nil {
			continue
		}
		for _, sf := range sum.sinks {
			for a, srcPos := range e.resolveSrc(sf.from) {
				id := fmt.Sprintf("%d|%s|%d", sf.pos, sf.desc, a.label)
				if seen[id] {
					continue
				}
				seen[id] = true
				out = append(out, Finding{Pos: sf.pos, Sink: sf.desc, Label: a.label, SrcPos: srcPos})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// resolveSrc reduces an atom set to its source atoms, expanding global
// atoms through the proven global taint map. Remaining parameter atoms
// mean "only if a caller passes taint", and every caller has been
// analyzed — so they resolve to nothing.
func (e *taintEngine) resolveSrc(s aset) aset {
	out := aset{}
	for a, pos := range s {
		switch a.kind {
		case aSrc:
			out[a] = pos
		case aGlobal:
			out.union(e.globalSrc[a.global])
		}
	}
	return out
}

// funcScope is the per-function analysis state.
type funcScope struct {
	e       *taintEngine
	fn      *Func
	info    *types.Info
	aliases AliasEnv
	params  map[types.Object]int
	nparams int
	// cells is the per-root taint store: root object → relative path →
	// atoms. Root indexing keeps every read/store proportional to one
	// object's cells, not the whole function's.
	cells map[types.Object]tval
	// readCache memoizes read() per (root, path): big functions read the
	// same receiver chains hundreds of times per pass, and materializing
	// the projection each time dominated the whole analysis. Cached tvals
	// are shared and MUST be treated as read-only by callers; the cache is
	// invalidated per root on store. Provenance positions inside cached
	// values are first-read-wins, which the monotone fixpoint tolerates.
	readCache map[types.Object]map[string]tval
	sum       *summary
	changed   bool
}

func (e *taintEngine) analyze(fn *Func) {
	sum := e.summaries[fn.Key]
	if sum == nil {
		sum = newSummary()
		e.summaries[fn.Key] = sum
	}
	before := sum.size()

	sc := &funcScope{
		e:         e,
		fn:        fn,
		info:      fn.Pkg.Info,
		aliases:   BuildAliases(fn.Pkg.Info, fn.Decl.Body),
		params:    map[types.Object]int{},
		cells:     map[types.Object]tval{},
		readCache: map[types.Object]map[string]tval{},
		sum:       sum,
	}
	sig := fn.Obj.Type().(*types.Signature)
	idx := 0
	if r := sig.Recv(); r != nil {
		sc.params[r] = idx
		idx++
	}
	for i := 0; i < sig.Params().Len(); i++ {
		sc.params[sig.Params().At(i)] = idx
		idx++
	}
	sc.nparams = idx
	if sum.results == nil {
		sum.results = make([]tval, sig.Results().Len())
		for i := range sum.results {
			sum.results[i] = tval{}
		}
	}

	// Intra-function fixpoint: flow-insensitive passes over the body
	// until the cell map stabilizes.
	for pass := 0; pass < 10; pass++ {
		sc.changed = false
		sc.block(fn.Decl.Body, sum.results)
		if !sc.changed {
			break
		}
	}

	if sum.size() != before {
		e.changed = true
	}
}

// ---- statement walk --------------------------------------------------

// block processes a statement list. results receives return-statement
// taints — nil inside a func literal, whose returns do not belong to the
// enclosing function.
func (sc *funcScope) block(b *ast.BlockStmt, results []tval) {
	for _, st := range b.List {
		sc.stmt(st, results)
	}
}

func (sc *funcScope) stmt(st ast.Stmt, results []tval) {
	switch s := st.(type) {
	case *ast.AssignStmt:
		sc.assign(s)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if len(vs.Values) == 1 && len(vs.Names) > 1 {
				multi := sc.evalMulti(vs.Values[0], len(vs.Names))
				for i, name := range vs.Names {
					sc.storeTo(name, multi[i], name.Pos())
				}
				continue
			}
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					sc.storeTo(name, sc.eval(vs.Values[i]), name.Pos())
				}
			}
		}
	case *ast.IncDecStmt:
		// x++ preserves x's taint; no new flow.
	case *ast.ExprStmt:
		sc.eval(s.X)
	case *ast.SendStmt:
		t := sc.eval(s.Value)
		if ch, ok := ResolveChain(sc.info, sc.aliases, s.Chan); ok {
			sc.storeChain(ch.push("*"), t)
		}
	case *ast.ReturnStmt:
		if results == nil {
			for _, r := range s.Results {
				sc.eval(r)
			}
			return
		}
		if len(s.Results) == len(results) {
			for i, r := range s.Results {
				if results[i].unionTv(sc.eval(r)) {
					sc.changed = true
				}
			}
		} else if len(s.Results) == 1 && len(results) > 1 {
			multi := sc.evalMulti(s.Results[0], len(results))
			for i := range results {
				if results[i].unionTv(multi[i]) {
					sc.changed = true
				}
			}
		} else if len(s.Results) == 0 {
			// Naked return: named results' cells carry the taint.
			sig := sc.fn.Obj.Type().(*types.Signature)
			for i := 0; i < sig.Results().Len() && i < len(results); i++ {
				r := sig.Results().At(i)
				if r.Name() == "" {
					continue
				}
				if results[i].unionTv(sc.read(Chain{Root: r}, token.NoPos)) {
					sc.changed = true
				}
			}
		}
	case *ast.RangeStmt:
		t := sc.eval(s.X)
		if s.Value != nil {
			sc.storeTo(s.Value, t.sub("*"), s.Value.Pos())
		}
		if s.Key != nil {
			// Map keys are data; slice/array indices are not.
			if xt := sc.info.TypeOf(s.X); xt != nil {
				if _, isMap := xt.Underlying().(*types.Map); isMap {
					sc.storeTo(s.Key, tval{"": t.flatten()}, s.Key.Pos())
				}
			}
		}
		sc.block(s.Body, results)
	case *ast.IfStmt:
		if s.Init != nil {
			sc.stmt(s.Init, results)
		}
		sc.eval(s.Cond) // for call side effects; conditions do not taint
		sc.block(s.Body, results)
		if s.Else != nil {
			sc.stmt(s.Else, results)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			sc.stmt(s.Init, results)
		}
		if s.Cond != nil {
			sc.eval(s.Cond)
		}
		if s.Post != nil {
			sc.stmt(s.Post, results)
		}
		sc.block(s.Body, results)
	case *ast.SwitchStmt:
		if s.Init != nil {
			sc.stmt(s.Init, results)
		}
		if s.Tag != nil {
			sc.eval(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, ce := range cc.List {
				sc.eval(ce)
			}
			for _, cs := range cc.Body {
				sc.stmt(cs, results)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			sc.stmt(s.Init, results)
		}
		sc.stmt(s.Assign, results)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, cs := range cc.Body {
				sc.stmt(cs, results)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				sc.stmt(cc.Comm, results)
			}
			for _, cs := range cc.Body {
				sc.stmt(cs, results)
			}
		}
	case *ast.BlockStmt:
		sc.block(s, results)
	case *ast.LabeledStmt:
		sc.stmt(s.Stmt, results)
	case *ast.GoStmt:
		sc.eval(s.Call)
	case *ast.DeferStmt:
		sc.eval(s.Call)
	}
}

// assign handles =, := and the compound operators.
func (sc *funcScope) assign(s *ast.AssignStmt) {
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		multi := sc.evalMulti(s.Rhs[0], len(s.Lhs))
		for i, lhs := range s.Lhs {
			sc.storeTo(lhs, multi[i], lhs.Pos())
		}
		return
	}
	for i := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		t := sc.eval(s.Rhs[i])
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			// Compound assignment reads the target too.
			merged := tval{}
			merged.unionTv(t)
			merged.unionTv(sc.eval(s.Lhs[i]))
			t = merged
		}
		sc.storeTo(s.Lhs[i], t, s.Lhs[i].Pos())
	}
}

// storeTo performs one store: sink detection on the target, then cell /
// summary bookkeeping via storeChain.
func (sc *funcScope) storeTo(lhs ast.Expr, t tval, pos token.Pos) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		if owner, field, ok := FieldOwner(sc.info, sel); ok {
			if desc, isSink := sc.e.cfg.SinkOf(owner, field); isSink {
				sc.recordSink(pos, desc, t.flatten())
			}
		}
	}
	if ch, ok := ResolveChain(sc.info, sc.aliases, lhs); ok {
		sc.storeChain(ch, t)
	}
	// Unresolvable targets (stores through call results etc.) are
	// dropped — the documented aliasing hole.
}

// storeChain unions a structured value into the cells under ch and
// records the caller-visible flows: stores through parameters become
// paramOut summary entries, stores into globals become globalOut entries
// (and, once source atoms are involved, concrete global taint).
func (sc *funcScope) storeChain(ch Chain, t tval) {
	if t.isEmpty() {
		return
	}
	root := sc.cells[ch.Root]
	if root == nil {
		root = tval{}
		sc.cells[ch.Root] = root
	}
	base := pathOf(ch)
	grew := false
	for rel, as := range t {
		if len(as) == 0 {
			continue
		}
		if root.unionAt(pathJoin(base, rel), as) {
			grew = true
		}
	}
	if grew {
		sc.changed = true
		delete(sc.readCache, ch.Root) // cached projections are stale
	}
	if idx, isParam := sc.params[ch.Root]; isParam {
		out := sc.sum.paramOut[idx]
		if out == nil {
			out = tval{}
			sc.sum.paramOut[idx] = out
		}
		for rel, as := range t {
			dst := pathJoin(base, rel)
			for a, pos := range as {
				// A parameter's own taint flowing back to the path it came
				// from instantiates to information the caller already holds;
				// recording identities only bloats summaries.
				if a.kind == aParam && a.param == idx && a.path == dst {
					continue
				}
				out.add(dst, a, pos)
			}
		}
	}
	if ch.IsGlobal() {
		flat := t.flatten()
		out := sc.sum.globalOut[ch.Root]
		if out == nil {
			out = aset{}
			sc.sum.globalOut[ch.Root] = out
		}
		out.union(flat)
		sc.e.noteGlobalTaint(ch.Root, flat)
	}
}

// noteGlobalTaint folds the resolvable source atoms of t into g's proven
// taint set.
func (e *taintEngine) noteGlobalTaint(g types.Object, t aset) {
	src := e.resolveSrc(t)
	if len(src) == 0 {
		return
	}
	cur := e.globalSrc[g]
	if cur == nil {
		cur = aset{}
		e.globalSrc[g] = cur
	}
	if cur.union(src) {
		e.changed = true
	}
}

func (sc *funcScope) recordSink(pos token.Pos, desc string, t aset) {
	if len(t) == 0 {
		return
	}
	key := fmt.Sprintf("%d|%s", pos, desc)
	sf := sc.sum.sinks[key]
	if sf == nil {
		sf = &sinkFlow{pos: pos, desc: desc, from: aset{}}
		sc.sum.sinks[key] = sf
	}
	sf.from.union(t)
}

// read returns the structured taint visible through chain: cells under it
// keep their relative paths, cells that are prefixes of it (whole-value
// taints stored earlier) apply to the whole projection, and parameter /
// global roots contribute their marker atoms.
func (sc *funcScope) read(ch Chain, pos token.Pos) tval {
	path := pathOf(ch)
	if byPath := sc.readCache[ch.Root]; byPath != nil {
		if cached, ok := byPath[path]; ok {
			return cached
		}
	}
	out := tval{}
	if root := sc.cells[ch.Root]; root != nil {
		out.unionTv(root.sub(path))
	}
	if idx, isParam := sc.params[ch.Root]; isParam {
		out.add("", atom{kind: aParam, param: idx, path: path}, pos)
	}
	if ch.IsGlobal() {
		out.add("", atom{kind: aGlobal, global: ch.Root}, pos)
		out.unionAt("", sc.e.globalSrc[ch.Root])
	}
	byPath := sc.readCache[ch.Root]
	if byPath == nil {
		byPath = map[string]tval{}
		sc.readCache[ch.Root] = byPath
	}
	byPath[path] = out
	return out
}

// prefixOverlap reports whether one dotted key is a prefix of the other.
func prefixOverlap(a, b string) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if b[:len(a)] != a {
		return false
	}
	return len(a) == len(b) || b[len(a)] == '.'
}

// ---- expression evaluation -------------------------------------------

// eval returns the structured taint of expr, performing call side
// effects.
func (sc *funcScope) eval(expr ast.Expr) tval {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if ch, ok := ResolveChain(sc.info, sc.aliases, e); ok {
			return sc.read(ch, e.Pos())
		}
		return tval{}
	case *ast.SelectorExpr:
		out := tval{}
		if owner, field, ok := FieldOwner(sc.info, e); ok {
			if label, isSrc := sc.e.cfg.SourceOf(owner, field); isSrc {
				out.add("", atom{kind: aSrc, label: label}, e.Sel.Pos())
			}
		}
		if ch, ok := ResolveChain(sc.info, sc.aliases, e); ok {
			out.unionTv(sc.read(ch, e.Pos()))
		} else {
			// Field of an unresolvable base (call result etc.): project the
			// base's structured taint through the field.
			out.unionTv(sc.eval(e.X).sub(e.Sel.Name))
		}
		return out
	case *ast.IndexExpr:
		// Element read: the container's taint, not the index's (index
		// influence is control-like and excluded by policy).
		sc.eval(e.Index) // side effects only
		if ch, ok := ResolveChain(sc.info, sc.aliases, e); ok {
			return sc.read(ch, e.Pos())
		}
		return sc.eval(e.X).sub("*")
	case *ast.SliceExpr:
		return sc.eval(e.X)
	case *ast.StarExpr:
		return sc.eval(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW { // <-ch reads the channel's element cell
			if ch, ok := ResolveChain(sc.info, sc.aliases, e.X); ok {
				return sc.read(ch.push("*"), e.Pos())
			}
		}
		return sc.eval(e.X)
	case *ast.BinaryExpr:
		out := tval{}
		out.unionAt("", sc.eval(e.X).flatten())
		out.unionAt("", sc.eval(e.Y).flatten())
		return out
	case *ast.TypeAssertExpr:
		return sc.eval(e.X)
	case *ast.CallExpr:
		return sc.call(e, 1)[0]
	case *ast.CompositeLit:
		return sc.composite(e)
	case *ast.FuncLit:
		// Analyze the literal's body inline: it shares the enclosing cell
		// map, so captured-variable flows are tracked; its own returns
		// are discarded (a dynamic call of the value havocs instead).
		sc.block(e.Body, nil)
		return tval{}
	}
	return tval{}
}

// evalMulti evaluates a multi-value expression (a call or a single value
// used in a tuple context) into n taint values.
func (sc *funcScope) evalMulti(expr ast.Expr, n int) []tval {
	if call, ok := ast.Unparen(expr).(*ast.CallExpr); ok {
		return sc.call(call, n)
	}
	t := sc.eval(expr)
	out := make([]tval, n)
	for i := range out {
		out[i] = t
	}
	return out
}

// composite evaluates a composite literal field-sensitively: keyed struct
// elements land under their field name (and are checked against the sink
// specs — building a sink-typed struct by literal is a store), slice and
// map elements land under "*", and positional struct elements fold into
// the whole value.
func (sc *funcScope) composite(lit *ast.CompositeLit) tval {
	owner := NamedOf(sc.info.TypeOf(lit))
	var isStruct bool
	if t := sc.info.TypeOf(lit); t != nil {
		_, isStruct = t.Underlying().(*types.Struct)
	}
	out := tval{}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			t := sc.eval(kv.Value)
			if key, isIdent := kv.Key.(*ast.Ident); isIdent && isStruct {
				out.mergeAt(key.Name, t)
				if owner != nil {
					if desc, isSink := sc.e.cfg.SinkOf(owner, key.Name); isSink {
						sc.recordSink(kv.Pos(), desc, t.flatten())
					}
				}
			} else {
				sc.eval(kv.Key)
				out.mergeAt("*", t)
			}
			continue
		}
		if isStruct {
			out.unionAt("", sc.eval(el).flatten())
		} else {
			out.mergeAt("*", sc.eval(el))
		}
	}
	return out
}

// call applies a call expression: instantiate the callee's summary when
// its source is in the program, havoc otherwise. Returns n taint values
// (one per expected result).
func (sc *funcScope) call(call *ast.CallExpr, n int) []tval {
	blank := func() []tval {
		out := make([]tval, n)
		for i := range out {
			out[i] = tval{}
		}
		return out
	}

	if conv, builtin := IsConversionOrBuiltin(sc.info, call); conv {
		out := blank()
		if len(call.Args) == 1 {
			out[0] = sc.eval(call.Args[0])
		}
		return out
	} else if builtin != nil {
		return sc.builtinCall(builtin, call, n)
	}

	callee := StaticCallee(sc.info, call)

	// Argument taints, aligned to the callee's combined receiver+param
	// indexing when the callee is known, positional otherwise.
	var argT []tval
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isSel := sc.info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			argT = append(argT, sc.eval(sel.X))
		}
	}
	for _, a := range call.Args {
		argT = append(argT, sc.eval(a))
	}

	if callee != nil {
		if desc, isSink := sc.e.cfg.CallSinkOf(callee); isSink {
			sc.sinkCall(call, desc, argT)
			return blank()
		}
		if target := sc.e.prog.Resolve(callee); target != nil {
			return sc.applySummary(call, target, argT, n)
		}
		// External (export-data-only or stdlib) callee: havoc.
		return sc.havoc(call, argT, n)
	}

	// Dynamic call: func value or interface method. Interface call sinks
	// still match by the abstract method object.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, isSel := sc.info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			if fn, isFn := s.Obj().(*types.Func); isFn {
				if desc, isSink := sc.e.cfg.CallSinkOf(fn); isSink {
					sc.sinkCall(call, desc, argT)
					return blank()
				}
			}
		}
	}
	sc.eval(call.Fun)
	return sc.havoc(call, argT, n)
}

func (sc *funcScope) sinkCall(call *ast.CallExpr, desc string, argT []tval) {
	all := aset{}
	for _, t := range argT {
		all.union(t.flatten())
	}
	sc.recordSink(call.Lparen, desc, all)
}

// havoc is the conservative unknown-callee rule: every argument's taint
// flows to every result and into every pointer-like argument.
func (sc *funcScope) havoc(call *ast.CallExpr, argT []tval, n int) []tval {
	all := aset{}
	for _, t := range argT {
		all.union(t.flatten())
	}
	if len(all) > 0 {
		for _, a := range call.Args {
			t := sc.info.TypeOf(a)
			if t == nil {
				continue
			}
			switch t.Underlying().(type) {
			case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
				if ch, ok := ResolveChain(sc.info, sc.aliases, a); ok {
					sc.storeChain(ch, tval{"": all})
				}
			}
		}
	}
	out := make([]tval, n)
	for i := range out {
		out[i] = tval{"": all}
	}
	return out
}

// instMemo caches argument projections within one call-site application:
// a big callee summary mentions the same (param, path) atom hundreds of
// times, and re-projecting the actual each time dominated instantiation.
type instMemo struct {
	structured map[int]map[string]tval
	flat       map[int]map[string]aset
}

func newInstMemo() *instMemo {
	return &instMemo{structured: map[int]map[string]tval{}, flat: map[int]map[string]aset{}}
}

func (m *instMemo) sub(argT []tval, param int, path string) tval {
	byPath := m.structured[param]
	if byPath == nil {
		byPath = map[string]tval{}
		m.structured[param] = byPath
	}
	if cached, ok := byPath[path]; ok {
		return cached
	}
	out := argT[param].sub(path)
	byPath[path] = out
	return out
}

func (m *instMemo) subFlat(argT []tval, param int, path string) aset {
	byPath := m.flat[param]
	if byPath == nil {
		byPath = map[string]aset{}
		m.flat[param] = byPath
	}
	if cached, ok := byPath[path]; ok {
		return cached
	}
	out := m.sub(argT, param, path).flatten()
	byPath[path] = out
	return out
}

// instA substitutes actual argument taint for parameter atoms, flatly —
// used for sink flows, where structure no longer matters.
func (sc *funcScope) instA(s aset, argT []tval, memo *instMemo) aset {
	out := aset{}
	for a, pos := range s {
		switch a.kind {
		case aSrc:
			out[a] = pos
		case aGlobal:
			out[a] = pos
			out.union(sc.e.globalSrc[a.global])
		case aParam:
			if a.param < len(argT) {
				out.union(memo.subFlat(argT, a.param, a.path))
			}
		}
	}
	return out
}

// instTv substitutes actual argument taint for parameter atoms. A
// pass-through atom (rel "") expands to the actual's full structured
// projection, so identity returns and accessors preserve field taints.
// Atoms under a deeper rel expand flat: the callee bound that value to a
// specific field, and re-expanding its structure there would invent
// access paths that exist nowhere in the program (and breed more on each
// fixpoint round — the un-flattened version did not converge on the
// simulator's interpreter loops).
func (sc *funcScope) instTv(t tval, argT []tval, memo *instMemo) tval {
	out := tval{}
	for rel, as := range t {
		for a, pos := range as {
			switch a.kind {
			case aSrc:
				out.add(rel, a, pos)
			case aGlobal:
				out.add(rel, a, pos)
				out.unionAt(rel, sc.e.globalSrc[a.global])
			case aParam:
				if a.param < len(argT) {
					if rel == "" {
						out.mergeAt("", memo.sub(argT, a.param, a.path))
					} else {
						out.unionAt(rel, memo.subFlat(argT, a.param, a.path))
					}
				}
			}
		}
	}
	return out
}

// applySummary instantiates target's transfer summary at this call site.
func (sc *funcScope) applySummary(call *ast.CallExpr, target *Func, argT []tval, n int) []tval {
	sum := sc.e.summaries[target.Key]
	if sum == nil {
		sum = newSummary()
		sc.e.summaries[target.Key] = sum
	}

	// Align variadic tails: fold extra arguments into the last parameter.
	sig := target.Obj.Type().(*types.Signature)
	nparams := sig.Params().Len()
	if sig.Recv() != nil {
		nparams++
	}
	if nparams > 0 && len(argT) > nparams {
		tail := argT[nparams-1:]
		folded := tval{}
		for _, t := range tail {
			folded.unionAt("", t.flatten())
		}
		argT = append(argT[:nparams-1:nparams-1], folded)
	}

	memo := newInstMemo()

	// Callee sinks, lifted into this function's summary with actuals
	// substituted; flows that already carry source atoms resolve at the
	// end of the run like any other.
	for _, sf := range sum.sinks {
		lifted := sc.instA(sf.from, argT, memo)
		if len(lifted) > 0 {
			sc.recordSink(sf.pos, sf.desc, lifted)
		}
	}
	// Callee writes through our arguments, structure preserved.
	for idx, t := range sum.paramOut {
		if idx >= len(argT) {
			continue
		}
		lifted := sc.instTv(t, argT, memo)
		if lifted.isEmpty() {
			continue
		}
		// Which actual expression was parameter idx?
		argIdx := idx
		var argExpr ast.Expr
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, isSel := sc.info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
				if idx == 0 {
					argExpr = sel.X
				} else {
					argIdx = idx - 1
					if argIdx < len(call.Args) {
						argExpr = call.Args[argIdx]
					}
				}
			}
		}
		if argExpr == nil && argIdx < len(call.Args) {
			argExpr = call.Args[argIdx]
		}
		if argExpr != nil {
			if ch, ok := ResolveChain(sc.info, sc.aliases, argExpr); ok {
				sc.storeChain(ch, lifted)
			}
		}
	}
	// Callee writes into globals, re-expressed over our atoms.
	for g, t := range sum.globalOut {
		lifted := sc.instA(t, argT, memo)
		if len(lifted) == 0 {
			continue
		}
		out := sc.sum.globalOut[g]
		if out == nil {
			out = aset{}
			sc.sum.globalOut[g] = out
		}
		out.union(lifted)
		sc.e.noteGlobalTaint(g, lifted)
	}

	out := make([]tval, n)
	for i := range out {
		if i < len(sum.results) {
			out[i] = sc.instTv(sum.results[i], argT, memo)
		} else {
			out[i] = tval{}
		}
	}
	return out
}

// builtinCall models the builtins with data flow: append/copy move
// element data, len/cap/min/max propagate value taint conservatively.
func (sc *funcScope) builtinCall(b *types.Builtin, call *ast.CallExpr, n int) []tval {
	out := make([]tval, n)
	for i := range out {
		out[i] = tval{}
	}
	switch b.Name() {
	case "append":
		res := tval{}
		res.unionTv(sc.eval(call.Args[0]))
		for _, a := range call.Args[1:] {
			res.mergeAt("*", sc.eval(a))
		}
		out[0] = res
		if ch, ok := ResolveChain(sc.info, sc.aliases, call.Args[0]); ok {
			sc.storeChain(ch, res)
		}
	case "copy":
		if len(call.Args) == 2 {
			t := sc.eval(call.Args[1])
			if ch, ok := ResolveChain(sc.info, sc.aliases, call.Args[0]); ok {
				sc.storeChain(ch, t)
			}
		}
	case "len", "cap", "min", "max", "real", "imag", "complex":
		all := aset{}
		for _, a := range call.Args {
			all.union(sc.eval(a).flatten())
		}
		out[0] = tval{"": all}
	default:
		for _, a := range call.Args {
			sc.eval(a)
		}
	}
	return out
}

// dump prints a composition profile of the summary (debug only): the
// largest tvals with per-rel atom counts and atom-kind breakdowns.
func (s *summary) dump(w *os.File) {
	show := func(name string, tv tval) {
		if tv.size() < 500 {
			return
		}
		type re struct {
			rel string
			n   int
		}
		var rels []re
		for rel, as := range tv {
			rels = append(rels, re{rel, len(as)})
		}
		sort.Slice(rels, func(i, j int) bool { return rels[i].n > rels[j].n })
		fmt.Fprintf(w, "flow:     %s size=%d rels=%d\n", name, tv.size(), len(tv))
		for i, r := range rels {
			if i >= 5 {
				break
			}
			nsrc, nparam, nglob := 0, 0, 0
			paths := map[string]bool{}
			for a := range tv[r.rel] {
				switch a.kind {
				case aSrc:
					nsrc++
				case aParam:
					nparam++
					paths[fmt.Sprintf("p%d.%s", a.param, a.path)] = true
				case aGlobal:
					nglob++
				}
			}
			var ps []string
			for p := range paths {
				ps = append(ps, p)
			}
			sort.Strings(ps)
			if len(ps) > 8 {
				ps = ps[:8]
			}
			fmt.Fprintf(w, "flow:       rel=%q n=%d src=%d param=%d glob=%d paths=%v\n", r.rel, r.n, nsrc, nparam, nglob, ps)
		}
	}
	for i, r := range s.results {
		show(fmt.Sprintf("result[%d]", i), r)
	}
	for idx, p := range s.paramOut {
		show(fmt.Sprintf("paramOut[%d]", idx), p)
	}
	nsink := 0
	for _, sf := range s.sinks {
		nsink += len(sf.from)
	}
	fmt.Fprintf(w, "flow:     sinks=%d atoms=%d\n", len(s.sinks), nsink)
}
