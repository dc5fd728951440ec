package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerTimeTaint tracks host-time values through the module and reports
// any flow into a DES decision.
//
// The simclock analyzer bans *reading* the host clock outside internal/perf
// and cmd/*; this analyzer closes the other half of the contract: a value
// that *originated* from the host clock (time.Now/Since/Until, and therefore
// perf.NowNS, whose body the analysis summarizes — sources are discovered
// transitively, not hard-coded) must never become simulator state. The
// sanctioned packages are source-only: they may produce and consume host
// time among themselves (wall counters, progress logs), but the moment a
// host-derived value is converted to sim.Time, assigned into a sim.Time
// location, or passed where the simulator expects a virtual delay
// (Env.Schedule / ScheduleAt, Proc.Sleep, WaitQueue.WaitTimeout), the run's
// event stream depends on machine speed and same-seed determinism is gone.
//
// The analysis is a whole-module fixpoint over per-function summaries:
//
//   - Each value carries an origin set: a bitmask with a REAL bit (host
//     time) plus one bit per function parameter.
//   - An intraprocedural pass propagates origins through assignments,
//     arithmetic, composite literals, returns, and captured variables
//     (function literals are analyzed inside their enclosing function, so
//     closures share taint state through the captured objects).
//   - Each function gets a summary: which origins reach its return values,
//     which parameters reach a sink, and which parameters are stored into
//     struct fields or globals. Call sites substitute argument origins for
//     parameter bits, so taint flows through any depth of calls.
//   - Struct fields and package-level variables that ever receive host
//     taint are tainted globally (field-insensitive across instances);
//     every read of such a field yields host taint. The fixpoint re-runs
//     until summaries and the global field set stop changing, then one
//     final pass reports.
//
// Known limitation (documented in DESIGN.md): calls through interfaces and
// plain function values are not summarized — their results are assumed
// untainted. Sinks still catch tainted *arguments* to such calls when the
// parameter type is sim.Time.
var AnalyzerTimeTaint = &Analyzer{
	Name:      "timetaint",
	Doc:       "host-time values (time.Now, perf.NowNS) must not flow into sim.Time or event scheduling",
	RunModule: runTimeTaint,
}

// originSet is a bitmask of value origins.
type originSet uint64

const originReal originSet = 1 // host-clock-derived

// paramBit returns the origin bit for parameter i (capped: parameters past
// 62 share the last bit, erring conservative).
func paramBit(i int) originSet {
	if i > 62 {
		i = 62
	}
	return 1 << uint(i+1)
}

// taintSummary is the interprocedural summary of one function.
type taintSummary struct {
	// returns holds origins that can reach a return value.
	returns originSet
	// sinkParams holds parameter bits that reach a sink inside the function
	// (transitively): passing a host-tainted argument there is a violation
	// at the call site.
	sinkParams originSet
	// fieldWrites maps a field/global object to the parameter bits that are
	// stored into it, so a call with a tainted argument taints the field.
	fieldWrites map[types.Object]originSet
}

func (s *taintSummary) fieldWrite(obj types.Object, bits originSet) bool {
	if bits == 0 {
		return false
	}
	if s.fieldWrites == nil {
		s.fieldWrites = map[types.Object]originSet{}
	}
	old := s.fieldWrites[obj]
	s.fieldWrites[obj] = old | bits
	return old|bits != old
}

type taintState struct {
	m       *Module
	simTime types.Type // the sim.Time named type; nil if absent
	// summaries by function object; missing entry = zero summary.
	summaries map[*types.Func]*taintSummary
	// fields holds struct fields and package-level variables known to carry
	// host taint.
	fields  map[types.Object]bool
	changed bool
	report  bool
}

func runTimeTaint(m *Module) {
	st := &taintState{
		m:         m,
		summaries: map[*types.Func]*taintSummary{},
		fields:    map[types.Object]bool{},
	}
	if simPkg := m.Lookup("internal/sim"); simPkg != nil && simPkg.Types != nil {
		if tn, ok := simPkg.Types.Scope().Lookup("Time").(*types.TypeName); ok {
			st.simTime = tn.Type()
		}
	}
	// Fixpoint: summaries and global field taint grow monotonically.
	for iter := 0; iter < 32; iter++ {
		st.changed = false
		st.passModule()
		if !st.changed {
			break
		}
	}
	// Reporting pass: state is stable, findings are complete and deduped by
	// the runner.
	st.report = true
	st.passModule()
}

func (st *taintState) passModule() {
	for _, pkg := range st.m.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					fa := st.newFuncAnalysis(pkg, fn)
					fa.analyzeBody(d.Body)
				case *ast.GenDecl:
					// Package-level var initializers: var base = time.Now()
					// taints the global.
					if d.Tok != token.VAR {
						continue
					}
					fa := st.newFuncAnalysis(pkg, nil)
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for i, val := range vs.Values {
							t := fa.exprTaint(val)
							if t&originReal == 0 || i >= len(vs.Names) {
								continue
							}
							if obj := pkg.Info.Defs[vs.Names[i]]; obj != nil {
								st.taintField(obj)
							}
						}
					}
				}
			}
		}
	}
}

func (st *taintState) taintField(obj types.Object) {
	if !st.fields[obj] {
		st.fields[obj] = true
		st.changed = true
	}
}

func (st *taintState) summary(fn *types.Func) *taintSummary {
	s := st.summaries[fn]
	if s == nil {
		s = &taintSummary{}
		st.summaries[fn] = s
	}
	return s
}

// funcAnalysis propagates origins through one function body.
type funcAnalysis struct {
	st  *taintState
	pkg *Package
	fn  *types.Func // nil when evaluating package-level initializers
	sum *taintSummary
	// vars holds local/parameter origin sets, keyed by object; captured
	// variables are shared with nested literals through the same objects.
	vars map[types.Object]originSet
}

func (st *taintState) newFuncAnalysis(pkg *Package, fn *types.Func) *funcAnalysis {
	fa := &funcAnalysis{st: st, pkg: pkg, fn: fn, vars: map[types.Object]originSet{}}
	if fn != nil {
		fa.sum = st.summary(fn)
		if sig, ok := fn.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				fa.vars[sig.Params().At(i)] = paramBit(i)
			}
		}
	}
	return fa
}

// analyzeBody runs the intraprocedural transfer function to a local
// fixpoint (loops can carry taint backwards).
func (fa *funcAnalysis) analyzeBody(body *ast.BlockStmt) {
	for i := 0; i < 8; i++ {
		before := fa.snapshot()
		fa.walkStmts(body)
		if fa.snapshot() == before {
			break
		}
	}
}

// snapshot summarizes the var map for local-fixpoint change detection.
func (fa *funcAnalysis) snapshot() uint64 {
	var n uint64
	var mask originSet
	for _, t := range fa.vars {
		if t != 0 {
			n++
			mask |= t
		}
	}
	return n<<32 | uint64(mask&0xffffffff)
}

func (fa *funcAnalysis) walkStmts(root ast.Node) {
	ast.Inspect(root, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.AssignStmt:
			fa.assign(x)
		case *ast.DeclStmt:
			if gd, ok := x.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						fa.valueSpec(vs)
					}
				}
			}
		case *ast.ReturnStmt:
			if fa.sum != nil {
				t := originSet(0)
				if len(x.Results) == 0 {
					// Bare return: named results carry the taint.
					if sig, ok := fa.fn.Type().(*types.Signature); ok {
						for i := 0; i < sig.Results().Len(); i++ {
							t |= fa.vars[sig.Results().At(i)]
						}
					}
				}
				for _, r := range x.Results {
					t |= fa.exprTaint(r)
				}
				if fa.sum.returns|t != fa.sum.returns {
					fa.sum.returns |= t
					fa.st.changed = true
				}
			}
		case *ast.RangeStmt:
			t := fa.exprTaint(x.X)
			fa.setLHS(x.Key, t, x.Pos())
			fa.setLHS(x.Value, t, x.Pos())
		case *ast.CallExpr:
			// Calls in statement position still need sink checks; nested
			// calls are handled when exprTaint descends, and re-evaluating
			// is idempotent.
			fa.callTaint(x)
			return true
		}
		return true
	})
}

func (fa *funcAnalysis) valueSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		var t originSet
		if len(vs.Values) == len(vs.Names) {
			t = fa.exprTaint(vs.Values[i])
		} else if len(vs.Values) == 1 {
			t = fa.exprTaint(vs.Values[0])
		}
		if obj := fa.pkg.Info.Defs[name]; obj != nil && t != 0 {
			fa.setVar(obj, t)
		}
		if t != 0 && len(vs.Values) > 0 {
			fa.checkSinkType(fa.pkg.Info.Defs[name], t, name.Pos())
		}
	}
}

func (fa *funcAnalysis) assign(x *ast.AssignStmt) {
	// Taint per RHS position; a single multi-value RHS taints every LHS.
	taints := make([]originSet, len(x.Lhs))
	if len(x.Rhs) == len(x.Lhs) {
		for i, r := range x.Rhs {
			taints[i] = fa.exprTaint(r)
		}
	} else if len(x.Rhs) == 1 {
		t := fa.exprTaint(x.Rhs[0])
		for i := range taints {
			taints[i] = t
		}
	}
	for i, lhs := range x.Lhs {
		if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
			// Compound assign (+=, etc.): LHS keeps its own taint too.
			taints[i] |= fa.lhsTaint(lhs)
		}
		fa.setLHS(lhs, taints[i], lhs.Pos())
	}
}

func (fa *funcAnalysis) lhsTaint(lhs ast.Expr) originSet {
	return fa.exprTaint(lhs)
}

// setLHS records taint flowing into an assignable location and checks the
// sim.Time sink.
func (fa *funcAnalysis) setLHS(lhs ast.Expr, t originSet, pos token.Pos) {
	if lhs == nil {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := fa.pkg.Info.Defs[l]
		if obj == nil {
			obj = fa.pkg.Info.Uses[l]
		}
		if obj == nil {
			return
		}
		if _, isPkgVar := obj.(*types.Var); isPkgVar && obj.Parent() == fa.pkg.Types.Scope() {
			// Package-level variable: global taint.
			if t&originReal != 0 {
				fa.st.taintField(obj)
			}
			if fa.sum != nil {
				if fa.sum.fieldWrite(obj, t&^originReal) {
					fa.st.changed = true
				}
			}
		} else if t != 0 {
			fa.setVar(obj, t)
		}
		fa.checkSinkType(obj, t, pos)
	case *ast.SelectorExpr:
		// Field write: x.f = tainted.
		if sel, ok := fa.pkg.Info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			obj := sel.Obj()
			if t&originReal != 0 {
				fa.st.taintField(obj)
			}
			if fa.sum != nil {
				if fa.sum.fieldWrite(obj, t&^originReal) {
					fa.st.changed = true
				}
			}
			fa.checkSinkType(obj, t, pos)
		} else if obj := fa.pkg.Info.Uses[l.Sel]; obj != nil {
			// Qualified package var: other.Global = tainted.
			if _, isVar := obj.(*types.Var); isVar {
				if t&originReal != 0 {
					fa.st.taintField(obj)
				}
				fa.checkSinkType(obj, t, pos)
			}
		}
	case *ast.IndexExpr:
		// m[k] = tainted: taint the container object when nameable.
		fa.setLHS(l.X, t, pos)
	case *ast.StarExpr:
		fa.setLHS(l.X, t, pos)
	}
}

func (fa *funcAnalysis) setVar(obj types.Object, t originSet) {
	old := fa.vars[obj]
	if old|t != old {
		fa.vars[obj] = old | t
	}
}

// checkSinkType reports/records when taint flows into a sim.Time-typed
// location.
func (fa *funcAnalysis) checkSinkType(obj types.Object, t originSet, pos token.Pos) {
	if obj == nil || t == 0 || fa.st.simTime == nil {
		return
	}
	if !types.Identical(obj.Type(), fa.st.simTime) {
		return
	}
	fa.sink(t, pos, "assignment into a sim.Time location")
}

// sink handles taint arriving at a DES-decision sink: REAL taint is a
// finding; parameter taint becomes part of the function summary so the
// violation is reported at the call site that supplies host time.
func (fa *funcAnalysis) sink(t originSet, pos token.Pos, what string) {
	if t&originReal != 0 && fa.st.report {
		fa.st.m.Reportf(pos, "host-derived time value flows into %s; DES decisions must use virtual time (sim.Env.Now)", what)
	}
	if fa.sum != nil {
		bits := t &^ originReal
		if fa.sum.sinkParams|bits != fa.sum.sinkParams {
			fa.sum.sinkParams |= bits
			fa.st.changed = true
		}
	}
}

// exprTaint computes the origin set of an expression, recording sinks and
// summary facts for any calls inside it.
func (fa *funcAnalysis) exprTaint(e ast.Expr) originSet {
	switch x := e.(type) {
	case nil:
		return 0
	case *ast.BasicLit:
		return 0
	case *ast.Ident:
		obj := fa.pkg.Info.Uses[x]
		if obj == nil {
			obj = fa.pkg.Info.Defs[x]
		}
		if obj == nil {
			return 0
		}
		if fa.st.fields[obj] {
			return originReal
		}
		return fa.vars[obj]
	case *ast.SelectorExpr:
		var t originSet
		if sel, ok := fa.pkg.Info.Selections[x]; ok {
			if fa.st.fields[sel.Obj()] {
				t |= originReal
			}
			// A tainted struct value taints its fields.
			t |= fa.exprTaint(x.X)
			return t
		}
		// Package-qualified: pkg.Var
		if obj := fa.pkg.Info.Uses[x.Sel]; obj != nil && fa.st.fields[obj] {
			return originReal
		}
		return 0
	case *ast.CallExpr:
		return fa.callTaint(x)
	case *ast.BinaryExpr:
		return fa.exprTaint(x.X) | fa.exprTaint(x.Y)
	case *ast.ParenExpr:
		return fa.exprTaint(x.X)
	case *ast.UnaryExpr:
		return fa.exprTaint(x.X)
	case *ast.StarExpr:
		return fa.exprTaint(x.X)
	case *ast.IndexExpr:
		return fa.exprTaint(x.X)
	case *ast.SliceExpr:
		return fa.exprTaint(x.X)
	case *ast.TypeAssertExpr:
		return fa.exprTaint(x.X)
	case *ast.CompositeLit:
		var t originSet
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v := fa.exprTaint(kv.Value)
				t |= v
				// Keyed struct literal: S{f: tainted} is a field write.
				if id, ok := kv.Key.(*ast.Ident); ok {
					if obj := fa.pkg.Info.Uses[id]; obj != nil {
						if fld, isVar := obj.(*types.Var); isVar && fld.IsField() {
							if v&originReal != 0 {
								fa.st.taintField(fld)
							}
							if fa.sum != nil && fa.sum.fieldWrite(fld, v&^originReal) {
								fa.st.changed = true
							}
							fa.checkSinkType(fld, v, kv.Pos())
						}
					}
				}
			} else {
				t |= fa.exprTaint(el)
			}
		}
		return t
	case *ast.FuncLit:
		// The literal's body shares this analysis context (captures work
		// through shared objects); the closure value itself is untainted.
		fa.walkStmts(x.Body)
		return 0
	}
	return 0
}

// callTaint handles a call expression: conversions, sources, summaries,
// sink arguments.
func (fa *funcAnalysis) callTaint(call *ast.CallExpr) originSet {
	info := fa.pkg.Info
	// Type conversion.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		var t originSet
		for _, a := range call.Args {
			t |= fa.exprTaint(a)
		}
		if fa.st.simTime != nil && tv.Type != nil && types.Identical(tv.Type, fa.st.simTime) && t != 0 {
			fa.sink(t, call.Pos(), "a sim.Time conversion")
			// The conversion is THE violation; treat its result as
			// sanitized so one flow yields one finding, not a cascade at
			// every downstream sim.Time use.
			return 0
		}
		return t
	}

	callee := calleeFunc(fa.pkg, call)

	// Argument taints (also walks nested expressions).
	argT := make([]originSet, len(call.Args))
	for i, a := range call.Args {
		argT[i] = fa.exprTaint(a)
	}
	var recvT originSet
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := info.Selections[sel]; isSel {
			recvT = fa.exprTaint(sel.X)
		}
	}

	if callee == nil {
		// Dynamic call: assume results untainted (documented limitation);
		// builtins propagate operand taint.
		var t originSet
		for _, at := range argT {
			t |= at
		}
		return t
	}

	// Host-clock sources.
	if p := callee.Pkg(); p != nil && p.Path() == "time" {
		switch callee.Name() {
		case "Now", "Since", "Until":
			return originReal
		}
	}

	if p := callee.Pkg(); p != nil && modulePackage(fa.st.m.ModPath, p.Path()) {
		sum := fa.st.summaries[callee]
		// Sink parameters: declared sim.Time/delay params plus summarized
		// transitive sinks.
		sinkMask := fa.simSinkParams(callee)
		if sum != nil {
			sinkMask |= sum.sinkParams
		}
		for i, at := range argT {
			if at == 0 {
				continue
			}
			if sinkMask&paramBit(i) != 0 {
				fa.sink(at, call.Args[i].Pos(), "argument "+ordinal(i)+" of "+displayName(fa.st.m.ModPath, callee)+" (a virtual-time/event-scheduling parameter)")
			}
		}
		if sum == nil {
			return 0
		}
		// Apply field writes: parameter bits become concrete taints. The
		// updates are monotone set unions, so the map order is immaterial.
		//splitlint:ignore maporder monotone OR-union into taint sets; result independent of iteration order
		for obj, mask := range sum.fieldWrites {
			for i := range argT {
				if mask&paramBit(i) != 0 && argT[i] != 0 {
					if argT[i]&originReal != 0 {
						fa.st.taintField(obj)
					}
					if fa.sum != nil && fa.sum.fieldWrite(obj, argT[i]&^originReal) {
						fa.st.changed = true
					}
				}
			}
		}
		// Map return taint: substitute argument origins for parameter bits.
		var t originSet
		if sum.returns&originReal != 0 {
			t |= originReal
		}
		for i := range argT {
			if sum.returns&paramBit(i) != 0 {
				t |= argT[i]
			}
		}
		return t
	}

	// External call: propagate receiver+argument taint through the result
	// (covers time.Time methods like Sub/UnixNano on tainted values).
	t := recvT
	for _, at := range argT {
		t |= at
	}
	return t
}

// simSinkParams returns the parameter-bit mask of fn's declared DES-decision
// parameters: any sim.Time parameter, plus the delay parameters of the sim
// scheduling API (which take time.Duration but define virtual delays).
func (fa *funcAnalysis) simSinkParams(fn *types.Func) originSet {
	var mask originSet
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0
	}
	if fa.st.simTime != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			if types.Identical(sig.Params().At(i).Type(), fa.st.simTime) {
				mask |= paramBit(i)
			}
		}
	}
	if p := fn.Pkg(); p != nil && p.Path() == fa.st.m.ModPath+"/internal/sim" {
		recv := receiverTypeName(fn)
		switch {
		case recv == "Env" && fn.Name() == "Schedule",
			recv == "Proc" && fn.Name() == "Sleep",
			recv == "WaitQueue" && fn.Name() == "WaitTimeout":
			mask |= paramBit(0)
		}
	}
	return mask
}

func ordinal(i int) string {
	return fmt.Sprintf("#%d", i+1)
}
