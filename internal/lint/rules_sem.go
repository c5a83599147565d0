// Semantic (type-aware) rules. These run over a type-checked Module and
// enforce the cross-package invariants the AST phase cannot see:
//
//   - atomic-discipline: a variable or field ever passed to a sync/atomic
//     function must never be read or written plainly afterwards — outside
//     init functions and composite-literal initialization — anywhere in the
//     module. Mixed access is a data race that -race only catches when a
//     schedule happens to expose it.
//   - memo-key-purity: types reachable from the engine memo key
//     (sim.Options / engine.Key) must not contain funcs, channels, maps,
//     slices, interfaces, or observer/fault-injector state. The engine
//     deduplicates runs by key equality; impure fields either break
//     comparability or alias runs whose behavior differs.
//   - error-discipline: a call whose callee lives under internal/ and
//     returns an error must not discard it (expression statement, go, or
//     defer). An explicit `_ =` assignment is an accepted, greppable
//     waiver.
//   - unit-safety: config.Time (picoseconds) and config.Cycles (CPU
//     cycles) convert only through Cycles.Dur / config.CyclesIn, and the
//     timing-critical packages must not splice bare integer literals into
//     Time-typed positions (assignment, field, return, comparison).
//   - attr-registration: the attr Component enum, its componentNames
//     table, and the Access scratch struct stay mutually registered, so
//     Snapshot.Conserved() audits every picosecond the MC attributes.
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Semantic rule names, as reported and as accepted by //tmcclint:allow.
const (
	RuleAtomic  = "atomic-discipline"
	RuleMemoKey = "memo-key-purity"
	RuleErr     = "error-discipline"
	RuleUnits   = "unit-safety"
	RuleAttrReg = "attr-registration"
)

// AllRules lists every rule name, AST and semantic, for -rules validation.
func AllRules() []string {
	return []string{
		RuleRand, RuleWallclock, RuleMapIter, RuleMagic, RulePanic, RuleObsSink,
		RuleAtomic, RuleMemoKey, RuleErr, RuleUnits, RuleAttrReg,
	}
}

// Semantic runs the type-aware rules over the module. enabled filters by
// rule name (nil means all). Packages whose type-check failed are skipped;
// the corresponding Module.Warnings entry is the user-visible signal.
func (m *Module) Semantic(enabled func(rule string) bool) []Diag {
	if enabled == nil {
		enabled = func(string) bool { return true }
	}
	s := &semChecker{m: m, enabled: enabled}
	s.checkAtomic()
	s.checkMemoKey()
	s.checkErrDiscipline()
	s.checkUnits()
	s.checkAttrReg()
	return s.diags
}

type semChecker struct {
	m       *Module
	enabled func(string) bool
	diags   []Diag
}

func (s *semChecker) report(pos token.Pos, rule, msg string) {
	p := s.m.Fset.Position(pos)
	if s.m.allowed(p, rule) {
		return
	}
	s.diags = append(s.diags, Diag{Pos: p, Rule: rule, Msg: msg})
}

// checked yields the packages that type-checked successfully.
func (s *semChecker) checked() []*Package {
	var out []*Package
	for _, p := range s.m.Pkgs {
		if p.Err == nil && p.Info != nil {
			out = append(out, p)
		}
	}
	return out
}

// pkgSuffix reports whether import path ip ends with the slash-separated
// segment sequence suffix (so "tmcc/internal/sim" and the fixture module's
// "fix/internal/sim" both match "internal/sim", but "internal/simx" and
// "myinternal/sim" do not).
func pkgSuffix(ip, suffix string) bool {
	return ip == suffix || strings.HasSuffix(ip, "/"+suffix)
}

// relScoped reports whether relDir is dir or nested under it
// (segment-exact: "internal/mcuse" is not under "internal/mc").
func relScoped(relDir, dir string) bool {
	return relDir == dir || strings.HasPrefix(relDir, dir+"/")
}

// --- atomic-discipline ------------------------------------------------------

// atomicFuncPrefixes match the sync/atomic package-level operations; the
// suffix is the width (AddUint64, LoadInt32, ...).
var atomicFuncPrefixes = []string{"Add", "Load", "Store", "Swap", "CompareAndSwap"}

func isAtomicFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, p := range atomicFuncPrefixes {
		if strings.HasPrefix(fn.Name(), p) {
			return true
		}
	}
	return false
}

func (s *semChecker) checkAtomic() {
	if !s.enabled(RuleAtomic) {
		return
	}
	// Pass 1: collect the objects (fields, package vars) whose addresses
	// are taken by sync/atomic calls, and the ident positions inside those
	// calls (which are by definition sanctioned accesses).
	atomicObjs := map[types.Object]token.Pos{} // object -> first atomic site
	sanctioned := map[token.Pos]bool{}
	for _, p := range s.checked() {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := p.Info.Uses[sel.Sel]
				if obj == nil || !isAtomicFunc(obj) || len(call.Args) == 0 {
					return true
				}
				for _, a := range call.Args {
					ast.Inspect(a, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							sanctioned[id.Pos()] = true
						}
						return true
					})
				}
				if un, ok := call.Args[0].(*ast.UnaryExpr); ok && un.Op == token.AND {
					if obj := s.exprObj(p, un.X); obj != nil {
						if _, seen := atomicObjs[obj]; !seen {
							atomicObjs[obj] = call.Pos()
						}
					}
				}
				return true
			})
		}
	}
	if len(atomicObjs) == 0 {
		return
	}
	// Pass 2: every other use of those objects is a plain access. init
	// functions and composite-literal keys are exempt: they run before any
	// concurrent phase (construction-time stores).
	for _, p := range s.checked() {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					if x.Recv == nil && x.Name.Name == "init" {
						return false
					}
				case *ast.CompositeLit:
					for _, e := range x.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								sanctioned[id.Pos()] = true
							}
						}
					}
				case *ast.Ident:
					obj := p.Info.Uses[x]
					if obj == nil || sanctioned[x.Pos()] {
						return true
					}
					if site, ok := atomicObjs[obj]; ok {
						s.report(x.Pos(), RuleAtomic, fmt.Sprintf(
							"%s is accessed via sync/atomic (%s); a plain read/write here races with it — use atomic.Load*/Store*",
							obj.Name(), s.m.Fset.Position(site)))
					}
				}
				return true
			})
		}
	}
}

// exprObj resolves the object an addressable expression denotes: the
// variable for an identifier, the field for a selector.
func (s *semChecker) exprObj(p *Package, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		return p.Info.Uses[x]
	case *ast.SelectorExpr:
		return p.Info.Uses[x.Sel]
	case *ast.ParenExpr:
		return s.exprObj(p, x.X)
	case *ast.IndexExpr:
		return s.exprObj(p, x.X)
	}
	return nil
}

// --- memo-key-purity --------------------------------------------------------

// memoKeyRoots are the types whose reachable fields form the engine memo
// key: the canonicalized run options and the engine's own key wrapper.
var memoKeyRoots = []struct{ pkgSuffix, typeName string }{
	{"internal/sim", "Options"},
	{"exp/engine", "Key"},
}

func (s *semChecker) checkMemoKey() {
	if !s.enabled(RuleMemoKey) {
		return
	}
	for _, p := range s.checked() {
		for _, root := range memoKeyRoots {
			if !pkgSuffix(p.ImportPath, root.pkgSuffix) {
				continue
			}
			obj := p.Types.Scope().Lookup(root.typeName)
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			seen := map[types.Type]bool{}
			s.memoWalk(tn.Type(), root.typeName, seen)
		}
	}
}

// memoWalk recurses through the struct graph reachable from a memo-key
// root, flagging impure field types at their declaration sites.
func (s *semChecker) memoWalk(t types.Type, path string, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		s.memoField(f, path+"."+f.Name(), f.Type(), seen)
	}
}

func (s *semChecker) memoField(f *types.Var, path string, t types.Type, seen map[types.Type]bool) {
	if bad := observerLike(t); bad != "" {
		s.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
			"memo key field %s carries %s; observer/fault state is canonicalized out of the key by design — keep it out of Options", path, bad))
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Signature:
		s.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
			"memo key field %s is a func (%s); closures make memoized runs alias distinct behaviors", path, t))
	case *types.Chan:
		s.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
			"memo key field %s is a channel (%s); channels are identity-compared and carry runtime state", path, t))
	case *types.Map:
		s.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
			"memo key field %s is a map (%s); maps are not comparable, breaking the engine's key equality", path, t))
	case *types.Slice:
		s.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
			"memo key field %s is a slice (%s); slices are not comparable, breaking the engine's key equality", path, t))
	case *types.Interface:
		if u.NumMethods() > 0 {
			s.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
				"memo key field %s is an interface (%s); dynamic values hide funcs and state from key equality", path, t))
		}
	case *types.Pointer:
		if bad := observerLike(u.Elem()); bad != "" {
			s.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
				"memo key field %s points at %s; observer/fault state must stay outside the memo key", path, bad))
			return
		}
		s.memoWalk(u.Elem(), path, seen)
	case *types.Array:
		s.memoField(f, path+"[]", u.Elem(), seen)
	case *types.Struct:
		s.memoWalk(t, path, seen)
	}
}

// observerLike names the observability/fault types that are deliberately
// excluded from the engine memo key: they reach a run only through the
// per-run hook bundle (engine.Hooks, sim.NewRunnerFull).
func observerLike(t types.Type) string {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	name, pp := n.Obj().Name(), n.Obj().Pkg().Path()
	if name == "Observer" && pkgSuffix(pp, "obs") {
		return "obs.Observer"
	}
	if name == "Injector" && pkgSuffix(pp, "fault") {
		return "fault.Injector"
	}
	return ""
}

// --- error-discipline -------------------------------------------------------

func (s *semChecker) checkErrDiscipline() {
	if !s.enabled(RuleErr) {
		return
	}
	errType := types.Universe.Lookup("error").Type()
	for _, p := range s.checked() {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var call *ast.CallExpr
				verb := ""
				switch x := n.(type) {
				case *ast.ExprStmt:
					call, _ = x.X.(*ast.CallExpr)
				case *ast.GoStmt:
					call, verb = x.Call, "go "
				case *ast.DeferStmt:
					call, verb = x.Call, "defer "
				default:
					return true
				}
				if call == nil {
					return true
				}
				fn := calleeFunc(p.Info, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if !strings.Contains("/"+fn.Pkg().Path()+"/", "/internal/") {
					return true
				}
				if !returnsError(p.Info, call, errType) {
					return true
				}
				s.report(call.Pos(), RuleErr, fmt.Sprintf(
					"%s%s returns an error that is discarded; handle it or waive explicitly with _ =", verb, fn.FullName()))
				return true
			})
		}
	}
}

// calleeFunc resolves the *types.Func a call invokes, or nil for builtins,
// conversions, and dynamic (func-valued) calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// returnsError reports whether any result of the call has type error.
func returnsError(info *types.Info, call *ast.CallExpr, errType types.Type) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errType) {
				return true
			}
		}
	default:
		return types.Identical(tv.Type, errType)
	}
	return false
}

// --- unit-safety ------------------------------------------------------------

// unitScopedDirs are the timing-critical package trees where a bare integer
// literal in a Time-typed position is (almost always) a missing unit.
var unitScopedDirs = []string{"internal/dram", "internal/mc", "internal/obs/attr", "internal/sim"}

// configNamed reports whether t is the named config type with that name
// (Picos is an alias of Time, so it resolves to Time here).
func configNamed(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && pkgSuffix(n.Obj().Pkg().Path(), "internal/config")
}

func (s *semChecker) checkUnits() {
	if !s.enabled(RuleUnits) {
		return
	}
	for _, p := range s.checked() {
		if pkgSuffix(p.ImportPath, "internal/config") {
			continue // config defines the units and the sanctioned conversions
		}
		s.unitConversions(p)
		scoped := false
		for _, d := range unitScopedDirs {
			if relScoped(p.RelDir, d) {
				scoped = true
				break
			}
		}
		if scoped {
			s.unitLiterals(p)
		}
	}
}

// unitConversions flags direct Time(...)/Cycles(...) casts between the two
// unit domains; only Cycles.Dur and config.CyclesIn scale correctly.
func (s *semChecker) unitConversions(p *Package) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := p.Info.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			atv, ok := p.Info.Types[call.Args[0]]
			if !ok {
				return true
			}
			switch {
			case configNamed(tv.Type, "Time") && configNamed(atv.Type, "Cycles"):
				s.report(call.Pos(), RuleUnits,
					"direct Time(Cycles) conversion skips cycle-time scaling; use Cycles.Dur(cycle)")
			case configNamed(tv.Type, "Cycles") && configNamed(atv.Type, "Time"):
				s.report(call.Pos(), RuleUnits,
					"direct Cycles(Time) conversion skips cycle-time scaling; use config.CyclesIn(t, cycle)")
			}
			return true
		})
	}
}

// unitLiterals flags bare nonzero integer literals that land directly in a
// config.Time position: assignments, declarations, composite-literal
// fields, returns, and +/-/comparison operands whose sibling is a Time.
// Multiplicative contexts are exempt — `2500 * config.Picosecond` and
// `16 * tbl` are the sanctioned scaling idiom.
func (s *semChecker) unitLiterals(p *Package) {
	for _, f := range p.Files {
		s.unitWalk(p, f, nil)
	}
}

func (s *semChecker) unitWalk(p *Package, n ast.Node, results *types.Tuple) {
	switch x := n.(type) {
	case *ast.FuncDecl:
		if x.Body == nil {
			return
		}
		s.unitWalk(p, x.Body, funcResults(p, x.Name))
		return
	case *ast.FuncLit:
		if sig, ok := p.Info.Types[x].Type.(*types.Signature); ok {
			s.unitWalk(p, x.Body, sig.Results())
			return
		}
	case *ast.AssignStmt:
		switch x.Tok {
		case token.ASSIGN, token.DEFINE, token.ADD_ASSIGN, token.SUB_ASSIGN:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				if lit := bareIntLit(rhs); lit != nil && s.isTime(p, x.Lhs[i]) {
					s.report(lit.Pos(), RuleUnits, fmt.Sprintf(
						"bare literal %s assigned to a config.Time; write it as n * config.Picosecond/Nanosecond (or Cycles.Dur)", lit.Value))
				}
			}
		}
	case *ast.ValueSpec:
		if x.Type != nil {
			if tv, ok := p.Info.Types[x.Type]; ok && configNamed(tv.Type, "Time") {
				for _, v := range x.Values {
					if lit := bareIntLit(v); lit != nil {
						s.report(lit.Pos(), RuleUnits, fmt.Sprintf(
							"bare literal %s declared as config.Time; write it as n * config.Picosecond/Nanosecond", lit.Value))
					}
				}
			}
		}
	case *ast.CompositeLit:
		s.unitComposite(p, x)
	case *ast.ReturnStmt:
		if results != nil {
			for i, r := range x.Results {
				if i >= results.Len() {
					break
				}
				if lit := bareIntLit(r); lit != nil && configNamed(results.At(i).Type(), "Time") {
					s.report(lit.Pos(), RuleUnits, fmt.Sprintf(
						"bare literal %s returned as config.Time; write it as n * config.Picosecond/Nanosecond", lit.Value))
				}
			}
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			for _, pair := range [2][2]ast.Expr{{x.X, x.Y}, {x.Y, x.X}} {
				if lit := bareIntLit(pair[0]); lit != nil && s.isTime(p, pair[1]) {
					s.report(lit.Pos(), RuleUnits, fmt.Sprintf(
						"bare literal %s %s a config.Time; give it a unit (n * config.Picosecond/Nanosecond)", lit.Value, x.Op))
				}
			}
		}
	}
	for _, child := range children(n) {
		s.unitWalk(p, child, results)
	}
}

// unitComposite flags bare literals in Time-typed fields/elements of a
// composite literal.
func (s *semChecker) unitComposite(p *Package, cl *ast.CompositeLit) {
	tv, ok := p.Info.Types[cl]
	if !ok {
		return
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Struct:
		for i, e := range cl.Elts {
			var ft types.Type
			val := e
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				val = kv.Value
				if id, ok := kv.Key.(*ast.Ident); ok {
					if obj, ok := p.Info.Uses[id].(*types.Var); ok {
						ft = obj.Type()
					}
				}
			} else if i < u.NumFields() {
				ft = u.Field(i).Type()
			}
			if lit := bareIntLit(val); lit != nil && ft != nil && configNamed(ft, "Time") {
				s.report(lit.Pos(), RuleUnits, fmt.Sprintf(
					"bare literal %s fills a config.Time field; write it as n * config.Picosecond/Nanosecond", lit.Value))
			}
		}
	case *types.Array, *types.Slice:
		var et types.Type
		if a, ok := u.(*types.Array); ok {
			et = a.Elem()
		} else {
			et = u.(*types.Slice).Elem()
		}
		if !configNamed(et, "Time") {
			return
		}
		for _, e := range cl.Elts {
			val := e
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if lit := bareIntLit(val); lit != nil {
				s.report(lit.Pos(), RuleUnits, fmt.Sprintf(
					"bare literal %s fills a config.Time element; write it as n * config.Picosecond/Nanosecond", lit.Value))
			}
		}
	}
}

// funcResults returns the result tuple of the function an ident declares.
func funcResults(p *Package, id *ast.Ident) *types.Tuple {
	if fn, ok := p.Info.Defs[id].(*types.Func); ok {
		return fn.Type().(*types.Signature).Results()
	}
	return nil
}

// isTime reports whether e's type is the named config.Time.
func (s *semChecker) isTime(p *Package, e ast.Expr) bool {
	if tv, ok := p.Info.Types[e]; ok {
		return configNamed(tv.Type, "Time")
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Defs[id]; obj != nil {
			return configNamed(obj.Type(), "Time")
		}
		if obj := p.Info.Uses[id]; obj != nil {
			return configNamed(obj.Type(), "Time")
		}
	}
	return false
}

// bareIntLit unwraps parens/unary minus and returns the integer literal if
// e is one and it is nonzero (zero needs no unit: 0 ps == 0 of anything).
func bareIntLit(e ast.Expr) *ast.BasicLit {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return bareIntLit(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			return bareIntLit(x.X)
		}
	case *ast.BasicLit:
		if x.Kind == token.INT && strings.Trim(x.Value, "0") != "" {
			return x
		}
	}
	return nil
}

// --- attr-registration ------------------------------------------------------

func (s *semChecker) checkAttrReg() {
	if !s.enabled(RuleAttrReg) {
		return
	}
	for _, p := range s.checked() {
		if !pkgSuffix(p.ImportPath, "obs/attr") {
			continue
		}
		s.attrPkg(p)
	}
}

func (s *semChecker) attrPkg(attr *Package) {
	scope := attr.Types.Scope()
	numObj, ok := scope.Lookup("NumComponents").(*types.Const)
	if !ok {
		return
	}
	n, ok := constant.Int64Val(numObj.Val())
	if !ok {
		return
	}
	compType := numObj.Type()

	// 1. Every enum member must be attributed somewhere outside attr
	// itself, or it is a permanently-zero CSV column that silently
	// misreports "no time spent here".
	used := map[types.Object]bool{}
	for _, p := range s.checked() {
		if p == attr {
			continue
		}
		for _, obj := range p.Info.Uses {
			if c, ok := obj.(*types.Const); ok && types.Identical(c.Type(), compType) {
				used[obj] = true
			}
		}
	}
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c == numObj || !types.Identical(c.Type(), compType) {
			continue
		}
		if !used[c] {
			s.report(c.Pos(), RuleAttrReg, fmt.Sprintf(
				"component %s is never attributed outside %s; its breakdown column is permanently zero", name, attr.ImportPath))
		}
	}

	// 2. The componentNames table must name every component, or CSV
	// headers and flamegraph labels go blank for the missing ones.
	for i, f := range attr.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			cl, ok := node.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := attr.Info.Types[cl]
			if !ok {
				return true
			}
			arr, ok := tv.Type.Underlying().(*types.Array)
			if !ok || arr.Len() != n {
				return true
			}
			if b, ok := arr.Elem().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
				return true
			}
			if int64(len(cl.Elts)) < n {
				s.report(cl.Pos(), RuleAttrReg, fmt.Sprintf(
					"component name table in %s covers %d of %d components; unnamed columns break CSV headers",
					attr.FileNames[i], len(cl.Elts), n))
			}
			return true
		})
	}

	// 3. The Access scratch may only hold Class, Total, and the Comp
	// array: any extra duration field escapes the Conserved() audit.
	accObj, ok := scope.Lookup("Access").(*types.TypeName)
	if !ok {
		return
	}
	st, ok := accObj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch f.Name() {
		case "Class", "Total", "Comp":
		default:
			s.report(f.Pos(), RuleAttrReg, fmt.Sprintf(
				"Access field %s is outside the Comp array; Snapshot.Conserved() cannot audit it — attribute through a Component instead", f.Name()))
		}
	}
}
