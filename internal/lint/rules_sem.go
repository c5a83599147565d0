// The cross-package rules. They run in the same Module.Lint pass as the
// per-file rules in lint.go and enforce invariants that span packages:
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

// Cross-package rule names, as reported and as accepted by //tmcclint:allow.
const (
	RuleAtomic  = "atomic-discipline"
	RuleMemoKey = "memo-key-purity"
	RuleErr     = "error-discipline"
	RuleUnits   = "unit-safety"
	RuleAttrReg = "attr-registration"
)

// AllRules lists every rule name, for -rules validation.
func AllRules() []string {
	return []string{
		RuleRand, RuleWallclock, RuleMapIter, RuleMagic, RulePanic, RuleObsSink,
		RuleAtomic, RuleMemoKey, RuleErr, RuleUnits, RuleAttrReg,
	}
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

func isAtomicFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	for _, p := range atomicFuncPrefixes {
		if strings.HasPrefix(fn.Name(), p) {
			return true
		}
	}
	return false
}

// collectAtomic finds the objects (fields, package vars) whose addresses
// sync/atomic calls take, and the identifiers inside those calls, which are
// by definition sanctioned accesses. It runs over the whole module before
// any file is visited.
func (c *checker) collectAtomic() {
	c.atomicObjs = map[types.Object]token.Pos{}
	c.sanctioned = map[token.Pos]bool{}
	for _, p := range c.m.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 || !isAtomicFunc(calleeFunc(p.Info, call)) {
					return true
				}
				for _, a := range call.Args {
					ast.Inspect(a, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							c.sanctioned[id.Pos()] = true
						}
						return true
					})
				}
				if un, ok := call.Args[0].(*ast.UnaryExpr); ok && un.Op == token.AND {
					if obj := exprObj(p.Info, un.X); obj != nil {
						if _, seen := c.atomicObjs[obj]; !seen {
							c.atomicObjs[obj] = call.Pos()
						}
					}
				}
				return true
			})
		}
	}
}

// atomicUse flags a plain access to an object that sync/atomic also
// touches. init functions are exempt: they run before any concurrent phase.
func (c *checker) atomicUse(id *ast.Ident, stack []ast.Node) {
	obj := c.p.Info.Uses[id]
	site, ok := c.atomicObjs[obj]
	if !ok || c.sanctioned[id.Pos()] {
		return
	}
	if fd, ok := stack[1].(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "init" {
		return
	}
	c.report(id.Pos(), RuleAtomic, fmt.Sprintf(
		"%s is accessed via sync/atomic (%s); a plain read/write here races with it — use atomic.Load*/Store*",
		obj.Name(), c.m.Fset.Position(site)))
}

// atomicKeys sanctions composite-literal keys: construction-time stores
// are initialization, not racing access.
func (c *checker) atomicKeys(cl *ast.CompositeLit) {
	for _, e := range cl.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				c.sanctioned[id.Pos()] = true
			}
		}
	}
}

// exprObj resolves the object an addressable expression denotes: the
// variable for an identifier, the field for a selector.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		return info.Uses[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	case *ast.ParenExpr:
		return exprObj(info, x.X)
	case *ast.IndexExpr:
		return exprObj(info, x.X)
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

func (c *checker) checkMemoKey() {
	for _, p := range c.m.Pkgs {
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
			c.memoWalk(tn.Type(), root.typeName, seen)
		}
	}
}

// memoWalk recurses through the struct graph reachable from a memo-key
// root, flagging impure field types at their declaration sites.
func (c *checker) memoWalk(t types.Type, path string, seen map[types.Type]bool) {
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
		c.memoField(f, path+"."+f.Name(), f.Type(), seen)
	}
}

func (c *checker) memoField(f *types.Var, path string, t types.Type, seen map[types.Type]bool) {
	if bad := observerLike(t); bad != "" {
		c.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
			"memo key field %s carries %s; observer/fault state is canonicalized out of the key by design — keep it out of Options", path, bad))
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Signature:
		c.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
			"memo key field %s is a func (%s); closures make memoized runs alias distinct behaviors", path, t))
	case *types.Chan:
		c.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
			"memo key field %s is a channel (%s); channels are identity-compared and carry runtime state", path, t))
	case *types.Map:
		c.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
			"memo key field %s is a map (%s); maps are not comparable, breaking the engine's key equality", path, t))
	case *types.Slice:
		c.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
			"memo key field %s is a slice (%s); slices are not comparable, breaking the engine's key equality", path, t))
	case *types.Interface:
		if u.NumMethods() > 0 {
			c.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
				"memo key field %s is an interface (%s); dynamic values hide funcs and state from key equality", path, t))
		}
	case *types.Pointer:
		if bad := observerLike(u.Elem()); bad != "" {
			c.report(f.Pos(), RuleMemoKey, fmt.Sprintf(
				"memo key field %s points at %s; observer/fault state must stay outside the memo key", path, bad))
			return
		}
		c.memoWalk(u.Elem(), path, seen)
	case *types.Array:
		c.memoField(f, path+"[]", u.Elem(), seen)
	case *types.Struct:
		c.memoWalk(t, path, seen)
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

var errType = types.Universe.Lookup("error").Type()

func (c *checker) checkErrDrop(stmt ast.Node) {
	var call *ast.CallExpr
	verb := ""
	switch x := stmt.(type) {
	case *ast.ExprStmt:
		call, _ = x.X.(*ast.CallExpr)
	case *ast.GoStmt:
		call, verb = x.Call, "go "
	case *ast.DeferStmt:
		call, verb = x.Call, "defer "
	}
	if call == nil {
		return
	}
	fn := calleeFunc(c.p.Info, call)
	if fn == nil || fn.Pkg() == nil || !strings.Contains("/"+fn.Pkg().Path()+"/", "/internal/") ||
		!returnsError(c.p.Info, call) {
		return
	}
	c.report(call.Pos(), RuleErr, fmt.Sprintf(
		"%s%s returns an error that is discarded; handle it or waive explicitly with _ =", verb, fn.FullName()))
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
func returnsError(info *types.Info, call *ast.CallExpr) bool {
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

// unitConversion flags a direct Time(...)/Cycles(...) cast between the two
// unit domains; only Cycles.Dur and config.CyclesIn scale correctly.
func (c *checker) unitConversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := c.p.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	atv, ok := c.p.Info.Types[call.Args[0]]
	if !ok {
		return
	}
	switch {
	case configNamed(tv.Type, "Time") && configNamed(atv.Type, "Cycles"):
		c.report(call.Pos(), RuleUnits,
			"direct Time(Cycles) conversion skips cycle-time scaling; use Cycles.Dur(cycle)")
	case configNamed(tv.Type, "Cycles") && configNamed(atv.Type, "Time"):
		c.report(call.Pos(), RuleUnits,
			"direct Cycles(Time) conversion skips cycle-time scaling; use config.CyclesIn(t, cycle)")
	}
}

// unitLiteral flags a bare nonzero integer literal that lands directly in
// a config.Time position: assignments, declarations, composite-literal
// fields, returns, and +/-/comparison operands whose sibling is a Time.
// Multiplicative contexts are exempt — `2500 * config.Picosecond` and
// `16 * tbl` are the sanctioned scaling idiom.
func (c *checker) unitLiteral(n ast.Node, stack []ast.Node) {
	p := c.p
	switch x := n.(type) {
	case *ast.AssignStmt:
		switch x.Tok {
		case token.ASSIGN, token.DEFINE, token.ADD_ASSIGN, token.SUB_ASSIGN:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				if lit := bareIntLit(rhs); lit != nil && c.isTime(x.Lhs[i]) {
					c.report(lit.Pos(), RuleUnits, fmt.Sprintf(
						"bare literal %s assigned to a config.Time; write it as n * config.Picosecond/Nanosecond (or Cycles.Dur)", lit.Value))
				}
			}
		}
	case *ast.ValueSpec:
		if x.Type != nil {
			if tv, ok := p.Info.Types[x.Type]; ok && configNamed(tv.Type, "Time") {
				for _, v := range x.Values {
					if lit := bareIntLit(v); lit != nil {
						c.report(lit.Pos(), RuleUnits, fmt.Sprintf(
							"bare literal %s declared as config.Time; write it as n * config.Picosecond/Nanosecond", lit.Value))
					}
				}
			}
		}
	case *ast.CompositeLit:
		c.unitComposite(x)
	case *ast.ReturnStmt:
		if results := c.results(stack); results != nil {
			for i, r := range x.Results {
				if i >= results.Len() {
					break
				}
				if lit := bareIntLit(r); lit != nil && configNamed(results.At(i).Type(), "Time") {
					c.report(lit.Pos(), RuleUnits, fmt.Sprintf(
						"bare literal %s returned as config.Time; write it as n * config.Picosecond/Nanosecond", lit.Value))
				}
			}
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			for _, pair := range [2][2]ast.Expr{{x.X, x.Y}, {x.Y, x.X}} {
				if lit := bareIntLit(pair[0]); lit != nil && c.isTime(pair[1]) {
					c.report(lit.Pos(), RuleUnits, fmt.Sprintf(
						"bare literal %s %s a config.Time; give it a unit (n * config.Picosecond/Nanosecond)", lit.Value, x.Op))
				}
			}
		}
	}
}

// unitComposite flags bare literals in Time-typed fields/elements of a
// composite literal.
func (c *checker) unitComposite(cl *ast.CompositeLit) {
	p := c.p
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
				c.report(lit.Pos(), RuleUnits, fmt.Sprintf(
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
				c.report(lit.Pos(), RuleUnits, fmt.Sprintf(
					"bare literal %s fills a config.Time element; write it as n * config.Picosecond/Nanosecond", lit.Value))
			}
		}
	}
}

// results returns the result types of the innermost function declaration
// or literal enclosing the node under stack.
func (c *checker) results(stack []ast.Node) *types.Tuple {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return c.p.Info.Defs[fn.Name].Type().(*types.Signature).Results()
		case *ast.FuncLit:
			return c.p.Info.TypeOf(fn).(*types.Signature).Results()
		}
	}
	return nil
}

// isTime reports whether e's type is the named config.Time.
func (c *checker) isTime(e ast.Expr) bool {
	return configNamed(c.p.Info.TypeOf(e), "Time")
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

func (c *checker) checkAttrReg() {
	for _, p := range c.m.Pkgs {
		if !pkgSuffix(p.ImportPath, "obs/attr") {
			continue
		}
		c.attrPkg(p)
	}
}

func (c *checker) attrPkg(attr *Package) {
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
	for _, p := range c.m.Pkgs {
		if p == attr {
			continue
		}
		for _, obj := range p.Info.Uses {
			if k, ok := obj.(*types.Const); ok && types.Identical(k.Type(), compType) {
				used[obj] = true
			}
		}
	}
	for _, name := range scope.Names() {
		k, ok := scope.Lookup(name).(*types.Const)
		if !ok || k == numObj || !types.Identical(k.Type(), compType) {
			continue
		}
		if !used[k] {
			c.report(k.Pos(), RuleAttrReg, fmt.Sprintf(
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
				c.report(cl.Pos(), RuleAttrReg, fmt.Sprintf(
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
			c.report(f.Pos(), RuleAttrReg, fmt.Sprintf(
				"Access field %s is outside the Comp array; Snapshot.Conserved() cannot audit it — attribute through a Component instead", f.Name()))
		}
	}
}
