// Package lint implements tmcclint, the TMCC-specific static analyzer
// (stdlib-only: go/parser and go/types). LoadModule type-checks the whole
// module once and Module.Lint runs every rule over it in one pass, resolving
// callees and types through go/types rather than through local names. It
// enforces the correctness conventions the simulator's capacity and
// determinism claims depend on; the six rules below are per-file checks,
// the five in rules_sem.go look across packages:
//
//   - determinism-rand: simulator code under internal/ must not call the
//     global math/rand functions (rand.Intn, rand.Float64, ...). All
//     randomness flows through an injected, explicitly seeded *rand.Rand,
//     or, in the workload trace generator, through a source seeded from
//     the same rand.NewSource that tests hold stream-identical to
//     *rand.Rand, so identical seeds reproduce identical runs.
//   - determinism-wallclock: simulator code under internal/ must not read
//     the wall clock (time.Now, time.Since, time.Until). Simulated time is
//     config.Time; wall-clock reads make runs irreproducible.
//   - determinism-map-iter: iterating a map while appending to a slice (or
//     accumulating into a float/string) declared outside the loop produces
//     run-to-run ordering differences; such loops must sort keys first.
//   - magic-literal: the architectural constants 4096 (page size), 64
//     (block/PTB size) and 8 (PTE size / PTEs per PTB) must be referenced
//     through named constants (config.PageSize, config.BlockSize, ...)
//     outside internal/config. A bare 4096 is flagged anywhere; bare 64/8
//     are flagged in multiplicative address arithmetic (an operand of
//   - / % whose sibling names an address-like quantity).
//   - panic-prefix: every panic message must carry a lowercase "pkg: "
//     prefix so simulator aborts are attributable, and should include the
//     offending value (enforced for string literals and fmt.Sprintf /
//     fmt.Errorf formats).
//   - obs-sink-purity: simulator code under internal/ (except internal/obs
//     itself) must not construct output sinks — no os.Create / os.OpenFile /
//     os.NewFile calls, no os.Stdout / os.Stderr references, and no
//     timeline.NewRecorder or heatmap.NewRecorder calls (windowed and
//     spatial recorders are built at the cmd layer and injected via
//     obs.Observer.TL / obs.Observer.Heat). Metrics snapshots and trace
//     files are written through io.Writers injected from the cmd layer, so
//     observability can never smuggle wall-clock or filesystem effects
//     into a simulation.
//
// Suppress a finding with a trailing or preceding comment:
//
//	//tmcclint:allow magic-literal        (one rule)
//	//tmcclint:allow                      (all rules on that line)
//
// Test files (_test.go) are exempt from every rule: tests pin their own
// seeds and construct fixtures from raw literals, and the loader skips them.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// Rule names, as reported and as accepted by //tmcclint:allow.
const (
	RuleRand      = "determinism-rand"
	RuleWallclock = "determinism-wallclock"
	RuleMapIter   = "determinism-map-iter"
	RuleMagic     = "magic-literal"
	RulePanic     = "panic-prefix"
	RuleObsSink   = "obs-sink-purity"
)

// Diag is one finding.
type Diag struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// globalRandFuncs are the math/rand (and v2) package-level functions that
// draw from the shared global source.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint32N": true, "Uint64N": true, "UintN": true, "Uint": true,
}

// wallclockFuncs are the time package functions that read the host clock.
var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// addrKeywords mark identifiers that carry addresses or page/block
// quantities; a bare 64/8 multiplied against one is address arithmetic.
var addrKeywords = []string{
	"addr", "ppn", "vpn", "page", "chunk", "block", "off", "pte", "ptb", "frame",
}

// The architectural magic numbers the rule knows about (mirrors
// config.PageSize / config.BlockSize / config.PTESize).
const (
	magicPageSize  = 4096
	magicBlockSize = 64
	magicPTESize   = 8
)

// Lint runs every rule that enabled accepts (nil means all) over the
// module and returns the findings no //tmcclint:allow directive waives.
func (m *Module) Lint(enabled func(rule string) bool) []Diag {
	if enabled == nil {
		enabled = func(string) bool { return true }
	}
	c := &checker{m: m, enabled: enabled}
	c.collectAtomic()
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			c.visitFile(p, f)
		}
	}
	c.checkMemoKey()
	c.checkAttrReg()
	return c.diags
}

type checker struct {
	m       *Module
	enabled func(string) bool
	diags   []Diag

	// The file being visited and the rule scopes its directory sets.
	p          *Package
	file       *ast.File
	internal   bool // under an internal/ directory: determinism, obs-sink
	inObs      bool // under internal/obs: exempt from obs-sink-purity
	inConfig   bool // under internal/config: exempt from magic-literal
	unitConv   bool // not internal/config itself: Time/Cycles conversions
	unitScoped bool // a timing-critical tree: bare literals in Time positions

	// atomic-discipline: the objects some sync/atomic call takes the
	// address of (with the first such call), and the identifiers inside
	// those calls.
	atomicObjs map[types.Object]token.Pos
	sanctioned map[token.Pos]bool
}

func (c *checker) report(pos token.Pos, rule, msg string) {
	p := c.m.Fset.Position(pos)
	if !c.enabled(rule) || c.m.allowed(p, rule) {
		return
	}
	c.diags = append(c.diags, Diag{Pos: p, Rule: rule, Msg: msg})
}

// visitFile runs the per-node rules over one file in a single walk. stack
// holds the node's ancestors, file first.
func (c *checker) visitFile(p *Package, f *ast.File) {
	dir := "/" + p.RelDir + "/"
	c.p, c.file = p, f
	c.internal = strings.Contains(dir, "/internal/")
	c.inObs = strings.Contains(dir, "/internal/obs/")
	c.inConfig = strings.Contains(dir, "/internal/config/")
	c.unitConv = !pkgSuffix(p.ImportPath, "internal/config")
	c.unitScoped = c.unitConv && slices.ContainsFunc(unitScopedDirs, func(d string) bool { return relScoped(p.RelDir, d) })
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		c.visit(n, stack)
		stack = append(stack, n)
		return true
	})
}

// visit dispatches one node to the rules that inspect its kind.
func (c *checker) visit(n ast.Node, stack []ast.Node) {
	switch x := n.(type) {
	case *ast.CallExpr:
		c.checkCall(x)
		c.checkPanic(x)
		if c.unitConv {
			c.unitConversion(x)
		}
	case *ast.SelectorExpr:
		c.checkStream(x)
	case *ast.RangeStmt:
		c.checkMapIter(x)
	case *ast.BasicLit:
		if !c.inConfig && x.Kind == token.INT && !inConst(stack) {
			c.magicLit(x, stack[len(stack)-1])
		}
	case *ast.Ident:
		c.atomicUse(x, stack)
	case *ast.CompositeLit:
		c.atomicKeys(x)
	case *ast.ExprStmt, *ast.GoStmt, *ast.DeferStmt:
		c.checkErrDrop(x)
	}
	if c.unitScoped {
		c.unitLiteral(n, stack)
	}
}

// inConst reports whether the node under stack sits in a const declaration.
func inConst(stack []ast.Node) bool {
	for _, n := range stack {
		if gd, ok := n.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			return true
		}
	}
	return false
}

// pkgFunc returns the package-level function call invokes, or nil for
// methods, builtins, conversions and func values.
func (c *checker) pkgFunc(call *ast.CallExpr) *types.Func {
	fn := calleeFunc(c.p.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// --- determinism-rand, determinism-wallclock, obs-sink-purity ---------------

// sinkConstructors are the os functions that hand back a writable file.
var sinkConstructors = map[string]bool{"Create": true, "OpenFile": true, "NewFile": true}

// sinkStreams are the process-level streams internal/ code must not write.
var sinkStreams = map[string]bool{"Stdout": true, "Stderr": true}

func (c *checker) checkCall(call *ast.CallExpr) {
	fn := c.pkgFunc(call)
	if !c.internal || fn == nil {
		return
	}
	pkg, path, name := fn.Pkg().Name(), fn.Pkg().Path(), fn.Name()
	switch {
	case (path == "math/rand" || path == "math/rand/v2") && globalRandFuncs[name]:
		c.report(call.Pos(), RuleRand,
			fmt.Sprintf("global %s.%s uses the shared math/rand source; thread a seeded *rand.Rand instead", pkg, name))
	case path == "time" && wallclockFuncs[name]:
		c.report(call.Pos(), RuleWallclock,
			fmt.Sprintf("%s.%s reads the wall clock; simulator code must use simulated config.Time", pkg, name))
	case c.inObs:
	case path == "os" && sinkConstructors[name]:
		c.report(call.Pos(), RuleObsSink,
			fmt.Sprintf("%s.%s constructs an output sink under internal/; take an io.Writer injected from the cmd layer instead", pkg, name))
	case name == "NewRecorder" && pkgSuffix(path, "internal/obs/timeline"):
		// Arming a windowed timeline is an observability decision like
		// opening a metrics file: it belongs to the cmd layer, which
		// hands the recorder in via obs.Observer.TL. internal/ building
		// its own recorder would fork the time-series away from the
		// conservation-audited one.
		c.report(call.Pos(), RuleObsSink,
			fmt.Sprintf("%s.NewRecorder constructs a timeline recorder under internal/; recorders are built at the cmd layer and injected via obs.Observer.TL", pkg))
	case name == "NewRecorder" && pkgSuffix(path, "internal/obs/heatmap"):
		// Same layering as the timeline: the spatial heatmap is armed by
		// the cmd layer and handed in via obs.Observer.Heat; a private
		// recorder under internal/ would fork the heat series away from
		// the conservation-audited one.
		c.report(call.Pos(), RuleObsSink,
			fmt.Sprintf("%s.NewRecorder constructs a heatmap recorder under internal/; recorders are built at the cmd layer and injected via obs.Observer.Heat", pkg))
	}
}

// checkStream flags references to os.Stdout and os.Stderr.
func (c *checker) checkStream(sel *ast.SelectorExpr) {
	if !c.internal || c.inObs {
		return
	}
	v, ok := c.p.Info.Uses[sel.Sel].(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil || v.Pkg().Path() != "os" || !sinkStreams[v.Name()] {
		return
	}
	c.report(sel.Pos(), RuleObsSink,
		fmt.Sprintf("%s.%s under internal/ bypasses injected sinks; take an io.Writer from the cmd layer instead", v.Pkg().Name(), v.Name()))
}

// --- determinism-map-iter ---------------------------------------------------

func (c *checker) checkMapIter(rng *ast.RangeStmt) {
	if !c.internal {
		return
	}
	if _, ok := c.p.Info.TypeOf(rng.X).Underlying().(*types.Map); !ok {
		return
	}
	// outer resolves an identifier to its object when it is declared
	// outside the loop; appending to a loop-local is order-dependent only
	// locally and is the collect-then-sort idiom's first half.
	outer := func(e ast.Expr) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		obj := c.p.Info.ObjectOf(id)
		if obj == nil || (obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()) {
			return nil
		}
		return obj
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch asg.Tok {
		case token.ASSIGN, token.DEFINE:
			for i, rhs := range asg.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(asg.Lhs) {
					continue
				}
				if !isBuiltin(c.p.Info, call.Fun, "append") {
					continue
				}
				if obj := outer(asg.Lhs[i]); obj != nil && !c.sortedAfter(obj, rng.End()) {
					c.report(asg.Pos(), RuleMapIter,
						fmt.Sprintf("append to %q inside map iteration depends on map order; sort it before use", obj.Name()))
				}
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			// Float addition does not associate and string concatenation
			// orders its operands; integer accumulation commutes.
			obj := outer(asg.Lhs[0])
			if b, ok := c.p.Info.TypeOf(asg.Lhs[0]).Underlying().(*types.Basic); ok && obj != nil &&
				b.Info()&(types.IsFloat|types.IsString) != 0 {
				c.report(asg.Pos(), RuleMapIter,
					fmt.Sprintf("accumulating into %q (float/string) inside map iteration depends on map order; sort the keys first", obj.Name()))
			}
		}
		return true
	})
}

// isBuiltin reports whether e names the predeclared function name, not a
// declaration that shadows it.
func isBuiltin(info *types.Info, e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// sortFuncs are the sort/slices calls that restore a deterministic order.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true, "Slice": true,
	"SliceStable": true, "Sort": true, "SortFunc": true, "SortStableFunc": true,
	"Stable": true,
}

// sortedAfter reports whether obj is passed to a sort.*/slices.Sort* call
// after pos — the standard collect-then-sort idiom, which is deterministic.
func (c *checker) sortedAfter(obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(c.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if found || !ok || call.Pos() < pos {
			return !found
		}
		fn := c.pkgFunc(call)
		if fn == nil || (fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices") || !sortFuncs[fn.Name()] {
			return true
		}
		for _, a := range call.Args {
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && c.p.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// --- magic-literal ----------------------------------------------------------

func (c *checker) magicLit(lit *ast.BasicLit, parent ast.Node) {
	v, err := strconv.ParseUint(strings.ReplaceAll(lit.Value, "_", ""), 0, 64)
	if err != nil {
		return
	}
	switch v {
	case magicPageSize:
		c.report(lit.Pos(), RuleMagic,
			"bare 4096: reference config.PageSize (or an equivalent named constant)")
	case magicBlockSize, magicPTESize:
		be, ok := parent.(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.MUL, token.QUO, token.REM:
		default:
			return
		}
		other := be.X
		if other == lit {
			other = be.Y
		}
		if kw := addrContext(other); kw != "" {
			name := "config.BlockSize"
			if v == 8 {
				name = "config.PTESize"
			}
			c.report(lit.Pos(), RuleMagic,
				fmt.Sprintf("bare %d in address arithmetic with %q: reference %s (or an equivalent named constant)", v, kw, name))
		}
	}
}

// addrContext returns the first address-like keyword found in identifiers
// of e, or "".
func addrContext(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		low := strings.ToLower(id.Name)
		for _, kw := range addrKeywords {
			if strings.Contains(low, kw) {
				found = kw
				return false
			}
		}
		return true
	})
	return found
}

// --- panic-prefix -----------------------------------------------------------

var prefixedMsg = func(s string) bool {
	i := strings.Index(s, ": ")
	if i <= 0 {
		return false
	}
	head := s[:i]
	if head[0] < 'a' || head[0] > 'z' {
		return false
	}
	for _, r := range head {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
			return false
		}
	}
	return true
}

func (c *checker) checkPanic(call *ast.CallExpr) {
	if len(call.Args) != 1 || !isBuiltin(c.p.Info, call.Fun, "panic") {
		return
	}
	switch arg := call.Args[0].(type) {
	case *ast.BasicLit:
		if arg.Kind != token.STRING {
			c.report(call.Pos(), RulePanic, "panic message must be a string with a \"pkg: \" prefix")
			return
		}
		s, err := strconv.Unquote(arg.Value)
		if err == nil && !prefixedMsg(s) {
			c.report(call.Pos(), RulePanic,
				fmt.Sprintf("panic message %q lacks the \"pkg: \" prefix", s))
		}
	case *ast.CallExpr:
		// fmt.Sprintf / fmt.Errorf with a literal format: check the
		// format's prefix. Non-literal formats are unverifiable here.
		fn := c.pkgFunc(arg)
		if fn == nil || fn.Pkg().Path() != "fmt" || (fn.Name() != "Sprintf" && fn.Name() != "Errorf") || len(arg.Args) == 0 {
			return
		}
		if lit, ok := arg.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, err := strconv.Unquote(lit.Value)
			if err == nil && !prefixedMsg(s) {
				c.report(call.Pos(), RulePanic,
					fmt.Sprintf("panic format %q lacks the \"pkg: \" prefix", s))
			}
		}
	default:
		c.report(call.Pos(), RulePanic,
			"panic argument must be a \"pkg: \"-prefixed message (wrap errors: fmt.Sprintf(\"pkg: %v\", err))")
	}
}
