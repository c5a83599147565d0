// Package lint implements tmcclint, the TMCC-specific static analyzer
// (stdlib-only: go/ast, go/parser, go/token). It enforces the correctness
// conventions the simulator's capacity and determinism claims depend on:
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
// seeds and construct fixtures from raw literals.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path"
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

// File lints one parsed file. relPath is the module-relative, slash-
// separated path; it scopes the per-directory rules.
func File(fset *token.FileSet, relPath string, f *ast.File) []Diag {
	relPath = path.Clean(strings.ReplaceAll(relPath, "\\", "/"))
	if strings.HasSuffix(relPath, "_test.go") {
		return nil
	}
	c := &checker{
		fset:     fset,
		file:     f,
		internal: strings.HasPrefix(relPath, "internal/") || strings.Contains(relPath, "/internal/"),
		inConfig: strings.Contains(relPath+"/", "internal/config/"),
		allowed:  collectAllows(fset, f),
	}
	c.randPkg, c.timePkg, c.osPkg, c.tlPkg, c.hmPkg = importNames(f)
	if c.internal {
		c.checkRand()
		c.checkWallclock()
		c.checkMapIter()
		if !strings.Contains(relPath+"/", "internal/obs/") {
			c.checkObsSink()
		}
	}
	if !c.inConfig {
		c.checkMagic()
	}
	c.checkPanic()
	return c.diags
}

// Source parses and lints one file given as source text (used by tests and
// by the CLI for stdin-style checks).
func Source(relPath, src string) ([]Diag, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, relPath, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return File(fset, relPath, f), nil
}

type checker struct {
	fset     *token.FileSet
	file     *ast.File
	internal bool
	inConfig bool
	randPkg  string
	timePkg  string
	osPkg    string
	tlPkg    string
	hmPkg    string
	// allowed maps line -> rules suppressed on that line ("" = all).
	allowed map[int]map[string]bool
	diags   []Diag
}

func (c *checker) report(pos token.Pos, rule, msg string) {
	p := c.fset.Position(pos)
	if m, ok := c.allowed[p.Line]; ok && (m[""] || m[rule]) {
		return
	}
	c.diags = append(c.diags, Diag{Pos: p, Rule: rule, Msg: msg})
}

// importNames returns the local names under which math/rand, time, os,
// and the timeline and heatmap packages are imported ("" when not
// imported, "_"/"." treated as not callable).
func importNames(f *ast.File) (randName, timeName, osName, tlName, hmName string) {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		switch p {
		case "math/rand", "math/rand/v2":
			randName = name
		case "time":
			timeName = name
		case "os":
			osName = name
		case "tmcc/internal/obs/timeline":
			tlName = name
		case "tmcc/internal/obs/heatmap":
			hmName = name
		}
	}
	return randName, timeName, osName, tlName, hmName
}

// pkgCall matches a call of the form pkgName.Fun(...) and returns Fun.
func pkgCall(n ast.Node, pkgName string) (*ast.CallExpr, string) {
	call, ok := n.(*ast.CallExpr)
	if !ok || pkgName == "" {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkgName {
		return nil, ""
	}
	return call, sel.Sel.Name
}

func (c *checker) checkRand() {
	ast.Inspect(c.file, func(n ast.Node) bool {
		if call, fun := pkgCall(n, c.randPkg); call != nil && globalRandFuncs[fun] {
			c.report(call.Pos(), RuleRand,
				fmt.Sprintf("global %s.%s uses the shared math/rand source; thread a seeded *rand.Rand instead", c.randPkg, fun))
		}
		return true
	})
}

func (c *checker) checkWallclock() {
	ast.Inspect(c.file, func(n ast.Node) bool {
		if call, fun := pkgCall(n, c.timePkg); call != nil && wallclockFuncs[fun] {
			c.report(call.Pos(), RuleWallclock,
				fmt.Sprintf("%s.%s reads the wall clock; simulator code must use simulated config.Time", c.timePkg, fun))
		}
		return true
	})
}

// --- determinism-map-iter ---------------------------------------------------

func (c *checker) checkMapIter() {
	maps := c.mapTypedNames()
	accs := c.orderSensitiveNames()
	ast.Inspect(c.file, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !isMapExpr(rng.X, maps) {
			return true
		}
		locals := localNames(rng)
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			asg, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			switch asg.Tok {
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range asg.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok {
						continue
					}
					fun, ok := call.Fun.(*ast.Ident)
					if !ok || fun.Name != "append" || i >= len(asg.Lhs) {
						continue
					}
					if id, ok := asg.Lhs[i].(*ast.Ident); ok && id.Name != "_" && !locals[id.Name] &&
						!c.sortedAfter(id.Name, rng.End()) {
						c.report(asg.Pos(), RuleMapIter,
							fmt.Sprintf("append to %q inside map iteration depends on map order; sort it before use", id.Name))
					}
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN:
				if id, ok := asg.Lhs[0].(*ast.Ident); ok && accs[id.Name] && !locals[id.Name] {
					c.report(asg.Pos(), RuleMapIter,
						fmt.Sprintf("accumulating into %q (float/string) inside map iteration depends on map order; sort the keys first", id.Name))
				}
			}
			return true
		})
		return true
	})
}

// sortFuncs are the sort/slices calls that restore a deterministic order.
var sortFuncs = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true, "Slice": true,
	"SliceStable": true, "Sort": true, "SortFunc": true, "SortStableFunc": true,
	"Stable": true,
}

// sortedAfter reports whether name is passed to a sort.*/slices.Sort* call
// after pos — the standard collect-then-sort idiom, which is deterministic.
func (c *checker) sortedAfter(name string, pos token.Pos) bool {
	found := false
	ast.Inspect(c.file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || (pkg.Name != "sort" && pkg.Name != "slices") || !sortFuncs[sel.Sel.Name] {
			return true
		}
		for _, a := range call.Args {
			mentions := false
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == name {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				found = true
				break
			}
		}
		return true
	})
	return found
}

// mapTypedNames collects identifiers this file demonstrably binds to maps:
// declared with a map type, assigned make(map...) or a map literal, or
// received as a map-typed parameter.
func (c *checker) mapTypedNames() map[string]bool {
	out := map[string]bool{}
	ast.Inspect(c.file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.ValueSpec:
			if _, ok := d.Type.(*ast.MapType); ok {
				for _, id := range d.Names {
					out[id.Name] = true
				}
			}
			for i, v := range d.Values {
				if isMapExpr(v, out) && i < len(d.Names) {
					out[d.Names[i].Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, v := range d.Rhs {
				if isMapExpr(v, out) && i < len(d.Lhs) {
					if id, ok := d.Lhs[i].(*ast.Ident); ok {
						out[id.Name] = true
					}
				}
			}
		case *ast.Field:
			if _, ok := d.Type.(*ast.MapType); ok {
				for _, id := range d.Names {
					out[id.Name] = true
				}
			}
		}
		return true
	})
	return out
}

// orderSensitiveNames collects identifiers declared as float or string —
// accumulating those across a map iteration is order-dependent (float
// addition does not associate; string concat obviously orders).
func (c *checker) orderSensitiveNames() map[string]bool {
	out := map[string]bool{}
	ast.Inspect(c.file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.ValueSpec:
			if id, ok := d.Type.(*ast.Ident); ok &&
				(id.Name == "float64" || id.Name == "float32" || id.Name == "string") {
				for _, name := range d.Names {
					out[name.Name] = true
				}
			}
		case *ast.AssignStmt:
			if d.Tok != token.DEFINE {
				return true
			}
			for i, v := range d.Rhs {
				lit, ok := v.(*ast.BasicLit)
				if !ok || i >= len(d.Lhs) {
					continue
				}
				if lit.Kind == token.FLOAT || lit.Kind == token.STRING {
					if id, ok := d.Lhs[i].(*ast.Ident); ok {
						out[id.Name] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// isMapExpr reports whether e is demonstrably a map: a known map-typed
// identifier, a map literal, or an inline make(map...).
func isMapExpr(e ast.Expr, known map[string]bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return known[x.Name]
	case *ast.CompositeLit:
		_, ok := x.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) > 0 {
			_, ok := x.Args[0].(*ast.MapType)
			return ok
		}
	case *ast.ParenExpr:
		return isMapExpr(x.X, known)
	}
	return false
}

// localNames returns identifiers declared by the range statement itself or
// inside its body (appending to those is order-dependent only locally and
// is the standard collect-then-sort idiom's first half).
func localNames(rng *ast.RangeStmt) map[string]bool {
	out := map[string]bool{}
	add := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			out[id.Name] = true
		}
	}
	if rng.Tok == token.DEFINE {
		if rng.Key != nil {
			add(rng.Key)
		}
		if rng.Value != nil {
			add(rng.Value)
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.AssignStmt:
			if d.Tok == token.DEFINE {
				for _, l := range d.Lhs {
					add(l)
				}
			}
		case *ast.ValueSpec:
			for _, id := range d.Names {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// --- obs-sink-purity --------------------------------------------------------

// sinkConstructors are the os functions that hand back a writable file.
var sinkConstructors = map[string]bool{"Create": true, "OpenFile": true, "NewFile": true}

// sinkStreams are the process-level streams internal/ code must not write.
var sinkStreams = map[string]bool{"Stdout": true, "Stderr": true}

func (c *checker) checkObsSink() {
	if c.osPkg == "" && c.tlPkg == "" && c.hmPkg == "" {
		return
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		if call, fun := pkgCall(n, c.osPkg); call != nil && sinkConstructors[fun] {
			c.report(call.Pos(), RuleObsSink,
				fmt.Sprintf("%s.%s constructs an output sink under internal/; take an io.Writer injected from the cmd layer instead", c.osPkg, fun))
			return true
		}
		if call, fun := pkgCall(n, c.tlPkg); call != nil && fun == "NewRecorder" {
			// Arming a windowed timeline is an observability decision like
			// opening a metrics file: it belongs to the cmd layer, which
			// hands the recorder in via obs.Observer.TL. internal/ building
			// its own recorder would fork the time-series away from the
			// conservation-audited one.
			c.report(call.Pos(), RuleObsSink,
				fmt.Sprintf("%s.NewRecorder constructs a timeline recorder under internal/; recorders are built at the cmd layer and injected via obs.Observer.TL", c.tlPkg))
			return true
		}
		if call, fun := pkgCall(n, c.hmPkg); call != nil && fun == "NewRecorder" {
			// Same layering as the timeline: the spatial heatmap is armed by
			// the cmd layer and handed in via obs.Observer.Heat; a private
			// recorder under internal/ would fork the heat series away from
			// the conservation-audited one.
			c.report(call.Pos(), RuleObsSink,
				fmt.Sprintf("%s.NewRecorder constructs a heatmap recorder under internal/; recorders are built at the cmd layer and injected via obs.Observer.Heat", c.hmPkg))
			return true
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != c.osPkg || !sinkStreams[sel.Sel.Name] {
			return true
		}
		c.report(sel.Pos(), RuleObsSink,
			fmt.Sprintf("%s.%s under internal/ bypasses injected sinks; take an io.Writer from the cmd layer instead", c.osPkg, sel.Sel.Name))
		return true
	})
}

// --- magic-literal ----------------------------------------------------------

func (c *checker) checkMagic() {
	var walk func(n ast.Node, parent ast.Node, inConst bool)
	walk = func(n ast.Node, parent ast.Node, inConst bool) {
		if n == nil {
			return
		}
		if gd, ok := n.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			inConst = true
		}
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.INT && !inConst {
			c.magicLit(lit, parent)
		}
		for _, child := range children(n) {
			walk(child, n, inConst)
		}
	}
	walk(c.file, nil, false)
}

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

// children enumerates direct AST children (ast.Inspect cannot expose the
// parent, which the magic-literal context test needs).
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		out = append(out, m)
		return false
	})
	return out
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

func (c *checker) checkPanic() {
	ast.Inspect(c.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "panic" || len(call.Args) != 1 {
			return true
		}
		switch arg := call.Args[0].(type) {
		case *ast.BasicLit:
			if arg.Kind != token.STRING {
				c.report(call.Pos(), RulePanic, "panic message must be a string with a \"pkg: \" prefix")
				return true
			}
			s, err := strconv.Unquote(arg.Value)
			if err == nil && !prefixedMsg(s) {
				c.report(call.Pos(), RulePanic,
					fmt.Sprintf("panic message %q lacks the \"pkg: \" prefix", s))
			}
		case *ast.CallExpr:
			// fmt.Sprintf / fmt.Errorf with a literal format: check the
			// format's prefix. Non-literal formats are unverifiable here.
			if _, fn := pkgCall(arg, "fmt"); fn == "Sprintf" || fn == "Errorf" {
				if len(arg.Args) > 0 {
					if lit, ok := arg.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						s, err := strconv.Unquote(lit.Value)
						if err == nil && !prefixedMsg(s) {
							c.report(call.Pos(), RulePanic,
								fmt.Sprintf("panic format %q lacks the \"pkg: \" prefix", s))
						}
					}
				}
			}
		default:
			c.report(call.Pos(), RulePanic,
				"panic argument must be a \"pkg: \"-prefixed message (wrap errors: fmt.Sprintf(\"pkg: %v\", err))")
		}
		return true
	})
}
