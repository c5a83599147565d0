package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked module package. Files and FileNames are
// parallel; FileNames are module-relative slash paths and double as the
// fset filenames, so every Diag position prints as
// "internal/mc/mc.go:123:4".
type Package struct {
	ImportPath string // e.g. "tmcc/internal/mc"
	RelDir     string // module-relative slash path, "" for the root
	Files      []*ast.File
	FileNames  []string
	Types      *types.Package
	Info       *types.Info

	ParseNanos int64
	CheckNanos int64
}

// Module is a parsed and type-checked module tree, the input to every
// rule. It is immutable after LoadModule returns.
type Module struct {
	Path string // module path from go.mod
	Dir  string // absolute module root
	Fset *token.FileSet
	// Pkgs is in dependency order (imports before importers).
	Pkgs []*Package

	byPath map[string]*Package
	// allows indexes //tmcclint:allow directives per fset filename.
	allows map[string]map[int]map[string]bool
}

// LoadModule parses and type-checks every non-test package under dir, which
// must contain go.mod. Build constraints are evaluated for the host
// GOOS/GOARCH with the tmccdebug tag set (see buildIncluded). now supplies
// monotonic nanoseconds for the per-package timing fields; pass nil to skip
// timing. A package that does not type-check fails the load with its first
// type error.
func LoadModule(dir string, now func() int64) (*Module, error) {
	fset := token.NewFileSet()
	return loadModule(dir, fset, importer.ForCompiler(fset, "source", nil), now)
}

// loadModule is LoadModule with the file set and the stdlib importer
// supplied, so tests that load many small modules type-check the stdlib
// once.
func loadModule(dir string, fset *token.FileSet, stdlib types.Importer, now func() int64) (*Module, error) {
	if now == nil {
		now = func() int64 { return 0 }
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: resolving %s: %w", dir, err)
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{
		Path:   modPath,
		Dir:    abs,
		Fset:   fset,
		byPath: map[string]*Package{},
		allows: map[string]map[int]map[string]bool{},
	}
	dirs, err := packageDirs(abs)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		pkg, err := m.parseDir(d, now)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Pkgs = append(m.Pkgs, pkg)
			m.byPath[pkg.ImportPath] = pkg
		}
	}
	m.toposort()
	if err := m.typecheck(stdlib, now); err != nil {
		return nil, err
	}
	return m, nil
}

// allowed reports whether rule is suppressed at position p by a
// //tmcclint:allow directive on p's line or the line above.
func (m *Module) allowed(p token.Position, rule string) bool {
	if lines, ok := m.allows[p.Filename]; ok {
		if rs, ok := lines[p.Line]; ok && (rs[""] || rs[rule]) {
			return true
		}
	}
	return false
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if rest != "" {
				return strings.Trim(rest, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// packageDirs walks root collecting directories that hold .go files,
// skipping testdata, vendor, version control, and hidden directories.
func packageDirs(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				out = append(out, p)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("lint: walking %s: %w", root, err)
	}
	sort.Strings(out)
	return out, nil
}

// parseDir parses the non-test, build-included .go files of one directory.
// Returns nil when nothing is included (e.g. a directory of test files).
func (m *Module) parseDir(dir string, now func() int64) (*Package, error) {
	rel, err := filepath.Rel(m.Dir, dir)
	if err != nil {
		return nil, fmt.Errorf("lint: rel %s: %w", dir, err)
	}
	relDir := path.Clean(filepath.ToSlash(rel))
	if relDir == "." {
		relDir = ""
	}
	importPath := m.Path
	if relDir != "" {
		importPath = m.Path + "/" + relDir
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: reading %s: %w", dir, err)
	}
	pkg := &Package{ImportPath: importPath, RelDir: relDir}
	start := now()
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("lint: reading %s: %w", name, err)
		}
		if !buildIncluded(src) {
			continue
		}
		fname := name
		if relDir != "" {
			fname = relDir + "/" + name
		}
		f, err := parser.ParseFile(m.Fset, fname, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.FileNames = append(pkg.FileNames, fname)
		m.allows[fname] = collectAllows(m.Fset, f)
	}
	pkg.ParseNanos = now() - start
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// buildIncluded evaluates a file's //go:build constraint for the host
// GOOS/GOARCH with the tmccdebug tag set and no other custom tag. Tag twins
// such as internal/check's check_on.go/check_off.go would otherwise both
// load and collide as duplicate declarations. The debug side is the one
// loaded because it holds the code: check_off.go is one constant and two
// empty bodies, so no rule can fire on it.
func buildIncluded(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			if constraint.IsGoBuild(trimmed) {
				expr, err := constraint.Parse(trimmed)
				if err != nil {
					return true
				}
				return expr.Eval(func(tag string) bool {
					return tag == runtime.GOOS || tag == runtime.GOARCH ||
						tag == "tmccdebug" || strings.HasPrefix(tag, "go1.")
				})
			}
			continue
		}
		break // first non-comment line: constraints must precede it
	}
	return true
}

// toposort orders Pkgs so every package follows its module-internal imports
// (stable: ties keep import-path order from the sorted directory walk).
func (m *Module) toposort() {
	var order []*Package
	state := map[*Package]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p] != 0 {
			return // includes cycles: the type checker reports those itself
		}
		state[p] = 1
		for _, dep := range m.importsOf(p) {
			visit(dep)
		}
		state[p] = 2
		order = append(order, p)
	}
	for _, p := range m.Pkgs {
		visit(p)
	}
	m.Pkgs = order
}

// importsOf resolves p's module-internal imports to loaded packages.
func (m *Module) importsOf(p *Package) []*Package {
	seen := map[string]bool{}
	var out []*Package
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[ip] {
				continue
			}
			seen[ip] = true
			if dep := m.byPath[ip]; dep != nil && dep != p {
				out = append(out, dep)
			}
		}
	}
	return out
}

// modImporter serves module-internal packages from the loaded set and
// everything else from the stdlib source importer (Go installs no longer
// ship precompiled export data, so "source" is the only stdlib-importing
// mode that works without external tooling).
type modImporter struct {
	m      *Module
	stdlib types.Importer
}

func (mi *modImporter) Import(ip string) (*types.Package, error) {
	if ip == "unsafe" {
		return types.Unsafe, nil
	}
	if ip == mi.m.Path || strings.HasPrefix(ip, mi.m.Path+"/") {
		p := mi.m.byPath[ip]
		if p == nil {
			return nil, fmt.Errorf("lint: unknown module package %s", ip)
		}
		if p.Types == nil {
			return nil, fmt.Errorf("lint: %s not checked yet (import cycle?)", ip)
		}
		return p.Types, nil
	}
	return mi.stdlib.Import(ip)
}

// typecheck runs go/types over every package in dependency order and
// fails on the first package that does not check.
func (m *Module) typecheck(stdlib types.Importer, now func() int64) error {
	mi := &modImporter{m: m, stdlib: stdlib}
	for _, p := range m.Pkgs {
		start := now()
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: mi}
		tpkg, err := conf.Check(p.ImportPath, m.Fset, p.Files, info)
		if err != nil {
			return fmt.Errorf("lint: %s does not type-check: %w", p.ImportPath, err)
		}
		p.CheckNanos = now() - start
		p.Types = tpkg
		p.Info = info
	}
	return nil
}
