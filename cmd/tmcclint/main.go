// Command tmcclint runs the TMCC-specific static analyzer over the module.
// It is stdlib-only: it type-checks the enclosing module once with go/types
// and runs every rule — determinism, magic-literal, panic-prefix,
// obs-sink-purity, atomic-discipline, memo-key-purity, error-discipline,
// unit-safety and attr-registration — in one pass over it (see
// internal/lint).
//
// Usage:
//
//	tmcclint ./...                  # whole module (run from inside it)
//	tmcclint internal/mc            # findings in one directory
//	tmcclint internal/...           # findings in a directory tree
//	tmcclint file.go                # findings in one file
//	tmcclint -json ./...            # machine-readable findings
//	tmcclint -rules unit-safety,error-discipline ./...
//	tmcclint -time ./...            # per-phase and per-package wall time
//
// The arguments only select which findings are reported: the whole module
// is always loaded. Exit status is 1 when any rule fires, and 2 on a usage
// error, outside a module, or when the module does not type-check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tmcc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, lints the module enclosing the
// working directory, writes findings to stdout and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("tmcclint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	jsonOut := flags.Bool("json", false, "emit findings as JSON on stdout")
	rulesFlag := flags.String("rules", "", "comma-separated rule names to run (default: all)")
	timing := flags.Bool("time", false, "report per-phase and per-package wall time on stderr")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: tmcclint [-json] [-rules r1,r2] [-time] [packages|dirs|files]\n")
		flags.PrintDefaults()
		fmt.Fprintf(stderr, "rules: %s\n", strings.Join(lint.AllRules(), ", "))
	}
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "tmcclint: %v\n", err)
		return 2
	}
	enabled, err := parseRules(*rulesFlag)
	if err != nil {
		return fail(err)
	}
	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	now := func() int64 { return time.Now().UnixNano() }
	t0 := now()
	m, err := lint.LoadModule(root, now)
	if err != nil {
		return fail(err)
	}
	tLoad := now()
	inScope, err := scope(m, patterns)
	if err != nil {
		return fail(err)
	}
	var diags []lint.Diag
	for _, d := range m.Lint(enabled) {
		if inScope(d.Pos.Filename) {
			diags = append(diags, d)
		}
	}
	if *timing {
		reportTiming(stderr, m, tLoad-t0, now()-tLoad)
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
	if *jsonOut {
		if err := emitJSON(stdout, diags); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "tmcclint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// scope turns the command-line patterns into a filter over the loaded
// module-relative file names. "dir/..." takes the tree under dir, "dir" its
// own files and "file.go" that file. A pattern that selects no loaded file
// is an error, so a typo cannot pass as a clean run.
func scope(m *lint.Module, patterns []string) (func(filename string) bool, error) {
	var match []func(filename string) bool
	for _, pat := range patterns {
		tree := strings.HasSuffix(pat, "/...") || pat == "..."
		abs, err := filepath.Abs(strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/"))
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(m.Dir, abs)
		if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return nil, fmt.Errorf("%s is outside the module at %s", pat, m.Dir)
		}
		rel = filepath.ToSlash(rel)
		f := func(filename string) bool {
			dir := path.Dir(filename)
			switch {
			case tree:
				return rel == "." || dir == rel || strings.HasPrefix(dir, rel+"/")
			case strings.HasSuffix(rel, ".go"):
				return filename == rel
			default:
				return dir == rel
			}
		}
		if !anyFile(m, f) {
			return nil, fmt.Errorf("%s matches no non-test Go file of the module", pat)
		}
		match = append(match, f)
	}
	return func(filename string) bool {
		for _, f := range match {
			if f(filename) {
				return true
			}
		}
		return false
	}, nil
}

// anyFile reports whether f accepts some loaded file name.
func anyFile(m *lint.Module, f func(string) bool) bool {
	for _, p := range m.Pkgs {
		for _, name := range p.FileNames {
			if f(name) {
				return true
			}
		}
	}
	return false
}

func reportTiming(w io.Writer, m *lint.Module, loadNanos, rulesNanos int64) {
	ms := func(n int64) string { return fmt.Sprintf("%.1fms", float64(n)/1e6) }
	var parse, check int64
	type row struct {
		path  string
		nanos int64
	}
	var rows []row
	for _, p := range m.Pkgs {
		parse += p.ParseNanos
		check += p.CheckNanos
		rows = append(rows, row{p.ImportPath, p.ParseNanos + p.CheckNanos})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].nanos > rows[j].nanos })
	fmt.Fprintf(w, "tmcclint: phase load %s (parse %s, typecheck %s), rules %s\n",
		ms(loadNanos), ms(parse), ms(check), ms(rulesNanos))
	for _, r := range rows {
		fmt.Fprintf(w, "tmcclint:   %-40s %s\n", r.path, ms(r.nanos))
	}
}

// parseRules builds the rule filter from the -rules flag.
func parseRules(spec string) (func(string) bool, error) {
	if spec == "" {
		return func(string) bool { return true }, nil
	}
	valid := map[string]bool{}
	for _, r := range lint.AllRules() {
		valid[r] = true
	}
	want := map[string]bool{}
	for _, r := range strings.Split(spec, ",") {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		if !valid[r] {
			return nil, fmt.Errorf("unknown rule %q (valid: %s)", r, strings.Join(lint.AllRules(), ", "))
		}
		want[r] = true
	}
	return func(r string) bool { return want[r] }, nil
}

// jsonFinding is one finding in -json output; fields mirror the text
// format "file:line:col: rule: msg" and the CI problem matcher.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func emitJSON(w io.Writer, diags []lint.Diag) error {
	out := struct {
		Findings []jsonFinding `json:"findings"`
	}{Findings: []jsonFinding{}}
	for _, d := range diags {
		out.Findings = append(out.Findings, jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Msg: d.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
