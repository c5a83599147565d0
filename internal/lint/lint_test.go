package lint

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testFset and testStdlib are shared by every module a test loads, so the
// stdlib is type-checked from source once per test binary, not per test.
var (
	testFset   = token.NewFileSet()
	testStdlib = importer.ForCompiler(testFset, "source", nil)
)

// snippetStubs are the semmod fixture packages a snippet module carries, so
// snippets can import fix/internal/obs/timeline and fix/internal/obs/heatmap.
var snippetStubs = []string{"internal/obs/timeline/timeline.go", "internal/obs/heatmap/heatmap.go"}

// lintSnippet lints src as the file relPath of a scratch module "fix" that
// also holds the snippetStubs, and returns the findings in that file.
func lintSnippet(t *testing.T, relPath, src string) []Diag {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{"go.mod": "module fix\n\ngo 1.22\n", relPath: src}
	for _, stub := range snippetStubs {
		b, err := os.ReadFile(filepath.Join("testdata", "semmod", stub))
		if err != nil {
			t.Fatal(err)
		}
		files[stub] = string(b)
	}
	for name, body := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := loadModule(dir, testFset, testStdlib, nil)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	var out []Diag
	for _, d := range m.Lint(nil) {
		if d.Pos.Filename == relPath {
			out = append(out, d)
		}
	}
	return out
}

// run lints src as if it lived at relPath and returns the rule names fired.
func run(t *testing.T, relPath, src string) []string {
	t.Helper()
	var rules []string
	for _, d := range lintSnippet(t, relPath, src) {
		rules = append(rules, d.Rule)
	}
	return rules
}

func has(rules []string, want string) bool {
	for _, r := range rules {
		if r == want {
			return true
		}
	}
	return false
}

func TestGlobalRandFires(t *testing.T) {
	src := `package p
import "math/rand"
func f() int { return rand.Intn(10) }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleRand) {
		t.Fatalf("want %s, got %v", RuleRand, rules)
	}
}

func TestSeededRandOK(t *testing.T) {
	src := `package p
import "math/rand"
func f(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}
`
	if rules := run(t, "internal/p/p.go", src); len(rules) != 0 {
		t.Fatalf("seeded *rand.Rand flagged: %v", rules)
	}
}

func TestRandOutsideInternalNotChecked(t *testing.T) {
	src := `package main
import "math/rand"
func f() int { return rand.Intn(10) }
`
	if rules := run(t, "cmd/x/main.go", src); has(rules, RuleRand) {
		t.Fatalf("determinism rule fired outside internal/: %v", rules)
	}
}

func TestWallclockFires(t *testing.T) {
	src := `package p
import "time"
func f() time.Time { return time.Now() }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleWallclock) {
		t.Fatalf("want %s, got %v", RuleWallclock, rules)
	}
}

func TestMapIterAppendFires(t *testing.T) {
	src := `package p
func f(m map[int]string) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleMapIter) {
		t.Fatalf("want %s, got %v", RuleMapIter, rules)
	}
}

func TestMapIterFloatAccumFires(t *testing.T) {
	src := `package p
func f(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleMapIter) {
		t.Fatalf("want %s, got %v", RuleMapIter, rules)
	}
}

func TestMapIterIntCountOK(t *testing.T) {
	// Integer accumulation commutes; counting over a map is deterministic.
	src := `package p
func f(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
`
	if rules := run(t, "internal/p/p.go", src); has(rules, RuleMapIter) {
		t.Fatalf("int accumulation flagged: %v", rules)
	}
}

func TestMapIterCollectThenSortOK(t *testing.T) {
	src := `package p
import "sort"
func f(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`
	if rules := run(t, "internal/p/p.go", src); has(rules, RuleMapIter) {
		t.Fatalf("collect-then-sort idiom flagged: %v", rules)
	}
}

func TestSliceIterAppendOK(t *testing.T) {
	src := `package p
func f(s []int) []int {
	var out []int
	for _, v := range s {
		out = append(out, v)
	}
	return out
}
`
	if rules := run(t, "internal/p/p.go", src); has(rules, RuleMapIter) {
		t.Fatalf("slice iteration flagged: %v", rules)
	}
}

// TestMapIterFieldMapFires ranges over a struct field of map type, which
// no local declaration names as a map.
func TestMapIterFieldMapFires(t *testing.T) {
	src := `package p
type S struct{ byName map[string]int }
func (s *S) Names() []string {
	var out []string
	for k := range s.byName {
		out = append(out, k)
	}
	return out
}
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleMapIter) {
		t.Fatalf("want %s for a field map, got %v", RuleMapIter, rules)
	}
}

func TestMapIterCallResultFires(t *testing.T) {
	src := `package p
func table() map[string]int { return nil }
func f() []string {
	var out []string
	for k := range table() {
		out = append(out, k)
	}
	return out
}
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleMapIter) {
		t.Fatalf("want %s for a call's map result, got %v", RuleMapIter, rules)
	}
}

// TestMapIterTypedFloatAccumFires declares the accumulators without a
// float literal on the right of :=.
func TestMapIterTypedFloatAccumFires(t *testing.T) {
	for _, decl := range []string{"var total = 0.0", "total := float64(0)"} {
		src := `package p
func f(m map[int]float64) float64 {
	` + decl + `
	for _, v := range m {
		total += v
	}
	return total
}
`
		rules := run(t, "internal/p/p.go", src)
		if !has(rules, RuleMapIter) {
			t.Errorf("%s: want %s, got %v", decl, RuleMapIter, rules)
		}
	}
}

func TestMagic4096Fires(t *testing.T) {
	src := `package p
func f(n uint64) uint64 { return n * 4096 }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleMagic) {
		t.Fatalf("want %s, got %v", RuleMagic, rules)
	}
}

func TestMagic4096InCmdFires(t *testing.T) {
	src := `package main
var x = 2 + 4096
`
	rules := run(t, "cmd/x/main.go", src)
	if !has(rules, RuleMagic) {
		t.Fatalf("want %s in cmd/, got %v", RuleMagic, rules)
	}
}

func TestMagic64AddrArithmeticFires(t *testing.T) {
	src := `package p
func f(blockOff int) int { return blockOff * 64 }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleMagic) {
		t.Fatalf("want %s, got %v", RuleMagic, rules)
	}
}

func TestMagic8AddrArithmeticFires(t *testing.T) {
	src := `package p
func f(pteIndex uint64) uint64 { return pteIndex * 8 }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleMagic) {
		t.Fatalf("want %s, got %v", RuleMagic, rules)
	}
}

func TestMagic64NonAddrOK(t *testing.T) {
	// 64 outside address arithmetic (bit widths, generic loop bounds) is
	// not flagged; only * / % against address-like identifiers is.
	src := `package p
func f(i int) int { return i * 64 }
var w = 64 - 3
`
	if rules := run(t, "internal/p/p.go", src); has(rules, RuleMagic) {
		t.Fatalf("non-address 64 flagged: %v", rules)
	}
}

func TestMagicConstDeclOK(t *testing.T) {
	src := `package p
const pageSize = 4096
const blockSize = 64
`
	if rules := run(t, "internal/p/p.go", src); has(rules, RuleMagic) {
		t.Fatalf("const decl flagged: %v", rules)
	}
}

func TestMagicConfigPackageExempt(t *testing.T) {
	src := `package config
var x = 4096 * 2
`
	if rules := run(t, "internal/config/config.go", src); has(rules, RuleMagic) {
		t.Fatalf("internal/config flagged: %v", rules)
	}
}

func TestPanicPrefixMissingFires(t *testing.T) {
	src := `package p
func f() { panic("bad word size") }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RulePanic) {
		t.Fatalf("want %s, got %v", RulePanic, rules)
	}
}

func TestPanicPrefixedOK(t *testing.T) {
	src := `package p
import "fmt"
func f(n int) {
	panic("p: bad state")
	panic(fmt.Sprintf("p: bad word size %d", n))
}
`
	if rules := run(t, "internal/p/p.go", src); has(rules, RulePanic) {
		t.Fatalf("prefixed panic flagged: %v", rules)
	}
}

func TestPanicErrValueFires(t *testing.T) {
	src := `package p
func f(err error) { panic(err) }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RulePanic) {
		t.Fatalf("want %s for panic(err), got %v", RulePanic, rules)
	}
}

func TestPanicSprintfWithoutPrefixFires(t *testing.T) {
	src := `package p
import "fmt"
func f(n int) { panic(fmt.Sprintf("bad size %d", n)) }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RulePanic) {
		t.Fatalf("want %s, got %v", RulePanic, rules)
	}
}

func TestPanicRenamedFmtWithoutPrefixFires(t *testing.T) {
	src := `package p
import f "fmt"
func g(x int) { panic(f.Sprintf("no prefix %d", x)) }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RulePanic) {
		t.Fatalf("want %s through a renamed fmt import, got %v", RulePanic, rules)
	}
}

// TestShadowedNamesOK calls a package-level func named panic and a method
// on a *rand.Rand parameter named rand: neither is the builtin nor the
// global source.
func TestShadowedNamesOK(t *testing.T) {
	src := `package p
import "math/rand"
func panic(msg string) {}
func f() { panic("no prefix") }
func g(rand *rand.Rand) int { return rand.Intn(3) }
`
	if rules := run(t, "internal/p/p.go", src); len(rules) != 0 {
		t.Fatalf("shadowed panic or rand flagged: %v", rules)
	}
}

func TestAllowDirectiveSuppresses(t *testing.T) {
	src := `package p
func f(n uint64) uint64 {
	return n * 4096 //tmcclint:allow magic-literal
}
`
	if rules := run(t, "internal/p/p.go", src); len(rules) != 0 {
		t.Fatalf("suppressed finding reported: %v", rules)
	}
}

func TestAllowDirectiveAboveLine(t *testing.T) {
	src := `package p
func f(n uint64) uint64 {
	//tmcclint:allow
	return n * 4096
}
`
	if rules := run(t, "internal/p/p.go", src); len(rules) != 0 {
		t.Fatalf("suppressed finding reported: %v", rules)
	}
}

func TestAllowDirectiveWrongRuleDoesNotSuppress(t *testing.T) {
	src := `package p
func f(n uint64) uint64 {
	return n * 4096 //tmcclint:allow panic-prefix
}
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleMagic) {
		t.Fatalf("wrong-rule allow suppressed the finding: %v", rules)
	}
}

func TestTestFilesExempt(t *testing.T) {
	src := `package p
import "math/rand"
func f() int { return rand.Intn(4096) }
`
	if rules := run(t, "internal/p/p_test.go", src); len(rules) != 0 {
		t.Fatalf("_test.go flagged: %v", rules)
	}
}

func TestDiagStringFormat(t *testing.T) {
	diags := lintSnippet(t, "internal/p/p.go", "package p\nfunc f() { panic(\"x\") }\n")
	if len(diags) == 0 {
		t.Fatal("expected a finding")
	}
	s := diags[0].String()
	if !strings.HasPrefix(s, "internal/p/p.go:2:") || !strings.Contains(s, RulePanic) {
		t.Fatalf("bad diag format: %q", s)
	}
}

func TestObsSinkCreateFires(t *testing.T) {
	src := `package p
import "os"
func f() { os.Create("metrics.json") }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleObsSink) {
		t.Fatalf("want %s, got %v", RuleObsSink, rules)
	}
}

func TestObsSinkOpenFileAndStreamsFire(t *testing.T) {
	src := `package p
import (
	"fmt"
	"os"
)
func f() {
	os.OpenFile("t.trace", 0, 0)
	fmt.Fprintln(os.Stderr, "x")
}
`
	diags := lintSnippet(t, "internal/p/p.go", src)
	n := 0
	for _, d := range diags {
		if d.Rule == RuleObsSink {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("want 2 %s findings (OpenFile + Stderr), got %d: %v", RuleObsSink, n, diags)
	}
}

func TestObsSinkAllowedOutsideInternal(t *testing.T) {
	src := `package main
import "os"
func f() { os.Create("metrics.json") }
`
	if rules := run(t, "cmd/tmccsim/main.go", src); has(rules, RuleObsSink) {
		t.Fatalf("rule fired outside internal/: %v", rules)
	}
}

func TestObsSinkAllowedInObsPackage(t *testing.T) {
	src := `package obs
import "os"
func f() { os.Create("x") }
`
	if rules := run(t, "internal/obs/sink.go", src); has(rules, RuleObsSink) {
		t.Fatalf("rule fired inside internal/obs: %v", rules)
	}
}

func TestObsSinkHarmlessOsUseOK(t *testing.T) {
	src := `package p
import "os"
func f() (string, bool) { return os.LookupEnv("TMCC_DEBUG") }
`
	if rules := run(t, "internal/p/p.go", src); has(rules, RuleObsSink) {
		t.Fatalf("os.LookupEnv flagged: %v", rules)
	}
}

func TestObsSinkAllowDirective(t *testing.T) {
	src := `package p
import "os"
func f() { os.Create("x") } //tmcclint:allow obs-sink-purity
`
	if rules := run(t, "internal/p/p.go", src); has(rules, RuleObsSink) {
		t.Fatalf("allow directive did not suppress: %v", rules)
	}
}

func TestObsSinkTimelineRecorderFires(t *testing.T) {
	src := `package p
import "fix/internal/obs/timeline"
func f() *timeline.Recorder { return timeline.NewRecorder(0) }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleObsSink) {
		t.Fatalf("want %s for timeline.NewRecorder under internal/, got %v", RuleObsSink, rules)
	}
}

func TestObsSinkTimelineRenamedImportFires(t *testing.T) {
	src := `package p
import tl "fix/internal/obs/timeline"
func f() *tl.Recorder { return tl.NewRecorder(0) }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleObsSink) {
		t.Fatalf("renamed timeline import escaped the rule: %v", rules)
	}
}

func TestObsSinkTimelineAllowedInObsPackage(t *testing.T) {
	src := `package obs
import "fix/internal/obs/timeline"
func f() *timeline.Recorder { return timeline.NewRecorder(0) }
`
	if rules := run(t, "internal/obs/timelineview.go", src); has(rules, RuleObsSink) {
		t.Fatalf("rule fired inside internal/obs: %v", rules)
	}
}

func TestObsSinkTimelineAllowedAtCmdLayer(t *testing.T) {
	src := `package main
import "fix/internal/obs/timeline"
func f() *timeline.Recorder { return timeline.NewRecorder(0) }
`
	if rules := run(t, "cmd/tmccsim/main.go", src); has(rules, RuleObsSink) {
		t.Fatalf("rule fired outside internal: %v", rules)
	}
}

func TestObsSinkTimelineHarmlessUseOK(t *testing.T) {
	src := `package p
import "fix/internal/obs/timeline"
func f() int64 { return timeline.WindowStart(5, 10) }
`
	if rules := run(t, "internal/p/p.go", src); has(rules, RuleObsSink) {
		t.Fatalf("timeline.WindowStart flagged: %v", rules)
	}
}

func TestObsSinkHeatmapRecorderFires(t *testing.T) {
	src := `package p
import "fix/internal/obs/heatmap"
func f() *heatmap.Recorder { return heatmap.NewRecorder(0, 0) }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleObsSink) {
		t.Fatalf("want %s for heatmap.NewRecorder under internal/, got %v", RuleObsSink, rules)
	}
}

func TestObsSinkHeatmapRenamedImportFires(t *testing.T) {
	src := `package p
import hm "fix/internal/obs/heatmap"
func f() *hm.Recorder { return hm.NewRecorder(0, 0) }
`
	rules := run(t, "internal/p/p.go", src)
	if !has(rules, RuleObsSink) {
		t.Fatalf("renamed heatmap import escaped the rule: %v", rules)
	}
}

func TestObsSinkHeatmapAllowedInObsPackage(t *testing.T) {
	src := `package obs
import "fix/internal/obs/heatmap"
func f() *heatmap.Recorder { return heatmap.NewRecorder(0, 0) }
`
	if rules := run(t, "internal/obs/heatmapview.go", src); has(rules, RuleObsSink) {
		t.Fatalf("rule fired inside internal/obs: %v", rules)
	}
}

func TestObsSinkHeatmapAllowedAtCmdLayer(t *testing.T) {
	src := `package main
import "fix/internal/obs/heatmap"
func f() *heatmap.Recorder { return heatmap.NewRecorder(0, 0) }
`
	if rules := run(t, "cmd/tmccsim/main.go", src); has(rules, RuleObsSink) {
		t.Fatalf("rule fired outside internal: %v", rules)
	}
}

func TestObsSinkHeatmapHarmlessUseOK(t *testing.T) {
	src := `package p
import "fix/internal/obs/heatmap"
func f() []int64 { return heatmap.SizeBounds() }
`
	if rules := run(t, "internal/p/p.go", src); has(rules, RuleObsSink) {
		t.Fatalf("heatmap.SizeBounds flagged: %v", rules)
	}
}
