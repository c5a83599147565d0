package lint

import (
	"strings"
	"testing"
)

// loadFixture loads a testdata module with the shared stdlib importer.
func loadFixture(t *testing.T, name string) *Module {
	t.Helper()
	m, err := loadModule("testdata/"+name, testFset, testStdlib, nil)
	if err != nil {
		t.Fatalf("loading %s: %v", name, err)
	}
	return m
}

// semHas reports whether a finding with the rule exists whose file path
// contains fileSub and whose message contains msgSub.
func semHas(diags []Diag, rule, fileSub, msgSub string) bool {
	for _, d := range diags {
		if d.Rule == rule && strings.Contains(d.Pos.Filename, fileSub) && strings.Contains(d.Msg, msgSub) {
			return true
		}
	}
	return false
}

// semCount counts findings for rule within files containing fileSub.
func semCount(diags []Diag, rule, fileSub string) int {
	n := 0
	for _, d := range diags {
		if d.Rule == rule && strings.Contains(d.Pos.Filename, fileSub) {
			n++
		}
	}
	return n
}

func TestSemAtomicDiscipline(t *testing.T) {
	m := loadFixture(t, "semmod")
	diags := m.Lint(nil)
	for _, want := range []string{"n is accessed via sync/atomic", "hits is accessed via sync/atomic"} {
		if !semHas(diags, RuleAtomic, "atomicbad", want) {
			t.Errorf("missing atomic-discipline finding %q in:\n%s", want, dump(diags))
		}
	}
	// Three plain accesses in Broken; init store, composite literal, and
	// the waived read must stay clean.
	if got := semCount(diags, RuleAtomic, "atomicbad"); got != 3 {
		t.Errorf("atomic-discipline findings = %d, want 3:\n%s", got, dump(diags))
	}
	if semHas(diags, RuleAtomic, "atomicbad", "global") {
		t.Errorf("init store to global must not fire:\n%s", dump(diags))
	}
}

func TestSemMemoKeyPurity(t *testing.T) {
	m := loadFixture(t, "semmod")
	diags := m.Lint(nil)
	for _, want := range []string{
		"Options.Hook is a func",
		"Options.Done is a channel",
		"Options.Tags is a slice",
		"Options.Ob points at obs.Observer",
		"Options.Inj points at fault.Injector",
		"Options.Nested.Cb is a func",
	} {
		if !semHas(diags, RuleMemoKey, "sim/sim.go", want) {
			t.Errorf("missing memo-key-purity finding %q in:\n%s", want, dump(diags))
		}
	}
	if semHas(diags, RuleMemoKey, "sim/sim.go", "Allowed") {
		t.Errorf("suppressed field Allowed must not fire:\n%s", dump(diags))
	}
	if got := semCount(diags, RuleMemoKey, "sim/sim.go"); got != 6 {
		t.Errorf("memo-key-purity findings = %d, want 6:\n%s", got, dump(diags))
	}
}

func TestSemErrorDiscipline(t *testing.T) {
	m := loadFixture(t, "semmod")
	diags := m.Lint(nil)
	if got := semCount(diags, RuleErr, "errdrop"); got != 3 {
		t.Errorf("error-discipline findings = %d, want 3 (plain, go, defer):\n%s", got, dump(diags))
	}
	if !semHas(diags, RuleErr, "errdrop", "go ") || !semHas(diags, RuleErr, "errdrop", "defer ") {
		t.Errorf("go/defer variants missing:\n%s", dump(diags))
	}
	// Clean: handled, `_ =`-waived, and directive-suppressed calls. The
	// three findings must all be inside Fire (lines 9-11).
	for _, d := range diags {
		if d.Rule == RuleErr && strings.Contains(d.Pos.Filename, "errdrop") && d.Pos.Line > 12 {
			t.Errorf("unexpected error-discipline finding outside Fire: %s", d)
		}
	}
}

func TestSemUnitSafety(t *testing.T) {
	m := loadFixture(t, "semmod")
	diags := m.Lint(nil)
	for _, want := range []string{
		"bare literal 13750 declared as config.Time",
		"bare literal 250 assigned to a config.Time",
		"direct Time(Cycles) conversion",
		"bare literal 500 > a config.Time",
		"bare literal 250 fills a config.Time field",
		"bare literal 125 returned as config.Time",
	} {
		if !semHas(diags, RuleUnits, "dram", want) {
			t.Errorf("missing unit-safety finding %q in:\n%s", want, dump(diags))
		}
	}
	if got := semCount(diags, RuleUnits, "dram"); got != 6 {
		t.Errorf("unit-safety findings = %d, want 6:\n%s", got, dump(diags))
	}
	if semHas(diags, RuleUnits, "dram", "Cycles(Time)") {
		t.Errorf("suppressed Cycles(Time) conversion in Waived must not fire:\n%s", dump(diags))
	}
}

// TestSemUnitSafetyBatchScratch covers the batched-core scratch shapes:
// Time lanes inside fixed-size batch arrays and reusable arena windows
// are unit-bearing positions; uint64 lanes, zero resets, and scaled
// appends stay clean.
func TestSemUnitSafetyBatchScratch(t *testing.T) {
	m := loadFixture(t, "semmod")
	diags := m.Lint(nil)
	for _, want := range []string{
		"bare literal 13750 assigned to a config.Time",
		"bare literal 250 assigned to a config.Time",
		"bare literal 125 fills a config.Time element",
		"bare literal 500 > a config.Time",
	} {
		if !semHas(diags, RuleUnits, "sim/batch.go", want) {
			t.Errorf("missing unit-safety finding %q in:\n%s", want, dump(diags))
		}
	}
	if got := semCount(diags, RuleUnits, "sim/batch.go"); got != 4 {
		t.Errorf("unit-safety findings in batch.go = %d, want 4:\n%s", got, dump(diags))
	}
	for _, d := range diags {
		if d.Rule == RuleUnits && strings.Contains(d.Pos.Filename, "sim/batch.go") && strings.Contains(d.Msg, "4096") {
			t.Errorf("uint64 batch lane must not fire: %s", d)
		}
	}
}

func TestSemAttrRegistration(t *testing.T) {
	m := loadFixture(t, "semmod")
	diags := m.Lint(nil)
	for _, want := range []string{
		"component CGamma is never attributed",
		"covers 2 of 4 components",
		"Access field Extra is outside the Comp array",
	} {
		if !semHas(diags, RuleAttrReg, "attr", want) {
			t.Errorf("missing attr-registration finding %q in:\n%s", want, dump(diags))
		}
	}
	if semHas(diags, RuleAttrReg, "attr", "CDelta") {
		t.Errorf("suppressed component CDelta must not fire:\n%s", dump(diags))
	}
	if semHas(diags, RuleAttrReg, "attr", "CAlpha") || semHas(diags, RuleAttrReg, "attr", "CBeta") {
		t.Errorf("attributed components must not fire:\n%s", dump(diags))
	}
}

// TestSemRuleFilter verifies the enabled callback gates each rule family.
func TestSemRuleFilter(t *testing.T) {
	m := loadFixture(t, "semmod")
	only := func(rule string) func(string) bool {
		return func(r string) bool { return r == rule }
	}
	for _, rule := range []string{RuleAtomic, RuleMemoKey, RuleErr, RuleUnits, RuleAttrReg} {
		for _, d := range m.Lint(only(rule)) {
			if d.Rule != rule {
				t.Errorf("Semantic(only %s) produced %s", rule, d)
			}
		}
		if len(m.Lint(only(rule))) == 0 {
			t.Errorf("Semantic(only %s) found nothing; fixture should trip every rule", rule)
		}
	}
}

// TestSemBuildTagTwin checks that the loader takes the tmccdebug half of
// a tag twin: fault_debug.go is linted, and fault_release.go is not loaded
// (both would collide as duplicate declarations).
func TestSemBuildTagTwin(t *testing.T) {
	m := loadFixture(t, "semmod")
	diags := m.Lint(nil)
	if !semHas(diags, RulePanic, "fault/fault_debug.go", "audit failed") {
		t.Errorf("missing panic-prefix finding in the tmccdebug twin:\n%s", dump(diags))
	}
	for _, p := range m.Pkgs {
		for _, name := range p.FileNames {
			if strings.HasSuffix(name, "fault_release.go") {
				t.Errorf("release twin %s was loaded beside the debug twin", name)
			}
		}
	}
}

// TestLoadRejectsBrokenModule checks that a package that does not
// type-check fails the load, naming the package.
func TestLoadRejectsBrokenModule(t *testing.T) {
	_, err := loadModule("testdata/brokenmod", testFset, testStdlib, nil)
	if err == nil || !strings.Contains(err.Error(), "broken/internal/bad") {
		t.Fatalf("loading brokenmod: err = %v, want a type error naming broken/internal/bad", err)
	}
}

// TestSemLiveTreeClean pins the acceptance criterion that the repo's own
// module has no findings from any rule (violations are either fixed or
// carry a reasoned //tmcclint:allow).
func TestSemLiveTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped with -short")
	}
	m, err := loadModule("../..", testFset, testStdlib, nil)
	if err != nil {
		t.Fatalf("loading live module: %v", err)
	}
	if diags := m.Lint(nil); len(diags) != 0 {
		t.Errorf("live tree has findings:\n%s", dump(diags))
	}
}

func dump(diags []Diag) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
