package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const semmod = "../../internal/lint/testdata/semmod"

// tmcclint runs the command with dir as the working directory and returns
// its exit status and output.
func tmcclint(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(abs); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// findings splits text output into "file:line:col: rule: msg" lines.
func findings(t *testing.T, stdout string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if lines[0] == "" {
		return nil
	}
	for _, l := range lines {
		if strings.Count(l, ": ") < 2 {
			t.Fatalf("malformed finding %q", l)
		}
	}
	return lines
}

func TestScope(t *testing.T) {
	cases := []struct {
		arg    string
		n      int
		prefix string // every finding's file starts with it
	}{
		{"./...", 28, ""},
		{"internal/...", 27, "internal/"},
		{"internal/errdrop", 3, "internal/errdrop/errdrop.go:"},
		{"internal/dram/dram.go", 6, "internal/dram/dram.go:"},
		{"cmd/tool", 1, "cmd/tool/main.go:"},
	}
	for _, c := range cases {
		code, stdout, stderr := tmcclint(t, semmod, c.arg)
		got := findings(t, stdout)
		if code != 1 || len(got) != c.n {
			t.Errorf("tmcclint %s: exit %d with %d findings, want exit 1 with %d:\n%s%s", c.arg, code, len(got), c.n, stdout, stderr)
		}
		for _, l := range got {
			if !strings.HasPrefix(l, c.prefix) {
				t.Errorf("tmcclint %s reported %q outside its scope", c.arg, l)
			}
		}
	}
}

// TestScopeFromSubdir checks that patterns are relative to the working
// directory, not to the module root.
func TestScopeFromSubdir(t *testing.T) {
	code, stdout, _ := tmcclint(t, semmod+"/internal", "errdrop")
	if got := findings(t, stdout); code != 1 || len(got) != 3 || !strings.HasPrefix(got[0], "internal/errdrop/") {
		t.Errorf("tmcclint errdrop from internal/: exit %d, findings:\n%s", code, stdout)
	}
}

func TestRulesFilter(t *testing.T) {
	code, stdout, _ := tmcclint(t, semmod, "-rules", "error-discipline", "./...")
	got := findings(t, stdout)
	if code != 1 || len(got) != 3 {
		t.Fatalf("exit %d with %d findings, want exit 1 with 3:\n%s", code, len(got), stdout)
	}
	for _, l := range got {
		if !strings.Contains(l, ": error-discipline: ") {
			t.Errorf("-rules error-discipline let through %q", l)
		}
	}
}

func TestJSON(t *testing.T) {
	code, stdout, stderr := tmcclint(t, semmod, "-json", "internal/errdrop")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, stderr)
	}
	var out map[string][]jsonFinding
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(out) != 1 || len(out["findings"]) != 3 {
		t.Fatalf("want exactly a findings array of 3, got %s", stdout)
	}
	if f := out["findings"][0]; f.File != "internal/errdrop/errdrop.go" || f.Line != 9 || f.Rule != "error-discipline" {
		t.Errorf("first finding = %+v", f)
	}

	code, stdout, _ = tmcclint(t, semmod, "-json", "internal/config")
	if code != 0 || strings.TrimSpace(stdout) != "{\n  \"findings\": []\n}" {
		t.Errorf("clean -json run: exit %d, output %q", code, stdout)
	}
}

func TestExitCodes(t *testing.T) {
	outside := t.TempDir()
	cases := []struct {
		name string
		dir  string
		args []string
		code int
		msg  string // in stderr
	}{
		{"clean", semmod, []string{"internal/config"}, 0, ""},
		{"findings", semmod, []string{"./..."}, 1, "28 finding(s)"},
		{"unknown rule", semmod, []string{"-rules", "no-such-rule", "./..."}, 2, "unknown rule"},
		{"no matching file", semmod, []string{"internal/nowhere"}, 2, "matches no"},
		{"outside a module", outside, []string{"./..."}, 2, "no go.mod"},
		{"does not type-check", "../../internal/lint/testdata/brokenmod", []string{"./..."}, 2, "broken/internal/bad"},
	}
	for _, c := range cases {
		code, _, stderr := tmcclint(t, c.dir, c.args...)
		if code != c.code || !strings.Contains(stderr, c.msg) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d mentioning %q", c.name, code, stderr, c.code, c.msg)
		}
	}
}
