package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestScanSmoke runs the experiment end to end at a small scale and checks
// the report's shape and the paper's qualitative result (PTBs are almost
// always compressible).
func TestScanSmoke(t *testing.T) {
	var sb strings.Builder
	if err := scan(&sb, 1<<14, 42, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"L1 PTBs:", "identical status bits:", "hardware-compressible PTBs overall:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestScanDeterministic: same seed, same report.
func TestScanDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := scan(&a, 1<<12, 7, true); err != nil {
		t.Fatal(err)
	}
	if err := scan(&b, 1<<12, 7, true); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed, different reports:\n%s\n---\n%s", a.String(), b.String())
	}
}

// TestRejectsUnservablePages pins the -pages edges: a value the build
// cannot serve, whether checked up front or refused by the allocator,
// exits 2 with the reason and the usage on stderr and no report, and the
// smallest values it can serve still scan.
func TestRejectsUnservablePages(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		msg  string // in stderr
	}{
		{[]string{"-pages", "0"}, 2, "at least 1"},
		{[]string{"-pages", "1"}, 2, "OS page pool exhausted"},
		{[]string{"-pages", "1073741824"}, 2, "32-bit PPN limit"},
		{[]string{"-pages", "18446744073709551615"}, 2, "32-bit PPN limit"},
		{[]string{"-huge", "-pages", "1"}, 2, "smaller than one 2MB frame"},
		{[]string{"-huge", "-pages", "127"}, 2, "smaller than one 2MB frame"},
		{[]string{"-huge", "-pages", "128"}, 2, "OS page pool exhausted"},
		{[]string{"-huge", "-pages", "1000"}, 2, "runs past a pool of 4000 pages"},
		{[]string{"-pages", "x"}, 2, "invalid value"},
		{[]string{"-h"}, 0, "Usage of ptbscan"},
		{[]string{"-pages", "2"}, 0, ""},
		{[]string{"-huge", "-pages", "3500"}, 0, ""},
	} {
		var out, errb bytes.Buffer
		code := run(c.args, &out, &errb)
		if code != c.code || !strings.Contains(errb.String(), c.msg) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d mentioning %q", c.args, code, errb.String(), c.code, c.msg)
		}
		if code == 2 && (out.Len() != 0 || !strings.Contains(errb.String(), "Usage of ptbscan")) {
			t.Errorf("%v: stdout %q, stderr %q; want no report and the usage", c.args, out.String(), errb.String())
		}
		if code == 0 && c.msg == "" && !strings.Contains(out.String(), "hardware-compressible PTBs overall:") {
			t.Errorf("%v: report %q lacks its summary line", c.args, out.String())
		}
	}
}
