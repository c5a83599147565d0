//go:build tmccdebug

package sim

import (
	"strings"
	"testing"

	"tmcc/internal/mc"
)

// TestMemoAuditCatchesSharedTableWrite flips one word of the memoized
// dense translation and expects the next memo hit's audit to panic: a
// shared address space written by one run would silently skew every
// later run built from it.
func TestMemoAuditCatchesSharedTableWrite(t *testing.T) {
	opt := Options{Benchmark: "blackscholes", Kind: mc.TMCC, Seed: 5}
	resetASMemo()
	defer resetASMemo()
	if _, err := NewRunner(opt); err != nil {
		t.Fatal(err)
	}
	asMu.Lock()
	b := lastAS
	asMu.Unlock()
	b.as.PPNs[len(b.as.PPNs)/2] ^= 1
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "sim: memoized address space unchanged") {
			t.Fatalf("memo hit after a shared-table write recovered %q, want the audit's panic", msg)
		}
	}()
	if _, err := NewRunner(opt); err != nil {
		t.Fatal(err)
	}
}
