//go:build tmccdebug

package fault

// Audit is the debug-build half of a tag twin. The loader sets tmccdebug,
// so this file is linted and its release twin is not.
func Audit(ok bool) {
	if !ok {
		panic("audit failed") // fires: panic-prefix
	}
}
