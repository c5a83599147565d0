//go:build !tmccdebug

package fault

// Audit is a no-op in release builds. If the loader took both twins, the
// duplicate declaration would fail the type-check.
func Audit(ok bool) {}
