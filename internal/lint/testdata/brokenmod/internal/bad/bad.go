// Package bad fails to type-check (undefined identifier), so loading the
// module fails with an error that names this package.
package bad

// Roll references an undefined identifier; the parse still succeeds.
func Roll() int {
	return undefinedLimit
}
