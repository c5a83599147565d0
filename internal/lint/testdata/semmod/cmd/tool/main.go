// Command tool sits outside internal/: only the module-wide rules apply,
// so the bare page size below is its one finding.
package main

func main() {
	println(2 * 4096) // fires: magic-literal applies everywhere
}
