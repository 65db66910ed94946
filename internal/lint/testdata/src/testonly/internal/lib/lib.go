// Package lib holds one export for each case of the test-only-export
// pass.
package lib

// TestOnly is called by lib_test.go alone, and test files are not
// part of the program.
func TestOnly() int { return 1 } // want `test-only-export: lib\.TestOnly has no caller outside tests`

// Shared is called by another package of the program.
func Shared() int { return 2 }

// ForCmd is called by a command alone, which is still the program.
func ForCmd() int { return 3 }

// Kind is printed through fmt.Stringer.
type Kind int

// String is called through the interface: no reference names it.
func (k Kind) String() string { return "kind" }

// Stale gained a caller, so its directive suppresses nothing.
//
//lint:ignore test-only-export -- fixture: once only a test called this // want `stale-ignore: //lint:ignore test-only-export suppresses no finding`
func Stale() int { return 4 }
