// Package testonly exercises the test-only-export pass. The fixture
// stands in for a module of its own: internal/lib is the in-scope
// package, and this package and cmd/tool are the rest of its program.
package testonly

import "repro/internal/lint/testdata/src/testonly/internal/lib"

// Use is another package's caller of lib.Shared and lib.Stale.
func Use() int { return lib.Shared() + lib.Stale() }
