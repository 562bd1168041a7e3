// Package deadexport seeds violations for the deadexport analyzer:
// exported symbols kept alive only by this package's own tests, next to
// symbols another package uses, symbols this package's own code uses,
// and a suppressed test-facing symbol.
package deadexport

// TestOnly is called only from deadexport_test.go.
func TestOnly() int { return 1 } // want deadexport

// Limit is read only from deadexport_test.go.
var Limit = 3 // want deadexport

// Shared is called from the deadexportuse fixture package.
func Shared() int { return 2 }

// Helper is called only from this package's own non-test code.
func Helper() int { return 3 }

func twice() int { return 2 * Helper() }

// Reference stays for tests that compare against it.
//
//ecsort:ignore deadexport fixture reference implementation pinned by tests
func Reference() int { return twice() }
