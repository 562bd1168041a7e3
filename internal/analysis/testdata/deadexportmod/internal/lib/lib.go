// Package lib holds the in-scope declarations of the deadexport
// mini-module.
package lib

// Dead is referenced by nothing.
func Dead() int { return 0 } // want deadexport

// Map is only ever instantiated; the instantiation keeps its generic
// origin alive.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Counter's methods are out of scope, used or not.
type Counter struct{ n int }

// N is read by the root package.
func (c Counter) N() int { return c.n }

// Reset is an unreferenced method: not reported.
func (c *Counter) Reset() { c.n = 0 }

// Tally is read by the root package; Spare, declared beside it, is not.
var Tally, Spare Counter // want deadexport

// Exported consts and types are out of scope.
const Max = 9

// Unit is an unreferenced exported type: not reported.
type Unit int

// Unreasoned carries an ignore directive without a reason, which
// suppresses nothing.
//
//ecsort:ignore deadexport
func Unreasoned() int { return Max } // want deadexport
