// Package deadexportmod is a standalone mini-module for the deadexport
// analyzer's scope: packages outside internal/ are never reported, and
// a generic func stays alive through another package's instantiation.
package deadexportmod

import "deadexportmod/internal/lib"

// Unused is exported and referenced by nothing, but it lies outside
// internal/, so it is public API rather than dead code.
func Unused() int {
	return lib.Map([]int{1, 2}, func(x int) int { return x + lib.Tally.N() })[0]
}
