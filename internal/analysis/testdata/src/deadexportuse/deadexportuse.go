// Package deadexportuse is the other-package caller that keeps
// deadexport.Shared alive.
package deadexportuse

import "ecsort/internal/analysis/testdata/src/deadexport"

func use() int { return deadexport.Shared() }
