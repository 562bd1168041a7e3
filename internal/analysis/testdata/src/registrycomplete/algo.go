// Package registrycomplete seeds violations for the registrycomplete
// analyzer: an Algorithm constructor wired into registry.go and one
// orphaned.
package registrycomplete

// Algorithm is the local regimen interface.
type Algorithm interface {
	Name() string
}

type alg struct{ name string }

func (a alg) Name() string { return a.name }

// Wired is referenced by the registry.
func Wired() Algorithm { return alg{name: "wired"} }

// Orphan never made it into the registry.
func Orphan() Algorithm { return alg{name: "orphan"} } // want registrycomplete deadexport

// helper is unexported, so the registry owes it nothing.
func helper() Algorithm { return alg{name: "helper"} }
