package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeadExport keeps code alive only by its callers, not by its own tests.
// An exported package-level func or var declared in a non-test file of a
// package under the module's internal/ tree is dead when no loaded
// non-test file references it — its own package, any other package, or
// the perfbench harness. Tests are deliberately not loaded: a symbol
// that only its own tests call is a test fixture wearing production
// clothes. Symbols that are legitimately test- or bench-facing (golden
// reference implementations, guardrail entry points) stay with
// //ecsort:ignore deadexport <reason> on their declaration.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "exported internal funcs and vars that no non-test file references",
	Run:  runDeadExport,
}

func runDeadExport(pass *Pass) {
	if !strings.HasPrefix(pass.Pkg.Path, pass.Module.Path+"/internal/") {
		return
	}
	refs := pass.vet.references()
	report := func(id *ast.Ident, kind string) {
		if !id.IsExported() {
			return
		}
		if obj := pass.Pkg.Info.Defs[id]; obj != nil && !refs[obj] {
			pass.Reportf(id.Pos(),
				"exported %s %s is referenced by no non-test file in the module: delete it (or keep a test/bench-facing symbol with //ecsort:ignore deadexport <reason>)",
				kind, id.Name)
		}
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					report(d.Name, "func")
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						report(name, "var")
					}
				}
			}
		}
	}
}

// references returns every object any loaded package's non-test files
// use, built once per Vet run and shared by every package's pass.
func (v *vetState) references() map[types.Object]bool {
	if v.refs == nil {
		v.refs = make(map[types.Object]bool)
		for _, pkg := range v.module.Packages() {
			for _, obj := range pkg.Info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				v.refs[obj] = true
			}
		}
	}
	return v.refs
}
