package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive comments recognized in source. Each must be the start of its
// own //-comment line (no space after //, like go:build).
const (
	// DirectiveHotpath marks a function as a steady-state hot path whose
	// body hotalloc keeps allocation-free.
	DirectiveHotpath = "ecsort:hotpath"
	// DirectiveOwnedByShard marks a struct field as owned by its shard's
	// single-writer goroutine; shardown rejects access from anywhere
	// else.
	DirectiveOwnedByShard = "ecsort:owned-by-shard"
	// DirectiveShardGoroutine marks a function as running on the owning
	// shard goroutine (the writer loop and its helpers).
	DirectiveShardGoroutine = "ecsort:shard-goroutine"
	// DirectiveShardDispatch marks a function whose function-literal
	// arguments execute on the owning shard goroutine (Service.do).
	DirectiveShardDispatch = "ecsort:shard-dispatch"
	// DirectiveIgnore suppresses one analyzer's findings on its line and
	// the next: //ecsort:ignore <analyzer> <reason>. The reason is
	// mandatory.
	DirectiveIgnore = "ecsort:ignore"
)

// Finding is one analyzer report: a position, the analyzer that fired,
// and a human-readable message.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the file:line:col tool convention.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one project-invariant check, run once per package.
type Analyzer struct {
	// Name identifies the analyzer in findings and ignore directives.
	Name string
	// Doc is a one-line description for the CLI listing.
	Doc string
	// Run inspects pass.Pkg and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// All is the full analyzer suite, in reporting order.
var All = []*Analyzer{
	OracleRound,
	HotAlloc,
	ShardOwn,
	CtxFlow,
	APIDoc,
	RegistryComplete,
	DeadExport,
}

// ByName returns the analyzers matching the comma-separated list, or All
// for "".
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range All {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Pass is one (analyzer, package) run.
type Pass struct {
	Module   *Module
	Pkg      *Package
	analyzer *Analyzer
	vet      *vetState
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.vet.report(p.analyzer.Name, p.Module.Fset.Position(pos), fmt.Sprintf(format, args...))
}

// HotpathFuncs returns the functions of the package annotated
// //ecsort:hotpath, keyed by declaration.
func (p *Pass) HotpathFuncs() map[*ast.FuncDecl]bool { return p.vet.facts(p.Pkg).hotpath }

// ignoreKey locates one suppressed (line, analyzer) pair.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// fileFacts is the per-package directive index shared by all analyzers.
type fileFacts struct {
	hotpath   map[*ast.FuncDecl]bool
	shardGo   map[*ast.FuncDecl]bool
	dispatch  map[types.Object]bool // Defs object of //ecsort:shard-dispatch funcs
	ownedVars map[*types.Var]bool   // fields marked //ecsort:owned-by-shard
}

// vetState accumulates findings and caches per-package facts for one Vet
// run.
type vetState struct {
	module   *Module
	findings []Finding
	ignores  map[ignoreKey]bool
	factsBy  map[*Package]*fileFacts
	refs     map[types.Object]bool // module-wide uses; see references
}

func (v *vetState) report(analyzer string, pos token.Position, msg string) {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if v.ignores[ignoreKey{file: pos.Filename, line: line, analyzer: analyzer}] {
			return
		}
	}
	v.findings = append(v.findings, Finding{Analyzer: analyzer, Pos: pos, Message: msg})
}

// directive extracts the ecsort directive in a comment line, if any:
// "//ecsort:hotpath" → "ecsort:hotpath", rest of line. Directives must
// start the comment with no space, mirroring go:build.
func directive(c *ast.Comment) (name, rest string, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, "//ecsort:") {
		return "", "", false
	}
	text = strings.TrimPrefix(text, "//")
	name, rest, _ = strings.Cut(text, " ")
	return name, strings.TrimSpace(rest), true
}

// groupHas reports whether a comment group carries the given directive.
func groupHas(g *ast.CommentGroup, want string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if name, _, ok := directive(c); ok && name == want {
			return true
		}
	}
	return false
}

// facts indexes pkg's directives on first use: annotated functions and
// fields, plus ignore lines (registered globally so suppression applies
// to every analyzer's findings in this package).
func (v *vetState) facts(pkg *Package) *fileFacts {
	if f, ok := v.factsBy[pkg]; ok {
		return f
	}
	f := &fileFacts{
		hotpath:   make(map[*ast.FuncDecl]bool),
		shardGo:   make(map[*ast.FuncDecl]bool),
		dispatch:  make(map[types.Object]bool),
		ownedVars: make(map[*types.Var]bool),
	}
	fset := v.module.Fset
	for _, file := range pkg.Files {
		// Ignore directives may sit on any comment line, including
		// trailing comments, so scan every group.
		for _, g := range file.Comments {
			for _, c := range g.List {
				name, rest, ok := directive(c)
				if !ok || name != DirectiveIgnore {
					continue
				}
				pos := fset.Position(c.Pos())
				analyzer, reason, _ := strings.Cut(rest, " ")
				if analyzer == "" || strings.TrimSpace(reason) == "" {
					v.report("ignore", pos, "malformed //ecsort:ignore: want \"//ecsort:ignore <analyzer> <reason>\"")
					continue
				}
				v.ignores[ignoreKey{file: pos.Filename, line: pos.Line, analyzer: analyzer}] = true
			}
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if groupHas(d.Doc, DirectiveHotpath) {
					f.hotpath[d] = true
				}
				if groupHas(d.Doc, DirectiveShardGoroutine) {
					f.shardGo[d] = true
				}
				if groupHas(d.Doc, DirectiveShardDispatch) {
					if obj := pkg.Info.Defs[d.Name]; obj != nil {
						f.dispatch[obj] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if !groupHas(field.Doc, DirectiveOwnedByShard) && !groupHas(field.Comment, DirectiveOwnedByShard) {
							continue
						}
						for _, name := range field.Names {
							if obj, ok := pkg.Info.Defs[name].(*types.Var); ok {
								f.ownedVars[obj] = true
							}
						}
					}
				}
			}
		}
	}
	v.factsBy[pkg] = f
	return f
}

// Vet loads the module rooted at dir and runs the given analyzers (all
// of them when none are named) over every package, returning the
// surviving findings sorted by position. A non-nil error means the
// module itself failed to load or type-check, not that findings exist.
func Vet(dir string, analyzers ...*Analyzer) ([]Finding, error) {
	m, err := LoadModule(dir)
	if err != nil {
		return nil, err
	}
	return VetModule(m, analyzers...)
}

// VetModule runs analyzers over an already loaded module (including any
// LoadExtra fixture packages).
func VetModule(m *Module, analyzers ...*Analyzer) ([]Finding, error) {
	if len(analyzers) == 0 {
		analyzers = All
	}
	v := &vetState{
		module:  m,
		ignores: make(map[ignoreKey]bool),
		factsBy: make(map[*Package]*fileFacts),
	}
	pkgs := m.Packages()
	// Index directives (and ignore lines) for every package before any
	// analyzer runs, so a suppression is honored no matter which package
	// the reporting analyzer was visiting.
	for _, pkg := range pkgs {
		v.facts(pkg)
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Module: m, Pkg: pkg, analyzer: a, vet: v}
			a.Run(pass)
		}
	}
	sort.Slice(v.findings, func(i, j int) bool {
		a, b := v.findings[i], v.findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return v.findings, nil
}

// funcScope walks every function body of a file, handing the visitor the
// enclosing declaration. Function literals are visited within their
// enclosing declaration's walk.
func funcScope(file *ast.File, visit func(decl *ast.FuncDecl)) {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			visit(fd)
		}
	}
}

// recvNamed resolves a method declaration's receiver to its named base
// type, or nil for plain functions.
func recvNamed(pkg *Package, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := pkg.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	return namedBase(tv.Type)
}

// namedBase unwraps pointers (and generic instances) down to the named
// type, or nil.
func namedBase(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}
