// Package lint is ajdlint: a suite of static analyzers encoding this
// repository's load-bearing concurrency and resource invariants — the rules
// the compiler cannot see and that code review has already caught violations
// of at least once each (see internal/lint/README.md for the catalogue and
// the motivating PRs).
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) but is implemented on the standard
// library alone: the module is dependency-free by design and the build image
// has no module proxy, so x/tools cannot be vendored. Packages are loaded
// with `go list -deps -export -json` and type-checked from source against
// the compiler's export data (see load.go), which gives the analyzers full
// go/types information — the same foundation x/tools drivers build on.
//
// Diagnostics are suppressed with a mandatory-reason comment on the flagged
// line or the line directly above it:
//
//	//ajdlint:ignore <analyzer> <reason>
//
// A suppression without a reason, naming an unknown analyzer, or matching no
// diagnostic is itself a diagnostic (see suppress.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check, the unit cmd/ajdlint runs and the
// suppression syntax names.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ajdlint:ignore comments. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description printed by `ajdlint -list`.
	Doc string
	// Run reports the analyzer's findings for one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed findings matched an //ajdlint:ignore comment; Run filters
	// them out of its result (kept on the type so tests can assert on the
	// mechanism).
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		SnapshotMut,
		GenKey,
		QuotaBalance,
		LockIO,
		AtomicPub,
	}
}

// Run executes the analyzers over the packages, applies //ajdlint:ignore
// suppressions, and returns the surviving diagnostics sorted by position.
// Malformed and unused suppressions are returned as diagnostics of the
// pseudo-analyzer "ajdlint" (they cannot themselves be suppressed).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				report:    func(d Diagnostic) { pkgDiags = append(pkgDiags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		diags = append(diags, applySuppressions(pkg, pkgDiags, ran)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// inspect walks every file of the pass in source order.
func inspect(files []*ast.File, fn func(ast.Node) bool) {
	for _, f := range files {
		ast.Inspect(f, fn)
	}
}

// pathHasSuffix reports whether a package path ends with the given suffix at
// a path-segment boundary ("internal/engine" matches "ajdloss/internal/engine"
// but not "x/reinternal/engine").
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}

// namedOf unwraps pointers and aliases down to the named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamed reports whether t (possibly behind pointers) is the named type
// pkgSuffix.name, where pkgSuffix is matched per pathHasSuffix. An empty
// pkgSuffix matches any package.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Name() != name {
		return false
	}
	if pkgSuffix == "" {
		return true
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pathHasSuffix(pkg.Path(), pkgSuffix)
}

// calleeOf resolves a call expression to the function or method object it
// invokes, or nil (calls through function values, built-ins, conversions).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvTypeOf returns the receiver type of a method call's callee (nil for
// package-level functions).
func recvTypeOf(f *types.Func) types.Type {
	if f == nil {
		return nil
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}
