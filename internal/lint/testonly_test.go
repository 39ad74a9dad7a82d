package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed are exported package-level functions in internal/ that
// only test files call, kept because test files of several packages share
// them. Each entry says why.
var testOnlyAllowed = map[string]string{
	"ajdloss/internal/jointree.MustJoinTree":        "builds literal join trees in the tests of jointree, join and core and in the root benchmarks",
	"ajdloss/internal/jointree.MustRoot":            "roots literal join trees in the tests of jointree and core",
	"ajdloss/internal/infotheory.MustCMI":           "the conditional-MI oracle of the infotheory and core tests and the root benchmarks",
	"ajdloss/internal/infotheory.EntropyFromCounts": "the entropy-from-counts oracle of the infotheory and engine tests and the root engine parity test",
	"ajdloss/internal/infotheory.NewEntropyVector":  "the entropy-vector oracle of the infotheory tests and the root benchmarks",
	"ajdloss/internal/fd.Canonical":                 "compares FD sets order-insensitively in the fd tests and the root discovery quick-check",
}

// testOnlyFuncs returns the exported package-level functions declared in the
// internal/ packages of pkgs that no non-test file references, as
// "importpath.Name". A function's references inside its own body do not
// count. Objects are matched by package path and name, so packages loaded
// from another module (perfbench) count as callers.
func testOnlyFuncs(pkgs []*Package) []string {
	used := make(map[string]bool)
	var declared []string
	for _, pkg := range pkgs {
		internal := strings.Contains(pkg.ImportPath, "/internal/")
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() || !internal {
					continue
				}
				declared = append(declared, pkg.ImportPath+"."+fn.Name.Name)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				f, ok := pkg.Info.Uses[id].(*types.Func)
				if !ok || f.Pkg() == nil || f.Type().(*types.Signature).Recv() != nil {
					return true
				}
				if enclosingFunc(file, id) == f.Name() && f.Pkg().Path() == pkg.ImportPath {
					return true // recursion
				}
				used[f.Pkg().Path()+"."+f.Name()] = true
				return true
			})
		}
	}
	var out []string
	for _, name := range declared {
		if !used[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// enclosingFunc returns the name of the package-level function whose body
// holds id, or "".
func enclosingFunc(file *ast.File, id *ast.Ident) string {
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Pos() <= id.Pos() && id.End() <= fn.End() {
			return fn.Name.Name
		}
	}
	return ""
}

// TestNoTestOnlyExports fails on an exported package-level function in
// internal/ that only tests call: it belongs in the test file that uses it,
// or nowhere. Callers are the non-test files of the module and of perfbench.
func TestNoTestOnlyExports(t *testing.T) {
	moduleRoot, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadPackages(moduleRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := LoadPackages(filepath.Join(moduleRoot, "perfbench"), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool)
	for _, name := range testOnlyFuncs(append(pkgs, bench...)) {
		found[name] = true
		if _, ok := testOnlyAllowed[name]; !ok {
			t.Errorf("%s is exported but only tests call it: move it into the test that uses it, or delete it", name)
		}
	}
	for name := range testOnlyAllowed {
		if !found[name] {
			t.Errorf("allow-list entry %s is gone or has a non-test caller: drop it from testOnlyAllowed", name)
		}
	}
}
