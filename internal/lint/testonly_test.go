package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed are exported package-level functions ("path.Name") and
// methods ("path.Type.Method") in internal/ that only test files call, kept
// because test files of several packages share them or because a gated
// benchmark times them. Each entry says why.
var testOnlyAllowed = map[string]string{
	"ajdloss/internal/jointree.MustJoinTree":        "builds literal join trees in the tests of jointree, join and core and in the root benchmarks",
	"ajdloss/internal/jointree.MustRoot":            "roots literal join trees in the tests of jointree and core",
	"ajdloss/internal/infotheory.MustCMI":           "the conditional-MI oracle of the infotheory and core tests and the root benchmarks",
	"ajdloss/internal/infotheory.EntropyFromCounts": "the entropy-from-counts oracle of the infotheory and engine tests and the root engine parity test",
	"ajdloss/internal/fd.Canonical":                 "compares FD sets order-insensitively in the fd tests and the root discovery quick-check",
	"ajdloss/internal/relation.RowKey":              "string-keys tuples in the test oracles of relation, infotheory, core and join and the root engine parity test",
	"ajdloss/internal/discovery.Memo.DiscoverFDs":   "the gated BenchmarkDiscoverIncremental{Cold,Warm,WarmDelta} benchmarks time it, so moving it would move a CI gate",
}

// testOnlyExports returns the exported package-level functions and methods
// declared in the internal/ packages of pkgs that no non-test file
// references, as "importpath.Name" and "importpath.Type.Method". A
// declaration's references inside its own body do not count. Methods of
// types the facade (the module's root package) aliases are its public API
// and are skipped; so is a method whose receiver implements an interface
// with a method of that name (interfaceMethod). Objects are matched by
// package path and name, so packages loaded from another module
// (perfbench) count as callers.
func testOnlyExports(pkgs []*Package) []string {
	aliased := facadeAliases(pkgs)
	ifaces := loadedInterfaces(pkgs)
	used := make(map[string]bool)
	var declared []string
	for _, pkg := range pkgs {
		internal := strings.Contains(pkg.ImportPath, "/internal/")
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				self := ""
				if fn, ok := decl.(*ast.FuncDecl); ok {
					if f, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
						self = funcKey(f)
						if internal && fn.Name.IsExported() && !aliased[recvKey(f)] && !interfaceMethod(f, ifaces) {
							declared = append(declared, self)
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					f, ok := pkg.Info.Uses[id].(*types.Func)
					if !ok || f.Pkg() == nil {
						return true
					}
					if key := funcKey(f); key != "" && key != self {
						used[key] = true
					}
					return true
				})
			}
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

// recvNamed returns the named type a method is declared on, or nil for a
// package-level function or an interface method.
func recvNamed(f *types.Func) *types.Named {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return nil
	}
	return named.Origin()
}

// recvKey returns "path.Type" for a method's receiver, or "".
func recvKey(f *types.Func) string {
	if named := recvNamed(f); named != nil {
		return named.Obj().Pkg().Path() + "." + named.Obj().Name()
	}
	return ""
}

// funcKey returns "path.Name" for a package-level function,
// "path.Type.Method" for a method of a named type, and "" for an interface
// method.
func funcKey(f *types.Func) string {
	if f.Type().(*types.Signature).Recv() == nil {
		return f.Pkg().Path() + "." + f.Name()
	}
	if key := recvKey(f); key != "" {
		return key + "." + f.Name()
	}
	return ""
}

// facadeAliases returns "path.Type" for every type the module's root
// package declares as an alias.
func facadeAliases(pkgs []*Package) map[string]bool {
	out := make(map[string]bool)
	for _, pkg := range pkgs {
		if strings.Contains(pkg.ImportPath, "/") {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gen.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Assign.IsValid() {
						continue
					}
					if named, ok := types.Unalias(pkg.Info.TypeOf(ts.Type)).(*types.Named); ok {
						out[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = true
					}
				}
			}
		}
	}
	return out
}

// loadedInterfaces returns the interfaces the loaded packages can be used
// through: error and the interface{ Is(error) bool } that errors.Is calls
// through, every named interface declared in a loaded package or in a
// package one imports (fmt.Stringer, http.Handler, sort.Interface, …), and
// every interface type an expression of a loaded package has.
func loadedInterfaces(pkgs []*Package) []*types.Interface {
	seen := make(map[*types.Interface]bool)
	var out []*types.Interface
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if ok && iface.NumMethods() > 0 && !seen[iface] {
			seen[iface] = true
			out = append(out, iface)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	param := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewParam(token.NoPos, nil, "", t)) }
	isSig := types.NewSignatureType(nil, nil, nil, param(errType), param(types.Typ[types.Bool]), false)
	add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Is", isSig)}, nil).Complete())
	for _, pkg := range pkgs {
		for _, p := range append(pkg.Types.Imports(), pkg.Types) {
			scope := p.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}

// interfaceMethod reports whether method f's receiver implements one of
// ifaces that has a method of f's name. Methods are matched by name and
// signature text, because each package is type-checked against the others'
// export data, so one type can appear as several *types.Named.
func interfaceMethod(f *types.Func, ifaces []*types.Interface) bool {
	recv := recvNamed(f)
	if recv == nil {
		return false
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	for _, iface := range ifaces {
		hasName, implements := false, true
		for i := 0; i < iface.NumMethods() && implements; i++ {
			want := iface.Method(i)
			hasName = hasName || want.Name() == f.Name()
			sel := mset.Lookup(want.Pkg(), want.Name())
			implements = sel != nil && sigText(sel.Obj().(*types.Func)) == sigText(want)
		}
		if hasName && implements {
			return true
		}
	}
	return false
}

// sigText writes a method's parameter and result types, without names or
// receiver, with packages qualified by path.
func sigText(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), func(p *types.Package) string { return p.Path() }))
			b.WriteByte(',')
		}
		b.WriteString("->")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// TestNoTestOnlyExports fails on an exported package-level function or
// method in internal/ that only tests call: it belongs in the test file that
// uses it, or nowhere. Callers are the non-test files of the module and of
// perfbench.
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
	for _, name := range testOnlyExports(append(pkgs, bench...)) {
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
