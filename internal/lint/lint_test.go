package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe extracts the backquoted regexes of a `// want `re` `re“ comment,
// the same convention x/tools analysistest uses.
var wantRe = regexp.MustCompile("`([^`]+)`")

type wantDiag struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// loadFixture loads the given fixture packages from testdata/src, with
// stdlib imports resolved against the real module's dependency closure.
func loadFixture(t *testing.T, paths ...string) []*Package {
	t.Helper()
	moduleRoot, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadTree(filepath.Join("testdata", "src"), moduleRoot, paths)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// checkFixture runs the analyzers over the fixture packages and compares the
// diagnostics against the fixtures' `// want `regex“ comments: every
// diagnostic must be wanted on its exact line, every want must be hit.
func checkFixture(t *testing.T, analyzers []*Analyzer, paths ...string) {
	t.Helper()
	pkgs := loadFixture(t, paths...)
	diags, err := Run(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	var wants []*wantDiag
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						wants = append(wants, &wantDiag{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

func TestSnapshotMut(t *testing.T) {
	checkFixture(t, []*Analyzer{SnapshotMut}, "ajdloss/internal/engine", "snapshotmut/a")
}

func TestGenKey(t *testing.T) {
	checkFixture(t, []*Analyzer{GenKey}, "genkey/a")
}

func TestQuotaBalance(t *testing.T) {
	checkFixture(t, []*Analyzer{QuotaBalance}, "quotabalance/a")
}

func TestLockIO(t *testing.T) {
	checkFixture(t, []*Analyzer{LockIO}, "lockio/a")
}

func TestAtomicPub(t *testing.T) {
	checkFixture(t, []*Analyzer{AtomicPub}, "atomicpub/a")
}

// TestRealModuleClean is the same gate CI runs: the production tree must be
// free of unsuppressed diagnostics.
func TestRealModuleClean(t *testing.T) {
	moduleRoot, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadPackages(moduleRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unsuppressed diagnostic in production tree: %s", d)
	}
}

// treeImporter resolves imports for fixture trees (testdata/src): an import
// path whose directory exists under the tree root is type-checked from
// source (recursively, cached), shadowing any real package of the same path;
// anything else falls through to export data from the enclosing module's
// dependency closure. This mirrors analysistest's GOPATH-shaped testdata
// convention, so fixtures can impersonate real packages like
// ajdloss/internal/engine with a few lines of stub.
type treeImporter struct {
	root     string
	fset     *token.FileSet
	fallback types.Importer
	cache    map[string]*Package
	loading  map[string]bool
}

func (imp *treeImporter) Import(path string) (*types.Package, error) {
	pkg, err := imp.load(path)
	if err != nil {
		return nil, err
	}
	if pkg != nil {
		return pkg.Types, nil
	}
	return imp.fallback.Import(path)
}

// load returns the source-loaded package for path, nil if path is not in the
// tree.
func (imp *treeImporter) load(path string) (*Package, error) {
	if pkg, ok := imp.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(imp.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil // not in the tree: caller falls back to export data
	}
	if imp.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q in fixture tree", path)
	}
	imp.loading[path] = true
	defer delete(imp.loading, path)
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	if len(goFiles) == 0 {
		return nil, fmt.Errorf("lint: fixture package %q has no Go files", path)
	}
	sort.Strings(goFiles)
	pkg, err := typeCheckDir(imp.fset, imp, path, dir, goFiles)
	if err != nil {
		return nil, err
	}
	imp.cache[path] = pkg
	return pkg, nil
}

// LoadTree loads fixture packages by import path from a GOPATH-shaped source
// tree rooted at srcDir (testdata/src). moduleDir supplies export data for
// standard-library imports; fixtures may import anything in the enclosing
// module's dependency closure.
func LoadTree(srcDir, moduleDir string, paths []string) ([]*Package, error) {
	listed, err := goList(moduleDir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	imp := &treeImporter{
		root:     srcDir,
		fset:     fset,
		fallback: newExportImporter(fset, exports),
		cache:    make(map[string]*Package),
		loading:  make(map[string]bool),
	}
	out := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := imp.load(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: fixture package %q not found under %s", path, srcDir)
		}
		out = append(out, pkg)
	}
	return out, nil
}

// ModuleRoot walks up from dir to the nearest directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
