package lint

import (
	"path/filepath"
	"regexp"
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
