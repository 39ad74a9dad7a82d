package lint

import (
	"go/ast"
	"go/types"
)

// SnapshotMut flags writes to engine.Snapshot fields outside the
// constructor/Extend path.
//
// Invariant (PR 4): a Snapshot is published through an atomic pointer and is
// the unit of consistency for every measure — any number of readers hold it
// with no locks, so after publication it must be deeply frozen. The only
// code allowed to assign Snapshot fields is the construction path:
// newSnapshot and its exported wrappers (which own the not-yet-published
// value) and Extend (which only writes fields of the child it is building).
// Map fills through the memo/entropy fields (s.memo[k] = v) are the designed
// lazy cache and are not field writes; this analyzer leaves them alone.
var SnapshotMut = &Analyzer{
	Name: "snapshotmut",
	Doc: "flags assignments to engine.Snapshot fields outside the constructor/Extend path; " +
		"published snapshots are read lock-free by any number of goroutines and must stay frozen",
	Run: runSnapshotMut,
}

// snapshotMutAllowed are the engine functions that legitimately write
// Snapshot fields: they operate on a snapshot that is not yet visible to any
// reader.
var snapshotMutAllowed = map[string]bool{
	"newSnapshot":         true,
	"NewSnapshotAt":       true,
	"NewWeightedSnapshot": true,
	"Extend":              true,
}

const enginePathSuffix = "internal/engine"

func runSnapshotMut(pass *Pass) error {
	inEngine := pathHasSuffix(pass.Pkg.Path(), enginePathSuffix)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				allowed := inEngine && snapshotMutAllowed[fn.Name.Name]
				checkSnapshotWrites(pass, fn.Body, allowed)
			}
		}
	}
	return nil
}

func checkSnapshotWrites(pass *Pass, body ast.Node, allowed bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				reportSnapshotFieldWrite(pass, lhs, allowed)
			}
		case *ast.IncDecStmt:
			reportSnapshotFieldWrite(pass, st.X, allowed)
		}
		return true
	})
}

// reportSnapshotFieldWrite flags lhs when it is a direct selection of a
// Snapshot field and the write is not on the allowed construction path.
func reportSnapshotFieldWrite(pass *Pass, lhs ast.Expr, allowed bool) {
	if allowed {
		return
	}
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	if !isNamed(pass.TypesInfo.TypeOf(sel.X), enginePathSuffix, "Snapshot") {
		return
	}
	pass.Reportf(lhs.Pos(), "write to engine.Snapshot field %s outside the constructor/Extend path: "+
		"snapshots are published via atomic pointer and must be frozen after construction", sel.Sel.Name)
}
