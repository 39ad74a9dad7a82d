package lint

import (
	"go/ast"
	"go/types"
)

// SnapshotMut flags writes to engine.Snapshot fields outside the
// constructor/Extend path, and writes into a grouping's count chunks outside
// refine and Extend's copy-on-write helper.
//
// Invariant (PR 4): a Snapshot is published through an atomic pointer and is
// the unit of consistency for every measure — any number of readers hold it
// with no locks, so after publication it must be deeply frozen. The only
// code allowed to assign Snapshot fields is the construction path:
// newSnapshot and its exported wrappers (which own the not-yet-published
// value) and Extend (which only writes fields of the child it is building).
// Map fills through the memo/entropy fields (s.memo[k] = v) are the designed
// lazy cache and are not field writes; this analyzer leaves them alone.
//
// Count chunks (engine.countChunk) are shared by pointer between a snapshot
// and the children Extend builds from it, so a write into one after
// publication changes the counts of every snapshot sharing it. Only refine
// (filling a grouping it has not published) and extendCounts (writing the
// chunks it allocated in the same call) may write one: an element
// assignment or increment, an assignment through a chunk pointer, or a copy
// into a slice of a chunk. Two []int slices alias chunk memory and are
// tracked too: the parameter of a function literal passed to Counts.Each,
// and the flat slice newCounts returns. Slices derived from those (a
// reslice bound to another variable, a visitor that is not a literal) are
// not followed.
var SnapshotMut = &Analyzer{
	Name: "snapshotmut",
	Doc: "flags assignments to engine.Snapshot fields outside the constructor/Extend path, and writes " +
		"into engine count chunks outside refine/extendCounts; published snapshots are read lock-free by " +
		"any number of goroutines and must stay frozen",
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

// chunkWriteAllowed are the engine functions that may write into a count
// chunk: refine fills the chunks of a grouping before publishing it, and
// extendCounts writes only the chunks it allocated in the same call.
var chunkWriteAllowed = map[string]bool{
	"refine":       true,
	"extendCounts": true,
}

const enginePathSuffix = "internal/engine"

func runSnapshotMut(pass *Pass) error {
	inEngine := pathHasSuffix(pass.Pkg.Path(), enginePathSuffix)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				name := fn.Name.Name
				w := &chunkWrites{pass: pass, aliases: chunkAliases(pass, fn.Body), allowed: inEngine && chunkWriteAllowed[name]}
				checkSnapshotWrites(pass, fn.Body, inEngine && snapshotMutAllowed[name], w)
			}
		}
	}
	return nil
}

func checkSnapshotWrites(pass *Pass, body ast.Node, fieldsAllowed bool, chunks *chunkWrites) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				reportSnapshotFieldWrite(pass, lhs, fieldsAllowed)
				chunks.report(lhs, false)
			}
		case *ast.IncDecStmt:
			reportSnapshotFieldWrite(pass, st.X, fieldsAllowed)
			chunks.report(st.X, false)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && len(st.Args) > 0 {
				if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin && id.Name == "copy" {
					chunks.report(st.Args[0], true)
				}
			}
		}
		return true
	})
}

// chunkWrites reports writes into engine count chunks in one function body.
// aliases holds the []int variables of the body that alias chunk memory.
type chunkWrites struct {
	pass    *Pass
	aliases map[types.Object]bool
	allowed bool
}

// chunkAliases returns the variables in body that alias count-chunk memory:
// the parameter of a function literal passed to engine.Counts.Each, and the
// flat slice bound from engine.newCounts' second result.
func chunkAliases(pass *Pass, body ast.Node) map[types.Object]bool {
	aliases := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			f := calleeOf(pass.TypesInfo, st)
			if f == nil || f.Name() != "Each" || len(st.Args) != 1 || !isNamed(recvTypeOf(f), enginePathSuffix, "Counts") {
				return true
			}
			if lit, ok := ast.Unparen(st.Args[0]).(*ast.FuncLit); ok {
				for _, field := range lit.Type.Params.List {
					for _, name := range field.Names {
						aliases[pass.TypesInfo.Defs[name]] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(st.Lhs) != 2 || len(st.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeOf(pass.TypesInfo, call)
			if f == nil || f.Name() != "newCounts" || f.Pkg() == nil || !pathHasSuffix(f.Pkg().Path(), enginePathSuffix) {
				return true
			}
			if flat, ok := st.Lhs[1].(*ast.Ident); ok {
				aliases[pass.TypesInfo.ObjectOf(flat)] = true
			}
		}
		return true
	})
	return aliases
}

// report flags dst when it writes into an engine count chunk — an element of
// one (chunk[i]), a whole chunk through a pointer (*chunk), a slice of one
// (chunk[:], as copy's destination), or an element or copy destination of a
// slice aliasing one (see chunkAliases) — outside refine and extendCounts.
// isCopy says dst is copy's destination, which writes through a bare slice
// variable too.
func (w *chunkWrites) report(dst ast.Expr, isCopy bool) {
	if w.allowed {
		return
	}
	var target ast.Expr
	switch e := ast.Unparen(dst).(type) {
	case *ast.IndexExpr:
		target = e.X
	case *ast.SliceExpr:
		target = e.X
	case *ast.StarExpr:
		target = e
	case *ast.Ident:
		if !isCopy {
			return
		}
		target = e
	default:
		return
	}
	id, _ := ast.Unparen(target).(*ast.Ident)
	aliased := id != nil && w.aliases[w.pass.TypesInfo.ObjectOf(id)]
	if !aliased && !isNamed(w.pass.TypesInfo.TypeOf(target), enginePathSuffix, "countChunk") {
		return
	}
	w.pass.Reportf(dst.Pos(), "write into an engine count chunk outside refine/extendCounts: "+
		"chunks are shared with published snapshots and must be copied before they are written")
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
