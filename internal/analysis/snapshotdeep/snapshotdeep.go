// Package snapshotdeep guards the checkpoint/rollback deep-copy
// contract: a type implementing engine.Snapshotter (or a
// checkpoint/rollback pair, like the engine Core's) must copy every map/slice/pointer it saves,
// because the live state keeps mutating between the snapshot and a
// rollback. A shallow alias — `m.ck = m.mem` instead of
// `m.ck = append(m.ck[:0], m.mem...)` — produces a checkpoint that
// tracks the corruption it exists to undo, and no test notices until a
// fault lands on exactly the aliased cell.
//
// Detection is interprocedural: every function's shallow alias writes
// (a persistent field assigned an existing map/slice/pointer value
// rather than a fresh copy) are summarized as facts; findings are
// reported only on the snapshot paths — functions reachable in the call
// graph from a Snapshot/Restore or checkpoint/rollback method (either
// case) — including
// cross-package callees via the facts files. Snapshotter is matched
// structurally (a Snapshot()/Restore() niladic method pair), so the
// check needs no import of the engine package and fixture tests
// type-check against GOROOT alone.
//
// Known soundness gaps (see DESIGN.md §5): a struct value copied
// wholesale (`d.s = s.s` where s.s is a struct containing slices)
// aliases its reference fields without a reported write, and calls
// through function values are not traversed.
package snapshotdeep

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/interproc"
)

// Analyzer flags shallow map/slice/pointer aliasing on snapshot paths.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotdeep",
	Doc:  "flag shallow map/slice/pointer aliasing on Snapshot/Restore/Checkpoint/Rollback paths",
	Run:  run,
}

// rootNames are the method names that start a snapshot path: the
// structural Snapshotter pair plus checkpoint machinery, exported or not
// (the engine Core's pair is unexported).
var rootNames = map[string]bool{
	"Snapshot": true, "Restore": true, "Checkpoint": true, "Rollback": true,
	"checkpoint": true, "rollback": true,
}

// aliasWrite is one shallow-copy assignment.
type aliasWrite struct {
	pos  ast.Node
	desc string
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	g := interproc.Build(pass)

	writes := make(map[string][]aliasWrite)
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		if w := collectAliasWrites(pass, info); len(w) > 0 {
			writes[sym] = w
			first := w[0]
			p := pass.Fset.Position(first.pos.Pos())
			pass.ExportFact(sym, fmt.Sprintf("%s:%d: %s", filepath.Base(p.Filename), p.Line, first.desc))
		}
	}

	reach := g.ReachableFrom(snapshotRoots(g)...)
	for _, sym := range g.Order {
		if !reach[sym] {
			continue
		}
		info := g.Funcs[sym]
		for _, w := range writes[sym] {
			if pass.Allowlisted(info.File, w.pos.Pos()) {
				continue
			}
			pass.Reportf(w.pos.Pos(),
				"snapshot path %s: %s; deep-copy with append/copy/clone or annotate //lint:snapshotdeep-ok <reason>",
				sym, w.desc)
		}
		// Cross-package callees that alias state, via the facts files.
		for _, c := range info.Calls {
			if c.PkgPath == g.PkgPath || c.PkgPath == "" || c.Iface {
				continue
			}
			payload, ok := pass.DepFact(c.PkgPath, c.Sym)
			if !ok || pass.Allowlisted(info.File, c.Pos.Pos()) {
				continue
			}
			pass.Reportf(c.Pos.Pos(),
				"snapshot path %s calls %s.%s which aliases state without a deep copy (%s); copy before saving or annotate //lint:snapshotdeep-ok <reason>",
				sym, c.PkgPath, c.Sym, payload)
		}
	}
	return nil
}

// snapshotRoots returns the symbols of this package's snapshot-path
// entry methods: checkpoint/rollback (either case) anywhere, and
// Snapshot/Restore on types that declare both (the structural
// Snapshotter shape).
func snapshotRoots(g *interproc.Graph) []string {
	pairs := make(map[string]int)
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		name := info.Decl.Name.Name
		if info.Decl.Recv == nil || !rootNames[name] {
			continue
		}
		if name == "Snapshot" || name == "Restore" {
			if ft := info.Decl.Type; ft.Params.NumFields() != 0 ||
				ft.Results.NumFields() != 0 {
				continue
			}
			recv := sym[:len(sym)-len(name)-1]
			pairs[recv]++
		}
	}
	var roots []string
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		name := info.Decl.Name.Name
		if info.Decl.Recv == nil || !rootNames[name] {
			continue
		}
		if name != "Snapshot" && name != "Restore" {
			roots = append(roots, sym)
			continue
		}
		recv := sym[:len(sym)-len(name)-1]
		if pairs[recv] == 2 {
			roots = append(roots, sym)
		}
	}
	return roots
}

// collectAliasWrites finds assignments that store an existing
// map/slice/pointer value into persistent state (a field, possibly
// through indexing/dereference) without copying it.
func collectAliasWrites(pass *analysis.Pass, info *interproc.FuncInfo) []aliasWrite {
	var out []aliasWrite
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if !persistentTarget(pass, lhs) {
				continue
			}
			rhs := as.Rhs[i]
			kind, aliases := aliasingRHS(pass, rhs)
			if !aliases || selfReslice(lhs, rhs) {
				continue
			}
			out = append(out, aliasWrite{
				pos: as,
				desc: fmt.Sprintf("%s = %s stores a shallow %s alias",
					types.ExprString(lhs), types.ExprString(rhs), kind),
			})
		}
		return true
	})
	return out
}

// persistentTarget reports whether lhs writes through a struct field
// (m.ck, m.ck[i], *m.ptr): state that outlives the function. Plain
// locals are scratch and may alias freely.
func persistentTarget(pass *analysis.Pass, lhs ast.Expr) bool {
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.SelectorExpr:
			sel := pass.TypesInfo.Selections[x]
			return sel != nil && sel.Kind() == types.FieldVal
		default:
			return false
		}
	}
}

// selfReslice reports whether the assignment shrinks or re-slices the
// target's own storage (r.Phases = r.Phases[:n], m.ck = m.ck[:0]): the
// idiomatic truncate-in-place, which aliases nothing new.
func selfReslice(lhs, rhs ast.Expr) bool {
	sl, ok := ast.Unparen(rhs).(*ast.SliceExpr)
	if !ok {
		return false
	}
	return types.ExprString(ast.Unparen(sl.X)) == types.ExprString(ast.Unparen(lhs))
}

// aliasingRHS reports whether rhs evaluates to a view of existing
// storage — a variable, field, element, subslice or address of an
// existing object — of map/slice/pointer type. Fresh values (append,
// copy targets, make, composite literals, clones, nil) do not alias.
func aliasingRHS(pass *analysis.Pass, rhs ast.Expr) (kind string, aliases bool) {
	e := ast.Unparen(rhs)
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() {
		return "", false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		kind = "slice"
	case *types.Map:
		kind = "map"
	case *types.Pointer:
		kind = "pointer"
	default:
		return "", false
	}
	switch x := e.(type) {
	case *ast.Ident:
		return kind, x.Name != "nil"
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr:
		return kind, true
	case *ast.UnaryExpr:
		if x.Op != token.AND {
			return "", false
		}
		_, fresh := ast.Unparen(x.X).(*ast.CompositeLit)
		return kind, !fresh
	}
	return "", false
}
