// Package framestate checks the wire-protocol discipline of the proc
// backend's length-prefixed frame codec: the coordinator and its workers
// agree on frame layouts only by convention, and the stale-response
// filter (the (phase, attempt) guard in Coordinator.await) is the one
// line standing between a duplicated frame fault and a merge computed
// from another attempt's statistics. Both conventions are invisible to
// the type system — every payload is a []byte — so this analyzer proves
// them by value-flow from codec to merge.
//
// Three checks, all structural over the `dec`/`enc` codec types (matched
// by type name, so fixtures need not import the proc package):
//
//   - header offsets: a `dec{b: p, off: N}` literal may start at offset
//     0 (whole payload), 1 (past the type byte) or 9 (past type, phase,
//     attempt). Any other offset is a magic number that silently skips
//     or re-reads header fields.
//   - filter discipline: a decode starting at offset 9 trusts that
//     phase and attempt were already checked, so its buffer must come
//     from a call to a filtering function — one that reads the two u32
//     header fields of an offset-1 decode inside at least two distinct
//     ==/!= guards (Coordinator.await's shape), locally or via a
//     "filters" fact. A decode starting at offset 1 that goes on to
//     read deep payload fields (i64 or a column) must read the two
//     header u32s first — the worker's echo discipline.
//   - layout agreement: every `e.reset(fX)` starts an encode signature
//     (u8 → 'b', u32/i32/mark → 'w', i64 → 'q') collected over the
//     straight-line statements that follow; every decode site whose
//     frame constant is known — from the dispatch `switch payload[0]`,
//     from a `p[0] == fX` comparison, or from the constant passed to
//     the call that produced the buffer — yields a decode signature the
//     same way (offset 9 contributes the implied "ww" header). Encode
//     and decode signatures for one frame constant must agree on their
//     common prefix; so must two independent encoders of the same
//     constant.
//
// Signatures stop at the first compound statement (loops carry the
// variable-length column regions) and at enc.finish — prefix agreement
// is exactly the "header layout" contract the ISSUE names, and it is
// what a torn or reordered field corrupts first.
//
// Facts: "filters" on functions whose returned payloads passed the
// guard, "enc:<frame>" carrying encode signatures for importers.
//
// Suppression: //lint:framestate-ok <reason>.
package framestate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/interproc"
)

// Analyzer proves frame-codec layout and stale-filter discipline.
var Analyzer = &analysis.Analyzer{
	Name:      "framestate",
	Doc:       "flag frame decodes that bypass the (phase,attempt) stale filter or disagree with their encoder's layout",
	AppliesTo: appliesTo,
	Run:       run,
}

// appliesTo scopes the check to the wire-protocol seam and fixtures.
func appliesTo(pkgPath string) bool {
	return strings.Contains(pkgPath, "backend/proc") || strings.HasPrefix(pkgPath, "framestate")
}

// sig is one collected codec signature.
type sig struct {
	frame string // frame constant name (fMemReq, ...)
	ops   string // one char per field: b/w/q/c
	fn    string // enclosing function symbol
	file  *ast.File
	pos   token.Pos
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	g := interproc.Build(pass)
	c := &checker{
		pass:    pass,
		graph:   g,
		filters: make(map[string]bool),
		frameOf: make(map[string]string),
	}

	// Pre-pass A: which functions filter (phase, attempt) guards.
	for _, sym := range g.Order {
		if c.classifyFilter(g.Funcs[sym].Decl) {
			c.filters[sym] = true
		}
	}
	// Pre-pass B: frame constants dispatched to same-package handlers
	// (switch payload[0] { case fX: handler(payload) }).
	for _, sym := range g.Order {
		c.collectDispatch(g.Funcs[sym].Decl)
	}

	// Main pass: decode/encode sites, in declaration order.
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		c.file = info.File
		c.checkDecl(sym, info.Decl)
	}

	c.compareSignatures()

	// Facts: filter classification and encode layouts.
	for _, sym := range g.Order {
		if pass.InTestFile(g.Funcs[sym].Decl.Pos()) {
			continue
		}
		if c.filters[sym] {
			pass.ExportFact(sym, "filters")
		}
	}
	seen := make(map[string]bool)
	for _, s := range c.encSigs {
		if !seen[s.frame] && !pass.InTestFile(s.pos) {
			seen[s.frame] = true
			pass.ExportFact("enc:"+s.frame, s.ops)
		}
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	graph *interproc.Graph
	file  *ast.File
	// filters marks functions whose returned payload passed the
	// (phase, attempt) guard.
	filters map[string]bool
	// frameOf maps a handler function symbol to the frame constant its
	// payload parameter carries (from dispatch switches).
	frameOf map[string]string
	encSigs []sig
	decSigs []sig
}

// classifyFilter reports whether the declaration contains an offset-1
// decode whose u32 reads appear in at least two distinct ==/!= guards —
// the stale-response filter shape.
func (c *checker) classifyFilter(decl *ast.FuncDecl) bool {
	for _, d := range c.decLiterals(decl) {
		if d.off != 1 || d.obj == nil {
			continue
		}
		guards := 0
		ast.Inspect(decl, func(n ast.Node) bool {
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
				return true
			}
			if c.callsOn(cmp, d.obj, "u32") {
				guards++
			}
			return true
		})
		if guards >= 2 {
			return true
		}
	}
	return false
}

// collectDispatch links frame constants to same-package handler symbols
// via `switch buf[0] { case fX: ... handler(buf) ... }`.
func (c *checker) collectDispatch(decl *ast.FuncDecl) {
	ast.Inspect(decl, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		subject := indexZeroOperand(sw.Tag)
		if subject == nil {
			return true
		}
		subjObj := identObj(c.pass, subject)
		if subjObj == nil {
			return true
		}
		for _, cs := range sw.Body.List {
			clause := cs.(*ast.CaseClause)
			frame := ""
			for _, v := range clause.List {
				if name := c.frameConst(v); name != "" {
					frame = name
					break
				}
			}
			if frame == "" {
				continue
			}
			for _, st := range clause.Body {
				ast.Inspect(st, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					for _, arg := range call.Args {
						id, ok := ast.Unparen(arg).(*ast.Ident)
						if !ok || identObj(c.pass, id) != subjObj {
							continue
						}
						fn := interproc.CalleeFunc(c.pass, call)
						if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == c.pass.Pkg.Path() {
							sym := interproc.Symbol(fn)
							if _, dup := c.frameOf[sym]; !dup {
								c.frameOf[sym] = frame
							}
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// decSite is one dec composite literal with its context.
type decSite struct {
	lit *ast.CompositeLit
	b   ast.Expr // buffer expression
	off int
	obj types.Object // the variable the literal is bound to (d := dec{...})
}

// decLiterals finds every dec literal in the declaration, resolving the
// bound variable when the literal initializes a simple define.
func (c *checker) decLiterals(decl *ast.FuncDecl) []decSite {
	var sites []decSite
	ast.Inspect(decl, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !c.isCodecType(lit.Type, "dec") {
			return true
		}
		site := decSite{lit: lit, off: 0}
		for i, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				switch key.Name {
				case "b":
					site.b = kv.Value
				case "off":
					site.off, _ = intLit(kv.Value)
				}
				continue
			}
			// Positional: dec struct order is b, off, err.
			switch i {
			case 0:
				site.b = el
			case 1:
				site.off, _ = intLit(el)
			}
		}
		sites = append(sites, site)
		return true
	})
	// Bind each literal to its variable: d := dec{...} / var d = dec{...}.
	ast.Inspect(decl, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		rhs := ast.Unparen(as.Rhs[0])
		if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
			rhs = ast.Unparen(u.X)
		}
		for i := range sites {
			if sites[i].lit == rhs {
				sites[i].obj = identObj(c.pass, id)
			}
		}
		return true
	})
	return sites
}

// checkDecl runs the decode checks and signature collection over one
// declaration.
func (c *checker) checkDecl(sym string, decl *ast.FuncDecl) {
	// Buffer provenance: which frame constant and which producing call
	// each []byte variable carries.
	bufFrame := make(map[types.Object]string)
	bufFiltered := make(map[types.Object]bool)
	ast.Inspect(decl, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			frame := ""
			for _, arg := range call.Args {
				if name := c.frameConst(arg); name != "" {
					frame = name
					break
				}
			}
			filtered := false
			if fn := interproc.CalleeFunc(c.pass, call); fn != nil {
				fsym := interproc.Symbol(fn)
				if fn.Pkg() != nil && fn.Pkg().Path() == c.pass.Pkg.Path() {
					filtered = c.filters[fsym]
				} else if fn.Pkg() != nil {
					payload, ok := c.pass.DepFact(fn.Pkg().Path(), fsym)
					filtered = ok && payload == "filters"
				}
			}
			for _, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := identObj(c.pass, id)
				if obj == nil || !isByteSlice(obj.Type()) {
					continue
				}
				if frame != "" {
					bufFrame[obj] = frame
				}
				if filtered {
					bufFiltered[obj] = true
				}
			}
		case *ast.BinaryExpr:
			// p[0] == fX / p[0] != fX pins p's frame type.
			if x.Op != token.EQL && x.Op != token.NEQ {
				return true
			}
			var subject *ast.Ident
			var frame string
			for _, side := range []ast.Expr{x.X, x.Y} {
				if id := indexZeroOperand(side); id != nil {
					subject = id
				}
				if name := c.frameConst(side); name != "" {
					frame = name
				}
			}
			if subject != nil && frame != "" {
				if obj := identObj(c.pass, subject); obj != nil {
					if _, dup := bufFrame[obj]; !dup {
						bufFrame[obj] = frame
					}
				}
			}
		}
		return true
	})

	blocks := collectBlocks(decl)

	for _, site := range c.decLiterals(decl) {
		switch site.off {
		case 0, 1, 9:
		default:
			c.report(site.lit.Pos(),
				"magic header offset %d: known frame layouts start at 0 (whole payload), 1 (past type) or 9 (past type, phase, attempt)",
				site.off)
			continue
		}
		var bufObj types.Object
		if site.b != nil {
			if id, ok := ast.Unparen(site.b).(*ast.Ident); ok {
				bufObj = identObj(c.pass, id)
			}
		}
		ops := ""
		if site.obj != nil {
			ops = collectOps(c.pass, blocks, site.lit.Pos(), site.obj, decMethods)
		}
		frame := ""
		if bufObj != nil {
			frame = bufFrame[bufObj]
			if frame == "" && isParam(decl, bufObj) {
				frame = c.frameOf[sym]
			}
		}

		if site.off == 9 {
			if bufObj == nil || !bufFiltered[bufObj] {
				c.report(site.lit.Pos(),
					"decode at offset 9 trusts the (phase,attempt) header, but the payload did not come from a stale-response filter")
			}
			ops = "ww" + ops
		}
		if site.off == 1 && site.obj != nil && c.hasDeepRead(decl, site.obj) {
			if len(ops) < 2 || ops[0] != 'w' || ops[1] != 'w' {
				c.report(site.lit.Pos(),
					"decode reads deep payload fields without first consuming the phase and attempt header u32s")
			}
		}
		if frame != "" && ops != "" {
			c.decSigs = append(c.decSigs, sig{frame: frame, ops: ops, fn: sym, file: c.file, pos: site.lit.Pos()})
		}
	}

	// Encode signatures: every reset(fX) call.
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "reset" || len(call.Args) != 1 {
			return true
		}
		recv, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		recvObj := identObj(c.pass, recv)
		if recvObj == nil || !c.isCodecValue(recvObj.Type(), "enc") {
			return true
		}
		frame := c.frameConst(call.Args[0])
		if frame == "" {
			return true
		}
		ops := collectOps(c.pass, blocks, call.Pos(), recvObj, encMethods)
		c.encSigs = append(c.encSigs, sig{frame: frame, ops: ops, fn: sym, file: c.file, pos: call.Pos()})
		return true
	})
}

// hasDeepRead reports whether the declaration reads past the fixed
// header of the given dec variable (i64 or column).
func (c *checker) hasDeepRead(decl *ast.FuncDecl, obj types.Object) bool {
	deep := false
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "i64" && sel.Sel.Name != "col") {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && identObj(c.pass, id) == obj {
			deep = true
		}
		return !deep
	})
	return deep
}

// callsOn reports whether the subtree contains a method call named m on
// the given object (or a pointer to it).
func (c *checker) callsOn(n ast.Node, obj types.Object, m string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != m {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && identObj(c.pass, id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// compareSignatures checks encoder/encoder and encoder/decoder prefix
// agreement per frame constant, in collection (declaration) order.
func (c *checker) compareSignatures() {
	first := make(map[string]sig)
	for _, e := range c.encSigs {
		base, seen := first[e.frame]
		if !seen {
			first[e.frame] = e
			continue
		}
		if !prefixAgree(base.ops, e.ops) {
			c.reportAt(e.file, e.pos,
				"frame %s encoded with layout %q here but %q in %s: encoders disagree",
				e.frame, spellOps(e.ops), spellOps(base.ops), base.fn)
		}
	}
	for _, d := range c.decSigs {
		e, ok := first[d.frame]
		if !ok {
			continue // encoder in another package (or none): nothing to compare
		}
		if !prefixAgree(e.ops, d.ops) {
			c.reportAt(d.file, d.pos,
				"frame %s layout mismatch: decode reads %q but %s encodes %q",
				d.frame, spellOps(d.ops), e.fn, spellOps(e.ops))
		}
	}
}

// prefixAgree compares two signatures up to their common prefix,
// stopping at a variable-length column on either side.
func prefixAgree(a, b string) bool {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] == 'c' || b[i] == 'c' {
			return true
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// spellOps renders a signature for diagnostics.
func spellOps(ops string) string {
	names := map[byte]string{'b': "u8", 'w': "u32", 'q': "i64", 'c': "col"}
	parts := make([]string, len(ops))
	for i := 0; i < len(ops); i++ {
		parts[i] = names[ops[i]]
	}
	return strings.Join(parts, ",")
}

// decMethods/encMethods map codec accessor names to signature chars.
var decMethods = map[string]byte{"u8": 'b', "u32": 'w', "i32": 'w', "i64": 'q', "col": 'c'}
var encMethods = map[string]byte{"u8": 'b', "u32": 'w', "i32": 'w', "mark": 'w', "i64": 'q'}

// collectOps walks the straight-line statements following the statement
// containing pos (in the innermost block that holds it) and collects
// codec accessor calls on obj, stopping at the first compound statement
// and at enc.finish.
func collectOps(pass *analysis.Pass, blocks [][]ast.Stmt, pos token.Pos, obj types.Object, methods map[string]byte) string {
	// blocks is in preorder, so the innermost block holding pos is the
	// last one that does; an outer block would see only the enclosing
	// loop or closure statement and yield an empty, vacuous signature.
	for i := len(blocks) - 1; i >= 0; i-- {
		list := blocks[i]
		for i, st := range list {
			if pos < st.Pos() || pos > st.End() {
				continue
			}
			var ops []byte
			for _, next := range list[i+1:] {
				if isCompound(next) {
					return string(ops)
				}
				done := false
				ast.Inspect(next, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := ast.Unparen(sel.X).(*ast.Ident)
					if !ok || identObj(pass, id) != obj {
						return true
					}
					if sel.Sel.Name == "finish" {
						done = true
						return false
					}
					if op, ok := methods[sel.Sel.Name]; ok {
						ops = append(ops, op)
					}
					return true
				})
				if done {
					return string(ops)
				}
			}
			return string(ops)
		}
	}
	return ""
}

// collectBlocks gathers every statement list of the declaration
// (block statements; case/comm clause bodies stay opaque).
func collectBlocks(decl *ast.FuncDecl) [][]ast.Stmt {
	var blocks [][]ast.Stmt
	ast.Inspect(decl, func(n ast.Node) bool {
		if b, ok := n.(*ast.BlockStmt); ok {
			blocks = append(blocks, b.List)
		}
		return true
	})
	return blocks
}

// isCompound reports whether control flow forks inside the statement.
func isCompound(s ast.Stmt) bool {
	switch s.(type) {
	case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
		*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.BlockStmt,
		*ast.GoStmt, *ast.DeferStmt, *ast.LabeledStmt:
		return true
	}
	return false
}

// frameConst returns the name of a frame-type constant expression
// (an identifier like fMemReq bound to a constant), or "".
func (c *checker) frameConst(e ast.Expr) string {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := identObj(c.pass, id).(*types.Const); !ok {
		return ""
	}
	if len(id.Name) < 2 || id.Name[0] != 'f' || id.Name[1] < 'A' || id.Name[1] > 'Z' {
		return ""
	}
	return id.Name
}

// isCodecType matches a composite literal's type expression against a
// codec type name declared in this package.
func (c *checker) isCodecType(t ast.Expr, name string) bool {
	id, ok := ast.Unparen(t).(*ast.Ident)
	return ok && id.Name == name
}

// isCodecValue matches a variable's type against a codec named type
// (possibly behind a pointer).
func (c *checker) isCodecValue(t types.Type, name string) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name
}

// indexZeroOperand matches X[0] and returns X's identifier.
func indexZeroOperand(e ast.Expr) *ast.Ident {
	ix, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return nil
	}
	if v, ok := intLit(ix.Index); !ok || v != 0 {
		return nil
	}
	id, _ := ast.Unparen(ix.X).(*ast.Ident)
	return id
}

// isParam reports whether obj is one of the declaration's parameters.
func isParam(decl *ast.FuncDecl, obj types.Object) bool {
	if decl.Type.Params == nil {
		return false
	}
	return obj.Pos() >= decl.Type.Params.Pos() && obj.Pos() <= decl.Type.Params.End()
}

// isByteSlice matches []byte.
func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// intLit extracts a non-negative integer literal.
func intLit(e ast.Expr) (int, bool) {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || bl.Kind != token.INT {
		return 0, false
	}
	v := 0
	for i := 0; i < len(bl.Value); i++ {
		ch := bl.Value[i]
		if ch < '0' || ch > '9' {
			return 0, false
		}
		v = v*10 + int(ch-'0')
	}
	return v, true
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	c.reportAt(c.file, pos, format, args...)
}

func (c *checker) reportAt(file *ast.File, pos token.Pos, format string, args ...any) {
	if c.pass.Allowlisted(file, pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// identObj resolves an identifier through Uses or Defs.
func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}
