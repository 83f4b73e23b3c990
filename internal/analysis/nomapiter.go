package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewNoMapIter returns the nomapiter analyzer: Go map iteration order is
// deliberately randomized, so a slice populated while ranging over a map
// carries a nondeterministic order. If such a slice reaches a message
// payload, an output label, or any value returned from a Machine method, the
// sequential and concurrent engines stop agreeing and seeded runs stop being
// reproducible — the classic violation behind engine-equivalence breaks.
//
// The check is shape-based: a `range` over a map whose body appends to a
// slice is flagged unless the same function also passes that slice to a
// sort.* or slices.Sort* call (the sanctioned idiom: collect, sort, then
// send). Aggregations that only read the map (max, count, sum, membership)
// are not flagged.
func NewNoMapIter() *Analyzer {
	a := &Analyzer{
		Name: "nomapiter",
		Doc: "flag map-range loops that build slices without a subsequent sort; " +
			"map iteration order must never leak into messages or outputs",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFuncMapIter(pass, fd)
			}
		}
		return nil
	}
	return a
}

// checkFuncMapIter analyzes one top-level function: the sort sanitization
// scope is the whole declaration, so a closure may collect and the enclosing
// function may sort (or vice versa) without a false positive.
func checkFuncMapIter(pass *Pass, fd *ast.FuncDecl) {
	for _, f := range unsortedMapAppendFindings(pass.TypesInfo, fd.Body) {
		pass.Reportf(f.pos, "range over map appends to %q in nondeterministic "+
			"order; sort the slice (sort.Slice / sort.Ints) before it can reach "+
			"a message, output label, or returned value", f.target)
	}
}

// mapIterFinding is one unsorted map-range append: the range position and
// the slice it fills.
type mapIterFinding struct {
	pos    token.Pos
	target string
}

// unsortedMapAppendFindings is the shared shape heuristic behind both the
// intraprocedural nomapiter analyzer and the taint engine's mapiter
// sources: map-range loops in body that append to a slice the body never
// sorts.
func unsortedMapAppendFindings(info *types.Info, body *ast.BlockStmt) []mapIterFinding {
	var out []mapIterFinding
	sorted := sortedObjects(info, body)
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, target := range appendTargets(info, rs.Body) {
			if sorted[target] {
				continue
			}
			out = append(out, mapIterFinding{pos: rs.Pos(), target: target.Name()})
		}
		return true
	})
	return out
}

// unsortedMapAppends returns just the range positions of
// unsortedMapAppendFindings, for the call-graph source collector.
func unsortedMapAppends(info *types.Info, body *ast.BlockStmt) []token.Pos {
	var out []token.Pos
	for _, f := range unsortedMapAppendFindings(info, body) {
		out = append(out, f.pos)
	}
	return out
}

// appendTargets returns the objects of identifiers assigned from append(...)
// calls inside body (s = append(s, ...) and s := append(s, ...)).
func appendTargets(info *types.Info, body *ast.BlockStmt) []types.Object {
	var targets []types.Object
	seen := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(info, call) {
				continue
			}
			if i >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.ObjectOf(id)
			if obj != nil && !seen[obj] {
				seen[obj] = true
				targets = append(targets, obj)
			}
		}
		return true
	})
	return targets
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedObjects collects every object that appears inside an argument of a
// call into package sort or slices anywhere in body — the "this slice gets
// sorted" evidence that discharges a map-range append.
func sortedObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil {
						out[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}
