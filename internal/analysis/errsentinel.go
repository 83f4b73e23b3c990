package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// errTextMatchers are the strings functions that, given error text, indicate
// string matching where errors.Is belongs.
var errTextMatchers = map[string]bool{
	"Contains":  true,
	"HasPrefix": true,
	"HasSuffix": true,
	"EqualFold": true,
	"Index":     true,
}

// NewErrSentinel returns the errsentinel analyzer. The simulator kernel
// reports structured failures wrapped around the sentinels sim.ErrNodePanic,
// sim.ErrOverSend and sim.ErrMaxRounds, and the contract is
// that callers classify them with errors.Is (plus errors.As for *NodeError
// detail). Two anti-patterns defeat the wrapping and are flagged:
//
//   - matching on error text: err.Error() compared against a string, or fed
//     to strings.Contains and friends;
//   - comparing two error values with == or != (a wrapped sentinel is never
//     == its sentinel).
//
// Test files are exempt: tests may assert on the text of ad-hoc errors that
// have no sentinel.
func NewErrSentinel() *Analyzer {
	a := &Analyzer{
		Name: "errsentinel",
		Doc: "flag error-text string matching and ==/!= error comparisons; classify " +
			"kernel failures with errors.Is against the sim sentinels",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					checkErrComparison(pass, n)
				case *ast.CallExpr:
					checkErrTextCall(pass, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// checkErrComparison flags `x == y`/`x != y` where the operands are error
// values (excluding nil checks) or where one side is an err.Error() call
// compared against text.
func checkErrComparison(pass *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	if isErrorCall(pass.TypesInfo, be.X) || isErrorCall(pass.TypesInfo, be.Y) {
		pass.Reportf(be.Pos(), "comparing err.Error() text; match the failure with "+
			"errors.Is against the sim sentinels (ErrNodePanic, ErrOverSend, "+
			"ErrMaxRounds) instead")
		return
	}
	if isNil(pass.TypesInfo, be.X) || isNil(pass.TypesInfo, be.Y) {
		return
	}
	if isErrorExpr(pass.TypesInfo, be.X) && isErrorExpr(pass.TypesInfo, be.Y) {
		pass.Reportf(be.Pos(), "comparing error values with %s breaks on wrapped "+
			"errors; use errors.Is (the kernel always wraps its sentinels with "+
			"run context)", be.Op)
	}
}

// checkErrTextCall flags strings.Contains-style calls whose arguments
// contain an err.Error() call.
func checkErrTextCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" || !errTextMatchers[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok && isErrorCallExpr(pass.TypesInfo, inner) {
				found = true
				return false
			}
			return true
		})
		if found {
			pass.Reportf(call.Pos(), "matching on error text with strings.%s; classify "+
				"kernel failures with errors.Is against the sim sentinels instead", fn.Name())
			return
		}
	}
}

// isErrorCall reports whether e (possibly parenthesized) is a call of the
// Error() method on an error value.
func isErrorCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && isErrorCallExpr(info, call)
}

// isErrorCallExpr reports whether call is x.Error() with x an error value.
func isErrorCallExpr(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" || len(call.Args) != 0 {
		return false
	}
	return isErrorExpr(info, sel.X)
}

// isErrorExpr reports whether e's type implements the error interface.
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && isErrorType(tv.Type)
}

// isNil reports whether e is the predeclared nil.
func isNil(info *types.Info, e ast.Expr) bool {
	if b, ok := info.Types[ast.Unparen(e)].Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return true
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		_, isNilObj := info.Uses[id].(*types.Nil)
		return isNilObj
	}
	return false
}
