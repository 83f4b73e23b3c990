package analysis

import (
	"go/ast"
	"go/types"
)

// NewCtxFlow returns the ctxflow analyzer: cancellation must actually flow.
// Three rules, all scoped to non-test module code:
//
//  1. A context.Context parameter comes first (the Go API convention the
//     rest of the toolchain and this module's own supervision tier assume).
//  2. A function that already receives a Context does not mint a fresh root
//     via context.Background()/context.TODO() — doing so silently detaches
//     everything downstream from the caller's cancellation. The sanctioned
//     detach idiom is context.WithoutCancel (values flow, cancellation
//     doesn't).
//  3. A function that receives a Context threads it into every blocking
//     module callee: calling a callee that can park the goroutine but has
//     no Context parameter means that wait is uncancellable. The callee's
//     blocking-ness is resolved transitively through the call graph.
func NewCtxFlow() *Analyzer {
	a := &Analyzer{
		Name: "ctxflow",
		Doc: "require context.Context first in parameter lists, forbid minting " +
			"fresh root contexts in context-carrying functions, and require the " +
			"context to reach every blocking module callee",
	}
	taints := map[*Program]*TaintSet{}
	blockingTaint := func(prog *Program) *TaintSet {
		if t := taints[prog]; t != nil {
			return t
		}
		t := prog.Taint([]TaintKind{TaintBlocking}, nil)
		taints[prog] = t
		return t
	}
	a.Run = func(pass *Pass) error {
		if pass.Prog == nil {
			return nil
		}
		t := blockingTaint(pass.Prog)
		for _, n := range pass.funcNodes() {
			if n.TestOnly || n.Decl.Body == nil {
				continue
			}
			ctxAt := ctxParamIndex(n.Fn)
			if ctxAt > 0 {
				pass.Reportf(n.Decl.Name.Pos(), "context.Context is parameter %d of %s; "+
					"by convention the context comes first", ctxAt+1, n.ShortName())
			}
			if ctxAt < 0 {
				continue
			}
			ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.TypesInfo, call)
				if fn == nil {
					return true
				}
				if fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
					(fn.Name() == "Background" || fn.Name() == "TODO") {
					pass.Reportf(call.Pos(), "context.%s inside %s, which already receives "+
						"a Context: this detaches downstream work from the caller's "+
						"cancellation; derive from ctx (or context.WithoutCancel(ctx) "+
						"for sanctioned detach)", fn.Name(), n.ShortName())
				}
				callee := pass.Prog.Node(fn)
				if callee == nil || callee == n || !t.Tainted(callee, TaintBlocking) {
					return true
				}
				if ctxParamIndex(fn) >= 0 {
					return true
				}
				pass.Reportf(call.Pos(), "%s can block (%s) but takes no Context: the "+
					"wait is uncancellable from %s; thread ctx through",
					callee.ShortName(), t.Chain(callee, TaintBlocking), n.ShortName())
				return true
			})
		}
		return nil
	}
	return a
}

// ctxParamIndex returns the index of fn's context.Context parameter, or -1.
func ctxParamIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
