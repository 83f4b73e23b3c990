// Package analysis is a self-contained static-analysis framework plus the
// localvet analyzer suite that enforces this repository's LOCAL-model
// determinism and purity contract (DESIGN.md, "Model purity & static
// enforcement").
//
// The API deliberately mirrors golang.org/x/tools/go/analysis — an Analyzer
// with a Name, Doc and Run(*Pass) hook reporting Diagnostics — so the suite
// can migrate to the upstream framework wholesale if the dependency ever
// becomes available. The module is stdlib-only by policy, so the framework
// itself (package loading, type checking, the analysistest harness, the
// cmd/localvet multichecker) is implemented here from go/ast, go/types,
// go/build and go/importer alone.
//
// The analyzers encode the contract the headline claims silently depend on:
//
//   - norawrand:   randomness enters only via internal/rng (Env.Rand);
//     math/rand and crypto/rand are banned in model code.
//   - nowallclock: model code never reads the wall clock; only exempted
//     leaf functions may.
//   - nomapiter:   map iteration order must not leak into messages or
//     outputs; slices built while ranging over a map must be sorted.
//   - errsentinel: kernel failures are matched with errors.Is against the
//     sim sentinels, never by error text.
//   - phasedisc:   Machine implementations keep the Send/Recv phase
//     discipline: pointer receivers for state, no branching on Env.Node.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// An Analyzer is one static check. Run inspects a single package through the
// Pass and reports findings via Pass.Report; the returned error means the
// analyzer itself failed, not that the code is in violation.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters. It must
	// be a valid identifier.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass is the interface between the driver and one analyzer run on one
// type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Prog is the module-wide call graph over every package the driver
	// loaded (callgraph.go). Interprocedural analyzers (nondetflow,
	// mutexhold, ctxflow) require it; intraprocedural ones ignore it.
	Prog *Program
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// progPkg returns the Prog node package matching this pass, or nil.
func (p *Pass) progPkg() *Package {
	if p.Prog == nil {
		return nil
	}
	for _, n := range p.Prog.order {
		if n.Pkg.Types == p.Pkg {
			return n.Pkg
		}
	}
	return nil
}

// funcNodes returns the Prog nodes declared in this pass's package, in
// source order.
func (p *Pass) funcNodes() []*FuncNode {
	if p.Prog == nil {
		return nil
	}
	var out []*FuncNode
	for _, n := range p.Prog.order {
		if n.Pkg.Types == p.Pkg {
			out = append(out, n)
		}
	}
	return out
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a *_test.go file. Several analyzers
// exempt test files: tests legitimately read clocks, sleep, and match error
// text of non-sentinel errors.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// pkgAllowed reports whether the pass's package path is in the allowlist.
// Analyzer options use it to implement configurable per-package exceptions.
func pkgAllowed(p *Pass, allow []string) bool {
	path := p.Pkg.Path()
	for _, a := range allow {
		if a == path {
			return true
		}
	}
	return false
}

// fileAllowed reports whether the file containing pos is in the allowlist
// of slash-separated path suffixes (e.g. "internal/harness/retry.go").
// Analyzer options use it for exceptions narrower than a whole package: one
// sanctioned file, everything around it still checked.
func fileAllowed(p *Pass, pos token.Pos, allow []string) bool {
	if len(allow) == 0 {
		return false
	}
	name := filepath.ToSlash(p.Fset.Position(pos).Filename)
	for _, suffix := range allow {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// isErrorType reports whether t implements the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// calleeFunc resolves a call expression to the *types.Func it invokes via a
// selector or plain identifier, or nil (builtins, function values, etc.).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the named package-level function
// pkgPath.name (e.g. "time".Now).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}
