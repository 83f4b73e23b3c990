package analysis

import (
	"go/ast"
	"go/token"
)

// clockFuncs are the package time functions that read or depend on the wall
// clock (or the process scheduler). Using time.Duration values is fine;
// only these calls are banned.
var clockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// NoWallClockOptions configures the nowallclock analyzer.
type NoWallClockOptions struct {
	// AllowPackages lists import paths exempt from the check. The repository
	// gate allows the supervision layer (internal/jobs, internal/cluster,
	// internal/load, cmd/localityd, cmd/localload), whose job deadlines,
	// drain grace periods and request timeouts are wall-clock by nature.
	AllowPackages []string
	// AllowFuncs lists import-path-qualified function names
	// ("locality/internal/harness.waitAttempt") exempt from the check —
	// the narrowest carve-out, shared with nondetflow's wallclock
	// exemption table so the intraprocedural leaf check and the
	// interprocedural reachability check sanction exactly the same code.
	// Requires a driver that supplies Pass.Prog; without a call graph the
	// entries are ignored.
	AllowFuncs []string
}

// NewNoWallClock returns the nowallclock analyzer: model code must not read
// the wall clock. The LOCAL model's only notion of time is the round number;
// a Machine that consults time.Now or sleeps produces results that depend on
// host scheduling, which breaks the sequential/concurrent engine-equivalence
// guarantee and makes fault plans and Theorem 10/11 runs non-reproducible.
// Test files are exempt (they legitimately time deadlines and poll).
func NewNoWallClock(opt NoWallClockOptions) *Analyzer {
	a := &Analyzer{
		Name: "nowallclock",
		Doc: "forbid time.Now/Since/Sleep and friends in model code; logical time " +
			"is the round number, and only exempted leaf functions may consult the clock",
	}
	allowFunc := map[string]bool{}
	for _, f := range opt.AllowFuncs {
		allowFunc[f] = true
	}
	a.Run = func(pass *Pass) error {
		if pkgAllowed(pass, opt.AllowPackages) {
			return nil
		}
		// Positions inside an exempted function (including its closures).
		inAllowed := func(pos token.Pos) bool {
			if len(allowFunc) == 0 || pass.Prog == nil {
				return false
			}
			for _, n := range pass.funcNodes() {
				if allowFunc[n.QualifiedName()] && n.Decl.Pos() <= pos && pos <= n.Decl.End() {
					return true
				}
			}
			return false
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.TypesInfo, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !clockFuncs[fn.Name()] {
					return true
				}
				if pass.InTestFile(call.Pos()) || inAllowed(call.Pos()) {
					return true
				}
				pass.Reportf(call.Pos(), "call of time.%s in model code: the LOCAL model's "+
					"only clock is the round number (wall-clock reads make runs "+
					"scheduling-dependent); bound a run with its context instead", fn.Name())
				return true
			})
		}
		return nil
	}
	return a
}
