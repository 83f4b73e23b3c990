package analysis

import "strings"

// NonDetFlowOptions configures the nondetflow analyzer.
type NonDetFlowOptions struct {
	// ExemptPackages lists import-path prefixes outside the determinism
	// contract's domain: the supervision and tooling tiers (jobs, cluster,
	// obs, the analysis framework, the daemon and bench commands), whose
	// clock reads and goroutines are their whole job. Functions there are
	// neither reported nor allowed to relay taint into reports — a domain
	// function calling through them is judged at the exempt boundary.
	ExemptPackages []string
	// Exemptions are the sanctioned leaks: function-level, kind-scoped,
	// justified, and verified leaf-confined (the function must directly
	// contain a source of the exempted kind, or the exemption itself is
	// reported as stale).
	Exemptions []FuncExemption
}

// NewNonDetFlow returns the nondetflow analyzer: no function in a domain
// package may transitively reach a nondeterminism source. Where the
// intraprocedural analyzers (norawrand, nowallclock, nomapiter) catch the
// leaf, nondetflow catches the laundering: a clock read hidden two helper
// calls deep — possibly in another package — taints every caller, and the
// report carries the full provenance chain
// (sim.Run -> sim.RunContext -> sim.runConcurrent -> time.After (concurrent.go:178)).
//
// Reports land on taint *roots*: tainted domain functions with no tainted
// domain caller outside their own recursion component. That yields one
// diagnostic per laundered source at the outermost entry point — the place
// the contract is breached — instead of one per function on the chain.
func NewNonDetFlow(opt NonDetFlowOptions) *Analyzer {
	kinds := NonDetKinds()
	idx := indexExemptions(opt.Exemptions)
	a := &Analyzer{
		Name: "nondetflow",
		Doc: "forbid transitive reachability of nondeterminism sources (wall clock, raw " +
			"randomness, map-iteration order, bare goroutines) from domain packages; " +
			"reports carry full call-chain provenance, exemptions are function-level " +
			"and verified leaf-confined",
	}
	exemptPkg := func(path string) bool {
		for _, p := range opt.ExemptPackages {
			if path == p || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}

	// The taint set depends only on the Program, which the driver shares
	// across passes; memoize per Program so a whole-module run propagates
	// once, not once per package.
	taints := map[*Program]*TaintSet{}
	taint := func(prog *Program) *TaintSet {
		if t := taints[prog]; t != nil {
			return t
		}
		t := prog.Taint(kinds, func(n *FuncNode, k TaintKind) bool {
			return exemptPkg(n.Pkg.Path) || idx.exempt(n, k.String())
		})
		taints[prog] = t
		return t
	}

	a.Run = func(pass *Pass) error {
		if pass.Prog == nil {
			return nil // driver provided no call graph; nothing to check
		}
		t := taint(pass.Prog)
		verifyExemptions(pass, t, opt.Exemptions, kinds)
		if exemptPkg(pass.Pkg.Path()) {
			return nil
		}
		candidate := func(n *FuncNode, k TaintKind) bool {
			return n != nil && !n.TestOnly && !exemptPkg(n.Pkg.Path) &&
				!idx.exempt(n, k.String()) && t.Tainted(n, k)
		}
		for _, n := range pass.funcNodes() {
			for _, k := range kinds {
				if !candidate(n, k) {
					continue
				}
				root := true
				for _, e := range n.In {
					c := e.Caller
					if c != n && candidate(c, k) && pass.Prog.SCCOf(c) != pass.Prog.SCCOf(n) {
						root = false
						break
					}
				}
				if !root {
					continue
				}
				pass.Reportf(n.Decl.Name.Pos(), "nondeterminism (%s) reachable from %s: %s; "+
					"confine the source behind internal/rng or an exempted leaf "+
					"(DESIGN.md §11)", k, n.ShortName(), t.Chain(n, k))
			}
		}
		return nil
	}
	return a
}

// verifyExemptions reports, in the pass owning each exemption's package,
// every table entry that is unknown, unjustified, of a kind nondetflow does
// not check, or not leaf-confined.
// Verification runs even for exempt packages: a stale entry is a stale
// entry wherever it points.
func verifyExemptions(pass *Pass, t *TaintSet, exs []FuncExemption, kinds []TaintKind) {
	pkgPath := pass.Pkg.Path()
	for _, ex := range exs {
		// The package part is everything before the first dot after the
		// last slash (method names contain dots: pkg.(*T).M).
		slash := strings.LastIndex(ex.Func, "/")
		d := strings.Index(ex.Func[slash+1:], ".")
		if d < 0 {
			continue // malformed: no package qualifier to route it by
		}
		if ex.Func[:slash+1+d] != pkgPath {
			continue
		}
		at := pass.Files[0].Name.Pos()
		n := pass.Prog.ByName(ex.Func)
		if n == nil {
			pass.Reportf(at, "exemption %q (%s) names no function in this package: "+
				"delete or fix the entry", ex.Func, ex.Kind)
			continue
		}
		if strings.TrimSpace(ex.Reason) == "" {
			pass.Reportf(n.Decl.Name.Pos(), "exemption %q (%s) has no justification: "+
				"every sanctioned leak carries a one-line reason", ex.Func, ex.Kind)
		}
		k, ok := ParseTaintKind(ex.Kind)
		if !ok || !containsKind(kinds, k) {
			// A misspelt kind would otherwise sanction nothing and pass.
			pass.Reportf(n.Decl.Name.Pos(), "exemption %q has kind %q, which nondetflow "+
				"does not check (it checks %s): fix or delete the entry", ex.Func, ex.Kind, kindList(kinds))
			continue
		}
		if t.DirectSource(n, k) == nil {
			pass.Reportf(n.Decl.Name.Pos(), "stale exemption: %s no longer contains a "+
				"direct %s source; exemptions must sit on the leaf that performs the "+
				"read (move or delete the entry)", ex.Func, ex.Kind)
		}
	}
}

// kindList renders kinds as a comma-separated list.
func kindList(kinds []TaintKind) string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ", ")
}

func containsKind(kinds []TaintKind, k TaintKind) bool {
	for _, x := range kinds {
		if x == k {
			return true
		}
	}
	return false
}
