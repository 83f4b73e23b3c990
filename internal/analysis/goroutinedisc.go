package analysis

import (
	"go/ast"
	"strings"
)

// A GoAllowance sanctions go statements in one package or one file. Exactly
// one of Package (import path) and File (slash-separated path suffix) is
// set; Reason is the mandatory one-line justification. Allowances are
// verified live: an entry whose package or file no longer contains any go
// statement is reported as stale, so the table cannot outlive the
// concurrency it describes.
type GoAllowance struct {
	Package string
	File    string
	Reason  string
}

// GoroutineDiscOptions configures the goroutinedisc analyzer.
type GoroutineDiscOptions struct {
	// Allow lists the sanctioned spawn sites. The repository gate allows the
	// pool/reaper patterns: internal/jobs (worker pool), internal/cluster
	// (shard probers reaped via WaitGroup), harness/parallel.go (parallel
	// sweep rows), sim/concurrent.go (the concurrent engine itself), and the
	// daemon's serve/runner loops.
	Allow []GoAllowance
}

// NewGoroutineDisc returns the goroutinedisc analyzer: no go statements in
// domain packages outside the sanctioned pool/reaper patterns. A bare
// goroutine in model or harness code is how scheduling nondeterminism and
// leaks enter: nothing joins it, nothing bounds it, and its interleaving
// varies run to run. Concurrency is confined to the listed sites, each of
// which owns a reaping discipline (WaitGroup, done-channel, or pool
// shutdown). Test files are exempt.
func NewGoroutineDisc(opt GoroutineDiscOptions) *Analyzer {
	a := &Analyzer{
		Name: "goroutinedisc",
		Doc: "forbid go statements outside sanctioned pool/reaper sites; bare " +
			"goroutines are unreaped, unbounded scheduling nondeterminism",
	}
	var allowPkgs, allowFiles []string
	for _, al := range opt.Allow {
		if al.Package != "" {
			allowPkgs = append(allowPkgs, al.Package)
		}
		if al.File != "" {
			allowFiles = append(allowFiles, al.File)
		}
	}
	a.Run = func(pass *Pass) error {
		verifyAllowances(pass, opt.Allow)
		if pkgAllowed(pass, allowPkgs) {
			return nil
		}
		for _, f := range pass.Files {
			if fileAllowed(pass, f.Pos(), allowFiles) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if pass.InTestFile(g.Pos()) {
					return true
				}
				pass.Reportf(g.Pos(), "go statement outside the sanctioned concurrency "+
					"sites: route work through internal/jobs.Pool or add a reaped, "+
					"justified allowance to the localvet gate (DESIGN.md §11)")
				return true
			})
		}
		return nil
	}
	return a
}

// verifyAllowances reports allowances that no longer witness any go
// statement. A package allowance is verified by the pass for that package; a
// file allowance by the pass whose package contains the file.
func verifyAllowances(pass *Pass, allow []GoAllowance) {
	for _, al := range allow {
		switch {
		case al.Package != "":
			if al.Package != pass.Pkg.Path() {
				continue
			}
			at := pass.Files[0].Name.Pos()
			if strings.TrimSpace(al.Reason) == "" {
				pass.Reportf(at, "goroutine allowance for package %s has no justification", al.Package)
			}
			found := false
			for _, f := range pass.Files {
				if hasGoStmt(f) {
					found = true
					break
				}
			}
			if !found {
				pass.Reportf(at, "stale goroutine allowance: package %s contains no go "+
					"statement; delete the entry", al.Package)
			}
		case al.File != "":
			var owner *ast.File
			for _, f := range pass.Files {
				if fileAllowed(pass, f.Pos(), []string{al.File}) {
					owner = f
					break
				}
			}
			if owner == nil {
				continue
			}
			if strings.TrimSpace(al.Reason) == "" {
				pass.Reportf(owner.Name.Pos(), "goroutine allowance for file %s has no justification", al.File)
			}
			if !hasGoStmt(owner) {
				pass.Reportf(owner.Name.Pos(), "stale goroutine allowance: file %s contains "+
					"no go statement; delete the entry", al.File)
			}
		}
	}
}

// hasGoStmt reports whether the file contains any go statement.
func hasGoStmt(f *ast.File) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
		}
		return !found
	})
	return found
}
