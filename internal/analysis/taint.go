package analysis

// The taint engine (DESIGN.md §11): transitive propagation of the leaf
// facts callgraph.go collects, up the caller edges, with full provenance.
//
// A function is tainted with kind k when it directly contains a k-source
// or (transitively) calls a tainted function. Propagation is a multi-source
// BFS on the reversed call graph, so the recorded provenance chain for
// every function is a *shortest* path to a source — the most readable
// witness, and deterministic because nodes and edges are visited in the
// builder's source order.
//
// Barriers implement exemptions: a barrier node keeps its own taint (so
// leaf-confinement can be verified against it) but never propagates it to
// callers. This is what turns a blunt "this whole package may read the
// clock" carve-out into "exactly this function may, and everyone above it
// is machine-checked clean".

import (
	"fmt"
	"go/token"
	"path/filepath"
	"strings"
)

// A TaintKind is one propagated fact family.
type TaintKind uint8

const (
	// TaintWallclock: reaches a wall-clock read (time.Now and friends).
	TaintWallclock TaintKind = iota
	// TaintRawRand: reaches math/rand, math/rand/v2 or crypto/rand.
	TaintRawRand
	// TaintMapIter: reaches data ordered by map iteration (the nomapiter
	// shape heuristic's unsorted map-range appends).
	TaintMapIter
	// TaintGoroutine: reaches a bare go statement.
	TaintGoroutine
	// TaintBlocking: reaches an operation that can park the goroutine —
	// channel ops, selects without default, network/subprocess I/O,
	// time.Sleep, WaitGroup/Cond waits. Not a nondeterminism fact; consumed
	// by mutexhold and ctxflow.
	TaintBlocking
	numTaintKinds
)

var taintKindNames = [numTaintKinds]string{
	TaintWallclock: "wallclock",
	TaintRawRand:   "rawrand",
	TaintMapIter:   "mapiter",
	TaintGoroutine: "goroutine",
	TaintBlocking:  "blocking",
}

func (k TaintKind) String() string {
	if int(k) < len(taintKindNames) {
		return taintKindNames[k]
	}
	return fmt.Sprintf("taint(%d)", k)
}

// ParseTaintKind resolves an exemption-table kind name.
func ParseTaintKind(s string) (TaintKind, bool) {
	for k, name := range taintKindNames {
		if name == s {
			return TaintKind(k), true
		}
	}
	return 0, false
}

// NonDetKinds are the nondeterminism fact families (every kind except
// blocking) — the default set nondetflow checks.
func NonDetKinds() []TaintKind {
	return []TaintKind{TaintWallclock, TaintRawRand, TaintMapIter, TaintGoroutine}
}

// taintStep records how a node became tainted: a direct source, or the
// first edge of a shortest path toward one.
type taintStep struct {
	src  *Source
	edge *Edge
}

// A TaintSet holds one propagation's results.
type TaintSet struct {
	prog  *Program
	steps [numTaintKinds]map[*FuncNode]taintStep
}

// Taint propagates the requested kinds. barrier, when non-nil, marks
// absorbing nodes per kind: they are tainted but do not taint callers.
func (p *Program) Taint(kinds []TaintKind, barrier func(*FuncNode, TaintKind) bool) *TaintSet {
	t := &TaintSet{prog: p}
	for _, k := range kinds {
		steps := make(map[*FuncNode]taintStep)
		t.steps[k] = steps
		var queue []*FuncNode
		for _, n := range p.order {
			for i := range n.Sources {
				s := &n.Sources[i]
				if s.Kind != k {
					continue
				}
				if _, seen := steps[n]; !seen {
					steps[n] = taintStep{src: s}
					queue = append(queue, n)
				}
			}
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if barrier != nil && barrier(n, k) {
				continue
			}
			// TestOnly declarations cannot be referenced from non-test
			// code, and taint inside tests is sanctioned; stop here.
			if n.TestOnly {
				continue
			}
			for _, e := range n.In {
				if k == TaintBlocking && e.Async {
					continue // the spawn returns immediately
				}
				c := e.Caller
				if _, seen := steps[c]; seen {
					continue
				}
				steps[c] = taintStep{edge: e}
				queue = append(queue, c)
			}
		}
	}
	return t
}

// Tainted reports whether n carries kind k.
func (t *TaintSet) Tainted(n *FuncNode, k TaintKind) bool {
	_, ok := t.steps[k][n]
	return ok
}

// DirectSource returns n's own k-source, or nil when n's taint (if any) is
// only transitive. Exemption verification uses this: a leaf-confined
// exemption must sit on the function that performs the read.
func (t *TaintSet) DirectSource(n *FuncNode, k TaintKind) *Source {
	for i := range n.Sources {
		if n.Sources[i].Kind == k {
			return &n.Sources[i]
		}
	}
	return nil
}

// Chain renders the full provenance from n to its k-source:
//
//	sim.Run -> sim.RunContext -> sim.runConcurrent -> time.NewTimer (concurrent.go:186)
//
// Positions are basename:line so the string, and with it every finding's
// message, is stable across checkouts.
func (t *TaintSet) Chain(n *FuncNode, k TaintKind) string {
	fset := n.Pkg.Fset
	var parts []string
	seen := map[*FuncNode]bool{}
	for n != nil && !seen[n] {
		seen[n] = true
		parts = append(parts, n.ShortName())
		step, ok := t.steps[k][n]
		if !ok {
			break
		}
		if step.src != nil {
			parts = append(parts, step.src.Desc+" ("+shortPos(fset, step.src.Pos)+")")
			break
		}
		n = step.edge.Callee
	}
	return strings.Join(parts, " -> ")
}

// shortPos renders pos as basename:line.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + fmt.Sprint(p.Line)
}

// A FuncExemption is one sanctioned, justified leak: the named function may
// carry the named taint kind without its callers being reported. The
// analyzers verify every exemption is live and leaf-confined — the function
// must exist and directly contain a source of the kind — so the table can
// never silently outlive the code it describes.
type FuncExemption struct {
	// Func is the import-path-qualified name: "locality/internal/sim.runConcurrent"
	// or "locality/internal/harness.(*rowScheduler).start".
	Func string
	// Kind names the TaintKind ("wallclock", "rawrand", "mapiter",
	// "goroutine"), or a per-analyzer rule tag (ctxflow's "background" /
	// "noctx").
	Kind string
	// Reason is the mandatory one-line justification.
	Reason string
}

// exemptionIndex maps qualified name -> kind -> exemption, for O(1) barrier
// checks.
type exemptionIndex map[string]map[string]FuncExemption

func indexExemptions(exs []FuncExemption) exemptionIndex {
	idx := exemptionIndex{}
	for _, ex := range exs {
		m := idx[ex.Func]
		if m == nil {
			m = map[string]FuncExemption{}
			idx[ex.Func] = m
		}
		m[ex.Kind] = ex
	}
	return idx
}

func (idx exemptionIndex) exempt(n *FuncNode, kind string) bool {
	m, ok := idx[n.QualifiedName()]
	if !ok {
		return false
	}
	_, ok = m[kind]
	return ok
}
