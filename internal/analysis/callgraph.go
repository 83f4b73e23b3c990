package analysis

// Module-wide call graph (DESIGN.md §11).
//
// The interprocedural analyzers (nondetflow, mutexhold, ctxflow) need to
// answer "does this function transitively reach a nondeterminism source?",
// which a per-package Pass cannot. BuildProgram aggregates every package a
// driver loaded — the localvet multichecker feeds it the whole module, the
// analysistest harness a fixture tree — into one graph:
//
//   - one FuncNode per declared function or method (test-file declarations
//     are included but marked, so taint never escapes a _test.go file:
//     non-test code cannot reference test declarations);
//   - function literals are attributed to their enclosing declaration: a
//     closure's clock read taints the function that created it, which is
//     where a human would look for it;
//   - edges are static direct calls only. Calls through function values,
//     fields and interface methods are invisible — the analyzers that
//     consume the graph are deliberately one-sided (a missing edge can hide
//     a violation, never invent one).
//
// While walking bodies the builder also records each function's direct
// Sources — the leaf facts (wall-clock read, raw randomness, unsorted map
// range, go statement, blocking operation) that the taint engine
// (taint.go) propagates up the caller edges.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Source is one direct nondeterminism (or blocking) fact inside a
// function body: the leaf a provenance chain ends at.
type Source struct {
	Kind TaintKind
	Pos  token.Pos
	// Desc names the fact for diagnostics, e.g. "time.Now", "go statement",
	// "channel receive".
	Desc string
}

// An Edge is one static call site: Caller invokes Callee at Pos. Async
// marks `go callee(...)` statements — the spawn itself returns immediately,
// so blocking taint must not cross the edge (every other kind does: what
// the goroutine computes still taints the program).
type Edge struct {
	Caller *FuncNode
	Callee *FuncNode
	Pos    token.Pos
	Async  bool
}

// A FuncNode is one declared function or method in the program.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out and In are the call edges, in source order.
	Out []*Edge
	In  []*Edge
	// Sources are the node's direct facts, in source order.
	Sources []Source
	// TestOnly marks declarations in _test.go files; analyzers never report
	// them and taint cannot flow out of them.
	TestOnly bool
}

// QualifiedName returns the import-path-qualified name used by exemption
// tables: "path/to/pkg.Func" or "path/to/pkg.(*Recv).Method".
func (n *FuncNode) QualifiedName() string {
	return n.Pkg.Path + "." + FuncDisplayName(n.Fn)
}

// ShortName returns the package-name-qualified form used in provenance
// chains: "sim.runConcurrent", "harness.(*sweepState).spawn".
func (n *FuncNode) ShortName() string {
	return n.Pkg.Types.Name() + "." + FuncDisplayName(n.Fn)
}

// FuncDisplayName renders fn without package qualification:
// "Run", "(*Pool).Submit", "(Shard).String".
func FuncDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return "(" + ptr + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return fn.Name()
}

// A Program is the call graph over every package one driver run loaded.
type Program struct {
	nodes  map[*types.Func]*FuncNode
	byName map[string]*FuncNode
	// order lists nodes deterministically: packages sorted by path, files
	// and declarations in source order. Every propagation and report walk
	// iterates this, never a map.
	order []*FuncNode
	scc   map[*FuncNode]int
}

// BuildProgram constructs the call graph. The packages may be handed over
// in any order; the graph is deterministic regardless.
func BuildProgram(pkgs []*Package) *Program {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	p := &Program{
		nodes:  make(map[*types.Func]*FuncNode),
		byName: make(map[string]*FuncNode),
	}
	// First pass: one node per declaration, so edges can resolve forward
	// and cross-package references.
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			test := strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg, TestOnly: test}
				p.nodes[fn] = n
				p.byName[n.QualifiedName()] = n
				p.order = append(p.order, n)
			}
		}
	}
	for _, n := range p.order {
		if n.Decl.Body != nil {
			p.scanBody(n)
		}
	}
	return p
}

// Node returns the graph node for fn, or nil when fn was not declared in a
// loaded package (stdlib, interface methods, function values).
func (p *Program) Node(fn *types.Func) *FuncNode { return p.nodes[fn] }

// ByName resolves an exemption-table qualified name, or nil.
func (p *Program) ByName(qualified string) *FuncNode { return p.byName[qualified] }

// Nodes returns every node in deterministic order. Callers must not
// mutate the slice.
func (p *Program) Nodes() []*FuncNode { return p.order }

// blockingStdlib lists standard-library packages whose calls are treated
// as direct blocking facts (network and subprocess I/O). Method calls
// resolve to these package paths too ((*net.TCPConn).Read). net/http is
// deliberately absent: most of its surface (Header.Set, Request.PathValue,
// NewRequest) is pure accessors, so its genuinely blocking entry points are
// enumerated in blockingHTTPFuncs instead.
var blockingStdlib = map[string]bool{
	"net":     true,
	"os/exec": true,
}

// blockingHTTPFuncs are the net/http entry points that perform network I/O
// or wait for connections, keyed by types.Func.FullName.
var blockingHTTPFuncs = map[string]bool{
	"net/http.Get":                         true,
	"net/http.Head":                        true,
	"net/http.Post":                        true,
	"net/http.PostForm":                    true,
	"net/http.ListenAndServe":              true,
	"net/http.ListenAndServeTLS":           true,
	"net/http.Serve":                       true,
	"net/http.ServeTLS":                    true,
	"(*net/http.Client).Do":                true,
	"(*net/http.Client).Get":               true,
	"(*net/http.Client).Head":              true,
	"(*net/http.Client).Post":              true,
	"(*net/http.Client).PostForm":          true,
	"(*net/http.Server).ListenAndServe":    true,
	"(*net/http.Server).ListenAndServeTLS": true,
	"(*net/http.Server).Serve":             true,
	"(*net/http.Server).ServeTLS":          true,
	"(*net/http.Server).Shutdown":          true,
	"(*net/http.Server).Close":             true,
	"(*net/http.Transport).RoundTrip":      true,
}

// blockingSyncMethods are the sync primitives that park the caller until
// another goroutine acts. Lock/RLock are deliberately absent: mutexhold
// analyzes lock acquisition itself and flagging it as "blocking" would make
// every locked region self-condemning.
var blockingSyncMethods = map[string]bool{
	"(*sync.WaitGroup).Wait": true,
	"(*sync.Cond).Wait":      true,
}

// scanBody walks one declaration's body, collecting direct sources and
// call edges. Function literals are visited in place (attributed to n);
// literals launched by a go statement suppress blocking facts — the spawn
// returns immediately, the blocking happens on the new goroutine — but
// still record every nondeterminism fact.
func (p *Program) scanBody(n *FuncNode) {
	seenMapIter := map[token.Pos]bool{}
	for _, pos := range unsortedMapAppends(n.Pkg.Info, n.Decl.Body) {
		if !seenMapIter[pos] {
			seenMapIter[pos] = true
			n.Sources = append(n.Sources, Source{Kind: TaintMapIter, Pos: pos, Desc: "unsorted range over map"})
		}
	}
	p.walkStmts(n, n.Decl.Body, false)
}

// walkStmts is the recursive body walk. inGo is true inside a function
// literal that is only ever launched asynchronously (`go func(){...}()`).
func (p *Program) walkStmts(n *FuncNode, node ast.Node, inGo bool) {
	ast.Inspect(node, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.GoStmt:
			n.Sources = append(n.Sources, Source{Kind: TaintGoroutine, Pos: v.Pos(), Desc: "go statement"})
			if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
				for _, arg := range v.Call.Args {
					p.walkStmts(n, arg, inGo)
				}
				p.walkStmts(n, lit.Body, true)
			} else {
				p.call(n, v.Call, true, inGo)
				for _, arg := range v.Call.Args {
					p.walkStmts(n, arg, inGo)
				}
			}
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault && !inGo {
				n.Sources = append(n.Sources, Source{Kind: TaintBlocking, Pos: v.Pos(), Desc: "blocking select"})
			}
			// The comm clauses belong to the select (already accounted
			// for); only the case bodies are walked.
			for _, c := range v.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm != nil {
					p.walkComm(n, cc.Comm, inGo)
				}
				for _, s := range cc.Body {
					p.walkStmts(n, s, inGo)
				}
			}
			return false
		case *ast.SendStmt:
			if !inGo {
				n.Sources = append(n.Sources, Source{Kind: TaintBlocking, Pos: v.Pos(), Desc: "channel send"})
			}
			return true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && !inGo {
				n.Sources = append(n.Sources, Source{Kind: TaintBlocking, Pos: v.Pos(), Desc: "channel receive"})
			}
			return true
		case *ast.RangeStmt:
			if tv, ok := n.Pkg.Info.Types[v.X]; ok && !inGo {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					n.Sources = append(n.Sources, Source{Kind: TaintBlocking, Pos: v.Pos(), Desc: "range over channel"})
				}
			}
			return true
		case *ast.CallExpr:
			p.call(n, v, false, inGo)
			return true
		case *ast.SelectorExpr:
			p.rawRandUse(n, v.Sel)
			return true
		case *ast.Ident:
			p.rawRandUse(n, v)
			return true
		}
		return true
	})
}

// walkComm records the facts of a select comm clause's operation without
// re-counting it as a standalone blocking op (the select already did), then
// walks its operand expressions for nested calls.
func (p *Program) walkComm(n *FuncNode, comm ast.Stmt, inGo bool) {
	switch c := comm.(type) {
	case *ast.SendStmt:
		p.walkStmts(n, c.Chan, inGo)
		p.walkStmts(n, c.Value, inGo)
	case *ast.AssignStmt:
		for _, e := range c.Rhs {
			if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				p.walkStmts(n, u.X, inGo)
				continue
			}
			p.walkStmts(n, e, inGo)
		}
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			p.walkStmts(n, u.X, inGo)
			return
		}
		p.walkStmts(n, c.X, inGo)
	}
}

// call records the facts of one call expression: an edge when the callee
// is a loaded declaration, a direct source when it is a known
// nondeterministic or blocking standard-library entry point.
func (p *Program) call(n *FuncNode, call *ast.CallExpr, async, inGo bool) {
	fn := calleeFunc(n.Pkg.Info, call)
	if fn == nil {
		return
	}
	if callee := p.nodes[fn]; callee != nil {
		e := &Edge{Caller: n, Callee: callee, Pos: call.Pos(), Async: async}
		n.Out = append(n.Out, e)
		callee.In = append(callee.In, e)
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	desc := pkg.Name() + "." + FuncDisplayName(fn)
	switch {
	case pkg.Path() == "time" && clockFuncs[fn.Name()]:
		n.Sources = append(n.Sources, Source{Kind: TaintWallclock, Pos: call.Pos(), Desc: desc})
		if fn.Name() == "Sleep" && !inGo && !async {
			n.Sources = append(n.Sources, Source{Kind: TaintBlocking, Pos: call.Pos(), Desc: desc})
		}
	case rawRandImports[pkg.Path()]:
		n.Sources = append(n.Sources, Source{Kind: TaintRawRand, Pos: call.Pos(), Desc: desc})
	case (blockingStdlib[pkg.Path()] || blockingHTTPFuncs[fn.FullName()] ||
		blockingSyncMethods[fn.FullName()]) && !inGo && !async:
		n.Sources = append(n.Sources, Source{Kind: TaintBlocking, Pos: call.Pos(), Desc: desc})
	}
}

// rawRandUse records non-call references into the banned randomness
// packages (e.g. reading crypto/rand's Reader variable, passing rand.Int
// as a function value).
func (p *Program) rawRandUse(n *FuncNode, id *ast.Ident) {
	obj := n.Pkg.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil || !rawRandImports[obj.Pkg().Path()] {
		return
	}
	if _, isName := obj.(*types.PkgName); isName {
		return // the import qualifier itself; the selected member reports
	}
	n.Sources = append(n.Sources, Source{Kind: TaintRawRand, Pos: id.Pos(), Desc: obj.Pkg().Name() + "." + obj.Name()})
}

// SCCOf returns the strongly-connected-component ID of n. Nodes in the
// same cycle share an ID; root reporting uses this so mutually recursive
// tainted functions do not suppress each other into silence.
func (p *Program) SCCOf(n *FuncNode) int {
	if p.scc == nil {
		p.computeSCC()
	}
	return p.scc[n]
}

// computeSCC runs an iterative Tarjan over the call graph.
func (p *Program) computeSCC() {
	p.scc = make(map[*FuncNode]int, len(p.order))
	index := make(map[*FuncNode]int, len(p.order))
	low := make(map[*FuncNode]int, len(p.order))
	onStack := make(map[*FuncNode]bool, len(p.order))
	var stack []*FuncNode
	next, comp := 0, 0

	type frame struct {
		n  *FuncNode
		ei int
	}
	for _, root := range p.order {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{n: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.ei < len(f.n.Out) {
				m := f.n.Out[f.ei].Callee
				f.ei++
				if _, seen := index[m]; !seen {
					index[m], low[m] = next, next
					next++
					stack = append(stack, m)
					onStack[m] = true
					work = append(work, frame{n: m})
				} else if onStack[m] && index[m] < low[f.n] {
					low[f.n] = index[m]
				}
				continue
			}
			done := f.n
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].n
				if low[done] < low[parent] {
					low[parent] = low[done]
				}
			}
			if low[done] == index[done] {
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					p.scc[m] = comp
					if m == done {
						break
					}
				}
				comp++
			}
		}
	}
}
