package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewMutexHold returns the mutexhold analyzer: no operation that can park
// the goroutine — channel sends/receives, selects without default, network
// or subprocess I/O, time.Sleep, WaitGroup/Cond waits, or any module
// function that transitively reaches one — may run while a sync.Mutex or
// sync.RWMutex is held. Blocking under a lock is the deadlock shape behind
// every supervision-layer hang: the parked holder stalls every other
// acquirer, and if the unblocking party needs the same lock the program is
// wedged.
//
// The sanctioned non-blocking idiom is select-with-default (the
// jobs.Pool.Submit pattern): a send or receive guarded by a default case
// cannot park and is not reported. A deferred Unlock keeps the lock held to
// the end of the function; lock regions inside branches do not leak past
// their block. Calls are resolved through the module call graph, so a
// helper that blocks three calls down is flagged at the locked call site
// with full provenance.
func NewMutexHold() *Analyzer {
	a := &Analyzer{
		Name: "mutexhold",
		Doc: "forbid blocking operations (channel ops, network I/O, sim runs, " +
			"transitively blocking calls) while holding a sync.Mutex/RWMutex; " +
			"select-with-default is the sanctioned non-blocking idiom",
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
			c := &mutexChecker{pass: pass, taint: t}
			c.block(n.Decl.Body.List, nil)
		}
		return nil
	}
	return a
}

// heldLock is one currently-held mutex: the receiver expression it was
// locked through and where.
type heldLock struct {
	key string
	pos token.Pos
}

// mutexChecker walks one function body tracking the held-lock stack.
type mutexChecker struct {
	pass  *Pass
	taint *TaintSet
}

// block processes a statement list. held is owned by the caller; mutations
// from lock/unlock at this nesting level persist for the remainder of the
// list, while nested blocks receive copies so a branch-local Lock cannot
// leak out (one-sided: may miss a violation, never invents one).
func (c *mutexChecker) block(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range stmts {
		held = c.stmt(s, held)
	}
	return held
}

func clone(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

func (c *mutexChecker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch v := s.(type) {
	case nil:
		return held
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(v.X).(*ast.CallExpr); ok {
			if m := mutexOp(c.pass.TypesInfo, call); m != nil {
				if m.acquire {
					return append(held, heldLock{key: m.key, pos: call.Pos()})
				}
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].key == m.key {
						return append(clone(held[:i]), held[i+1:]...)
					}
				}
				return held
			}
		}
		c.expr(v.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock runs at return: the lock stays held for the
		// rest of the function, which the unchanged held set expresses.
		// The deferred call's arguments are evaluated now.
		for _, arg := range v.Call.Args {
			c.expr(arg, held)
		}
	case *ast.GoStmt:
		// The spawn returns immediately; only argument evaluation happens
		// under the lock. The literal's body runs on its own goroutine
		// with its own (empty) lock context.
		for _, arg := range v.Call.Args {
			c.expr(arg, held)
		}
		if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
			c.block(lit.Body.List, nil)
		}
	case *ast.SendStmt:
		c.report(v.Pos(), "channel send", held)
		c.expr(v.Chan, held)
		c.expr(v.Value, held)
	case *ast.AssignStmt:
		for _, e := range v.Rhs {
			c.expr(e, held)
		}
		for _, e := range v.Lhs {
			c.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			c.expr(e, held)
		}
	case *ast.IncDecStmt:
		c.expr(v.X, held)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						c.expr(e, held)
					}
				}
			}
		}
	case *ast.BlockStmt:
		c.block(v.List, clone(held))
	case *ast.LabeledStmt:
		return c.stmt(v.Stmt, held)
	case *ast.IfStmt:
		inner := clone(held)
		inner = c.stmt(v.Init, inner)
		c.expr(v.Cond, inner)
		c.block(v.Body.List, clone(inner))
		c.stmt(v.Else, clone(inner))
	case *ast.ForStmt:
		inner := clone(held)
		inner = c.stmt(v.Init, inner)
		if v.Cond != nil {
			c.expr(v.Cond, inner)
		}
		body := c.block(v.Body.List, clone(inner))
		c.stmt(v.Post, body)
	case *ast.RangeStmt:
		if tv, ok := c.pass.TypesInfo.Types[v.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				c.report(v.Pos(), "range over channel", held)
			}
		}
		c.expr(v.X, held)
		c.block(v.Body.List, clone(held))
	case *ast.SwitchStmt:
		inner := clone(held)
		inner = c.stmt(v.Init, inner)
		if v.Tag != nil {
			c.expr(v.Tag, inner)
		}
		for _, cc := range v.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cl.List {
					c.expr(e, inner)
				}
				c.block(cl.Body, clone(inner))
			}
		}
	case *ast.TypeSwitchStmt:
		inner := clone(held)
		inner = c.stmt(v.Init, inner)
		for _, cc := range v.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.block(cl.Body, clone(inner))
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range v.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok && cl.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			c.report(v.Pos(), "blocking select", held)
		}
		// With a default the comm ops cannot park — the sanctioned idiom;
		// either way the select accounts for them, so only operands and
		// case bodies are examined.
		for _, cc := range v.Body.List {
			cl, ok := cc.(*ast.CommClause)
			if !ok {
				continue
			}
			switch comm := cl.Comm.(type) {
			case *ast.SendStmt:
				c.expr(comm.Chan, held)
				c.expr(comm.Value, held)
			case *ast.AssignStmt:
				for _, e := range comm.Rhs {
					if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						c.expr(u.X, held)
						continue
					}
					c.expr(e, held)
				}
			case *ast.ExprStmt:
				if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					c.expr(u.X, held)
				} else {
					c.expr(comm.X, held)
				}
			}
			c.block(cl.Body, clone(held))
		}
	default:
		// ExprStmt variants not listed (Branch, Empty) hold no expressions.
	}
	return held
}

// expr scans one expression for blocking operations under held locks.
// Function literals are separate execution contexts: their bodies are
// checked with an empty lock stack.
func (c *mutexChecker) expr(e ast.Expr, held []heldLock) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			c.block(v.Body.List, nil)
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				c.report(v.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			c.callSite(v, held)
		}
		return true
	})
}

// callSite flags calls that block: known blocking stdlib entry points, and
// module functions carrying transitive blocking taint.
func (c *mutexChecker) callSite(call *ast.CallExpr, held []heldLock) {
	if len(held) == 0 {
		return
	}
	fn := calleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if n := c.pass.Prog.Node(fn); n != nil {
		if c.taint.Tainted(n, TaintBlocking) {
			c.report(call.Pos(), "call of "+n.ShortName()+" ("+c.taint.Chain(n, TaintBlocking)+")", held)
		}
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	switch {
	case pkg.Path() == "time" && fn.Name() == "Sleep",
		blockingStdlib[pkg.Path()],
		blockingHTTPFuncs[fn.FullName()],
		blockingSyncMethods[fn.FullName()]:
		c.report(call.Pos(), "call of "+pkg.Name()+"."+FuncDisplayName(fn), held)
	}
}

// report emits one violation naming the innermost held lock, unless no lock
// is held or the site is in a test file.
func (c *mutexChecker) report(pos token.Pos, what string, held []heldLock) {
	if len(held) == 0 || c.pass.InTestFile(pos) {
		return
	}
	h := held[len(held)-1]
	c.pass.Reportf(pos, "%s while holding %s (held since %s): blocking under a lock "+
		"stalls every other acquirer; release first or use select-with-default",
		what, h.key, shortPos(c.pass.Fset, h.pos))
}

// mutexOpInfo describes one mutex method call: the lock identity (receiver
// expression) and whether it acquires or releases.
type mutexOpInfo struct {
	key     string
	acquire bool
}

// mutexOp resolves call as a sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock,
// or nil. TryLock/TryRLock never park and are ignored (their success path
// still runs under the lock, but tracking it needs flow through the bool —
// out of scope for a shape check).
func mutexOp(info *types.Info, call *ast.CallExpr) *mutexOpInfo {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return nil
	}
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock", "(*sync.RWMutex).RLock":
		return &mutexOpInfo{key: types.ExprString(sel.X), acquire: true}
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock", "(*sync.RWMutex).RUnlock":
		return &mutexOpInfo{key: types.ExprString(sel.X), acquire: false}
	}
	return nil
}
