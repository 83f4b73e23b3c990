package analysis

import (
	"go/ast"
	"go/types"
)

// PhaseDiscOptions configures the phasedisc analyzer.
type PhaseDiscOptions struct {
	// AllowNodePackages lists import paths whose machines may observe
	// Env.Node. The repository gate allows locality/internal/fault: the
	// fault-injection shim legitimately maps itself to a host vertex to look
	// up its entry in the fault plan (instrumentation, not algorithm).
	AllowNodePackages []string
}

// NewPhaseDisc returns the phasedisc analyzer, a cheap shape check on the
// simulator's Send/Recv (Step) discipline for Machine implementations. A
// machine type — any named type with Init/Step/Output methods of the
// sim.Machine shape — is flagged when:
//
//   - a state-mutating Init or Step uses a value receiver: the kernel drives
//     machines through the sim.Machine interface, so state written through a
//     value receiver evaporates between rounds and the machine observes the
//     round structure inconsistently (typically "works on the sequential
//     engine by accident, diverges on the concurrent one");
//   - any of its methods reads Env.Node: the host vertex index exists for
//     instrumentation only (sim.Env docs), and an algorithm that branches on
//     it is no longer a LOCAL algorithm — the ID-scheme and
//     engine-equivalence guarantees both assume Node-independence.
func NewPhaseDisc(opt PhaseDiscOptions) *Analyzer {
	a := &Analyzer{
		Name: "phasedisc",
		Doc: "shape-check the Machine Step discipline: pointer receivers for " +
			"state-mutating Init/Step, and no observation of Env.Node",
	}
	a.Run = func(pass *Pass) error {
		machines := machineTypes(pass)
		allowNode := pkgAllowed(pass, opt.AllowNodePackages)
		for _, f := range pass.Files {
			if pass.InTestFile(f.Pos()) {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				recvName, ptr := receiverInfo(fd)
				if recvName == "" || !machines[recvName] {
					continue
				}
				if !ptr && (fd.Name.Name == "Init" || fd.Name.Name == "Step") {
					if field := mutatedReceiverField(pass, fd); field != "" {
						pass.Reportf(fd.Pos(), "(%s).%s mutates field %q through a value "+
							"receiver; the kernel calls machines via the sim.Machine "+
							"interface, so the write is lost between rounds — use a "+
							"pointer receiver", recvName, fd.Name.Name, field)
					}
				}
				if !allowNode {
					reportEnvNodeReads(pass, fd, recvName)
				}
			}
		}
		return nil
	}
	return a
}

// machineTypes returns the names of package-level types that carry the
// sim.Machine method shape: Init(1 arg), Step(2 args, 2 results), Output.
// Detection is structural (method names and arities, not the interface
// identity), so the check also covers analyzer fixtures and future machine
// variants without importing internal/sim.
func machineTypes(pass *Pass) map[string]bool {
	type shape struct{ init, step, output bool }
	shapes := map[string]*shape{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			name, _ := receiverInfo(fd)
			if name == "" {
				continue
			}
			s := shapes[name]
			if s == nil {
				s = &shape{}
				shapes[name] = s
			}
			params := fd.Type.Params.NumFields()
			results := fd.Type.Results.NumFields()
			switch fd.Name.Name {
			case "Init":
				s.init = s.init || params == 1
			case "Step":
				s.step = s.step || (params == 2 && results == 2)
			case "Output":
				s.output = s.output || (params == 0 && results == 1)
			}
		}
	}
	out := map[string]bool{}
	for name, s := range shapes {
		if s.init && s.step && s.output {
			out[name] = true
		}
	}
	return out
}

// receiverInfo returns the receiver's base type name and whether the
// receiver is a pointer.
func receiverInfo(fd *ast.FuncDecl) (name string, ptr bool) {
	if len(fd.Recv.List) != 1 {
		return "", false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		ptr = true
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, ptr
	}
	return "", false
}

// mutatedReceiverField returns the name of a receiver field assigned in fd's
// body, or "" when the method never writes receiver state.
func mutatedReceiverField(pass *Pass, fd *ast.FuncDecl) string {
	recvObj := receiverObject(pass, fd)
	if recvObj == nil {
		return ""
	}
	isRecvField := func(e ast.Expr) string {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || pass.TypesInfo.ObjectOf(id) != recvObj {
			return ""
		}
		return sel.Sel.Name
	}
	found := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if f := isRecvField(lhs); f != "" {
					found = f
					return false
				}
			}
		case *ast.IncDecStmt:
			if f := isRecvField(n.X); f != "" {
				found = f
				return false
			}
		}
		return true
	})
	return found
}

// receiverObject returns the types.Object of fd's receiver variable.
func receiverObject(pass *Pass, fd *ast.FuncDecl) types.Object {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	return pass.TypesInfo.ObjectOf(fd.Recv.List[0].Names[0])
}

// reportEnvNodeReads flags selector accesses to the Node field of a type
// named Env (the simulator environment, or a fixture stand-in) inside a
// machine method.
func reportEnvNodeReads(pass *Pass, fd *ast.FuncDecl, recvName string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Node" {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		named, ok := derefNamed(selection.Recv())
		if !ok || named.Obj().Name() != "Env" {
			return true
		}
		pass.Reportf(sel.Pos(), "machine %s observes Env.Node; the host vertex index "+
			"is instrumentation-only (sim.Env docs) and LOCAL algorithms must not "+
			"branch on it", recvName)
		return true
	})
}

// derefNamed unwraps pointers and aliases to a named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return n, ok
}
