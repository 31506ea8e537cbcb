package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// EpochThread polices the delta-maintenance contract of
// instance.Instance.ApplyDelta and instance.Overlay.Commit, the two
// calls that apply a batch: the returned DeltaResult carries the
// post-batch epoch, and every non-test caller must bind it — the epoch
// is how downstream consumers (the reducer-state cache, the PATCH and
// /evaluate responses) correlate retained state with instance
// versions. A call that discards the result (expression statement,
// blank first assignee, go/defer statement) silently breaks that
// thread: the mutation happens, but nothing can tell which state
// snapshot it invalidated. Sites that genuinely do not need the epoch
// annotate with //semalint:allow epochthread(reason).
var EpochThread = &Analyzer{
	Name: "epochthread",
	Doc: "require non-test callers of instance.ApplyDelta and Overlay.Commit to bind the returned " +
		"DeltaResult (the epoch thread), so retained incremental state can always " +
		"be correlated with the instance version that invalidated it",
	Run: runEpochThread,
}

func runEpochThread(p *Pass) {
	// The instance package itself is the mechanism under contract, not
	// a consumer of it.
	if path.Base(p.Pkg.Path) == "instance" {
		return
	}
	for _, f := range p.Pkg.Files {
		if strings.HasSuffix(p.Pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					if name, ok := deltaCall(p, call); ok {
						p.Reportf(call.Pos(),
							"%s result discarded: bind the DeltaResult and thread its "+
								"epoch (or annotate //semalint:allow epochthread(reason))", name)
					}
				}
			case *ast.GoStmt:
				if name, ok := deltaCall(p, stmt.Call); ok {
					p.Reportf(stmt.Call.Pos(),
						"%s in a go statement discards the DeltaResult: thread the "+
							"epoch from a binding call site instead", name)
				}
			case *ast.DeferStmt:
				if name, ok := deltaCall(p, stmt.Call); ok {
					p.Reportf(stmt.Call.Pos(),
						"%s in a defer statement discards the DeltaResult: thread "+
							"the epoch from a binding call site instead", name)
				}
			case *ast.AssignStmt:
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				name, ok := deltaCall(p, call)
				if !ok {
					return true
				}
				if id, ok := stmt.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
					p.Reportf(call.Pos(),
						"%s DeltaResult assigned to blank: bind it and thread its "+
							"epoch (or annotate //semalint:allow epochthread(reason))", name)
				}
			}
			return true
		})
	}
}

// deltaCall reports whether the call is (*instance.Instance).ApplyDelta
// or (*instance.Overlay).Commit, and returns the method name.
func deltaCall(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	var recv string
	switch sel.Sel.Name {
	case "ApplyDelta":
		recv = "Instance"
	case "Commit":
		recv = "Overlay"
	default:
		return "", false
	}
	tv, ok := p.Pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	typ := tv.Type
	if ptr, ok := typ.Underlying().(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	return sel.Sel.Name, obj.Name() == recv && path.Base(obj.Pkg().Path()) == "instance"
}
