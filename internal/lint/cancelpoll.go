package lint

import (
	"go/ast"
	"strings"
)

// CancelPoll enforces the PR 3 cancellation contract: every loop in a
// deterministic decision package that is not structurally bounded — a
// `for {}` or a while-style `for cond {}` fixpoint/worklist loop —
// must be able to reach an Options.Cancel poll on some path, so a
// pathological input can always be aborted by deadline.
//
// A loop satisfies the contract when its body (at any nesting depth)
// contains a cancellation check: a call whose callee name mentions
// cancellation (stop.Cancelled, the one poll every engine shares, and
// yannakakis's row-counting evalState.cancelled around it), a receive
// from a cancel/done channel, a use of the stop.ErrCancelled sentinel,
// or a call — resolved through the whole-program call graph,
// across package boundaries — to a function that itself (transitively)
// polls. Compare-and-swap retry loops are exempt: a loop that calls
// CompareAndSwap terminates by the CAS contract. Three-clause
// `for i := 0; i < n; i++` loops and `range` loops are structurally
// bounded and never flagged.
//
// Genuinely bounded while-loops (digit extraction, binary search) are
// annotated //semalint:allow cancelpoll(reason).
var CancelPoll = &Analyzer{
	Name: "cancelpoll",
	Doc: "require unbounded/fixpoint loops in deterministic decision packages " +
		"to reach an Options.Cancel poll on some path (the PR 3 cancellation contract)",
	Run: runCancelPoll,
}

func runCancelPoll(p *Pass) {
	if !isDeterministicPkg(p.Pkg) {
		return
	}
	polling := p.Prog.pollingAll()

	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fs, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			unbounded := fs.Cond == nil || (fs.Init == nil && fs.Post == nil)
			if !unbounded {
				return true
			}
			if bodyPolls(p.Prog, p.Pkg, fs.Body, polling) || callsCAS(fs.Body) {
				return true
			}
			p.Reportf(fs.For,
				"unbounded loop cannot reach an Options.Cancel poll; "+
					"check cancellation on the loop path or annotate //semalint:allow cancelpoll(reason)")
			return true
		})
	}
}

// pollingAll computes, once per program, which functions (declared or
// literal, in any in-repo package) transitively reach a cancellation
// poll — the whole-program fixpoint the per-loop check consults.
func (prog *Program) pollingAll() map[*Func]bool {
	prog.pollOnce.Do(func() {
		polling := map[*Func]bool{}
		for changed := true; changed; {
			changed = false
			for _, f := range prog.Funcs {
				if polling[f] {
					continue
				}
				if bodyPolls(prog, f.Pkg, f.Body(), polling) {
					polling[f] = true
					changed = true
				}
			}
		}
		prog.polling = polling
	})
	return prog.polling
}

// calleeName extracts the final name of a call target: f(...) -> "f",
// x.m(...) -> "m". Anonymous callees return "".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// mentionsCancel reports whether a name is cancellation-flavoured.
func mentionsCancel(name string) bool {
	return strings.Contains(strings.ToLower(name), "cancel")
}

// bodyPolls reports whether the subtree contains a cancellation check,
// directly or through a call — resolved across packages by the program
// call graph — to a known-polling function.
func bodyPolls(prog *Program, pkg *Package, body ast.Node, polling map[*Func]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if mentionsCancel(calleeName(x)) {
				found = true
				return false
			}
			if callee := prog.Callee(pkg, x); callee != nil && polling[callee] {
				found = true
				return false
			}
		case *ast.Ident:
			// Returning or comparing an ErrCancelled sentinel marks a
			// cancellation path even without a named poll call.
			if strings.Contains(x.Name, "ErrCancelled") {
				found = true
				return false
			}
		case *ast.UnaryExpr:
			// <-o.Cancel / <-ctx.Done() style receives, including
			// inside select statements.
			if x.Op.String() == "<-" {
				if s := chanText(x.X); strings.Contains(s, "Cancel") || strings.Contains(s, "Done") {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// callsCAS reports whether the subtree performs a CompareAndSwap —
// the CAS retry-loop exemption.
func callsCAS(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && strings.HasPrefix(calleeName(call), "CompareAndSwap") {
			found = true
			return false
		}
		return !found
	})
	return found
}

// chanText renders a channel expression (idents, selections, calls) for
// cancellation-name matching.
func chanText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return chanText(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return chanText(x.Fun) + "()"
	case *ast.ParenExpr:
		return chanText(x.X)
	}
	return ""
}
