package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ErrWrap enforces the error-identity half of the cancellation
// contract, everywhere in the module:
//
//   - sentinel errors (stop.ErrCancelled and friends — any
//     error-typed identifier named Err*) must be compared with
//     errors.Is, never with == or != : a layer may wrap a sentinel
//     with context (fmt.Errorf("core: %w", err)), and an == comparison
//     that happens to work today silently breaks when one does;
//   - fmt.Errorf must wrap error operands with %w, not flatten them
//     through %v/%s, so errors.Is keeps seeing the sentinel through
//     the new message.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc: "require errors.Is for sentinel comparisons and %w (not %v/%s) when " +
		"fmt.Errorf formats an error, so cancellation sentinels survive wrapping",
	Run: runErrWrap,
}

func runErrWrap(p *Pass) {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

	isSentinel := func(e ast.Expr) bool {
		var name string
		switch x := e.(type) {
		case *ast.Ident:
			name = x.Name
		case *ast.SelectorExpr:
			name = x.Sel.Name
		default:
			return false
		}
		if !strings.HasPrefix(name, "Err") || len(name) == len("Err") {
			return false
		}
		tv, ok := p.Pkg.Info.Types[e]
		return ok && tv.Type != nil && types.Implements(tv.Type, errType)
	}

	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op != token.EQL && x.Op != token.NEQ {
					return true
				}
				for _, side := range []ast.Expr{x.X, x.Y} {
					if isSentinel(side) {
						p.Reportf(x.OpPos,
							"sentinel error %s compared with %s; use errors.Is so wrapped and "+
								"folded sentinels still match", types.ExprString(side), x.Op)
						break
					}
				}
			case *ast.CallExpr:
				checkErrorf(p, x, errType)
			}
			return true
		})
	}
}

// checkErrorf flags fmt.Errorf calls that format an error operand with
// %v or %s instead of wrapping it with %w.
func checkErrorf(p *Pass, call *ast.CallExpr, errType *types.Interface) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" || importedPkg(p, sel) != "fmt" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs, ok := formatVerbs(format)
	if !ok {
		return
	}
	for i, verb := range verbs {
		argIdx := 1 + i
		if argIdx >= len(call.Args) {
			return
		}
		if verb != 'v' && verb != 's' {
			continue
		}
		arg := call.Args[argIdx]
		tv, ok := p.Pkg.Info.Types[arg]
		if !ok || tv.Type == nil || !types.Implements(tv.Type, errType) {
			continue
		}
		p.Reportf(arg.Pos(),
			"fmt.Errorf formats error %s with %%%c; wrap it with %%w so errors.Is "+
				"sees through the new message", types.ExprString(arg), verb)
	}
}

// formatVerbs returns the verb letters of a format string in argument
// order. It bails (ok=false) on '*' widths and explicit argument
// indexes, which shift the verb/argument correspondence.
func formatVerbs(format string) (verbs []byte, ok bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// flags, width, precision
		for i < len(format) && strings.IndexByte("+-# 0123456789.", format[i]) >= 0 {
			i++
		}
		if i >= len(format) {
			return nil, false
		}
		switch format[i] {
		case '%':
			continue
		case '*', '[':
			return nil, false
		}
		verbs = append(verbs, format[i])
	}
	return verbs, true
}
