package lint

import (
	"go/ast"
	"go/types"
)

// DetMap forbids raw `for range` iteration over maps inside the
// deterministic decision packages. Go randomizes map iteration order
// per run, so any map range whose body's effect depends on visit order
// (appending to a slice, first-wins election, emitting text) breaks the
// byte-identical-on-every-run contract in a way the runtime tests only
// catch when the randomized order happens to differ between runs.
//
// The sanctioned patterns are (a) collect the keys, sort them
// canonically (term.Subst.Domain, sort.Strings, ...) and range over
// the sorted slice — which is no longer a map range and therefore not
// flagged — or (b) annotate a genuinely order-independent loop with
// //semalint:allow detmap(reason).
var DetMap = &Analyzer{
	Name: "detmap",
	Doc: "forbid raw map iteration in deterministic decision packages " +
		"(chase, hom, containment, rewrite, core, yannakakis, game); " +
		"sort keys canonically first or annotate //semalint:allow detmap(reason)",
	Run: runDetMap,
}

func runDetMap(p *Pass) {
	if !isDeterministicPkg(p.Pkg) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Pkg.Info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				p.Reportf(rs.For,
					"range over map %s (%s) has nondeterministic iteration order in deterministic package %s; "+
						"iterate over canonically sorted keys or annotate //semalint:allow detmap(reason)",
					types.ExprString(rs.X), tv.Type, p.Pkg.Name)
			}
			return true
		})
	}
}
