package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetTaint tracks nondeterministic values through the whole program: a
// two-bit taint lattice — wall-clock/scheduling-dependent (nondet) and
// iteration-order-dependent (order) — seeded at the sources the
// determinism contract quarantines and checked at the sinks it
// protects.
//
// Sources: calls into time.Now/Since/Until and math/rand; any value of
// a telemetry-declared type (wall-clock measurements by construction —
// the internal/telemetry package itself is the sanctioned quarantine
// and is exempt); reads of sem:"nondet" fields; map-range key/value
// variables (order); len/cap of a channel; appends to a captured slice
// from inside a go-launched function (join order).
//
// Sanitizer: sorting a value through the sort package clears its order
// taint (the canonical collect-then-sort idiom).
//
// Sinks: assignments into sem:"det" fields, Fingerprint /
// DeterministicFingerprint inputs, and HTTP response-body writes
// (http.ResponseWriter writes, fmt.Fprint* to a ResponseWriter,
// json.NewEncoder(w).Encode, and any in-repo helper a tainted value
// reaches one through — per-function summaries propagate sink
// obligations to call sites across packages).
//
// Granularity: taint travels through locals, parameters, results,
// containers and sem-tagged fields. Untagged struct fields are a
// deliberate boundary — the annotation language is how a struct opts
// its state into the contract.
var DetTaint = &Analyzer{
	Name: "dettaint",
	Doc: "whole-program nondeterminism-taint tracking from clock/map-order/scheduling " +
		"sources to fingerprint, response-body and sem:\"det\" sinks",
	Run: runDetTaint,
}

func runDetTaint(p *Pass) {
	for _, d := range p.Prog.dettaintAll()[p.Pkg.Path] {
		p.Reportf(d.pos, "%s", d.msg)
	}
}

// taint is the two-bit lattice.
type taint uint8

const (
	taintNondet taint = 1 << iota // wall-clock / scheduling-dependent
	taintOrder                    // map-iteration / join-order-dependent
)

func (t taint) String() string {
	var parts []string
	if t&taintNondet != 0 {
		parts = append(parts, "wall-clock/scheduling-dependent")
	}
	if t&taintOrder != 0 {
		parts = append(parts, "iteration-order-dependent")
	}
	if len(parts) == 0 {
		return "clean"
	}
	return strings.Join(parts, " and ")
}

// recvBit is the provenance bit reserved for the method receiver.
const recvBit = 63

// taintSummary is one function's interprocedural contract.
type taintSummary struct {
	// retAlways taints every caller's view of the results.
	retAlways taint
	// paramToRet / recvToRet: a tainted argument (receiver) taints the
	// results.
	paramToRet uint64
	recvToRet  bool
	// sinkParam / recvSink: a tainted argument (receiver) reaches a
	// deterministic sink inside the function (or its callees).
	sinkParam uint64
	recvSink  bool
	// sinkDesc names the first sink for call-site diagnostics.
	sinkDesc string
}

func (s *taintSummary) equal(o *taintSummary) bool {
	return s.retAlways == o.retAlways && s.paramToRet == o.paramToRet &&
		s.recvToRet == o.recvToRet && s.sinkParam == o.sinkParam &&
		s.recvSink == o.recvSink
}

// dettaintAll runs the whole-program analysis once: a summary fixpoint
// over the call graph, then a reporting pass.
func (prog *Program) dettaintAll() map[string][]rawDiag {
	prog.dtOnce.Do(func() {
		prog.dtDiags = prog.checkDetTaint()
	})
	return prog.dtDiags
}

func (prog *Program) checkDetTaint() map[string][]rawDiag {
	anno := prog.annotations()

	// Captured-slice appends inside go-launched functions: the enclosing
	// slice's content arrives in goroutine-join order.
	captured := map[types.Object]taint{}
	for _, f := range prog.Funcs {
		if !f.GoCall {
			continue
		}
		body := f.Body()
		f.eachNode(func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(as.Lhs) {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
				if !ok {
					continue
				}
				obj := f.Pkg.Info.Uses[lhs]
				if obj == nil {
					obj = f.Pkg.Info.Defs[lhs]
				}
				// Captured: declared before the goroutine body.
				if obj != nil && (obj.Pos() < body.Pos() || obj.Pos() > body.End()) {
					captured[obj] |= taintOrder
				}
			}
			return true
		})
	}

	sums := map[*Func]*taintSummary{}
	for _, f := range prog.Funcs {
		sums[f] = &taintSummary{}
	}
	for round := 0; ; round++ {
		changed := false
		for _, f := range prog.Funcs {
			st := newDTState(prog, anno, f, sums, captured)
			st.analyze()
			if !st.sum.equal(sums[f]) {
				sums[f] = st.sum
				changed = true
			}
		}
		if !changed || round > 32 {
			break
		}
	}

	diags := map[string][]rawDiag{}
	for _, f := range prog.Funcs {
		st := newDTState(prog, anno, f, sums, captured)
		st.report = func(pos token.Pos, format string, args ...any) {
			diags[f.Pkg.Path] = append(diags[f.Pkg.Path], rawDiag{pos: pos, msg: fmt.Sprintf(format, args...)})
		}
		st.analyze()
	}
	for path := range diags {
		sortRawDiags(diags[path])
	}
	return diags
}

// dtState is the per-function analysis state.
type dtState struct {
	prog     *Program
	anno     *annoIndex
	f        *Func
	pkg      *Package
	sums     map[*Func]*taintSummary
	captured map[types.Object]taint

	objTaint map[types.Object]taint
	objProv  map[types.Object]uint64
	sorted   map[types.Object]bool
	sum      *taintSummary
	exempt   bool // internal/telemetry: the sanctioned quarantine
	report   func(pos token.Pos, format string, args ...any)
}

func newDTState(prog *Program, anno *annoIndex, f *Func, sums map[*Func]*taintSummary, captured map[types.Object]taint) *dtState {
	st := &dtState{
		prog:     prog,
		anno:     anno,
		f:        f,
		pkg:      f.Pkg,
		sums:     sums,
		captured: captured,
		objTaint: map[types.Object]taint{},
		objProv:  map[types.Object]uint64{},
		sorted:   map[types.Object]bool{},
		sum:      &taintSummary{},
		exempt:   isTelemetryPkg(f.Pkg),
	}
	if sig := f.Sig(); sig != nil {
		if recv := sig.Recv(); recv != nil {
			st.objProv[recv] = 1 << recvBit
		}
		params := sig.Params()
		for i := 0; i < params.Len() && i < recvBit; i++ {
			st.objProv[params.At(i)] = 1 << uint(i)
		}
	}
	return st
}

// analyze runs the local propagation to a fixpoint, then (when report
// is set) replays once more emitting sink findings.
func (st *dtState) analyze() {
	st.collectSorted()
	for i := 0; i < 8; i++ {
		if !st.transfer(false) {
			break
		}
	}
	st.transfer(st.report != nil)
}

// collectSorted pre-marks objects passed to the sort package: their
// order taint is considered sanitized (collect-then-sort idiom).
func (st *dtState) collectSorted() {
	st.f.eachCall(func(call *ast.CallExpr) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		obj, ok := st.pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sort" {
			return
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if o := st.pkg.Info.Uses[id]; o != nil {
				st.sorted[o] = true
			}
		}
	})
}

// transfer runs one monotone pass over the body; reports sinks when
// emit is true. Returns whether any object state changed.
func (st *dtState) transfer(emit bool) bool {
	changed := false
	mergeObj := func(obj types.Object, t taint, p uint64) {
		if obj == nil {
			return
		}
		if st.sorted[obj] {
			t &^= taintOrder
		}
		if st.objTaint[obj]|t != st.objTaint[obj] {
			st.objTaint[obj] |= t
			changed = true
		}
		if st.objProv[obj]|p != st.objProv[obj] {
			st.objProv[obj] |= p
			changed = true
		}
	}

	st.f.eachNode(func(n ast.Node) bool {
		switch nd := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range nd.Lhs {
				var t taint
				var p uint64
				if len(nd.Rhs) == len(nd.Lhs) {
					t, p = st.eval(nd.Rhs[i])
				} else if len(nd.Rhs) == 1 {
					// multi-value: every LHS gets the call's taint
					t, p = st.eval(nd.Rhs[0])
				}
				st.assignTo(lhs, t, p, mergeObj, emit)
			}
		case *ast.RangeStmt:
			t, p := st.eval(nd.X)
			xt := st.pkg.Info.TypeOf(nd.X)
			if xt != nil {
				if _, isMap := xt.Underlying().(*types.Map); isMap && !st.exempt {
					t |= taintOrder
				}
			}
			if id, ok := nd.Key.(*ast.Ident); ok {
				mergeObj(st.defOrUse(id), t, p)
			}
			if id, ok := nd.Value.(*ast.Ident); ok {
				mergeObj(st.defOrUse(id), t, p)
			}
		case *ast.ReturnStmt:
			for _, r := range nd.Results {
				t, p := st.eval(r)
				st.mergeReturn(t, p)
			}
		case *ast.CallExpr:
			st.checkCallSinks(nd, emit)
		}
		return true
	})
	return changed
}

func (st *dtState) defOrUse(id *ast.Ident) types.Object {
	if o := st.pkg.Info.Defs[id]; o != nil {
		return o
	}
	return st.pkg.Info.Uses[id]
}

// assignTo handles one LHS: locals accumulate, det-tagged fields are
// sinks, untagged fields are the boundary, containers absorb element
// taint.
func (st *dtState) assignTo(lhs ast.Expr, t taint, p uint64, mergeObj func(types.Object, taint, uint64), emit bool) {
	switch lv := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		mergeObj(st.defOrUse(lv), t, p)
	case *ast.SelectorExpr:
		if sel, ok := st.pkg.Info.Selections[lv]; ok && sel.Kind() == types.FieldVal {
			if field, ok := sel.Obj().(*types.Var); ok {
				if a, ok := st.anno.fields[field]; ok && a.det && !st.exempt {
					st.sinkHit(lv.Pos(), t, p, fmt.Sprintf("sem:\"det\" field %s", field.Name()), emit)
				}
			}
		}
	case *ast.IndexExpr:
		// m[k] = v: the container carries its elements' taint.
		if id, ok := ast.Unparen(lv.X).(*ast.Ident); ok {
			mergeObj(st.defOrUse(id), t, p)
		}
	case *ast.StarExpr:
		st.assignTo(lv.X, t, p, mergeObj, emit)
	}
}

// mergeReturn folds a result expression into the summary.
func (st *dtState) mergeReturn(t taint, p uint64) {
	st.sum.retAlways |= t
	st.sum.paramToRet |= p &^ (1 << recvBit)
	if p&(1<<recvBit) != 0 {
		st.sum.recvToRet = true
	}
}

// sinkHit records a sink reached by taint (finding) or by parameter
// provenance (summary obligation for call sites).
func (st *dtState) sinkHit(pos token.Pos, t taint, p uint64, desc string, emit bool) {
	if p != 0 {
		st.sum.sinkParam |= p &^ (1 << recvBit)
		if p&(1<<recvBit) != 0 {
			st.sum.recvSink = true
		}
		if st.sum.sinkDesc == "" {
			st.sum.sinkDesc = desc
		}
	}
	if t != 0 && emit {
		st.report(pos, "%s value flows into %s; the determinism contract forbids it (sanitize, restructure, or reclassify the field)", t, desc)
	}
}

// eval computes the taint and parameter provenance of an expression.
func (st *dtState) eval(e ast.Expr) (taint, uint64) {
	t, p := st.evalInner(e)
	if !st.exempt {
		if tv := st.pkg.Info.TypeOf(e); tv != nil && isTelemetryType(tv) {
			t |= taintNondet
		}
	}
	return t, p
}

func (st *dtState) evalInner(e ast.Expr) (taint, uint64) {
	switch ex := ast.Unparen(e).(type) {
	case nil:
		return 0, 0
	case *ast.Ident:
		obj := st.defOrUse(ex)
		if obj == nil {
			return 0, 0
		}
		t := st.objTaint[obj] | st.captured[obj]
		if st.sorted[obj] {
			t &^= taintOrder
		}
		return t, st.objProv[obj]
	case *ast.SelectorExpr:
		return st.evalSelector(ex)
	case *ast.CallExpr:
		return st.evalCall(ex)
	case *ast.BinaryExpr:
		t1, p1 := st.eval(ex.X)
		t2, p2 := st.eval(ex.Y)
		return t1 | t2, p1 | p2
	case *ast.UnaryExpr:
		if ex.Op == token.ARROW {
			// Channel receive: the repo's channels carry stop signals
			// and the server's work queue, whose results land in
			// indexed slots, so a receive is not a source; join *order*
			// dependence is caught at captured-append sites.
			return st.eval(ex.X)
		}
		return st.eval(ex.X)
	case *ast.StarExpr:
		return st.eval(ex.X)
	case *ast.IndexExpr:
		t1, p1 := st.eval(ex.X)
		t2, p2 := st.eval(ex.Index)
		return t1 | t2, p1 | p2
	case *ast.SliceExpr:
		return st.eval(ex.X)
	case *ast.TypeAssertExpr:
		return st.eval(ex.X)
	case *ast.CompositeLit:
		var t taint
		var p uint64
		for _, el := range ex.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				// A value destined for a nondet-tagged struct field does
				// not taint the composite — the tag is the carrier.
				if key, ok := kv.Key.(*ast.Ident); ok {
					if field, ok := st.pkg.Info.Uses[key].(*types.Var); ok {
						if a, ok := st.anno.fields[field]; ok && a.nondet {
							continue
						}
					}
				}
				kt, kp := st.eval(kv.Value)
				t |= kt
				p |= kp
				continue
			}
			et, ep := st.eval(el)
			t |= et
			p |= ep
		}
		return t, p
	case *ast.FuncLit:
		return 0, 0
	}
	return 0, 0
}

// evalSelector handles field reads: sem:"nondet" fields are sources,
// sem:"det" fields are trusted clean, untagged fields are the boundary.
func (st *dtState) evalSelector(sel *ast.SelectorExpr) (taint, uint64) {
	if selection, ok := st.pkg.Info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
		if field, ok := selection.Obj().(*types.Var); ok {
			if a, ok := st.anno.fields[field]; ok {
				switch {
				case a.nondet && !st.exempt:
					return taintNondet, 0
				case a.det:
					return 0, 0
				}
			}
		}
		return 0, 0
	}
	// Package-qualified identifier or method value: resolve the object.
	if obj := st.pkg.Info.Uses[sel.Sel]; obj != nil {
		if v, ok := obj.(*types.Var); ok {
			return st.objTaint[v] | st.captured[v], st.objProv[v]
		}
	}
	return 0, 0
}

// evalCall computes a call's result taint and checks its sink rules.
func (st *dtState) evalCall(call *ast.CallExpr) (taint, uint64) {
	// Conversions are transparent.
	if tv, ok := st.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return st.eval(call.Args[0])
	}

	if t, p, ok := st.evalBuiltinOrStdlib(call); ok {
		return t, p
	}

	if callee := st.prog.Callee(st.pkg, call); callee != nil {
		sum := st.sums[callee]
		t := sum.retAlways
		var p uint64
		var recvT taint
		var recvP uint64
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isMethod := st.pkg.Info.Selections[sel]; isMethod {
				recvT, recvP = st.eval(sel.X)
			}
		}
		if sum.recvToRet {
			t |= recvT
			p |= recvP
		}
		for i, a := range call.Args {
			if i >= recvBit {
				break
			}
			at, ap := st.eval(a)
			if sum.paramToRet&(1<<uint(i)) != 0 {
				t |= at
				p |= ap
			}
		}
		return t, p
	}

	// Unknown callee (stdlib with a body we did not load, interface
	// method, function value): results inherit the arguments.
	var t taint
	var p uint64
	for _, a := range call.Args {
		at, ap := st.eval(a)
		t |= at
		p |= ap
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := st.pkg.Info.Selections[sel]; isMethod {
			rt, rp := st.eval(sel.X)
			t |= rt
			p |= rp
		}
	}
	return t, p
}

// evalBuiltinOrStdlib special-cases the taint-relevant builtins and
// standard-library functions.
func (st *dtState) evalBuiltinOrStdlib(call *ast.CallExpr) (taint, uint64, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "len", "cap":
			if len(call.Args) == 1 {
				if tv := st.pkg.Info.TypeOf(call.Args[0]); tv != nil {
					if _, isChan := tv.Underlying().(*types.Chan); isChan {
						if st.exempt {
							return 0, 0, true
						}
						return taintNondet, 0, true // queue depth is scheduling state
					}
				}
			}
			return 0, 0, true // count of a container is order-free
		case "append":
			var t taint
			var p uint64
			for _, a := range call.Args {
				at, ap := st.eval(a)
				t |= at
				p |= ap
			}
			return t, p, true
		case "make", "new", "copy", "min", "max", "complex", "real", "imag":
			return 0, 0, true
		}
		if obj, ok := st.pkg.Info.Uses[fun].(*types.Func); ok {
			if t, ok := stdlibSource(obj, st.exempt); ok {
				return t, 0, true
			}
		}
	case *ast.SelectorExpr:
		if obj, ok := st.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if t, ok := stdlibSource(obj, st.exempt); ok {
				return t, 0, true
			}
			if obj.Pkg() != nil && obj.Pkg().Path() == "sort" {
				return 0, 0, true // sanitizer, handled in collectSorted
			}
		}
	}
	return 0, 0, false
}

// stdlibSource classifies standard-library calls that are taint
// sources.
func stdlibSource(obj *types.Func, exempt bool) (taint, bool) {
	pkg := obj.Pkg()
	if pkg == nil {
		return 0, false
	}
	switch pkg.Path() {
	case "time":
		switch obj.Name() {
		case "Now", "Since", "Until":
			if exempt {
				return 0, true
			}
			return taintNondet, true
		}
	case "math/rand", "math/rand/v2", "crypto/rand":
		if exempt {
			return 0, true
		}
		return taintNondet, true
	}
	return 0, false
}

// checkCallSinks applies the response-body sink rules to one call.
func (st *dtState) checkCallSinks(call *ast.CallExpr, emit bool) {
	if st.exempt {
		return
	}

	// Fingerprint inputs — matched by name whether or not the callee
	// body is in the program: an in-repo fingerprint implementation is
	// exactly as much a sink as an external one.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
		(sel.Sel.Name == "Fingerprint" || sel.Sel.Name == "DeterministicFingerprint") {
		rt, rp := st.eval(sel.X)
		st.sinkHit(call.Pos(), rt, rp, fmt.Sprintf("fingerprint input %s.%s", exprText(sel.X), sel.Sel.Name), emit)
		for _, a := range call.Args {
			at, ap := st.eval(a)
			st.sinkHit(a.Pos(), at, ap, fmt.Sprintf("fingerprint input %s.%s", exprText(sel.X), sel.Sel.Name), emit)
		}
		return
	}

	// In-repo callee with sink obligations: a tainted argument bound to
	// a sink parameter fires here, at the call site.
	if callee := st.prog.Callee(st.pkg, call); callee != nil {
		sum := st.sums[callee]
		if sum.recvSink {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if _, isMethod := st.pkg.Info.Selections[sel]; isMethod {
					rt, rp := st.eval(sel.X)
					st.sinkHit(call.Pos(), rt, rp, sinkDescOf(sum, callee), emit)
				}
			}
		}
		if sum.sinkParam != 0 {
			for i, a := range call.Args {
				if i >= recvBit || sum.sinkParam&(1<<uint(i)) == 0 {
					continue
				}
				at, ap := st.eval(a)
				st.sinkHit(a.Pos(), at, ap, sinkDescOf(sum, callee), emit)
			}
		}
		// Telemetry exposition into an HTTP response: the telemetry
		// package is all nondeterministic by design, so handing it a
		// ResponseWriter is a body write of nondeterministic data.
		if isTelemetryPkg(callee.Pkg) {
			for _, a := range call.Args {
				if st.isResponseWriter(a) && emit {
					st.report(call.Pos(), "http.ResponseWriter passed into telemetry function %s: the response body becomes wall-clock-dependent", callee.Name)
				}
			}
		}
		return
	}

	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return
	}

	// w.Write(b) on a ResponseWriter.
	if sel.Sel.Name == "Write" && st.isResponseWriter(sel.X) {
		for _, a := range call.Args {
			at, ap := st.eval(a)
			st.sinkHit(a.Pos(), at, ap, "the HTTP response body", emit)
		}
		return
	}

	// json.NewEncoder(w).Encode(v) with w a ResponseWriter.
	if sel.Sel.Name == "Encode" {
		if inner, ok := ast.Unparen(sel.X).(*ast.CallExpr); ok {
			if innerSel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr); ok {
				if obj, ok := st.pkg.Info.Uses[innerSel.Sel].(*types.Func); ok &&
					obj.Pkg() != nil && obj.Pkg().Path() == "encoding/json" && obj.Name() == "NewEncoder" &&
					len(inner.Args) == 1 && st.isResponseWriter(inner.Args[0]) {
					for _, a := range call.Args {
						at, ap := st.eval(a)
						st.sinkHit(a.Pos(), at, ap, "the HTTP response body (json.NewEncoder(w).Encode)", emit)
					}
				}
			}
		}
		return
	}

	// fmt.Fprint* with a ResponseWriter destination.
	if obj, ok := st.pkg.Info.Uses[sel.Sel].(*types.Func); ok &&
		obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && strings.HasPrefix(obj.Name(), "Fprint") &&
		len(call.Args) > 0 && st.isResponseWriter(call.Args[0]) {
		for _, a := range call.Args[1:] {
			at, ap := st.eval(a)
			st.sinkHit(a.Pos(), at, ap, "the HTTP response body (fmt."+obj.Name()+")", emit)
		}
	}
}

func sinkDescOf(sum *taintSummary, callee *Func) string {
	if sum.sinkDesc != "" {
		return fmt.Sprintf("%s (via %s)", sum.sinkDesc, callee.Name)
	}
	return fmt.Sprintf("a deterministic sink inside %s", callee.Name)
}

// isResponseWriter reports whether an expression's static type is the
// net/http.ResponseWriter interface.
func (st *dtState) isResponseWriter(e ast.Expr) bool {
	t := st.pkg.Info.TypeOf(e)
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ResponseWriter"
}
