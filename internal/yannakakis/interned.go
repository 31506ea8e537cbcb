package yannakakis

import (
	"cmp"
	"fmt"
	"slices"

	"semacyclic/internal/cq"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
)

// This file is the interned, integer-coded evaluator. Compile lowers a
// (query, join forest) pair into a Compiled program whose every step —
// leaf verification, semijoin columns, the whole phase-3 join/project
// cascade — is precomputed as integer column indices, so Execute never
// touches a term.Term until the final answer boundary and never
// materializes a string at all. Relations flow through Execute as flat
// row-major []symtab.ID matrices; semijoin filters are sorted id runs
// probed by binary search (zero allocations per probe) instead of
// map[string]bool keyed by per-row string materializations.
//
// A Boolean plan (no free variables) stops after leaf loading and the
// bottom-up semijoin pass: it answers {()} iff every root is non-empty,
// and runs no top-down pass, no phase-3 join and no cross-product, so
// its JoinRows is 0 and its Semijoins is the number of forest edges.
// Execute, ExecuteView, ExecuteState and ExecuteDelta (full fallback
// and per-tree repair alike) all take the stop.
//
// Equivalence with the string oracle (oracle.go) is structural, not
// accidental: every stage mirrors the oracle's candidate choice,
// iteration order, dedup-keeps-first rule and stats arithmetic, and the
// differential tests enforce answer-for-answer, stat-for-stat equality.
// Interned ids never reach the output: answers are ordered by
// term.CompareTuples, the canonical key order the oracle sorts by key
// strings, so answers, EvalStats and fingerprints stay byte-identical
// whatever ids a build assigned.

// edge holds one semijoin's projection columns: li into the left
// (reduced) relation, ri into the right (filter) relation.
type cedge struct {
	li, ri []int32
}

// cjoin is one compiled phase-3 join step: shared columns plus the
// right-side columns appended to the output row.
type cjoin struct {
	li, ri []int32
	rExtra []int32
	outW   int
}

// rootStep combines one tree's reduced projection into the running
// cross-product accumulator.
type rootStep struct {
	keep   []int32
	li, ri []int32
	rExtra []int32
	outW   int
}

// cnode is the compiled form of one join-forest node.
type cnode struct {
	pred  string
	arity int
	w     int // row width: number of distinct flexible terms

	// Per argument position: a plan-constant index (argConst >= 0) or a
	// row column (argVar >= 0); argFirst marks the defining occurrence
	// of each column, later occurrences are equality checks — together
	// they are MatchTuple compiled to integer compares.
	argConst []int32
	argVar   []int32
	argFirst []bool
	constPos []int32 // constant positions in argument order (probe order)

	down cedge // parent ⋉ this (phase 1)
	up   cedge // this ⋉ parent (phase 2)

	joins []cjoin // phase-3 joins, one per child in children order
	keep  []int32 // phase-3 projection columns after the joins
}

// Compiled is an executable query plan: the integer-coded program for
// one (query, forest) pair. It is immutable after Compile and safe for
// concurrent Execute calls — the compiled-plan caches in internal/core
// and semacycd share one Compiled across goroutines.
type Compiled struct {
	query  *cq.CQ
	forest *hypergraph.Forest

	nodes    []cnode
	post     []int
	roots    []int
	children [][]int

	// consts are the distinct query-side constants; Execute translates
	// them to database ids once per call (the only query-side intern
	// work that cannot be done at compile time, since each database has
	// its own table).
	consts []term.Term

	rootSteps []rootStep
	colIdx    []int32 // result columns ordered as query.Free

	// Delta-repair indexes (see delta.go): the nodes using each
	// predicate, each node's tree (index into roots), and each tree's
	// node set.
	predNode  map[string][]int32
	treeOf    []int32
	treeNodes [][]int32
}

// NumTrees returns the number of join trees in the plan's forest — the
// denominator of the reused/repaired/recomputed split an incremental
// run reports in its EvalStats.
func (c *Compiled) NumTrees() int { return len(c.roots) }

// Compile lowers the query and its join forest into an executable
// integer-coded program. The forest must cover exactly the query's
// atoms (the hypergraph.GYO contract).
func Compile(q *cq.CQ, forest *hypergraph.Forest) (*Compiled, error) {
	c := &Compiled{query: q, forest: forest}
	c.children = forest.Children()
	c.roots = forest.Roots()
	c.post = postorder(forest, c.roots, c.children)

	constIdx := make(map[term.Term]int)
	internConst := func(t term.Term) int32 {
		if i, ok := constIdx[t]; ok {
			return int32(i)
		}
		i := len(c.consts)
		constIdx[t] = i
		c.consts = append(c.consts, t)
		return int32(i)
	}

	nodeVars := make([][]term.Term, forest.Len())
	c.nodes = make([]cnode, forest.Len())
	for i, a := range forest.Atoms {
		vars := flexTerms(a)
		nodeVars[i] = vars
		n := &c.nodes[i]
		n.pred = a.Pred
		n.arity = len(a.Args)
		n.w = len(vars)
		n.argConst = make([]int32, n.arity)
		n.argVar = make([]int32, n.arity)
		n.argFirst = make([]bool, n.arity)
		seenCol := make([]bool, n.w)
		for pos, t := range a.Args {
			if t.IsConst() {
				n.argConst[pos] = internConst(t)
				n.argVar[pos] = -1
				n.constPos = append(n.constPos, int32(pos))
				continue
			}
			n.argConst[pos] = -1
			col := indexOf(vars, t)
			n.argVar[pos] = int32(col)
			if !seenCol[col] {
				n.argFirst[pos] = true
				seenCol[col] = true
			}
		}
	}

	// Semijoin edges, both directions, mirroring the oracle's
	// sharedColumns calls in phases 1 and 2.
	for i := range c.nodes {
		p := forest.Parent[i]
		if p < 0 {
			continue
		}
		_, li, ri := sharedColumns(nodeVars[p], nodeVars[i])
		c.nodes[i].down = cedge{li: toInt32(li), ri: toInt32(ri)}
		_, li, ri = sharedColumns(nodeVars[i], nodeVars[p])
		c.nodes[i].up = cedge{li: toInt32(li), ri: toInt32(ri)}
	}

	freeSet := make(map[term.Term]bool, len(q.Free))
	for _, x := range q.Free {
		freeSet[x] = true
	}

	// Phase 3 is data-independent in shape: simulate the oracle's
	// joinUp on variable lists alone, recording each join/projection as
	// integer column programs.
	var sim func(i int) []term.Term
	sim = func(i int) []term.Term {
		n := &c.nodes[i]
		vars := append([]term.Term(nil), nodeVars[i]...)
		for _, ch := range c.children[i] {
			cvars := sim(ch)
			var j cjoin
			_, li, ri := sharedColumns(vars, cvars)
			j.li, j.ri = toInt32(li), toInt32(ri)
			outVars := append([]term.Term(nil), vars...)
			for k, v := range cvars {
				if indexOf(vars, v) < 0 {
					j.rExtra = append(j.rExtra, int32(k))
					outVars = append(outVars, v)
				}
			}
			j.outW = len(outVars)
			n.joins = append(n.joins, j)
			vars = outVars
		}
		var keepV []term.Term
		for k, v := range vars {
			if freeSet[v] || containsTerm(nodeVars[i], v) {
				keepV = append(keepV, v)
				n.keep = append(n.keep, int32(k))
			}
		}
		return keepV
	}

	resultVars := []term.Term{}
	for _, r := range c.roots {
		uv := sim(r)
		var step rootStep
		var keepV []term.Term
		for k, v := range uv {
			if freeSet[v] {
				keepV = append(keepV, v)
				step.keep = append(step.keep, int32(k))
			}
		}
		_, li, ri := sharedColumns(resultVars, keepV)
		step.li, step.ri = toInt32(li), toInt32(ri)
		outVars := append([]term.Term(nil), resultVars...)
		for k, v := range keepV {
			if indexOf(resultVars, v) < 0 {
				step.rExtra = append(step.rExtra, int32(k))
				outVars = append(outVars, v)
			}
		}
		step.outW = len(outVars)
		c.rootSteps = append(c.rootSteps, step)
		resultVars = outVars
	}

	c.colIdx = make([]int32, len(q.Free))
	for i, x := range q.Free {
		j := indexOf(resultVars, x)
		if j < 0 {
			return nil, fmt.Errorf("yannakakis: free variable %s lost during evaluation", x)
		}
		c.colIdx[i] = int32(j)
	}

	c.predNode = make(map[string][]int32, len(c.nodes))
	for i := range c.nodes {
		p := c.nodes[i].pred
		c.predNode[p] = append(c.predNode[p], int32(i))
	}
	c.treeOf = make([]int32, len(c.nodes))
	c.treeNodes = make([][]int32, len(c.roots))
	for ridx, r := range c.roots {
		var collect func(i int)
		collect = func(i int) {
			c.treeOf[i] = int32(ridx)
			c.treeNodes[ridx] = append(c.treeNodes[ridx], int32(i))
			for _, ch := range c.children[i] {
				collect(ch)
			}
		}
		collect(r)
	}
	return c, nil
}

func toInt32(xs []int) []int32 {
	if len(xs) == 0 {
		return nil
	}
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// irel is a relation in flight: n rows of width w, flat row-major.
// Width 0 (Boolean projections) carries its cardinality in n alone.
type irel struct {
	w, n int
	ids  []symtab.ID
}

// ievalState extends the shared cancellation state with the reusable
// scratch buffers of one Execute call.
type ievalState struct {
	evalState
	filter []symtab.ID // sorted semijoin filter rows
	key    []symtab.ID // projected probe key
}

// Execute runs the compiled program over db. Safe for concurrent use
// of the same Compiled; all mutable state is per-call. The database's
// interned view is built on first use and cached until mutation.
func (c *Compiled) Execute(db *instance.Instance, opt Options) ([][]term.Term, error) {
	ans, _, err := c.executeView(db.Interned(), opt, false)
	return ans, err
}

// ExecuteView runs the compiled program over an explicit interned view
// — the entry point for overlay (what-if) evaluation, where the view
// is a patched image of a base instance rather than the instance's own
// cache. Answers and stats are exactly Execute's for the view's atoms.
func (c *Compiled) ExecuteView(iv *instance.InternedView, opt Options) ([][]term.Term, error) {
	ans, _, err := c.executeView(iv, opt, false)
	return ans, err
}

// ExecuteState is Execute retaining the per-tree semijoin-reducer
// state ExecuteDelta repairs on later runs. Answers and stats are
// byte-identical to Execute's; the extra work is only the bookkeeping
// of the per-root reduced projections the run computes anyway. When an
// empty node cuts evaluation short the returned state is marked
// incomplete (its projections never materialized) and a later
// ExecuteDelta falls back to a full recompute.
func (c *Compiled) ExecuteState(db *instance.Instance, opt Options) ([][]term.Term, *ReducerState, error) {
	return c.executeView(db.Interned(), opt, true)
}

// lookupConsts translates the plan's constants into a view's id space.
// A miss proves the constant matches no fact of the view.
func (c *Compiled) lookupConsts(iv *instance.InternedView) ([]symtab.ID, []bool) {
	constID := make([]symtab.ID, len(c.consts))
	constOK := make([]bool, len(c.consts))
	for i, t := range c.consts {
		constID[i], constOK[i] = iv.Table.Lookup(t)
	}
	return constID, constOK
}

// executeView is the shared full-evaluation core behind Execute,
// ExecuteView and ExecuteState.
func (c *Compiled) executeView(iv *instance.InternedView, opt Options, keepState bool) ([][]term.Term, *ReducerState, error) {
	st := &ievalState{evalState: evalState{opt: opt}}
	if st.opt.Stats != nil {
		st.opt.Stats.Method = "yannakakis"
	}

	// The per-database string→id boundary: translate the plan's
	// constants once.
	constID, constOK := c.lookupConsts(iv)

	leafSp := opt.Trace.Start("yannakakis:leaves")
	rels := make([]irel, len(c.nodes))
	for i := range c.nodes {
		r, err := loadLeaf(&c.nodes[i], iv, constID, constOK, st)
		if err != nil {
			return nil, nil, err
		}
		rels[i] = r
	}
	leafSp.End()

	// Phase 1: bottom-up semijoin parent ⋉ child.
	upSp := opt.Trace.Start("yannakakis:semijoin-up")
	for _, i := range c.post {
		if p := c.forest.Parent[i]; p >= 0 {
			if err := st.semijoin(&rels[p], &rels[i], c.nodes[i].down.li, c.nodes[i].down.ri); err != nil {
				return nil, nil, err
			}
		}
	}
	upSp.End()
	if c.boolean() {
		// A Boolean plan is decided here: after the bottom-up pass a root
		// is non-empty iff its tree has a match (an empty node empties
		// every ancestor), so no further phase runs.
		return c.booleanAnswer(rels, iv, st, keepState)
	}
	// Phase 2: top-down semijoin child ⋉ parent.
	downSp := opt.Trace.Start("yannakakis:semijoin-down")
	for k := len(c.post) - 1; k >= 0; k-- {
		i := c.post[k]
		if p := c.forest.Parent[i]; p >= 0 {
			if err := st.semijoin(&rels[i], &rels[p], c.nodes[i].up.li, c.nodes[i].up.ri); err != nil {
				return nil, nil, err
			}
		}
	}
	downSp.End()
	// Any empty node after full reduction means no answers. The
	// short-circuit skips phase 3 entirely, so a retained state has no
	// repair-grade projections: mark it incomplete.
	for i := range rels {
		if rels[i].n == 0 {
			return nil, c.incompleteState(iv, keepState), nil
		}
	}

	// Phase 3: bottom-up join per tree, cross-product across trees.
	joinSp := opt.Trace.Start("yannakakis:join")
	defer joinSp.End()
	var projs []irel
	if keepState {
		projs = make([]irel, len(c.roots))
	}
	result := irel{w: 0, n: 1} // one empty row: identity for ⨯
	for ridx, r := range c.roots {
		uv, err := c.joinUp(r, rels, st)
		if err != nil {
			return nil, nil, err
		}
		step := c.rootSteps[ridx]
		proj := projectRel(uv, step.keep)
		if keepState {
			projs[ridx] = proj
		}
		if proj.n == 0 {
			return nil, c.incompleteState(iv, keepState), nil
		}
		result, err = st.join(result, proj, step.li, step.ri, step.rExtra, step.outW)
		if err != nil {
			return nil, nil, err
		}
	}

	out := c.materializeAnswers(result, iv, st)
	if !keepState {
		return out, nil, nil
	}
	return out, &ReducerState{view: iv, projs: projs, answers: out}, nil
}

// boolean reports whether the plan has no free variables. Its answer is
// then {()} or empty, settled by the bottom-up semijoin pass alone.
func (c *Compiled) boolean() bool { return len(c.colIdx) == 0 }

// booleanAnswer finishes a Boolean run after the bottom-up pass: {()}
// iff every root is non-empty, otherwise no answers and (like the full
// run's empty-node short-circuit) an incomplete state. The retained
// projection of each tree is the width-0, one-row relation — what
// phase 3's projectRel(step.keep) yields for a non-empty Boolean tree.
func (c *Compiled) booleanAnswer(rels []irel, iv *instance.InternedView, st *ievalState, keepState bool) ([][]term.Term, *ReducerState, error) {
	for _, r := range c.roots {
		if rels[r].n == 0 {
			return nil, c.incompleteState(iv, keepState), nil
		}
	}
	out := c.materializeAnswers(irel{w: 0, n: 1}, iv, st)
	if !keepState {
		return out, nil, nil
	}
	projs := make([]irel, len(c.roots))
	for ridx := range projs {
		projs[ridx] = irel{w: 0, n: 1}
	}
	return out, &ReducerState{view: iv, projs: projs, answers: out}, nil
}

// incompleteState returns the marker state of a short-circuited run
// (nil when the caller keeps no state).
func (c *Compiled) incompleteState(iv *instance.InternedView, keepState bool) *ReducerState {
	if !keepState {
		return nil
	}
	return &ReducerState{view: iv, incomplete: true}
}

// materializeAnswers is the answer boundary. Every result row is
// de-interned once into one slab of terms, each answer a capped
// sub-slice of it (an append to one answer can never overwrite its
// neighbour), and the answers are ordered by term.CompareTuples — the
// canonical key order, never by ids, whose values are build-order
// accidents. Within one table equal ids mean equal terms, so duplicate
// rows become adjacent equal tuples and are dropped. The returned
// tuples share the slab; callers treat them as read-only.
func (c *Compiled) materializeAnswers(result irel, iv *instance.InternedView, st *ievalState) [][]term.Term {
	var out [][]term.Term
	if result.n > 0 {
		w := len(c.colIdx)
		slab := make([]term.Term, result.n*w)
		out = make([][]term.Term, result.n)
		for r := range out {
			row := result.ids[r*result.w : r*result.w+result.w]
			tuple := slab[r*w : (r+1)*w : (r+1)*w]
			for i, cc := range c.colIdx {
				//semalint:allow internleak(answer materialization at the string boundary)
				tuple[i] = iv.Table.Term(row[cc])
			}
			out[r] = tuple
		}
		slices.SortFunc(out, term.CompareTuples)
		out = slices.CompactFunc(out, func(a, b []term.Term) bool { return term.CompareTuples(a, b) == 0 })
	}
	if st.opt.Stats != nil {
		st.opt.Stats.Answers = len(out)
	}
	return out
}

// loadLeaf is matchRows on the columnar view: candidate selection by
// the most selective sorted run (same probe order, same strictly-
// smaller tie-break, same stats arithmetic as the oracle) and
// verification by compiled integer compares instead of MatchTuple.
func loadLeaf(n *cnode, iv *instance.InternedView, constID []symtab.ID, constOK []bool, st *ievalState) (irel, error) {
	rel := iv.Relation(n.pred)
	predLen := 0
	if rel != nil {
		predLen = rel.Rows()
	}
	nCand := predLen
	usePerm := false
	selPos, selLo := 0, 0
	indexed := false
	for _, pos := range n.constPos {
		var plo, phi int
		if ci := n.argConst[pos]; rel != nil && constOK[ci] {
			plo, phi = rel.Range(int(pos), constID[ci])
		}
		if st.opt.Stats != nil {
			st.opt.Stats.IndexLookups++
		}
		if !indexed || phi-plo < nCand {
			nCand = phi - plo
			usePerm, selPos, selLo = true, int(pos), plo
			indexed = true
		}
	}
	if st.opt.Stats != nil {
		st.opt.Stats.RowsScanned += int64(nCand)
		if indexed {
			st.opt.Stats.IndexHits += int64(nCand)
			st.opt.Stats.IndexSkippedRows += int64(predLen - nCand)
		}
	}
	obs.EvalRowsScanned.Add(int64(nCand))
	if indexed {
		obs.EvalIndexHits.Add(int64(nCand))
	}

	out := irel{w: n.w}
	vals := make([]symtab.ID, n.w)
	for k := 0; k < nCand; k++ {
		if st.cancelled() {
			return irel{}, ErrCancelled
		}
		ridx := k
		if usePerm {
			ridx = rel.RowAt(selPos, selLo+k)
		}
		if matchRow(n, rel.Row(ridx), constID, constOK, vals) {
			out.ids = append(out.ids, vals...)
			out.n++
		}
	}
	return out, nil
}

// semijoin keeps the rows of left having a join partner in right: sort
// the right projection once, then one allocation-free binary-search
// probe per left row, compacting survivors in place.
func (st *ievalState) semijoin(left, right *irel, li, ri []int32) error {
	if st.opt.Stats != nil {
		st.opt.Stats.Semijoins++
	}
	if len(li) == 0 {
		if right.n == 0 {
			if st.opt.Stats != nil {
				st.opt.Stats.SemijoinDroppedRows += int64(left.n)
			}
			left.n = 0
			left.ids = left.ids[:0]
		}
		return nil
	}
	w := len(ri)
	st.filter = st.filter[:0]
	for r := 0; r < right.n; r++ {
		if st.cancelled() {
			return ErrCancelled
		}
		row := right.ids[r*right.w : r*right.w+right.w]
		for _, cc := range ri {
			st.filter = append(st.filter, row[cc])
		}
	}
	symtab.SortRows(st.filter, w)
	if cap(st.key) < w {
		st.key = make([]symtab.ID, w)
	}
	key := st.key[:w]
	kept := 0
	dst := left.ids[:0]
	for r := 0; r < left.n; r++ {
		if st.cancelled() {
			return ErrCancelled
		}
		row := left.ids[r*left.w : r*left.w+left.w]
		for i, cc := range li {
			key[i] = row[cc]
		}
		if symtab.ContainsRow(st.filter, w, key) {
			dst = append(dst, row...) // in place: write offset never passes read offset
			kept++
		}
	}
	if st.opt.Stats != nil {
		st.opt.Stats.SemijoinDroppedRows += int64(left.n - kept)
	}
	left.ids = dst
	left.n = kept
	return nil
}

// joinUp runs the compiled phase-3 program of node i's subtree.
func (c *Compiled) joinUp(i int, rels []irel, st *ievalState) (irel, error) {
	n := &c.nodes[i]
	acc := rels[i]
	for k, ch := range c.children[i] {
		cuv, err := c.joinUp(ch, rels, st)
		if err != nil {
			return irel{}, err
		}
		j := n.joins[k]
		acc, err = st.join(acc, cuv, j.li, j.ri, j.rExtra, j.outW)
		if err != nil {
			return irel{}, err
		}
	}
	return projectRel(acc, n.keep), nil
}

// join merge-joins acc with child on the shared columns: child rows are
// sorted by their join key (stably by row, reproducing the oracle's
// hash-bucket insertion order) and each acc row scans its equal range.
func (st *ievalState) join(acc, child irel, li, ri, rExtra []int32, outW int) (irel, error) {
	rn := child.n
	perm := make([]int32, rn)
	for i := range perm {
		perm[i] = int32(i)
	}
	if len(ri) > 0 {
		slices.SortFunc(perm, func(a, b int32) int {
			ra := child.ids[int(a)*child.w : int(a)*child.w+child.w]
			rb := child.ids[int(b)*child.w : int(b)*child.w+child.w]
			for _, cc := range ri {
				if ra[cc] != rb[cc] {
					return cmp.Compare(ra[cc], rb[cc])
				}
			}
			return cmp.Compare(a, b)
		})
	}
	if cap(st.key) < len(li) {
		st.key = make([]symtab.ID, len(li))
	}
	key := st.key[:len(li)]
	out := irel{w: outW}
	for l := 0; l < acc.n; l++ {
		lrow := acc.ids[l*acc.w : l*acc.w+acc.w]
		lo, hi := 0, rn
		if len(ri) > 0 {
			for i, cc := range li {
				key[i] = lrow[cc]
			}
			lo, hi = permRange(child.ids, child.w, perm, ri, key)
		}
		for k := lo; k < hi; k++ {
			if st.cancelled() {
				return irel{}, ErrCancelled
			}
			rrow := child.ids[int(perm[k])*child.w : int(perm[k])*child.w+child.w]
			out.ids = append(out.ids, lrow...)
			for _, cc := range rExtra {
				out.ids = append(out.ids, rrow[cc])
			}
			out.n++
		}
	}
	if st.opt.Stats != nil {
		st.opt.Stats.JoinRows += int64(out.n)
	}
	return out, nil
}

// permRange returns the half-open range of perm positions whose rows
// project onto key at cols. Like the symtab probes, closure-free.
func permRange(ids []symtab.ID, w int, perm []int32, cols []int32, key []symtab.ID) (int, int) {
	a, b := 0, len(perm)
	//semalint:allow cancelpoll(binary search halves the interval; terminates in log n)
	for a < b {
		m := int(uint(a+b) >> 1)
		if comparePermRow(ids, w, perm, cols, m, key) < 0 {
			a = m + 1
		} else {
			b = m
		}
	}
	lo := a
	b = len(perm)
	//semalint:allow cancelpoll(binary search halves the interval; terminates in log n)
	for a < b {
		m := int(uint(a+b) >> 1)
		if comparePermRow(ids, w, perm, cols, m, key) <= 0 {
			a = m + 1
		} else {
			b = m
		}
	}
	return lo, a
}

// comparePermRow compares row perm[k] projected onto cols against key.
func comparePermRow(ids []symtab.ID, w int, perm []int32, cols []int32, k int, key []symtab.ID) int {
	row := ids[int(perm[k])*w : int(perm[k])*w+w]
	for i, cc := range cols {
		if row[cc] != key[i] {
			if row[cc] < key[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// projectRel restricts rel to the keep columns, deduplicating while
// preserving first-occurrence order — the oracle's seen-map semantics
// without materializing a key string per row: a sort permutation finds
// duplicate groups, and within each group only the smallest row index
// (the first occurrence) survives.
func projectRel(rel irel, keep []int32) irel {
	w := len(keep)
	out := irel{w: w}
	if rel.n == 0 {
		return out
	}
	if w == 0 {
		out.n = 1 // all rows project to the single empty row
		return out
	}
	proj := make([]symtab.ID, 0, rel.n*w)
	for r := 0; r < rel.n; r++ {
		row := rel.ids[r*rel.w : r*rel.w+rel.w]
		for _, cc := range keep {
			proj = append(proj, row[cc])
		}
	}
	perm := make([]int32, rel.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		ra := proj[int(a)*w : int(a)*w+w]
		rb := proj[int(b)*w : int(b)*w+w]
		for k := 0; k < w; k++ {
			if ra[k] != rb[k] {
				return cmp.Compare(ra[k], rb[k])
			}
		}
		return cmp.Compare(a, b)
	})
	dup := make([]bool, rel.n)
	for k := 1; k < rel.n; k++ {
		a, b := perm[k-1], perm[k]
		ra := proj[int(a)*w : int(a)*w+w]
		rb := proj[int(b)*w : int(b)*w+w]
		same := true
		for i := 0; i < w; i++ {
			if ra[i] != rb[i] {
				same = false
				break
			}
		}
		if same {
			dup[b] = true
		}
	}
	for r := 0; r < rel.n; r++ {
		if dup[r] {
			continue
		}
		out.ids = append(out.ids, proj[r*w:r*w+w]...)
		out.n++
	}
	return out
}
