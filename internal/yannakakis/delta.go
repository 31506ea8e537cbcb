package yannakakis

import (
	"sort"

	"semacyclic/internal/instance"
	"semacyclic/internal/stop"
	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
)

// This file is the incremental evaluator: ExecuteDelta repairs the
// semijoin-reducer state of a previous run from what changed in the
// instance's view since, instead of re-evaluating from scratch.
//
// The retained state is one reduced projection per join tree — exactly
// the per-root relation the full evaluator feeds its final
// cross-product (phase 3's projectRel(step.keep)). Those projections
// are monotone in the database for insert-only changes: inserting atoms
// can only add rows, never invalidate old ones. So a tree whose
// relations only appended rows is *repaired* by the classic semi-naive
// delta rule — for each node k whose relation gained rows, evaluate the
// tree with node k's leaf restricted to just the new rows and every
// other leaf restricted (via index probes) to rows that can join the
// delta, then union the resulting projection rows into the cached ones.
// Deletes break monotonicity, so a tree whose relations changed in any
// other way is recomputed from the current view; untouched trees reuse
// their cached projection outright. The final cross-product and answer
// materialization run over the (reused | repaired | recomputed)
// projections exactly as in a full run, so answers are identical to
// Execute's on the current instance — the differential tests enforce
// it atom-for-atom and fingerprints stay deterministic.
//
// What changed is read from the views alone: a relation that is the
// state's is untouched, and one that holds the state's as a prefix
// (instance.InternedRelation.Appended) appended rows whose ids, like
// the prefix's, mean what they meant to the state. Any other relation
// — a delete, a view rebuilt after a bare Add/Remove, another
// instance's view — recomputes its trees.

// ReducerState is the retained evaluation state of one (plan, instance
// snapshot) pair: the view it ran over, the per-tree reduced
// projections, and the answers. It is immutable after the run that
// produced it and safe to share across goroutines; ExecuteDelta never
// mutates its input state, it returns a fresh one.
type ReducerState struct {
	view    *instance.InternedView
	projs   []irel // per root, aligned with Compiled.roots
	answers [][]term.Term

	// incomplete marks a state whose projections never materialized
	// because an empty node cut the producing run short; such a state
	// only certifies "no answers at that epoch" and cannot seed a
	// repair.
	incomplete bool
}

// Answers returns the answer set of the run that produced the state.
// Shared; callers must not mutate it.
func (s *ReducerState) Answers() [][]term.Term { return s.answers }

// ExecuteDelta evaluates the compiled plan over db, repairing prev —
// the state of an earlier run of the same plan — from what changed in
// db's interned view since prev's run. Answers are exactly what Execute
// would return on db today; the returned state replaces prev for the
// next round. The answers are the returned state's own (on a reuse,
// prev's too): callers must not mutate them.
//
// Per join tree the run reuses the cached projection (no relation it
// reads changed), repairs it (its relations only appended rows,
// semi-naive union), or recomputes it (any other change); EvalStats
// reports the split in TreesReused/TreesRepaired/TreesRecomputed and
// the rows the plan's relations gained and lost in
// DeltaInserts/DeltaDeletes. When prev is nil or incomplete the whole
// run falls back to a full evaluation with TreesRecomputed = NumTrees.
func (c *Compiled) ExecuteDelta(prev *ReducerState, db *instance.Instance, opt Options) ([][]term.Term, *ReducerState, error) {
	iv := db.Interned()
	if prev == nil || prev.incomplete || prev.view == nil {
		ans, state, err := c.executeView(iv, opt, true)
		if err == nil && opt.Stats != nil {
			opt.Stats.TreesRecomputed = int64(len(c.roots))
		}
		return ans, state, err
	}
	if c.untouched(prev.view, iv) {
		// Nothing the plan reads changed: every tree's projection (and
		// therefore the answer set) carries over verbatim.
		if opt.Stats != nil {
			opt.Stats.Method = "yannakakis"
			opt.Stats.TreesReused = int64(len(c.roots))
			opt.Stats.Answers = len(prev.answers)
		}
		return prev.answers, &ReducerState{view: iv, projs: prev.projs, answers: prev.answers}, nil
	}

	st := &ievalState{evalState: evalState{opt: opt}}
	if st.opt.Stats != nil {
		st.opt.Stats.Method = "yannakakis"
	}
	// Classify each tree: 0 untouched, 1 appended rows only, 2 any
	// other change. from[k] is the first row of node k's relation the
	// state has not seen.
	aff := make([]int, len(c.roots))
	from := make([]int, len(c.nodes))
	for _, p := range c.preds {
		cur, old := iv.Relation(p.name), prev.view.Relation(p.name)
		gained, lost := cur.Changes(old)
		if st.opt.Stats != nil {
			st.opt.Stats.DeltaInserts += int64(gained)
			st.opt.Stats.DeltaDeletes += int64(lost)
		}
		n, ok := cur.Appended(old)
		level := 0
		switch {
		case !ok:
			level = 2
		case cur != nil && n < cur.Rows():
			level = 1
		}
		for _, k := range p.nodes {
			from[k] = n
			if t := c.treeOf[k]; aff[t] < level {
				aff[t] = level
			}
		}
	}

	constID, constOK := c.lookupConsts(iv)
	projs := make([]irel, len(c.roots))
	for ridx := range c.roots {
		switch aff[ridx] {
		case 0:
			projs[ridx] = prev.projs[ridx]
			if st.opt.Stats != nil {
				st.opt.Stats.TreesReused++
			}
		case 1:
			p, err := c.repairTree(ridx, prev.projs[ridx], from, iv, constID, constOK, st)
			if err != nil {
				return nil, nil, err
			}
			projs[ridx] = p
			if st.opt.Stats != nil {
				st.opt.Stats.TreesRepaired++
			}
		default:
			p, err := c.recomputeTree(ridx, iv, constID, constOK, st)
			if err != nil {
				return nil, nil, err
			}
			projs[ridx] = p
			if st.opt.Stats != nil {
				st.opt.Stats.TreesRecomputed++
			}
		}
	}

	state := &ReducerState{view: iv, projs: projs}
	for ridx := range projs {
		if projs[ridx].n == 0 {
			// One empty tree empties the cross-product. Unlike the full
			// evaluator's mid-run short-circuit, every projection did
			// materialize here, so the state stays repair-grade.
			if st.opt.Stats != nil {
				st.opt.Stats.Answers = 0
			}
			return nil, state, nil
		}
	}
	// One empty row: identity for ⨯, and already the answer of a Boolean
	// plan, whose projections are all that row.
	result := irel{w: 0, n: 1}
	if !c.boolean() {
		for ridx := range c.roots {
			step := c.rootSteps[ridx]
			var err error
			result, err = st.join(result, projs[ridx], step.li, step.ri, step.rExtra, step.outW)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	out := c.materializeAnswers(result, iv, st)
	state.answers = out
	return out, state, nil
}

// untouched reports whether every relation the plan reads in cur is
// the one it read in old.
func (c *Compiled) untouched(old, cur *instance.InternedView) bool {
	for _, p := range c.preds {
		if cur.Relation(p.name) != old.Relation(p.name) {
			return false
		}
	}
	return true
}

// repairTree applies the semi-naive delta rule to one tree whose
// relations only appended rows: for each node whose relation gained
// rows since from[k], evaluate the tree with that node's leaf replaced
// by the new rows (and the other leaves index-restricted to the
// delta's join keys), then union the projection rows it yields into
// the cached projection. Set semantics make the overcounting of
// multi-node deltas harmless — the union dedups.
func (c *Compiled) repairTree(ridx int, oldProj irel, from []int, iv *instance.InternedView, constID []symtab.ID, constOK []bool, st *ievalState) (irel, error) {
	acc := oldProj
	for _, k := range c.treeNodes[ridx] {
		rel := iv.Relation(c.nodes[k].pred)
		if rel == nil || from[k] >= rel.Rows() {
			continue
		}
		drel, err := deltaLeaf(&c.nodes[k], rel, from[k], constID, constOK, st)
		if err != nil {
			return irel{}, err
		}
		if drel.n == 0 {
			continue
		}
		contrib, err := c.deltaContribution(ridx, int(k), drel, iv, constID, constOK, st)
		if err != nil {
			return irel{}, err
		}
		acc = dedupUnion(acc, contrib)
	}
	return acc, nil
}

// deltaLeaf builds the in-flight relation of node n's pattern matched
// against rows [from, Rows()) of its relation, the rows appended since
// the state's run — the ΔR leaf of one semi-naive term.
func deltaLeaf(n *cnode, rel *instance.InternedRelation, from int, constID []symtab.ID, constOK []bool, st *ievalState) (irel, error) {
	out := irel{w: n.w}
	vals := make([]symtab.ID, n.w)
	for r := from; r < rel.Rows(); r++ {
		if st.cancelled() {
			return irel{}, stop.ErrCancelled
		}
		if matchRow(n, rel.Row(r), constID, constOK, vals) {
			out.ids = append(out.ids, vals...)
			out.n++
		}
	}
	if st.opt.Stats != nil {
		st.opt.Stats.RowsScanned += int64(rel.Rows() - from)
	}
	return out, nil
}

// matchRow verifies one interned tuple against the node's compiled
// pattern, writing the flexible-term columns into vals: loadLeaf's
// per-row check, and the delta loaders'.
func matchRow(n *cnode, row []symtab.ID, constID []symtab.ID, constOK []bool, vals []symtab.ID) bool {
	for pos := 0; pos < n.arity; pos++ {
		id := row[pos]
		if ci := n.argConst[pos]; ci >= 0 {
			if !constOK[ci] || id != constID[ci] {
				return false
			}
			continue
		}
		col := n.argVar[pos]
		if n.argFirst[pos] {
			vals[col] = id
			continue
		}
		if vals[col] != id {
			return false
		}
	}
	return true
}

// deltaContribution evaluates tree ridx with node k's leaf fixed to
// drel: the remaining leaves load outward from k in BFS order, each
// index-restricted to the join keys its already-loaded neighbor
// exposes (one shared column is enough — it over-approximates the
// semijoin, and the full in-tree reduction below finishes the job).
// The result is the tree's reduced projection of the delta term.
func (c *Compiled) deltaContribution(ridx, k int, drel irel, iv *instance.InternedView, constID []symtab.ID, constOK []bool, st *ievalState) (irel, error) {
	emptyProj := irel{w: len(c.rootSteps[ridx].keep)}
	rels := make([]irel, len(c.nodes))
	loaded := make([]bool, len(c.nodes))
	rels[k] = drel
	loaded[k] = true

	queue := []int{k}
	load := func(v int, vCols, uCols []int32, u int) error {
		var r irel
		var err error
		if len(vCols) == 0 {
			r, err = loadLeaf(&c.nodes[v], iv, constID, constOK, st)
		} else {
			keys := distinctCol(rels[u], uCols[0])
			r, err = restrictLoad(&c.nodes[v], iv, constID, constOK, vCols[0], keys, st)
		}
		if err != nil {
			return err
		}
		rels[v] = r
		loaded[v] = true
		queue = append(queue, v)
		return nil
	}
	//semalint:allow cancelpoll(BFS visits each tree node once; bounded by plan size)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if rels[u].n == 0 {
			return emptyProj, nil // restriction emptied the term early
		}
		if p := c.forest.Parent[u]; p >= 0 && !loaded[p] {
			// Parent's shared columns with u: the down edge (parent ⋉ u).
			if err := load(p, c.nodes[u].down.li, c.nodes[u].down.ri, u); err != nil {
				return irel{}, err
			}
		}
		for _, ch := range c.children[u] {
			if loaded[ch] {
				continue
			}
			// Child's shared columns with u: the up edge (child ⋉ parent).
			if err := load(ch, c.nodes[ch].up.li, c.nodes[ch].up.ri, u); err != nil {
				return irel{}, err
			}
		}
	}
	return c.reduceAndProject(ridx, rels, st)
}

// recomputeTree fully re-evaluates one tree from the current view —
// the fallback for trees whose relations changed other than by
// appending rows.
func (c *Compiled) recomputeTree(ridx int, iv *instance.InternedView, constID []symtab.ID, constOK []bool, st *ievalState) (irel, error) {
	rels := make([]irel, len(c.nodes))
	for _, i := range c.treeNodes[ridx] {
		r, err := loadLeaf(&c.nodes[i], iv, constID, constOK, st)
		if err != nil {
			return irel{}, err
		}
		rels[i] = r
	}
	return c.reduceAndProject(ridx, rels, st)
}

// reduceAndProject runs the full evaluator's phases over one tree's
// loaded leaves: both semijoin passes restricted to the tree, the
// empty-node short-circuit, the bottom-up join, and the root
// projection. A Boolean plan stops after the bottom-up pass, as in
// executeView: the tree's projection is the one empty row iff its root
// survived.
func (c *Compiled) reduceAndProject(ridx int, rels []irel, st *ievalState) (irel, error) {
	for _, i := range c.post {
		if int(c.treeOf[i]) != ridx {
			continue
		}
		if p := c.forest.Parent[i]; p >= 0 {
			if err := st.semijoin(&rels[p], &rels[i], c.nodes[i].down.li, c.nodes[i].down.ri); err != nil {
				return irel{}, err
			}
		}
	}
	if c.boolean() {
		if rels[c.roots[ridx]].n == 0 {
			return irel{}, nil
		}
		return irel{w: 0, n: 1}, nil
	}
	for t := len(c.post) - 1; t >= 0; t-- {
		i := c.post[t]
		if int(c.treeOf[i]) != ridx {
			continue
		}
		if p := c.forest.Parent[i]; p >= 0 {
			if err := st.semijoin(&rels[i], &rels[p], c.nodes[i].up.li, c.nodes[i].up.ri); err != nil {
				return irel{}, err
			}
		}
	}
	step := c.rootSteps[ridx]
	for _, i := range c.treeNodes[ridx] {
		if rels[i].n == 0 {
			return irel{w: len(step.keep)}, nil
		}
	}
	uv, err := c.joinUp(c.roots[ridx], rels, st)
	if err != nil {
		return irel{}, err
	}
	return projectRel(uv, step.keep), nil
}

// restrictLoad is loadLeaf restricted to rows whose keyCol equals one
// of the given ids: one Range probe per key on keyCol's defining
// argument position, so the cost scales with the delta's key set, not
// the relation. keys must be sorted and distinct; candidates arrive in
// (key, insertion order) — deterministic.
func restrictLoad(n *cnode, iv *instance.InternedView, constID []symtab.ID, constOK []bool, keyCol int32, keys []symtab.ID, st *ievalState) (irel, error) {
	out := irel{w: n.w}
	rel := iv.Relation(n.pred)
	if rel == nil || len(keys) == 0 {
		return out, nil
	}
	pos := -1
	for p := 0; p < n.arity; p++ {
		if n.argVar[p] == keyCol && n.argFirst[p] {
			pos = p
			break
		}
	}
	if pos < 0 {
		// Unreachable: every flexible column has a defining position.
		return loadLeaf(n, iv, constID, constOK, st)
	}
	vals := make([]symtab.ID, n.w)
	for _, id := range keys {
		lo, hi := rel.Range(pos, id)
		if st.opt.Stats != nil {
			st.opt.Stats.IndexLookups++
			st.opt.Stats.RowsScanned += int64(hi - lo)
			st.opt.Stats.IndexHits += int64(hi - lo)
		}
		for t := lo; t < hi; t++ {
			if st.cancelled() {
				return irel{}, stop.ErrCancelled
			}
			row := rel.Row(rel.RowAt(pos, t))
			if matchRow(n, row, constID, constOK, vals) {
				out.ids = append(out.ids, vals...)
				out.n++
			}
		}
	}
	return out, nil
}

// distinctCol returns the sorted distinct ids of one column — the join
// keys a loaded relation exposes to its not-yet-loaded neighbor.
func distinctCol(r irel, col int32) []symtab.ID {
	if r.n == 0 {
		return nil
	}
	out := make([]symtab.ID, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ids[i*r.w+int(col)])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i := 0; i < len(out); i++ {
		if i == 0 || out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// dedupUnion unions contrib's rows into acc, keeping acc's rows (and
// order) and appending only contrib rows not already present, in
// contrib order, first occurrences only. Only contrib's rows are keyed:
// acc's rows probe those keys through one reused buffer, which
// allocates nothing, so a repair allocates in the size of the delta,
// not of the cached projection. acc's backing array is never mutated —
// the union appends through a capacity-clamped slice, so cached
// projections shared with an older ReducerState stay intact.
func dedupUnion(acc, contrib irel) irel {
	if contrib.n == 0 {
		return acc
	}
	if acc.w == 0 {
		// Boolean projection: nonempty is all that matters.
		n := acc.n
		if n == 0 {
			n = 1
		}
		return irel{w: 0, n: n}
	}
	w := acc.w
	// first maps a row key to the contrib row where it first occurs.
	// firstOf[r] is that row for row r's key, or -1 once acc is found to
	// hold the key, so a row is appended when firstOf[r] is r itself.
	first := make(map[string]int32, contrib.n)
	firstOf := make([]int32, contrib.n)
	var buf []byte
	key := func(ids []symtab.ID, r int) []byte {
		buf = buf[:0]
		for _, id := range ids[r*w : r*w+w] {
			buf = symtab.AppendID(buf, id)
		}
		return buf
	}
	for r := 0; r < contrib.n; r++ {
		k := key(contrib.ids, r)
		i, ok := first[string(k)]
		if !ok {
			i = int32(r)
			first[string(k)] = i
		}
		firstOf[r] = i
	}
	for r := 0; r < acc.n; r++ {
		if i, ok := first[string(key(acc.ids, r))]; ok {
			firstOf[i] = -1
		}
	}
	out := irel{w: w, n: acc.n, ids: acc.ids[: acc.n*w : acc.n*w]}
	for r := 0; r < contrib.n; r++ {
		if firstOf[r] != int32(r) {
			continue
		}
		out.ids = append(out.ids, contrib.ids[r*w:r*w+w]...)
		out.n++
	}
	return out
}
