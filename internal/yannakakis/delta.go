package yannakakis

import (
	"sort"

	"semacyclic/internal/instance"
	"semacyclic/internal/symtab"
	"semacyclic/internal/term"
)

// This file is the incremental evaluator: ExecuteDelta repairs the
// semijoin-reducer state of a previous run from an instance delta
// instead of re-evaluating from scratch.
//
// The retained state is one reduced projection per join tree — exactly
// the per-root relation the full evaluator feeds its final
// cross-product (phase 3's projectRel(step.keep)). Those projections
// are monotone in the database for insert-only deltas: inserting atoms
// can only add rows, never invalidate old ones. So a tree whose
// predicates saw only inserts is *repaired* by the classic semi-naive
// delta rule — for each node k whose predicate gained atoms, evaluate
// the tree with node k's leaf restricted to just the new atoms and
// every other leaf restricted (via index probes) to rows that can join
// the delta, then union the resulting projection rows into the cached
// ones. Deletes break monotonicity, so a tree touched by a delete is
// recomputed from the current view; untouched trees reuse their cached
// projection outright. The final cross-product and answer
// materialization run over the (reused | repaired | recomputed)
// projections exactly as in a full run, so answers are identical to
// Execute's on the current instance — the differential tests enforce
// it atom-for-atom and fingerprints stay deterministic.
//
// Id stability across epochs is what makes reuse sound: ApplyDelta
// extends the view's symbol table via lineage-preserving clones, and
// ExecuteDelta verifies iv.Table.Extends(prev.view.Table) before
// trusting any cached id. A view from a different lineage (a rebuilt
// view after a bare Add/Remove, an overlay's detached table) fails the
// check and forces a full recompute.

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
// the state of an earlier run of the same plan — from the journalled
// deltas that moved the instance from prev's epoch to the current one
// (instance.DeltaSince, oldest first). Answers are exactly what
// Execute would return on db today; the returned state replaces prev
// for the next round. The answers are the returned state's own (on a
// reuse, prev's too): callers must not mutate them.
//
// Per join tree the run reuses the cached projection (no plan-relevant
// change), repairs it (insert-only delta, semi-naive union), or
// recomputes it (deletes, or no usable state); EvalStats reports the
// split in TreesReused/TreesRepaired/TreesRecomputed and the
// plan-relevant net delta in DeltaInserts/DeltaDeletes. When prev is
// nil, incomplete, or from a different view lineage, the whole run
// falls back to a full evaluation with TreesRecomputed = NumTrees.
func (c *Compiled) ExecuteDelta(prev *ReducerState, db *instance.Instance, deltas []instance.Delta, opt Options) ([][]term.Term, *ReducerState, error) {
	iv := db.Interned()
	if prev == nil || prev.incomplete || prev.view == nil || !iv.Table.Extends(prev.view.Table) {
		ans, state, err := c.executeView(iv, opt, true)
		if err == nil && opt.Stats != nil {
			opt.Stats.TreesRecomputed = int64(len(c.roots))
		}
		return ans, state, err
	}

	st := &ievalState{evalState: evalState{opt: opt}}
	if st.opt.Stats != nil {
		st.opt.Stats.Method = "yannakakis"
	}

	netIns, netDel := c.netPlanDelta(prev.view, deltas)
	if st.opt.Stats != nil {
		st.opt.Stats.DeltaInserts = int64(len(netIns))
		st.opt.Stats.DeltaDeletes = int64(len(netDel))
	}
	if len(netIns) == 0 && len(netDel) == 0 {
		// Nothing the plan reads changed: every tree's projection (and
		// therefore the answer set) carries over verbatim.
		if st.opt.Stats != nil {
			st.opt.Stats.TreesReused = int64(len(c.roots))
			st.opt.Stats.Answers = len(prev.answers)
		}
		return prev.answers, &ReducerState{view: iv, projs: prev.projs, answers: prev.answers}, nil
	}

	// Classify each tree: 0 untouched, 1 insert-only, 2 saw a delete.
	aff := make([]int, len(c.roots))
	mark := func(atoms []instance.Atom, level int) {
		for _, a := range atoms {
			for _, ni := range c.predNode[a.Pred] {
				if t := c.treeOf[ni]; aff[t] < level {
					aff[t] = level
				}
			}
		}
	}
	mark(netIns, 1)
	mark(netDel, 2)

	insByPred := make(map[string][]instance.Atom)
	for _, a := range netIns {
		insByPred[a.Pred] = append(insByPred[a.Pred], a)
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
			p, err := c.repairTree(ridx, prev.projs[ridx], insByPred, iv, constID, constOK, st)
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

// netPlanDelta folds a delta sequence into its net effect on the
// predicates the plan reads, relative to the view the cached state was
// computed over. Each atom's last journalled operation decides its
// final presence; comparing that against presence in the old view
// drops atoms that ended where they started (delete-then-reinsert
// across batches, and vice versa). Returned slices are ordered by
// first occurrence in the delta sequence — deterministic for a
// deterministic sequence.
func (c *Compiled) netPlanDelta(old *instance.InternedView, deltas []instance.Delta) (netIns, netDel []instance.Atom) {
	type op struct {
		a   instance.Atom
		ins bool
	}
	var ops []op
	index := make(map[string]int)
	record := func(a instance.Atom, ins bool) {
		if _, relevant := c.predNode[a.Pred]; !relevant {
			return
		}
		k := a.Key()
		if i, ok := index[k]; ok {
			ops[i] = op{a: a, ins: ins}
			return
		}
		index[k] = len(ops)
		ops = append(ops, op{a: a, ins: ins})
	}
	for _, d := range deltas {
		// Mirror ApplyDelta's batch order: deletes, then inserts.
		for _, a := range d.Deletes {
			record(a, false)
		}
		for _, a := range d.Inserts {
			record(a, true)
		}
	}
	for _, o := range ops {
		_, was := old.Relation(o.a.Pred).Find(old.Table, o.a.Args)
		switch {
		case o.ins && !was:
			netIns = append(netIns, o.a)
		case !o.ins && was:
			netDel = append(netDel, o.a)
		}
	}
	return netIns, netDel
}

// repairTree applies the semi-naive delta rule to one insert-only
// tree: for each node whose predicate gained atoms, evaluate the tree
// with that node's leaf replaced by the delta rows (and the other
// leaves index-restricted to the delta's join keys), then union the
// projection rows it yields into the cached projection. Set semantics
// make the overcounting of multi-node deltas harmless — the union
// dedups.
func (c *Compiled) repairTree(ridx int, oldProj irel, insByPred map[string][]instance.Atom, iv *instance.InternedView, constID []symtab.ID, constOK []bool, st *ievalState) (irel, error) {
	acc := oldProj
	for _, k := range c.treeNodes[ridx] {
		atoms := insByPred[c.nodes[k].pred]
		if len(atoms) == 0 {
			continue
		}
		drel, err := deltaLeaf(&c.nodes[k], atoms, iv, constID, constOK, st)
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

// deltaLeaf builds the in-flight relation of node k's pattern matched
// against just the delta atoms — the ΔR leaf of one semi-naive term.
func deltaLeaf(n *cnode, atoms []instance.Atom, iv *instance.InternedView, constID []symtab.ID, constOK []bool, st *ievalState) (irel, error) {
	out := irel{w: n.w}
	vals := make([]symtab.ID, n.w)
	row := make([]symtab.ID, n.arity)
	for _, a := range atoms {
		if st.cancelled() {
			return irel{}, ErrCancelled
		}
		if len(a.Args) != n.arity {
			continue // defensive: arity clashes are rejected upstream
		}
		ok := true
		for i, t := range a.Args {
			id, hit := iv.Table.Lookup(t)
			if !hit {
				ok = false // term absent from the view: cannot match
				break
			}
			row[i] = id
		}
		if ok && matchRow(n, row, constID, constOK, vals) {
			out.ids = append(out.ids, vals...)
			out.n++
		}
	}
	if st.opt.Stats != nil {
		st.opt.Stats.RowsScanned += int64(len(atoms))
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
// the fallback for trees whose predicates saw deletes.
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
				return irel{}, ErrCancelled
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
// order) and appending only contrib rows not already present. acc's
// backing array is never mutated — the union appends through a
// capacity-clamped slice, so cached projections shared with an older
// ReducerState stay intact.
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
	seen := make(map[string]bool, acc.n+contrib.n)
	var buf []byte
	for r := 0; r < acc.n; r++ {
		buf = buf[:0]
		for _, id := range acc.ids[r*w : r*w+w] {
			buf = symtab.AppendID(buf, id)
		}
		seen[string(buf)] = true
	}
	out := irel{w: w, n: acc.n, ids: acc.ids[: acc.n*w : acc.n*w]}
	for r := 0; r < contrib.n; r++ {
		row := contrib.ids[r*w : r*w+w]
		buf = buf[:0]
		for _, id := range row {
			buf = symtab.AppendID(buf, id)
		}
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		out.ids = append(out.ids, row...)
		out.n++
	}
	return out
}
