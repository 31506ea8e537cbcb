package yannakakis

import (
	"fmt"
	"sort"

	"semacyclic/internal/cq"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/instance"
	"semacyclic/internal/obs"
	"semacyclic/internal/stop"
	"semacyclic/internal/term"
)

// This file is the retained string-keyed evaluator: the original
// implementation kept verbatim (modulo the O(n) answer-sort fix and the
// Boolean stop) as the parse/print-boundary semantics reference and as
// the differential-test oracle for the interned integer-coded path in
// interned.go. Production callers go through Compile and
// Compiled.Execute; nothing outside benchmarks and differential tests
// should call the oracle. Like the interned path, it
// answers a Boolean query (no free variables) from the bottom-up
// semijoin pass alone: no top-down pass, no join.

// node is one join-tree node: a query atom, its distinct flexible
// terms, and the rows of the database matching it (aligned with vars).
type node struct {
	atom instance.Atom
	vars []term.Term
	rows [][]term.Term
}

// EvaluateWithForestOracleOpt evaluates q over db on the string-keyed
// data path: map[string]bool semijoin filters, hash joins on
// materialized projection keys. It computes exactly the same answers,
// in the same order, with the same EvalStats as the interned evaluator
// — that equivalence is what the differential tests pin down.
func EvaluateWithForestOracleOpt(q *cq.CQ, forest *hypergraph.Forest, db *instance.Instance, opt Options) ([][]term.Term, error) {
	st := &evalState{opt: opt}
	if st.opt.Stats != nil {
		st.opt.Stats.Method = "yannakakis"
	}
	nodes := make([]*node, forest.Len())
	for i, a := range forest.Atoms {
		n := &node{atom: a, vars: flexTerms(a)}
		rows, err := matchRows(a, n.vars, db, st)
		if err != nil {
			return nil, err
		}
		n.rows = rows
		nodes[i] = n
	}

	children := forest.Children()
	roots := forest.Roots()

	// Phase 1: bottom-up semijoin parent ⋉ child.
	post := postorder(forest, roots, children)
	for _, i := range post {
		p := forest.Parent[i]
		if p >= 0 {
			if err := semijoin(nodes[p], nodes[i], st); err != nil {
				return nil, err
			}
		}
	}
	// A Boolean query holds iff every root survived phase 1: an empty
	// node empties all of its ancestors, so nothing else can fail.
	if len(q.Free) == 0 {
		for _, r := range roots {
			if len(nodes[r].rows) == 0 {
				return nil, nil
			}
		}
		if st.opt.Stats != nil {
			st.opt.Stats.Answers = 1
		}
		return [][]term.Term{{}}, nil
	}
	// Phase 2: top-down semijoin child ⋉ parent.
	for k := len(post) - 1; k >= 0; k-- {
		i := post[k]
		if p := forest.Parent[i]; p >= 0 {
			if err := semijoin(nodes[i], nodes[p], st); err != nil {
				return nil, err
			}
		}
	}
	// Any empty node after full reduction means no answers.
	for _, n := range nodes {
		if len(n.rows) == 0 {
			return nil, nil
		}
	}

	freeSet := make(map[term.Term]bool, len(q.Free))
	for _, x := range q.Free {
		freeSet[x] = true
	}

	// Phase 3: bottom-up join, keeping only node vars plus free
	// variables collected from the subtree.
	var joinUp func(i int) ([]term.Term, [][]term.Term, error)
	joinUp = func(i int) ([]term.Term, [][]term.Term, error) {
		n := nodes[i]
		vars := append([]term.Term(nil), n.vars...)
		rows := n.rows
		for _, ch := range children[i] {
			cvars, crows, err := joinUp(ch)
			if err != nil {
				return nil, nil, err
			}
			vars, rows, err = join(vars, rows, cvars, crows, st)
			if err != nil {
				return nil, nil, err
			}
		}
		// Project to node vars ∪ free vars seen so far; free vars from
		// the subtree must survive to the root.
		keep := make([]term.Term, 0, len(vars))
		for _, v := range vars {
			if freeSet[v] || containsTerm(n.vars, v) {
				keep = append(keep, v)
			}
		}
		vars, rows = project(vars, rows, keep)
		return vars, rows, nil
	}

	// Evaluate each tree; cross-product the per-tree free projections.
	resultVars := []term.Term{}
	resultRows := [][]term.Term{nil} // one empty row: identity for ⨯
	for _, r := range roots {
		vars, rows, err := joinUp(r)
		if err != nil {
			return nil, err
		}
		var keep []term.Term
		for _, v := range vars {
			if freeSet[v] {
				keep = append(keep, v)
			}
		}
		vars, rows = project(vars, rows, keep)
		if len(rows) == 0 {
			return nil, nil
		}
		resultVars, resultRows, err = join(resultVars, resultRows, vars, rows, st)
		if err != nil {
			return nil, err
		}
	}

	// Order columns as q.Free and dedup; the sort key of each distinct
	// answer is materialized exactly once (not once per comparison).
	colIdx := make([]int, len(q.Free))
	for i, x := range q.Free {
		colIdx[i] = indexOf(resultVars, x)
		if colIdx[i] < 0 {
			return nil, fmt.Errorf("yannakakis: free variable %s lost during evaluation", x)
		}
	}
	seen := make(map[string]bool, len(resultRows))
	var out [][]term.Term
	var keys []string
	for _, row := range resultRows {
		tuple := make([]term.Term, len(q.Free))
		for i, c := range colIdx {
			tuple[i] = row[c]
		}
		k := tupleKey(tuple)
		if !seen[k] {
			seen[k] = true
			out = append(out, tuple)
			keys = append(keys, k)
		}
	}
	sort.Sort(&keyedRows{keys: keys, rows: out})
	if st.opt.Stats != nil {
		st.opt.Stats.Answers = len(out)
	}
	return out, nil
}

// keyedRows sorts rows by their precomputed canonical keys in tandem:
// O(n) key materializations instead of the O(n log n) a key-building
// comparator would pay. Only the oracle uses it: ordering by the key
// strings themselves keeps it an independent reference for the
// interned path, which orders with term.CompareTuples.
type keyedRows struct {
	keys []string
	rows [][]term.Term
}

func (s *keyedRows) Len() int           { return len(s.rows) }
func (s *keyedRows) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *keyedRows) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

func flexTerms(a instance.Atom) []term.Term {
	ts := a.Terms()
	out := ts[:0]
	for _, t := range ts {
		if !t.IsConst() {
			out = append(out, t)
		}
	}
	return out
}

// matchRows loads the database rows matching atom a. When a mentions
// constants, the candidate list comes from the most selective
// per-(predicate, position, term) index instead of the full
// per-predicate scan; each candidate is still verified against all of
// a's constants and repeated terms by MatchTuple.
func matchRows(a instance.Atom, vars []term.Term, db *instance.Instance, st *evalState) ([][]term.Term, error) {
	candidates := db.ByPred(a.Pred)
	indexed := false
	// Probe every bound (constant) position and keep the smallest
	// candidate list. Probes are map lookups; on paper-scale atom
	// widths the exhaustive probing is cheaper than guessing wrong.
	for pos, t := range a.Args {
		if !t.IsConst() {
			continue
		}
		byPos := db.ByPos(a.Pred, pos, t)
		if st.opt.Stats != nil {
			st.opt.Stats.IndexLookups++
		}
		if !indexed || len(byPos) < len(candidates) {
			candidates = byPos
			indexed = true
		}
	}
	if st.opt.Stats != nil {
		st.opt.Stats.RowsScanned += int64(len(candidates))
		if indexed {
			st.opt.Stats.IndexHits += int64(len(candidates))
			st.opt.Stats.IndexSkippedRows += int64(len(db.ByPred(a.Pred)) - len(candidates))
		}
	}
	obs.EvalRowsScanned.Add(int64(len(candidates)))
	if indexed {
		obs.EvalIndexHits.Add(int64(len(candidates)))
	}
	var rows [][]term.Term
	sub := term.NewSubst()
	for _, fact := range candidates {
		if st.cancelled() {
			return nil, stop.ErrCancelled
		}
		added, ok := term.MatchTuple(sub, a.Args, fact.Args, nil)
		if !ok {
			continue
		}
		row := make([]term.Term, len(vars))
		for i, v := range vars {
			row[i] = sub.Apply(v)
		}
		rows = append(rows, row)
		term.Unbind(sub, added)
	}
	return rows, nil
}

// semijoin keeps the rows of left having a join partner in right.
func semijoin(left, right *node, st *evalState) error {
	if st.opt.Stats != nil {
		st.opt.Stats.Semijoins++
	}
	shared, li, ri := sharedColumns(left.vars, right.vars)
	if len(shared) == 0 {
		if len(right.rows) == 0 {
			if st.opt.Stats != nil {
				st.opt.Stats.SemijoinDroppedRows += int64(len(left.rows))
			}
			left.rows = nil
		}
		return nil
	}
	keys := make(map[string]bool, len(right.rows))
	for _, row := range right.rows {
		if st.cancelled() {
			return stop.ErrCancelled
		}
		keys[projKey(row, ri)] = true
	}
	kept := left.rows[:0]
	for _, row := range left.rows {
		if st.cancelled() {
			return stop.ErrCancelled
		}
		if keys[projKey(row, li)] {
			kept = append(kept, row)
		}
	}
	if st.opt.Stats != nil {
		st.opt.Stats.SemijoinDroppedRows += int64(len(left.rows) - len(kept))
	}
	left.rows = kept
	return nil
}

// join hash-joins two relations on their shared variables.
func join(lv []term.Term, lr [][]term.Term, rv []term.Term, rr [][]term.Term, st *evalState) ([]term.Term, [][]term.Term, error) {
	_, li, ri := sharedColumns(lv, rv)
	// Output vars: all of lv, then rv minus shared.
	rExtra := make([]int, 0, len(rv))
	outVars := append([]term.Term(nil), lv...)
	for i, v := range rv {
		if indexOf(lv, v) < 0 {
			rExtra = append(rExtra, i)
			outVars = append(outVars, v)
		}
	}
	index := make(map[string][][]term.Term, len(rr))
	for _, row := range rr {
		k := projKey(row, ri)
		index[k] = append(index[k], row)
	}
	var outRows [][]term.Term
	for _, lrow := range lr {
		for _, rrow := range index[projKey(lrow, li)] {
			if st.cancelled() {
				return nil, nil, stop.ErrCancelled
			}
			row := make([]term.Term, 0, len(outVars))
			row = append(row, lrow...)
			for _, i := range rExtra {
				row = append(row, rrow[i])
			}
			outRows = append(outRows, row)
		}
	}
	if st.opt.Stats != nil {
		st.opt.Stats.JoinRows += int64(len(outRows))
	}
	return outVars, outRows, nil
}

// project restricts the relation to the keep columns, deduplicating.
func project(vars []term.Term, rows [][]term.Term, keep []term.Term) ([]term.Term, [][]term.Term) {
	idx := make([]int, len(keep))
	for i, v := range keep {
		idx[i] = indexOf(vars, v)
	}
	seen := make(map[string]bool, len(rows))
	var out [][]term.Term
	for _, row := range rows {
		p := make([]term.Term, len(keep))
		for i, c := range idx {
			p[i] = row[c]
		}
		k := tupleKey(p)
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return keep, out
}

func sharedColumns(lv, rv []term.Term) (shared []term.Term, li, ri []int) {
	for i, v := range lv {
		if j := indexOf(rv, v); j >= 0 {
			shared = append(shared, v)
			li = append(li, i)
			ri = append(ri, j)
		}
	}
	return shared, li, ri
}

func indexOf(vars []term.Term, v term.Term) int {
	for i, u := range vars {
		if u == v {
			return i
		}
	}
	return -1
}

func containsTerm(vars []term.Term, v term.Term) bool { return indexOf(vars, v) >= 0 }

func projKey(row []term.Term, cols []int) string {
	var b []byte
	for _, c := range cols {
		b = row[c].AppendKey(b)
	}
	return string(b)
}

func tupleKey(ts []term.Term) string {
	var b []byte
	for _, t := range ts {
		b = t.AppendKey(b)
	}
	return string(b)
}

func postorder(f *hypergraph.Forest, roots []int, children [][]int) []int {
	var out []int
	var rec func(i int)
	rec = func(i int) {
		for _, ch := range children[i] {
			rec(ch)
		}
		out = append(out, i)
	}
	for _, r := range roots {
		rec(r)
	}
	return out
}
