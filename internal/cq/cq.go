// Package cq implements conjunctive queries (CQs) and unions of
// conjunctive queries (UCQs) in the sense of the paper: formulas
// q(x̄) = ∃ȳ (R1(v̄1) ∧ ... ∧ Rm(v̄m)) over a relational schema, with a
// text parser/printer, the Gaifman graph, connectivity analysis, and
// the freezing operation q ↦ D_q of Lemma 1.
package cq

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"semacyclic/internal/instance"
	"semacyclic/internal/schema"
	"semacyclic/internal/term"
)

// CQ is a conjunctive query. Free lists the free (answer) variables x̄
// in order; every other variable occurring in Atoms is existentially
// quantified. Atoms may mention constants but never nulls.
type CQ struct {
	Name  string // query symbol, "q" by default; cosmetic only
	Free  []term.Term
	Atoms []instance.Atom
}

// New builds a CQ with the given free variables and atoms and validates it.
func New(free []term.Term, atoms []instance.Atom) (*CQ, error) {
	q := &CQ{Name: "q", Free: append([]term.Term(nil), free...), Atoms: instance.CloneAtoms(atoms)}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustNew is New that panics on error; for statically valid literals.
func MustNew(free []term.Term, atoms []instance.Atom) *CQ {
	q, err := New(free, atoms)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks the CQ's well-formedness: at least one atom, no
// nulls, no constant or variable in the reserved frozen namespace, free
// terms are variables, every free variable occurs in some atom, no
// duplicate free variables, and consistent predicate arities.
func (q *CQ) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cq: query %s has no atoms", q.Name)
	}
	sch := schema.New()
	inBody := make(map[term.Term]bool)
	for _, a := range q.Atoms {
		if err := sch.Add(a.Pred, len(a.Args)); err != nil {
			return fmt.Errorf("cq: %w", err)
		}
		for _, t := range a.Args {
			if t.IsNull() {
				return fmt.Errorf("cq: atom %s mentions null %s", a, t)
			}
			if term.IsFrozen(t) {
				return fmt.Errorf("cq: atom %s mentions constant %q in the reserved frozen namespace", a, t.Name)
			}
			if t.IsVar() && strings.HasPrefix(t.Name, term.FrozenPrefix) {
				// The UCQ rewriting names its copies of tgd variables
				// there, so that no query variable can capture them.
				return fmt.Errorf("cq: atom %s mentions variable %q in the reserved frozen namespace", a, t.Name)
			}
			inBody[t] = true
		}
	}
	seen := make(map[term.Term]bool)
	for _, x := range q.Free {
		if !x.IsVar() {
			return fmt.Errorf("cq: free term %s is not a variable", x)
		}
		if seen[x] {
			return fmt.Errorf("cq: duplicate free variable %s", x)
		}
		seen[x] = true
		if !inBody[x] {
			return fmt.Errorf("cq: free variable %s does not occur in the body", x)
		}
	}
	return nil
}

// IsBoolean reports whether the query has no free variables.
func (q *CQ) IsBoolean() bool { return len(q.Free) == 0 }

// Size returns the number of atoms |q|, the size measure used
// throughout the paper (e.g. the 2·|q| bound of Proposition 8).
func (q *CQ) Size() int { return len(q.Atoms) }

// Vars returns the distinct variables of the query in order of first
// occurrence in Free then Atoms. Queries are small, so each term is
// checked against the variables found so far by scanning, as
// Atom.Terms does, in one slice sized for every term.
func (q *CQ) Vars() []term.Term {
	n := len(q.Free)
	for _, a := range q.Atoms {
		n += len(a.Args)
	}
	out := make([]term.Term, 0, n)
	add := func(t term.Term) {
		if t.IsVar() && !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	for _, x := range q.Free {
		add(x)
	}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			add(t)
		}
	}
	return out
}

// ExistentialVars returns the variables of the body that are not free.
func (q *CQ) ExistentialVars() []term.Term {
	free := make(map[term.Term]bool, len(q.Free))
	for _, x := range q.Free {
		free[x] = true
	}
	all := q.Vars()
	out := all[:0]
	for _, v := range all {
		if !free[v] {
			out = append(out, v)
		}
	}
	return out
}

// Constants returns the distinct constants mentioned in the body.
func (q *CQ) Constants() []term.Term {
	seen := make(map[term.Term]bool)
	var out []term.Term
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsConst() && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Schema returns the signature of the query's atoms.
func (q *CQ) Schema() *schema.Schema {
	sch := schema.New()
	for _, a := range q.Atoms {
		if err := sch.Add(a.Pred, len(a.Args)); err != nil {
			panic(err) // Validate rejects conflicting arities
		}
	}
	return sch
}

// Clone returns an independent deep copy.
func (q *CQ) Clone() *CQ {
	return &CQ{Name: q.Name, Free: append([]term.Term(nil), q.Free...), Atoms: instance.CloneAtoms(q.Atoms)}
}

// ApplySubst returns the query with s applied to every atom and free
// variable. The result is not validated: substitutions used internally
// (e.g. by the rewriting engine) may temporarily break invariants.
func (q *CQ) ApplySubst(s term.Subst) *CQ {
	out := &CQ{Name: q.Name, Free: s.ResolveTuple(q.Free), Atoms: make([]instance.Atom, len(q.Atoms))}
	for i, a := range q.Atoms {
		out.Atoms[i] = a.Apply(s)
	}
	return out
}

// RenameApart returns a copy of q that shares no variable with other,
// together with the renaming used (see term.RenameApart). Required
// whenever two queries must not share variables (Proposition 5).
func (q *CQ) RenameApart(other *CQ) (*CQ, term.Subst) {
	s := term.RenameApart(q.Vars(), other.Vars())
	return q.ApplySubst(s), s
}

// Freeze returns the canonical database D_q of Lemma 1: each variable x
// is replaced by the frozen constant c(x), and the frozen tuple c(x̄) of
// the free variables is returned alongside. Frozen constants are named
// so they cannot collide with user constants. It is a fresh Freezer's
// Freeze into an instance sized from the query, so loading D_q grows no
// table.
func (q *CQ) Freeze() (*instance.Instance, []term.Term) {
	db := instance.NewSized(len(q.Atoms), q.MaxArity())
	var f Freezer
	return db, f.Freeze(q, db)
}

// MaxArity returns the widest arity among the query's atoms.
func (q *CQ) MaxArity() int {
	arity := 0
	for _, a := range q.Atoms {
		arity = max(arity, len(a.Args))
	}
	return arity
}

// Freezer computes Freeze with scratch it keeps between calls, as a
// Keyer does for CanonicalKey: the frozen tuple, the argument buffer,
// and from its second call on the frozen constant of every variable it
// has frozen, so a search that draws its candidates from one variable
// pool builds each c(x) once. The zero value is ready to use. A Freezer
// is not safe for concurrent use.
type Freezer struct {
	// buf holds the frozen tuple, then one atom's frozen arguments,
	// then the current query's variables, each followed by c(x), in the
	// order they were frozen: one allocation serves all three.
	buf  []term.Term
	vars []term.Term // the variable pairs: a window of buf
	// consts remembers c(x) across calls; nil until a second call, so
	// a one-off Freeze builds no map.
	consts map[term.Term]term.Term
}

// Freeze resets db, fills it with D_q and returns the frozen head
// tuple c(x̄). The tuple stays valid until the next call.
func (f *Freezer) Freeze(q *CQ, db *instance.Instance) []term.Term {
	db.Reset()
	if f.buf != nil && f.consts == nil {
		f.consts = make(map[term.Term]term.Term, len(f.vars)/2)
		for i := 0; i < len(f.vars); i += 2 {
			f.consts[f.vars[i]] = f.vars[i+1]
		}
	}
	// Each variable is frozen once, in Vars order (Free, then the atoms
	// by first occurrence). Queries are small, so a variable finds its
	// constant among the query's pairs by scanning; a query has no more
	// variables than term occurrences, so the pairs fit their window.
	n, arity, terms := len(q.Free), q.MaxArity(), len(q.Free)
	for _, a := range q.Atoms {
		terms += len(a.Args)
	}
	if need := n + arity + 2*terms; cap(f.buf) < need {
		f.buf = make([]term.Term, need)
	}
	f.vars = f.buf[n+arity : n+arity : cap(f.buf)]
	tuple := f.buf[:n:n]
	for i, x := range q.Free {
		tuple[i] = f.freeze(x)
	}
	for _, a := range q.Atoms {
		args := f.buf[n : n+len(a.Args)] // Add copies the atom, so one buffer serves all
		for i, t := range a.Args {
			args[i] = f.freeze(t)
		}
		if err := db.Add(instance.Atom{Pred: a.Pred, Args: args}); err != nil {
			panic(err) // frozen atoms are ground
		}
	}
	return tuple
}

// freeze returns c(t) for a variable t and t itself otherwise.
func (f *Freezer) freeze(t term.Term) term.Term {
	if !t.IsVar() {
		return t
	}
	for i := 0; i < len(f.vars); i += 2 {
		if f.vars[i] == t {
			return f.vars[i+1]
		}
	}
	c, ok := f.consts[t]
	if !ok {
		c = FrozenConst(t)
		if f.consts != nil {
			f.consts[t] = c
		}
	}
	f.vars = append(f.vars, t, c)
	return c
}

// FrozenConst returns the frozen constant c(x) for variable x, a
// constant in the namespace term.FrozenPrefix reserves.
func FrozenConst(x term.Term) term.Term {
	return term.Const(term.FrozenPrefix + x.Name)
}

// IsFrozenConst reports whether t was produced by FrozenConst.
func IsFrozenConst(t term.Term) bool { return term.IsFrozen(t) }

// Thaw inverts FrozenConst, returning the original variable; it panics
// if t is not a frozen constant.
func Thaw(t term.Term) term.Term {
	if !IsFrozenConst(t) {
		panic(fmt.Sprintf("cq: %s is not a frozen constant", t))
	}
	return term.Var(strings.TrimPrefix(t.Name, term.FrozenPrefix))
}

// ThawAtoms maps frozen constants back to variables across a slice of
// atoms, leaving other terms (including chase nulls) untouched. It is
// the bridge from chase(q,Σ) — an instance over frozen constants and
// nulls — back to query-land, where acyclicity treats those terms as
// nulls (Example 2 of the paper reads the Gaifman graph of chase(q,Σ)
// this way).
func ThawAtoms(atoms []instance.Atom) []instance.Atom {
	out := make([]instance.Atom, len(atoms))
	for i, a := range atoms {
		na := a.Clone()
		for j, t := range na.Args {
			if IsFrozenConst(t) {
				na.Args[j] = Thaw(t)
			}
		}
		out[i] = na
	}
	return out
}

// String renders the query in the parser's input syntax.
func (q *CQ) String() string {
	var b strings.Builder
	name := q.Name
	if name == "" {
		name = "q"
	}
	b.WriteString(name)
	b.WriteByte('(')
	for i, x := range q.Free {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(x.Name)
	}
	b.WriteString(") :- ")
	instance.WriteRuleAtoms(&b, q.Atoms)
	return b.String()
}

// UCQ is a union of conjunctive queries over the same free-variable
// arity: Q(x̄) = q1(x̄) ∨ ... ∨ qn(x̄).
type UCQ struct {
	Disjuncts []*CQ
}

// NewUCQ validates that all disjuncts agree on the number of free
// variables and returns the union.
func NewUCQ(disjuncts ...*CQ) (*UCQ, error) {
	if len(disjuncts) == 0 {
		return nil, fmt.Errorf("cq: UCQ needs at least one disjunct")
	}
	n := len(disjuncts[0].Free)
	for _, d := range disjuncts[1:] {
		if len(d.Free) != n {
			return nil, fmt.Errorf("cq: UCQ disjuncts disagree on arity: %d vs %d", n, len(d.Free))
		}
	}
	return &UCQ{Disjuncts: disjuncts}, nil
}

// Height returns the maximal disjunct size, the measure bounded by
// f_C(q,Σ) in Definition 2 / Propositions 17 and 19.
func (u *UCQ) Height() int {
	h := 0
	for _, d := range u.Disjuncts {
		if d.Size() > h {
			h = d.Size()
		}
	}
	return h
}

// String renders each disjunct on its own line.
func (u *UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		parts[i] = d.String()
	}
	return strings.Join(parts, "\n")
}
