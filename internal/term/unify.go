package term

import "fmt"

// UnifyError reports why two tuples failed to unify.
type UnifyError struct {
	Left, Right Term
	Reason      string
}

func (e *UnifyError) Error() string {
	return fmt.Sprintf("term: cannot unify %s with %s: %s", e.Left, e.Right, e.Reason)
}

// Unify computes a most general unifier of the two equally long tuples,
// extending the (possibly nil) initial substitution init. Constants
// unify only with themselves or with variables/nulls; variables and
// nulls unify with anything. The returned substitution is idempotent
// (fully resolved). init is not modified.
//
// Unify treats nulls like variables, which is what the egd chase and
// the rewriting engine need: both identify labelled nulls with other
// terms. Callers that must keep certain terms rigid (e.g. the frozen
// constants of Lemma 1) should model them as constants.
func Unify(a, b []Term, init Subst) (Subst, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("term: tuple length mismatch %d vs %d", len(a), len(b))
	}
	s := init.Clone()
	if s == nil {
		s = NewSubst()
	}
	for i := range a {
		if x, y, ok := unifyOne(s, a[i], b[i]); !ok {
			return nil, &UnifyError{Left: x, Right: y, Reason: "distinct constants"}
		}
	}
	// Resolve to an idempotent substitution.
	for k := range s {
		s[k] = s.Resolve(k)
	}
	return s, nil
}

// UnifyInto extends s in place to a most general unifier of the equally
// long tuples a and b, binding as Unify does, and reports whether one
// exists. s stays triangular (read it with Resolve) and, on failure,
// holds a partial extension: a caller reusing one substitution clears
// it between problems, and allocates nothing once its table has grown.
func UnifyInto(s Subst, a, b []Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if _, _, ok := unifyOne(s, a[i], b[i]); !ok {
			return false
		}
	}
	return true
}

// unifyOne merges the equivalence classes of x and y in s, binding
// flexible terms (variables, nulls). On a constant clash it returns the
// two clashing representatives and false.
func unifyOne(s Subst, x, y Term) (Term, Term, bool) {
	x = s.Resolve(x)
	y = s.Resolve(y)
	if x == y {
		return x, y, true
	}
	switch {
	case x.IsConst() && y.IsConst():
		return x, y, false
	case x.IsConst():
		s[y] = x
	case y.IsConst():
		s[x] = y
	case x.IsNull() && y.IsVar():
		// Prefer binding variables to nulls: substitution images stay
		// within instance terms, which downstream code expects.
		s[y] = x
	default:
		s[x] = y
	}
	return x, y, true
}

// MatchTuple extends init so that pattern maps onto target
// homomorphism-style: variables and nulls of pattern may be bound, but
// target terms are rigid. On success the extension is written into
// init in place and the keys it bound are appended to undo, which is
// returned; a backtracking search keeps one undo stack, records
// mark := len(undo) before the call and reverts with
// Unbind(init, undo[mark:]). On failure init is left as it was and
// undo comes back truncated to its entry length. A nil undo is fine.
func MatchTuple(init Subst, pattern, target, undo []Term) ([]Term, bool) {
	if len(pattern) != len(target) {
		return undo, false
	}
	mark := len(undo)
	for i := range pattern {
		p := pattern[i]
		t := target[i]
		if p.IsConst() {
			if p != t {
				Unbind(init, undo[mark:])
				return undo[:mark], false
			}
			continue
		}
		if got, bound := init[p]; bound {
			if got != t {
				Unbind(init, undo[mark:])
				return undo[:mark], false
			}
			continue
		}
		init[p] = t
		undo = append(undo, p)
	}
	return undo, true
}

// Unbind removes the listed keys from s; the inverse of a successful
// MatchTuple extension.
func Unbind(s Subst, keys []Term) {
	for _, k := range keys {
		delete(s, k)
	}
}
