// Package deps models database dependencies — tuple-generating
// dependencies (tgds) and equality-generating dependencies (egds,
// subsuming functional dependencies and keys) — together with the
// syntactic classifiers the paper's decidability results hinge on:
// guarded, linear, inclusion, full, non-recursive, weakly-acyclic and
// sticky sets of tgds, and keys / FDs / unary FDs over egds.
package deps

import (
	"fmt"
	"slices"
	"strings"

	"semacyclic/internal/instance"
	"semacyclic/internal/schema"
	"semacyclic/internal/term"
)

// TGD is a tuple-generating dependency
// ∀x̄∀ȳ (φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄)): body φ, head ψ, with the existential
// variables z̄ implicit (head variables absent from the body).
type TGD struct {
	Body []instance.Atom
	Head []instance.Atom

	// The variable lists, built once by newTGD and RenameApart and
	// handed out shared; Body and Head must not change afterwards.
	bodyVars, headVars, frontier, existential []term.Term
}

// NewTGD builds and validates a tgd over copies of body and head.
func NewTGD(body, head []instance.Atom) (*TGD, error) {
	return newTGD(instance.CloneAtoms(body), instance.CloneAtoms(head))
}

// newTGD validates a tgd over body and head, which it keeps: the parser
// hands over atoms nothing else holds.
func newTGD(body, head []instance.Atom) (*TGD, error) {
	t := &TGD{Body: body, Head: head}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.setVars()
	return t, nil
}

// setVars builds the variable lists in one slab. Each list is a capped
// window of it, so a caller appending to one copies it instead of
// writing into the next.
func (t *TGD) setVars() {
	n := 0
	for _, a := range t.Body {
		n += len(a.Args)
	}
	for _, a := range t.Head {
		n += len(a.Args)
	}
	slab := make([]term.Term, 0, 2*n) // frontier ⊆ body vars, existential ⊆ head vars
	start := 0
	cut := func() []term.Term {
		w := slab[start:len(slab):len(slab)]
		start = len(slab)
		return w
	}
	slab = appendVars(slab, t.Body)
	t.bodyVars = cut()
	slab = appendVars(slab, t.Head)
	t.headVars = cut()
	for _, v := range t.bodyVars {
		if mentions(t.Head, v) {
			slab = append(slab, v)
		}
	}
	t.frontier = cut()
	for _, v := range t.headVars {
		if !mentions(t.Body, v) {
			slab = append(slab, v)
		}
	}
	t.existential = cut()
}

// MustTGD is NewTGD that panics on error.
func MustTGD(body, head []instance.Atom) *TGD {
	t, err := NewTGD(body, head)
	if err != nil {
		panic(err)
	}
	return t
}

// Validate checks well-formedness: nonempty body and head, no nulls,
// no constants in the reserved frozen namespace (term.FrozenPrefix),
// and consistent arities across body and head.
func (t *TGD) Validate() error {
	if len(t.Body) == 0 {
		return fmt.Errorf("deps: tgd with empty body")
	}
	if len(t.Head) == 0 {
		return fmt.Errorf("deps: tgd with empty head")
	}
	sch := schema.New()
	if err := validateAtoms(sch, "tgd", t.Body); err != nil {
		return err
	}
	return validateAtoms(sch, "tgd", t.Head)
}

// validateAtoms checks the atoms of one kind of dependency: arities
// consistent with sch, which it grows, no nulls and no constants in
// the reserved frozen namespace.
func validateAtoms(sch *schema.Schema, kind string, atoms []instance.Atom) error {
	for _, a := range atoms {
		if err := sch.Add(a.Pred, len(a.Args)); err != nil {
			return fmt.Errorf("deps: %w", err)
		}
		for _, tm := range a.Args {
			if tm.IsNull() {
				return fmt.Errorf("deps: %s atom %s mentions a null", kind, a)
			}
			if term.IsFrozen(tm) {
				return fmt.Errorf("deps: %s atom %s mentions constant %q in the reserved frozen namespace", kind, a, tm.Name)
			}
		}
	}
	return nil
}

// BodyVars returns the distinct body variables in first-occurrence
// order. The slice is shared; callers must not mutate it.
func (t *TGD) BodyVars() []term.Term { return t.bodyVars }

// HeadVars returns the distinct head variables in first-occurrence
// order. The slice is shared; callers must not mutate it.
func (t *TGD) HeadVars() []term.Term { return t.headVars }

// FrontierVars returns the body variables that also occur in the head
// (the exported x̄ of the tgd), in first-occurrence order. The slice is
// shared; callers must not mutate it.
func (t *TGD) FrontierVars() []term.Term { return t.frontier }

// ExistentialVars returns the head variables not occurring in the body
// (the z̄ of the tgd), in first-occurrence order. The slice is shared;
// callers must not mutate it.
func (t *TGD) ExistentialVars() []term.Term { return t.existential }

// RenameApart returns a copy of the tgd whose variables are fresh,
// needed whenever a tgd is matched against a query sharing names.
func (t *TGD) RenameApart() *TGD {
	s := term.NewSubst()
	for _, v := range t.BodyVars() {
		s[v] = term.FreshVar()
	}
	for _, v := range t.ExistentialVars() {
		s[v] = term.FreshVar()
	}
	r := &TGD{Body: applyAtoms(t.Body, s), Head: applyAtoms(t.Head, s)}
	r.setVars()
	return r
}

func applyAtoms(atoms []instance.Atom, s term.Subst) []instance.Atom {
	out := make([]instance.Atom, len(atoms))
	for i, a := range atoms {
		out[i] = a.Apply(s)
	}
	return out
}

// varsOf returns the distinct variables of the atoms in first-occurrence
// order.
func varsOf(atoms []instance.Atom) []term.Term { return appendVars(nil, atoms) }

// appendVars appends the distinct variables of the atoms to out in
// first-occurrence order. Dependencies are small, so a linear scan of
// the appended part replaces a set.
func appendVars(out []term.Term, atoms []instance.Atom) []term.Term {
	start := len(out)
	for _, a := range atoms {
		for _, tm := range a.Args {
			if tm.IsVar() && !slices.Contains(out[start:], tm) {
				out = append(out, tm)
			}
		}
	}
	return out
}

// mentions reports whether some atom has v as an argument.
func mentions(atoms []instance.Atom, v term.Term) bool {
	for _, a := range atoms {
		if slices.Contains(a.Args, v) {
			return true
		}
	}
	return false
}

func varSet(atoms []instance.Atom) map[term.Term]bool {
	s := make(map[term.Term]bool)
	for _, a := range atoms {
		for _, tm := range a.Args {
			if tm.IsVar() {
				s[tm] = true
			}
		}
	}
	return s
}

// String renders the tgd in the parser's syntax.
func (t *TGD) String() string {
	var b strings.Builder
	instance.WriteRuleAtoms(&b, t.Body)
	b.WriteString(" -> ")
	instance.WriteRuleAtoms(&b, t.Head)
	return b.String()
}

// Schema returns the signature of the tgd's atoms.
func (t *TGD) Schema() *schema.Schema {
	sch := schema.New()
	for _, a := range append(append([]instance.Atom(nil), t.Body...), t.Head...) {
		if err := sch.Add(a.Pred, len(a.Args)); err != nil {
			panic(err) // Validate already rejected conflicts
		}
	}
	return sch
}
