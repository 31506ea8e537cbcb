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
}

// NewTGD builds and validates a tgd.
func NewTGD(body, head []instance.Atom) (*TGD, error) {
	t := &TGD{Body: cloneAtoms(body), Head: cloneAtoms(head)}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustTGD is NewTGD that panics on error.
func MustTGD(body, head []instance.Atom) *TGD {
	t, err := NewTGD(body, head)
	if err != nil {
		panic(err)
	}
	return t
}

func cloneAtoms(atoms []instance.Atom) []instance.Atom {
	out := make([]instance.Atom, len(atoms))
	for i, a := range atoms {
		out[i] = a.Clone()
	}
	return out
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
	for _, a := range append(append([]instance.Atom(nil), t.Body...), t.Head...) {
		if err := sch.Add(a.Pred, len(a.Args)); err != nil {
			return fmt.Errorf("deps: %w", err)
		}
		for _, tm := range a.Args {
			if tm.IsNull() {
				return fmt.Errorf("deps: tgd atom %s mentions a null", a)
			}
			if term.IsFrozen(tm) {
				return fmt.Errorf("deps: tgd atom %s mentions constant %q in the reserved frozen namespace", a, tm.Name)
			}
		}
	}
	return nil
}

// BodyVars returns the distinct body variables in first-occurrence order.
func (t *TGD) BodyVars() []term.Term { return varsOf(t.Body) }

// HeadVars returns the distinct head variables in first-occurrence order.
func (t *TGD) HeadVars() []term.Term { return varsOf(t.Head) }

// FrontierVars returns the body variables that also occur in the head
// (the exported x̄ of the tgd).
func (t *TGD) FrontierVars() []term.Term {
	out := t.BodyVars()
	frontier := out[:0]
	for _, v := range out {
		if mentions(t.Head, v) {
			frontier = append(frontier, v)
		}
	}
	return frontier
}

// ExistentialVars returns the head variables not occurring in the body
// (the z̄ of the tgd).
func (t *TGD) ExistentialVars() []term.Term {
	out := t.HeadVars()
	existential := out[:0]
	for _, v := range out {
		if !mentions(t.Body, v) {
			existential = append(existential, v)
		}
	}
	return existential
}

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
	return &TGD{Body: applyAtoms(t.Body, s), Head: applyAtoms(t.Head, s)}
}

func applyAtoms(atoms []instance.Atom, s term.Subst) []instance.Atom {
	out := make([]instance.Atom, len(atoms))
	for i, a := range atoms {
		out[i] = a.Apply(s)
	}
	return out
}

// varsOf returns the distinct variables of the atoms in first-occurrence
// order. Dependencies are small, so a linear scan of the output
// replaces a set.
func varsOf(atoms []instance.Atom) []term.Term {
	var out []term.Term
	for _, a := range atoms {
		for _, tm := range a.Args {
			if tm.IsVar() && !slices.Contains(out, tm) {
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
