package deps

import (
	"fmt"
	"strings"

	"semacyclic/internal/instance"
	"semacyclic/internal/schema"
	"semacyclic/internal/term"
)

// EGD is an equality-generating dependency ∀x̄ (φ(x̄) → x_i = x_j).
type EGD struct {
	Body []instance.Atom
	X, Y term.Term // the equated body variables
}

// NewEGD builds and validates an egd over a copy of body.
func NewEGD(body []instance.Atom, x, y term.Term) (*EGD, error) {
	return newEGD(instance.CloneAtoms(body), x, y)
}

// newEGD validates an egd over body, which it keeps: the parser hands
// over atoms nothing else holds.
func newEGD(body []instance.Atom, x, y term.Term) (*EGD, error) {
	e := &EGD{Body: body, X: x, Y: y}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// MustEGD is NewEGD that panics on error.
func MustEGD(body []instance.Atom, x, y term.Term) *EGD {
	e, err := NewEGD(body, x, y)
	if err != nil {
		panic(err)
	}
	return e
}

// Validate checks well-formedness: nonempty body, no nulls, equated
// terms are distinct body variables, consistent arities.
func (e *EGD) Validate() error {
	if len(e.Body) == 0 {
		return fmt.Errorf("deps: egd with empty body")
	}
	if err := validateAtoms(schema.New(), "egd", e.Body); err != nil {
		return err
	}
	if !e.X.IsVar() || !e.Y.IsVar() {
		return fmt.Errorf("deps: egd equates non-variables %s = %s", e.X, e.Y)
	}
	if e.X == e.Y {
		return fmt.Errorf("deps: egd equates a variable with itself")
	}
	if !mentions(e.Body, e.X) || !mentions(e.Body, e.Y) {
		return fmt.Errorf("deps: egd equates variables not in its body")
	}
	return nil
}

// BodyVars returns the distinct body variables.
func (e *EGD) BodyVars() []term.Term { return varsOf(e.Body) }

// RenameApart returns a copy with fresh variables.
func (e *EGD) RenameApart() *EGD {
	s := term.NewSubst()
	for _, v := range e.BodyVars() {
		s[v] = term.FreshVar()
	}
	return &EGD{Body: applyAtoms(e.Body, s), X: s.Apply(e.X), Y: s.Apply(e.Y)}
}

// String renders the egd in the parser's syntax.
func (e *EGD) String() string {
	var b strings.Builder
	instance.WriteRuleAtoms(&b, e.Body)
	b.WriteString(" -> ")
	b.WriteString(e.X.Name)
	b.WriteString(" = ")
	b.WriteString(e.Y.Name)
	return b.String()
}

// FD is a functional dependency R : From → To over a predicate of the
// given arity, with attribute positions 0-based. The paper writes
// R : A → B with B a set; a multi-target FD is the set of its
// single-target projections, so To is a single position here.
type FD struct {
	Pred  string
	Arity int
	From  []int
	To    int
}

// NewFD validates and returns the FD.
func NewFD(pred string, arity int, from []int, to int) (*FD, error) {
	f := &FD{Pred: pred, Arity: arity, From: append([]int(nil), from...), To: to}
	if pred == "" || arity <= 0 {
		return nil, fmt.Errorf("deps: FD needs a predicate with positive arity")
	}
	seen := make(map[int]bool)
	for _, i := range f.From {
		if i < 0 || i >= arity {
			return nil, fmt.Errorf("deps: FD position %d out of range for arity %d", i, arity)
		}
		if seen[i] {
			return nil, fmt.Errorf("deps: duplicate FD position %d", i)
		}
		seen[i] = true
	}
	if to < 0 || to >= arity {
		return nil, fmt.Errorf("deps: FD target %d out of range for arity %d", to, arity)
	}
	if seen[to] {
		return nil, fmt.Errorf("deps: FD target %d already a determinant", to)
	}
	if len(f.From) == 0 {
		return nil, fmt.Errorf("deps: FD with empty determinant")
	}
	return f, nil
}

// IsUnary reports whether the determinant has a single attribute (the
// class Figueira [17] and Theorem 23's extension handle).
func (f *FD) IsUnary() bool { return len(f.From) == 1 }

// IsKey reports whether the FD is a key in the paper's sense:
// A ∪ B covers all attributes. With a single target this means
// |From| = arity-1.
func (f *FD) IsKey() bool { return len(f.From) == f.Arity-1 }

// AsEGD converts the FD to its egd form
// R(x̄), R(ȳ) → x_To = y_To where x̄,ȳ agree on From.
func (f *FD) AsEGD() *EGD {
	mkVar := func(prefix string, i int) term.Term {
		return term.Var(fmt.Sprintf("%s%d", prefix, i))
	}
	inFrom := make(map[int]bool, len(f.From))
	for _, i := range f.From {
		inFrom[i] = true
	}
	a1 := make([]term.Term, f.Arity)
	a2 := make([]term.Term, f.Arity)
	for i := 0; i < f.Arity; i++ {
		if inFrom[i] {
			shared := mkVar("s", i)
			a1[i], a2[i] = shared, shared
		} else {
			a1[i], a2[i] = mkVar("u", i), mkVar("w", i)
		}
	}
	return MustEGD(
		[]instance.Atom{instance.NewAtom(f.Pred, a1...), instance.NewAtom(f.Pred, a2...)},
		a1[f.To], a2[f.To],
	)
}

// String renders the FD as R: {1,2} -> 3 with 1-based attributes, the
// paper's notation.
func (f *FD) String() string {
	from := make([]string, len(f.From))
	for i, p := range f.From {
		from[i] = fmt.Sprintf("%d", p+1)
	}
	return fmt.Sprintf("%s: {%s} -> %d", f.Pred, joinStrings(from, ","), f.To+1)
}

func joinStrings(parts []string, sep string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += sep
		}
		out += p
	}
	return out
}
