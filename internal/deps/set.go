package deps

import (
	"fmt"
	"strings"

	"semacyclic/internal/instance"
	"semacyclic/internal/scan"
	"semacyclic/internal/schema"
	"semacyclic/internal/term"
)

// Set is a finite set of dependencies, tgds and egds together. The
// paper's problems take either pure-tgd or pure-egd sets; Set carries
// both so tools can parse mixed input and dispatch.
type Set struct {
	TGDs []*TGD
	EGDs []*EGD
}

// NewSet builds a set from the given dependencies.
func NewSet(tgds []*TGD, egds []*EGD) *Set {
	return &Set{TGDs: append([]*TGD(nil), tgds...), EGDs: append([]*EGD(nil), egds...)}
}

// TGDSet wraps tgds into a Set.
func TGDSet(tgds ...*TGD) *Set { return NewSet(tgds, nil) }

// EGDSet wraps egds into a Set.
func EGDSet(egds ...*EGD) *Set { return NewSet(nil, egds) }

// Len returns the total number of dependencies.
func (s *Set) Len() int { return len(s.TGDs) + len(s.EGDs) }

// Size returns the total number of atoms across all dependencies, the
// |Σ| measure used in complexity statements.
func (s *Set) Size() int {
	n := 0
	for _, t := range s.TGDs {
		n += len(t.Body) + len(t.Head)
	}
	for _, e := range s.EGDs {
		n += len(e.Body)
	}
	return n
}

// PureTGDs reports whether the set contains only tgds.
func (s *Set) PureTGDs() bool { return len(s.EGDs) == 0 }

// PureEGDs reports whether the set contains only egds.
func (s *Set) PureEGDs() bool { return len(s.TGDs) == 0 }

// Schema returns the union signature of all dependencies.
func (s *Set) Schema() *schema.Schema {
	sch := schema.New()
	add := func(atoms []instance.Atom) {
		for _, a := range atoms {
			if err := sch.Add(a.Pred, len(a.Args)); err != nil {
				panic(err) // individual Validate calls rejected conflicts within a dep
			}
		}
	}
	for _, t := range s.TGDs {
		add(t.Body)
		add(t.Head)
	}
	for _, e := range s.EGDs {
		add(e.Body)
	}
	return sch
}

// Validate re-checks every dependency and cross-dependency arity
// consistency.
func (s *Set) Validate() error { return s.validate(true) }

// validate checks arity consistency across the dependencies and, with
// each, every dependency on its own as it reaches it. Parse checks
// arities only: each dependency was validated as it was built.
func (s *Set) validate(each bool) error {
	sch := schema.New()
	check := func(atoms []instance.Atom) error {
		for _, a := range atoms {
			if err := sch.Add(a.Pred, len(a.Args)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, t := range s.TGDs {
		if each {
			if err := t.Validate(); err != nil {
				return err
			}
		}
		if err := check(t.Body); err != nil {
			return fmt.Errorf("deps: %w", err)
		}
		if err := check(t.Head); err != nil {
			return fmt.Errorf("deps: %w", err)
		}
	}
	for _, e := range s.EGDs {
		if each {
			if err := e.Validate(); err != nil {
				return err
			}
		}
		if err := check(e.Body); err != nil {
			return fmt.Errorf("deps: %w", err)
		}
	}
	return nil
}

// String renders one dependency per line.
func (s *Set) String() string {
	var lines []string
	for _, t := range s.TGDs {
		lines = append(lines, t.String()+".")
	}
	for _, e := range s.EGDs {
		lines = append(lines, e.String()+".")
	}
	return strings.Join(lines, "\n")
}

// Parse reads a dependency set, one dependency per non-empty line
// (comments start with %):
//
//	Interest(x,z), Class(y,z) -> Owns(x,y).
//	T(x,y,z) -> S(x,w).
//	R(x,y), R(x,z) -> y = z.
//
// Head variables absent from the body are existentially quantified.
// Arguments read as in queries (cq.Parse): identifiers are variables,
// and numbers and quoted strings are constants in the quoted-constant
// syntax databases use too (scan.Quoted: \' and \\ are the only
// escapes).
func Parse(input string) (*Set, error) {
	out := &Set{}
	for i, line := range strings.Split(input, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if err := parseLine(out, line); err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	if err := out.validate(false); err != nil {
		return nil, err
	}
	return out, nil
}

// MustParse is Parse that panics on error.
func MustParse(input string) *Set {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

func parseLine(out *Set, line string) error {
	if err := scan.CheckUTF8(line); err != nil {
		return fmt.Errorf("deps: %w", err)
	}
	c := instance.NewRuleCursor("deps", line)
	body, err := c.Atoms()
	if err != nil {
		return err
	}
	if err := c.Expect("->"); err != nil {
		return err
	}
	// Try the egd form first: ident '=' ident with nothing else.
	if x, y, ok := tryEquality(&c); ok {
		e, err := newEGD(body, x, y)
		if err != nil {
			return err
		}
		out.EGDs = append(out.EGDs, e)
		return nil
	}
	head, err := c.Atoms()
	if err != nil {
		return err
	}
	c.Accept('.')
	if !c.Done() {
		return c.Errf("trailing input")
	}
	t, err := newTGD(body, head)
	if err != nil {
		return err
	}
	out.TGDs = append(out.TGDs, t)
	return nil
}

// tryEquality attempts to read "x = y [.]" to end of input; on failure
// the position is restored.
func tryEquality(c *instance.RuleCursor) (term.Term, term.Term, bool) {
	save := c.Pos
	x, err := c.Ident()
	if err == nil && c.Accept('=') {
		var y string
		if y, err = c.Ident(); err == nil {
			c.Accept('.')
			if c.Done() {
				return term.Var(x), term.Var(y), true
			}
		}
	}
	c.Pos = save
	return term.Term{}, term.Term{}, false
}
