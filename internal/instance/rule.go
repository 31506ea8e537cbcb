package instance

import (
	"fmt"
	"strings"

	"semacyclic/internal/scan"
	"semacyclic/internal/term"
)

// Rule syntax is the atom layer the query parser (internal/cq) and the
// dependency parser (internal/deps) share: in a rule an identifier
// argument is a variable, while a quoted string (scan.Quoted) or a run
// of digits is a constant. Database text reads a bare token as a
// constant instead, so Parse keeps its own atom loop.

// RuleCursor scans rule text: space skipping, literal tokens,
// identifiers, argument lists and atom lists. Errors read
// "<pkg>: parse error at offset N: …" with the caller's package name.
type RuleCursor struct {
	// Pos is the byte offset of the next unread input; callers save and
	// restore it to backtrack.
	Pos  int
	src  string
	pkg  string
	args []term.Term // argument scratch reused across atoms
}

// NewRuleCursor returns a cursor at the start of src whose errors carry
// the prefix pkg. src must be valid UTF-8 (scan.CheckUTF8).
func NewRuleCursor(pkg, src string) RuleCursor {
	return RuleCursor{src: src, pkg: pkg}
}

// Errf reports a parse error at the cursor.
func (c *RuleCursor) Errf(format string, args ...any) error {
	return fmt.Errorf("%s: parse error at offset %d: %s", c.pkg, c.Pos, fmt.Sprintf(format, args...))
}

// Done skips space and reports whether the input is exhausted.
func (c *RuleCursor) Done() bool {
	c.Pos = scan.SkipSpace(c.src, c.Pos)
	return c.Pos >= len(c.src)
}

// next skips space and returns the next byte, 0 at the end of input.
func (c *RuleCursor) next() byte {
	if c.Done() {
		return 0
	}
	return c.src[c.Pos]
}

// Accept skips space and consumes b if it is the next byte.
func (c *RuleCursor) Accept(b byte) bool {
	if c.next() != b {
		return false
	}
	c.Pos++
	return true
}

// Expect skips space and consumes tok, or fails.
func (c *RuleCursor) Expect(tok string) error {
	c.Pos = scan.SkipSpace(c.src, c.Pos)
	if !strings.HasPrefix(c.src[c.Pos:], tok) {
		return c.Errf("expected %q", tok)
	}
	c.Pos += len(tok)
	return nil
}

// Ident skips space and reads an identifier.
func (c *RuleCursor) Ident() (string, error) {
	c.Pos = scan.SkipSpace(c.src, c.Pos)
	id, end, ok := scan.Ident(c.src, c.Pos)
	if !ok {
		return "", c.Errf("expected identifier")
	}
	c.Pos = end
	return id, nil
}

// arg reads one argument: a quoted or numeric constant, or a variable
// identifier.
func (c *RuleCursor) arg() (term.Term, error) {
	if c.next() == '\'' {
		name, end, err := scan.Quoted(c.src, c.Pos)
		c.Pos = end
		if err != nil {
			return term.Term{}, fmt.Errorf("%s: parse error at offset %d: %w", c.pkg, c.Pos, err)
		}
		return term.Const(name), nil
	}
	if lit, end, ok := scan.Digits(c.src, c.Pos); ok {
		c.Pos = end
		return term.Const(lit), nil
	}
	name, err := c.Ident()
	if err != nil {
		return term.Term{}, err
	}
	return term.Var(name), nil
}

// TermList reads a possibly empty comma-separated argument list up to,
// not including, its closing parenthesis. An empty list is nil.
func (c *RuleCursor) TermList() ([]term.Term, error) {
	if err := c.scanArgs(); err != nil {
		return nil, err
	}
	return append([]term.Term(nil), c.args...), nil
}

// scanArgs reads an argument list into the cursor's scratch.
func (c *RuleCursor) scanArgs() error {
	c.args = c.args[:0]
	if c.next() == ')' {
		return nil
	}
	for {
		t, err := c.arg()
		if err != nil {
			return err
		}
		c.args = append(c.args, t)
		if !c.Accept(',') {
			return nil
		}
	}
}

// atom reads pred(args).
func (c *RuleCursor) atom() (Atom, error) {
	pred, err := c.Ident()
	if err != nil {
		return Atom{}, err
	}
	if err := c.Expect("("); err != nil {
		return Atom{}, err
	}
	if err := c.scanArgs(); err != nil {
		return Atom{}, err
	}
	if err := c.Expect(")"); err != nil {
		return Atom{}, err
	}
	return NewAtom(pred, c.args...), nil
}

// Atoms reads a nonempty comma-separated atom list.
func (c *RuleCursor) Atoms() ([]Atom, error) {
	var out []Atom
	for {
		a, err := c.atom()
		if err != nil {
			return nil, err
		}
		out = append(out, a)
		if !c.Accept(',') {
			return out, nil
		}
	}
}

// WriteRuleAtoms renders atoms in rule syntax, separated by ", ":
// variables bare, constants quoted by scan.WriteQuoted, nulls as
// term.Term.String shows them. CQ, TGD and EGD rendering all use it.
func WriteRuleAtoms(b *strings.Builder, atoms []Atom) {
	for i, a := range atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Pred)
		b.WriteByte('(')
		for j, t := range a.Args {
			if j > 0 {
				b.WriteByte(',')
			}
			switch {
			case t.IsVar():
				b.WriteString(t.Name)
			case t.IsConst():
				scan.WriteQuoted(b, t.Name)
			default:
				b.WriteString(t.String())
			}
		}
		b.WriteByte(')')
	}
}
