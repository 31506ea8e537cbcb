package cq

import (
	"fmt"
	"strings"

	"semacyclic/internal/instance"
	"semacyclic/internal/scan"
	"semacyclic/internal/term"
)

// Parse parses a single conjunctive query in rule syntax:
//
//	q(x,y) :- R(x,z), S(z,y), T('a',x).
//
// Identifiers in argument positions are variables; bare numbers and
// quoted strings are constants, in the one quoted-constant syntax
// queries, dependencies and databases share (scan.Quoted: \' and \\
// are the only escapes). The head argument list and the trailing
// period are optional (a bare head means a Boolean query).
func Parse(input string) (*CQ, error) {
	if err := scan.CheckUTF8(input); err != nil {
		return nil, fmt.Errorf("cq: %w", err)
	}
	c := instance.NewRuleCursor("cq", input)
	q, err := parseRule(&c)
	if err != nil {
		return nil, err
	}
	if !c.Done() {
		return nil, c.Errf("trailing input after query")
	}
	return q, nil
}

// MustParse is Parse that panics on error; for statically valid literals.
func MustParse(input string) *CQ {
	q, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseUCQ parses one query per non-empty line (comments start with %)
// and returns their union. All heads must agree on arity.
func ParseUCQ(input string) (*UCQ, error) {
	var disjuncts []*CQ
	for i, line := range strings.Split(input, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		q, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		disjuncts = append(disjuncts, q)
	}
	return NewUCQ(disjuncts...)
}

func parseRule(c *instance.RuleCursor) (*CQ, error) {
	name, err := c.Ident()
	if err != nil {
		return nil, err
	}
	var free []term.Term
	if c.Accept('(') {
		if free, err = c.TermList(); err != nil {
			return nil, err
		}
		if err := c.Expect(")"); err != nil {
			return nil, err
		}
		for _, t := range free {
			if !t.IsVar() {
				return nil, c.Errf("head argument %s is not a variable", t)
			}
		}
	}
	if err := c.Expect(":-"); err != nil {
		return nil, err
	}
	atoms, err := c.Atoms()
	if err != nil {
		return nil, err
	}
	c.Accept('.')
	q := &CQ{Name: name, Free: free, Atoms: atoms}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}
