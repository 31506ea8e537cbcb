// Package schema models relational schemas: finite sets of predicate
// symbols with fixed arities. Every component that mentions predicates
// (instances, queries, dependencies) validates against a Schema, and
// signature extraction lets tools infer a schema from input syntax.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Predicate is a relation symbol with its arity.
type Predicate struct {
	Name  string
	Arity int
}

// String renders the predicate as Name/Arity.
func (p Predicate) String() string { return fmt.Sprintf("%s/%d", p.Name, p.Arity) }

// Schema is a finite relational schema. The zero value is an empty,
// usable schema.
type Schema struct {
	preds map[string]int // name → arity
}

// New returns a schema containing the given predicates. It panics on a
// duplicate name with conflicting arity, which is always a programming
// error at construction time.
func New(preds ...Predicate) *Schema {
	s := &Schema{preds: make(map[string]int, len(preds))}
	for _, p := range preds {
		if err := s.Add(p.Name, p.Arity); err != nil {
			panic(err)
		}
	}
	return s
}

// Add registers a predicate. Re-adding with the same arity is a no-op;
// a conflicting arity is an error.
func (s *Schema) Add(name string, arity int) error {
	if name == "" {
		return fmt.Errorf("schema: empty predicate name")
	}
	if arity < 0 {
		return fmt.Errorf("schema: predicate %s has negative arity %d", name, arity)
	}
	if s.preds == nil {
		s.preds = make(map[string]int)
	}
	if a, ok := s.preds[name]; ok && a != arity {
		return fmt.Errorf("schema: predicate %s redeclared with arity %d (was %d)", name, arity, a)
	}
	s.preds[name] = arity
	return nil
}

// Reset removes every predicate, keeping the storage for reuse.
func (s *Schema) Reset() { clear(s.preds) }

// Arity returns the arity of the named predicate and whether it exists.
func (s *Schema) Arity(name string) (int, bool) {
	if s == nil || s.preds == nil {
		return 0, false
	}
	a, ok := s.preds[name]
	return a, ok
}

// Has reports whether the named predicate is in the schema.
func (s *Schema) Has(name string) bool {
	_, ok := s.Arity(name)
	return ok
}

// Len returns the number of predicates.
func (s *Schema) Len() int {
	if s == nil {
		return 0
	}
	return len(s.preds)
}

// MaxArity returns the largest arity in the schema (0 when empty).
func (s *Schema) MaxArity() int {
	max := 0
	for _, p := range s.Predicates() {
		if p.Arity > max {
			max = p.Arity
		}
	}
	return max
}

// Predicates returns all predicates sorted by name.
func (s *Schema) Predicates() []Predicate {
	if s == nil {
		return nil
	}
	out := make([]Predicate, 0, len(s.preds))
	for n, a := range s.preds {
		out = append(out, Predicate{Name: n, Arity: a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Clone returns an independent copy of s.
func (s *Schema) Clone() *Schema {
	out := &Schema{preds: make(map[string]int, s.Len())}
	if s != nil {
		for n, a := range s.preds {
			out.preds[n] = a
		}
	}
	return out
}

// Union merges the predicates of other into a fresh schema. An arity
// conflict is an error.
func (s *Schema) Union(other *Schema) (*Schema, error) {
	out := s.Clone()
	if other != nil {
		for n, a := range other.preds {
			if err := out.Add(n, a); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// String renders the schema as {P/2, Q/3}.
func (s *Schema) String() string {
	ps := s.Predicates()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.String()
	}
	return "{" + strings.Join(names, ", ") + "}"
}
