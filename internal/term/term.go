// Package term defines the three-sorted universe of the paper —
// constants (C), labelled nulls (N) and variables (V) — together with
// substitutions and most-general unifiers over atom argument tuples.
//
// Terms are small comparable values so they can be used directly as map
// keys; all higher layers (instances, queries, dependencies, the chase,
// the rewriting engine) are built on top of this package.
package term

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Kind discriminates the three disjoint sorts of terms.
type Kind uint8

const (
	// Constant is an element of the countably infinite set C. Constants
	// are interpreted as themselves; homomorphisms are the identity on C.
	Constant Kind = iota
	// Null is a labelled null from N. Nulls appear in instances (but
	// never in queries or dependencies) and may be mapped by
	// homomorphisms and identified by the egd chase.
	Null
	// Variable is a query/dependency variable from V. Variables never
	// appear in instances.
	Variable
)

// String returns the sort name, mostly for error messages.
func (k Kind) String() string {
	switch k {
	case Constant:
		return "constant"
	case Null:
		return "null"
	case Variable:
		return "variable"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Term is a single member of C ∪ N ∪ V. The zero value is the constant
// with the empty name; use the constructors to build meaningful terms.
// Term is comparable and cheap to copy.
type Term struct {
	K    Kind
	Name string
}

// Const returns the constant named name.
func Const(name string) Term { return Term{K: Constant, Name: name} }

// Var returns the variable named name.
func Var(name string) Term { return Term{K: Variable, Name: name} }

// NullTerm returns the labelled null named name.
func NullTerm(name string) Term { return Term{K: Null, Name: name} }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t.K == Constant }

// IsNull reports whether t is a labelled null.
func (t Term) IsNull() bool { return t.K == Null }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.K == Variable }

// String renders the term: constants bare, nulls with a leading '⊥',
// variables with a leading '?'. The rendering is unambiguous and is the
// inverse of nothing in particular — parsers live in higher packages.
func (t Term) String() string {
	switch t.K {
	case Null:
		return "_:" + t.Name
	case Variable:
		return "?" + t.Name
	default:
		return t.Name
	}
}

// AppendKey appends t's canonical key encoding — kind byte, name
// bytes, NUL — to buf. The byte order of tuple keys built by
// concatenating AppendKey over a tuple's terms is the repo-wide
// canonical answer order: CompareTuples computes it without building
// keys, and the yannakakis oracle sorts by the keys themselves. The
// byte layout is load-bearing for answer order and must not change.
func (t Term) AppendKey(buf []byte) []byte {
	buf = append(buf, byte(t.K))
	buf = append(buf, t.Name...)
	return append(buf, 0)
}

// CompareTuples orders tuples exactly as bytes.Compare orders their
// concatenated AppendKey encodings — the canonical answer order —
// without building either key. Equal terms are skipped, a kind
// difference decides, and otherwise the first differing name byte
// does. The one case that needs the byte stream itself is a name that
// is a strict prefix of the other where the longer name continues with
// NUL: that byte ties with the shorter name's terminator, so the
// comparison carries on across term boundaries.
func CompareTuples(a, b []Term) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		x, y := a[i], b[i]
		if x == y {
			continue
		}
		if x.K != y.K {
			return cmp.Compare(x.K, y.K)
		}
		m := min(len(x.Name), len(y.Name))
		for j := 0; j < m; j++ {
			if x.Name[j] != y.Name[j] {
				return cmp.Compare(x.Name[j], y.Name[j])
			}
		}
		// One name is a strict prefix of the other: its NUL terminator
		// meets the longer name's next byte.
		if len(x.Name) < len(y.Name) && y.Name[m] != 0 {
			return -1
		}
		if len(y.Name) < len(x.Name) && x.Name[m] != 0 {
			return 1
		}
		return compareKeyStreams(a[i:], b[i:])
	}
	return cmp.Compare(len(a), len(b))
}

// compareKeyStreams is bytes.Compare over the concatenated AppendKey
// encodings of a and b, one byte at a time.
func compareKeyStreams(a, b []Term) int {
	sa, sb := keyStream{ts: a}, keyStream{ts: b}
	for {
		x, okx := sa.next()
		y, oky := sb.next()
		switch {
		case !okx && !oky:
			return 0
		case !okx:
			return -1
		case !oky:
			return 1
		case x != y:
			return cmp.Compare(x, y)
		}
	}
}

// keyStream yields the bytes of a tuple's key encoding in order.
type keyStream struct {
	ts  []Term
	pos int // 0: kind byte; 1..len(Name): name bytes; len(Name)+1: NUL
}

func (s *keyStream) next() (byte, bool) {
	if len(s.ts) == 0 {
		return 0, false
	}
	t, p := s.ts[0], s.pos
	s.pos++
	switch {
	case p == 0:
		return byte(t.K), true
	case p <= len(t.Name):
		return t.Name[p-1], true
	}
	s.ts, s.pos = s.ts[1:], 0
	return 0, true
}

// Compare orders terms first by kind then by name. It induces a total
// order used for canonical forms.
func (t Term) Compare(u Term) int {
	if t.K != u.K {
		if t.K < u.K {
			return -1
		}
		return 1
	}
	return strings.Compare(t.Name, u.Name)
}

// FrozenPrefix begins the name of every frozen constant: freezing a
// query (its canonical database, Lemma 1 of the paper) replaces each
// variable x by the constant FrozenPrefix + x, and thawing maps such a
// constant back to x. The namespace is reserved: queries and
// dependencies must not mention constants in it, or a user constant
// would thaw into a variable (their Validate methods reject them), and
// queries must not mention variables in it, because the UCQ rewriting
// names its copies of tgd variables there. Instances may hold such
// constants; they are plain constants there.
const FrozenPrefix = "\x01c:"

// IsFrozen reports whether t is a constant in the reserved frozen
// namespace (see FrozenPrefix).
func IsFrozen(t Term) bool {
	return t.K == Constant && strings.HasPrefix(t.Name, FrozenPrefix)
}

// freshCounter backs FreshNull and FreshVar. A process-global atomic is
// deliberate: the chase requires nulls "not occurring in I", and a
// global counter guarantees freshness across every instance in the
// process without threading state everywhere.
var freshCounter atomic.Uint64

// FreshNull returns a labelled null guaranteed distinct from every
// previously created fresh null in this process.
func FreshNull() Term { return Term{K: Null, Name: freshName('n')} }

// FreshVar returns a variable guaranteed distinct from every previously
// created fresh variable in this process.
func FreshVar() Term { return Term{K: Variable, Name: freshName('v')} }

// freshName returns prefix followed by the next counter value in
// decimal, in one allocation.
func freshName(prefix byte) string {
	var buf [24]byte
	return string(strconv.AppendUint(append(buf[:0], prefix), freshCounter.Add(1), 10))
}

// RenameApart returns the renaming that maps vars, in order, to the
// variables v0, v1, … in turn, skipping every variable in vars or in
// avoid. Its range shares nothing with avoid, and no image is also a
// key, so applying it through Resolve (as CQ.ApplySubst does) cannot
// chain one variable onto another's image and merge the two. Unlike
// FreshVar's names it depends on its arguments alone, so a renamed
// query prints the same in every run.
func RenameApart(vars, avoid []Term) Subst {
	s := make(Subst, len(vars))
	next := 0
	for _, v := range vars {
		for {
			name := Var("v" + strconv.Itoa(next))
			next++
			if !slices.Contains(vars, name) && !slices.Contains(avoid, name) {
				s[v] = name
				break
			}
		}
	}
	return s
}

// ResetFreshCounter restarts the fresh-name counter. It exists only so
// tests and benchmarks can produce reproducible names; concurrent use
// with FreshNull is safe but defeats the purpose.
func ResetFreshCounter() { freshCounter.Store(0) }

// Subst is a substitution: a finite mapping from variables and nulls to
// terms. Constants are never in the domain (homomorphisms are the
// identity on C); Apply enforces this by passing constants through.
type Subst map[Term]Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Apply returns the image of t: s[t] if t is in the domain, t itself
// otherwise. Application does not chase chains; use Resolve for the
// fully dereferenced value when the substitution is triangular.
//
// Constants are looked up like any other term: ordinary homomorphism
// substitutions never put constants in their domain (they are the
// identity on C), but the egd chase deliberately maps the frozen query
// constants of Lemma 1, which "are treated as nulls during the chase".
func (s Subst) Apply(t Term) Term {
	if u, ok := s[t]; ok {
		return u
	}
	return t
}

// Resolve follows binding chains (x ↦ y, y ↦ z yields z) until a fixed
// point. It panics on cycles longer than the substitution itself, which
// can only arise from a corrupted substitution.
func (s Subst) Resolve(t Term) Term {
	for i := 0; i <= len(s); i++ {
		u := s.Apply(t)
		if u == t {
			return t
		}
		t = u
	}
	panic("term: cyclic substitution")
}

// ApplyTuple maps Apply over a tuple, returning a fresh slice.
func (s Subst) ApplyTuple(ts []Term) []Term {
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = s.Apply(t)
	}
	return out
}

// ResolveTuple maps Resolve over a tuple, returning a fresh slice.
func (s Subst) ResolveTuple(ts []Term) []Term {
	out := make([]Term, len(ts))
	for i, t := range ts {
		out[i] = s.Resolve(t)
	}
	return out
}

// Clone returns a shallow copy of s.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Compose returns the substitution t∘s: first s, then t, with every
// binding fully resolved through t. Bindings of t on terms outside the
// range of s are preserved.
func (s Subst) Compose(t Subst) Subst {
	out := make(Subst, len(s)+len(t))
	for k, v := range s {
		out[k] = t.Apply(v)
	}
	for k, v := range t {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// Domain returns the domain of s in canonical order.
func (s Subst) Domain() []Term {
	out := make([]Term, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// String renders the substitution as {x↦a, y↦b} in canonical order.
func (s Subst) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range s.Domain() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s↦%s", k, s[k])
	}
	b.WriteByte('}')
	return b.String()
}
