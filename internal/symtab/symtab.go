// Package symtab implements the symbol-interning layer of the
// integer-coded evaluation hot path: a Table maps the constants,
// labelled nulls and predicate names touched by one decision (or one
// registry instance) to dense uint32 ids, so that the per-tuple work of
// the evaluators — semijoin filters, join keys, duplicate elimination,
// candidate pre-filtering — runs on machine integers instead of
// re-hashing and re-materializing strings per tuple touch.
//
// The string form exists only at the parse/print boundary: ids are
// assigned on first Intern, and the only way back to a term.Term is the
// de-intern helpers Term and AppendTerms, whose use inside the
// deterministic decision packages is policed by the semalint internleak
// analyzer (answer materialization and error rendering are the
// sanctioned, pragma-annotated sites).
//
// Determinism: id values depend on interning order, so they are never
// allowed to influence observable output — evaluators dedup and filter
// on ids (id equality is term equality; the mapping is injective) but
// order answers by the canonical string key at the boundary. Under that
// discipline two structurally equal runs give byte-identical output
// whatever ids they assigned.
package symtab

import (
	"sort"

	"semacyclic/internal/term"
)

// ID is a dense interned symbol id: the index of the symbol in its
// Table, starting at 0.
type ID uint32

// Table is one interner. The zero value is not usable; call New.
// A Table is safe for concurrent reads (Lookup, Term, Len) once no
// goroutine interns into it anymore; Intern itself is not safe for
// concurrent use.
type Table struct {
	ids   map[term.Term]ID `sem:"guardedby(owner)"`
	terms []term.Term      `sem:"guardedby(owner)"`
}

// New returns an empty table.
func New() *Table {
	return &Table{ids: make(map[term.Term]ID)}
}

// Clone returns an independent copy of the table, so that
// incremental-view repair can extend the copy with fresh symbols while
// readers holding ids minted by t keep de-interning them to the same
// terms.
func (t *Table) Clone() *Table {
	ids := make(map[term.Term]ID, len(t.ids))
	for k, v := range t.ids {
		ids[k] = v
	}
	terms := make([]term.Term, len(t.terms))
	copy(terms, t.terms)
	return &Table{ids: ids, terms: terms}
}

// Intern returns the id of x, assigning the next dense id on first
// sight. Interning the same term twice returns the same id.
func (t *Table) Intern(x term.Term) ID {
	if id, ok := t.ids[x]; ok {
		return id
	}
	id := ID(len(t.terms))
	t.ids[x] = id
	t.terms = append(t.terms, x)
	return id
}

// Lookup returns the id of x without interning. A miss means x was
// never interned — for a table built from an instance, that x does not
// occur in the instance, so no fact can match it.
func (t *Table) Lookup(x term.Term) (ID, bool) {
	id, ok := t.ids[x]
	return id, ok
}

// Len returns the number of interned symbols; valid ids are [0, Len).
func (t *Table) Len() int { return len(t.terms) }

// Term de-interns one id. It is a boundary helper: decision packages
// may only call it on the print/error path (answer materialization,
// diagnostics), never to rebuild string keys inside a hot loop — the
// semalint internleak analyzer enforces this.
func (t *Table) Term(id ID) term.Term { return t.terms[id] }

// AppendTerms de-interns a tuple of ids, appending to dst. The same
// boundary discipline as Term applies.
func (t *Table) AppendTerms(dst []term.Term, ids []ID) []term.Term {
	for _, id := range ids {
		dst = append(dst, t.terms[id])
	}
	return dst
}

// AppendID appends the 4-byte big-endian encoding of id to buf: the
// integer dedup-key primitive. Probing a map[string]bool with
// string(buf) compiles to an allocation-free lookup, and the 4-byte-
// per-term keys are both shorter and cheaper to hash than the
// kind+name string keys they replace.
func AppendID(buf []byte, id ID) []byte {
	return append(buf, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
}

// rowSorter sorts a flat row-major matrix of w-wide id rows in
// lexicographic column order.
type rowSorter struct {
	ids []ID
	w   int
	tmp []ID
}

func (s *rowSorter) Len() int { return len(s.ids) / s.w }

func (s *rowSorter) Less(i, j int) bool {
	a := s.ids[i*s.w : (i+1)*s.w]
	b := s.ids[j*s.w : (j+1)*s.w]
	for k := 0; k < s.w; k++ {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

func (s *rowSorter) Swap(i, j int) {
	a := s.ids[i*s.w : (i+1)*s.w]
	b := s.ids[j*s.w : (j+1)*s.w]
	copy(s.tmp, a)
	copy(a, b)
	copy(b, s.tmp)
}

// SortRows sorts the flat row-major matrix ids (row width w > 0)
// lexicographically in place: the sorted-run construction step of a
// merge-join semijoin filter. len(ids) must be a multiple of w.
func SortRows(ids []ID, w int) {
	if w <= 0 || len(ids) <= w {
		return
	}
	sort.Sort(&rowSorter{ids: ids, w: w, tmp: make([]ID, w)})
}

// compareRow compares the row starting at sorted[i*w] against key.
func compareRow(sorted []ID, w, i int, key []ID) int {
	row := sorted[i*w : (i+1)*w]
	for k := 0; k < w; k++ {
		if row[k] != key[k] {
			if row[k] < key[k] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// RowRange returns the half-open row-index range [lo, hi) of the rows
// equal to key inside the SortRows-sorted matrix. Hand-rolled binary
// searches (no closures) keep the probe allocation-free.
func RowRange(sorted []ID, w int, key []ID) (lo, hi int) {
	if w <= 0 {
		return 0, len(sorted) // zero-width rows: everything matches
	}
	n := len(sorted) / w
	// Lower bound: first row >= key.
	a, b := 0, n
	for a < b {
		m := int(uint(a+b) >> 1)
		if compareRow(sorted, w, m, key) < 0 {
			a = m + 1
		} else {
			b = m
		}
	}
	lo = a
	// Upper bound: first row > key.
	b = n
	for a < b {
		m := int(uint(a+b) >> 1)
		if compareRow(sorted, w, m, key) <= 0 {
			a = m + 1
		} else {
			b = m
		}
	}
	return lo, a
}

// ContainsRow reports whether key occurs as a row of the
// SortRows-sorted matrix: the steady-state semijoin probe, one binary
// search over integers, zero allocations.
func ContainsRow(sorted []ID, w int, key []ID) bool {
	if w <= 0 {
		return len(sorted) >= 0 // zero-width rows: the empty row is present vacuously
	}
	n := len(sorted) / w
	a, b := 0, n
	for a < b {
		m := int(uint(a+b) >> 1)
		if compareRow(sorted, w, m, key) < 0 {
			a = m + 1
		} else {
			b = m
		}
	}
	return a < n && compareRow(sorted, w, a, key) == 0
}
