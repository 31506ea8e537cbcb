package instance

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"semacyclic/internal/term"
	"semacyclic/internal/testutil"
)

// model is the reference the slot-table instance is checked against: a
// string-keyed atom map plus ByPred and ByPos lists kept by append on
// insert and swap-with-last on removal.
type model struct {
	atoms  map[string]Atom
	byPred map[string][]Atom
	byPos  map[string][]Atom
}

func newModel() *model {
	return &model{atoms: map[string]Atom{}, byPred: map[string][]Atom{}, byPos: map[string][]Atom{}}
}

func posName(pred string, pos int, t term.Term) string { return fmt.Sprintf("%s/%d/%s", pred, pos, t) }

func (m *model) add(a Atom) {
	if _, ok := m.atoms[a.Key()]; ok {
		return
	}
	m.atoms[a.Key()] = a
	m.byPred[a.Pred] = append(m.byPred[a.Pred], a)
	for i, t := range a.Args {
		k := posName(a.Pred, i, t)
		m.byPos[k] = append(m.byPos[k], a)
	}
}

func (m *model) remove(a Atom) {
	if _, ok := m.atoms[a.Key()]; !ok {
		return
	}
	delete(m.atoms, a.Key())
	drop := func(list []Atom) []Atom {
		i := slices.IndexFunc(list, a.Equal)
		list[i] = list[len(list)-1]
		return list[:len(list)-1]
	}
	m.byPred[a.Pred] = drop(m.byPred[a.Pred])
	for i, t := range a.Args {
		k := posName(a.Pred, i, t)
		m.byPos[k] = drop(m.byPos[k])
	}
}

// applyDelta nets the batch as ApplyDelta documents it and returns the
// effective counts.
func (m *model) applyDelta(inserts, deletes []Atom) (int, int) {
	inBatch := map[string]bool{}
	for _, a := range inserts {
		inBatch[a.Key()] = true
	}
	var effIns, effDel []Atom
	seen := map[string]bool{}
	for _, a := range deletes {
		if _, ok := m.atoms[a.Key()]; ok && !seen[a.Key()] && !inBatch[a.Key()] {
			effDel = append(effDel, a)
		}
		seen[a.Key()] = true
	}
	seen = map[string]bool{}
	for _, a := range inserts {
		if _, ok := m.atoms[a.Key()]; !ok && !seen[a.Key()] {
			effIns = append(effIns, a)
		}
		seen[a.Key()] = true
	}
	for _, a := range effDel {
		m.remove(a)
	}
	for _, a := range effIns {
		m.add(a)
	}
	return len(effIns), len(effDel)
}

// replaceTerm rewrites the atoms mentioning old in sorted predicate
// order, each predicate's in ByPred order, removing each before adding
// its image. Replacing a term by itself changes nothing.
func (m *model) replaceTerm(old, new term.Term) {
	if old == new {
		return
	}
	var preds []string
	for p, list := range m.byPred {
		if len(list) > 0 {
			preds = append(preds, p)
		}
	}
	sort.Strings(preds)
	var touched []Atom
	for _, p := range preds {
		for _, a := range m.byPred[p] {
			if slices.Contains(a.Args, old) {
				touched = append(touched, a)
			}
		}
	}
	for _, a := range touched {
		m.remove(a)
		na := a.Clone()
		for i := range na.Args {
			if na.Args[i] == old {
				na.Args[i] = new
			}
		}
		m.add(na)
	}
}

func (m *model) clone() *model {
	out := newModel()
	for k, a := range m.atoms {
		out.atoms[k] = a
	}
	for k, l := range m.byPred {
		out.byPred[k] = slices.Clone(l)
	}
	for k, l := range m.byPos {
		out.byPos[k] = slices.Clone(l)
	}
	return out
}

// modelUniverse is the atom pool of the model test: arities 0 to 3, so
// that nullary atoms, one-cell atoms and atoms with separately stored
// arguments all occur, and few terms, so that lists collide, grow past
// one atom and empty again.
type modelUniverse struct {
	terms []term.Term
	preds map[string]int
}

func (u modelUniverse) randAtom(r *rand.Rand) Atom {
	names := []string{"Z", "S", "R", "T"}
	p := names[r.Intn(len(names))]
	args := make([]term.Term, u.preds[p])
	for i := range args {
		args[i] = u.terms[r.Intn(len(u.terms))]
	}
	return Atom{Pred: p, Args: args}
}

func (u modelUniverse) randAtoms(r *rand.Rand, max int) []Atom {
	out := make([]Atom, r.Intn(max+1))
	for i := range out {
		out[i] = u.randAtom(r)
	}
	return out
}

// sameAtoms reports whether two lists hold equal atoms in equal order.
func sameAtoms(a, b []Atom) bool {
	return slices.EqualFunc(a, b, Atom.Equal)
}

// check compares ins against m: Len, Has over the whole universe,
// Atoms, and every ByPred and ByPos list, contents and order.
func (u modelUniverse) check(ins *Instance, m *model) error {
	if ins.Len() != len(m.atoms) {
		return fmt.Errorf("Len %d, model %d", ins.Len(), len(m.atoms))
	}
	want := make([]Atom, 0, len(m.atoms))
	for _, a := range m.atoms {
		want = append(want, a)
	}
	SortAtoms(want)
	if got := ins.Atoms(); !sameAtoms(got, want) {
		return fmt.Errorf("Atoms %v, model %v", got, want)
	}
	for p, ar := range u.preds {
		if got, want := ins.ByPred(p), m.byPred[p]; !sameAtoms(got, want) {
			return fmt.Errorf("ByPred(%s) %v, model %v", p, got, want)
		}
		for pos := 0; pos < ar; pos++ {
			for _, t := range u.terms {
				if got, want := ins.ByPos(p, pos, t), m.byPos[posName(p, pos, t)]; !sameAtoms(got, want) {
					return fmt.Errorf("ByPos(%s,%d,%s) %v, model %v", p, pos, t, got, want)
				}
			}
		}
	}
	var hasAll func(prefix []term.Term, p string, ar int) error
	hasAll = func(prefix []term.Term, p string, ar int) error {
		if len(prefix) == ar {
			a := Atom{Pred: p, Args: prefix}
			if _, ok := m.atoms[a.Key()]; ins.Has(a) != ok {
				return fmt.Errorf("Has(%s) = %v, model %v", a, !ok, ok)
			}
			return nil
		}
		for _, t := range u.terms {
			if err := hasAll(append(prefix[:len(prefix):len(prefix)], t), p, ar); err != nil {
				return err
			}
		}
		return nil
	}
	for p, ar := range u.preds {
		if err := hasAll(nil, p, ar); err != nil {
			return err
		}
	}
	return nil
}

// TestInstanceMatchesModel runs random Add, Remove, ApplyDelta,
// ReplaceTerm, Clone and Reset sequences against the reference model.
// Every clone stays under check after later steps mutate or reset its
// origin, so a list shared between instances that one of them writes
// shows up.
func TestInstanceMatchesModel(t *testing.T) {
	u := modelUniverse{
		terms: []term.Term{term.Const("a"), term.Const("b"), term.Const("c"), term.NullTerm("n1"), term.NullTerm("n2")},
		preds: map[string]int{"Z": 0, "S": 1, "R": 2, "T": 3},
	}
	seqs, steps := 150, 60
	if testutil.RaceEnabled || testing.Short() {
		seqs = 40
	}
	for seq := 0; seq < seqs; seq++ {
		r := rand.New(rand.NewSource(int64(seq)))
		type pair struct {
			ins *Instance
			m   *model
		}
		pairs := []pair{{New(), newModel()}}
		var log []string
		for step := 0; step < steps; step++ {
			k := r.Intn(len(pairs))
			p := pairs[k]
			switch op := r.Intn(11); {
			case op < 4:
				a := u.randAtom(r)
				log = append(log, fmt.Sprintf("#%d Add %s", k, a))
				if err := p.ins.Add(a); err != nil {
					t.Fatalf("seq %d: Add(%s): %v", seq, a, err)
				}
				p.m.add(a)
			case op < 6:
				// Remove an atom the instance holds more often than not.
				a := u.randAtom(r)
				if all := p.ins.Atoms(); len(all) > 0 && r.Intn(3) > 0 {
					a = all[r.Intn(len(all))]
				}
				log = append(log, fmt.Sprintf("#%d Remove %s", k, a))
				if _, ok := p.m.atoms[a.Key()]; p.ins.Remove(a) != ok {
					t.Fatalf("seq %d: Remove(%s) disagrees with the model", seq, a)
				}
				p.m.remove(a)
			case op < 8:
				ins, del := u.randAtoms(r, 4), u.randAtoms(r, 4)
				if all := p.ins.Atoms(); len(all) > 0 {
					for i := r.Intn(3); i > 0; i-- {
						del = append(del, all[r.Intn(len(all))])
					}
				}
				log = append(log, fmt.Sprintf("#%d ApplyDelta +%v -%v", k, ins, del))
				res, err := p.ins.ApplyDelta(ins, del)
				if err != nil {
					t.Fatalf("seq %d: ApplyDelta: %v", seq, err)
				}
				if ni, nd := p.m.applyDelta(ins, del); res.Inserted != ni || res.Deleted != nd {
					t.Fatalf("seq %d: ApplyDelta counts +%d -%d, model +%d -%d", seq, res.Inserted, res.Deleted, ni, nd)
				}
			case op < 9:
				old, new := u.terms[r.Intn(len(u.terms))], u.terms[r.Intn(len(u.terms))]
				log = append(log, fmt.Sprintf("#%d ReplaceTerm %s %s", k, old, new))
				p.ins.ReplaceTerm(old, new)
				p.m.replaceTerm(old, new)
			case op < 10:
				log = append(log, fmt.Sprintf("#%d Clone", k))
				pairs = append(pairs, pair{p.ins.Clone(), p.m.clone()})
			default:
				log = append(log, fmt.Sprintf("#%d Reset", k))
				p.ins.Reset()
				*p.m = *newModel()
			}
			for j, q := range pairs {
				if err := u.check(q.ins, q.m); err != nil {
					t.Fatalf("seq %d, instance #%d after:\n%s\n%v", seq, j, strings.Join(log, "\n"), err)
				}
				for i, o := range pairs {
					sameSet := len(q.m.atoms) == len(o.m.atoms)
					for key := range q.m.atoms {
						if _, ok := o.m.atoms[key]; !ok {
							sameSet = false
						}
					}
					if q.ins.Equal(o.ins) != sameSet {
						t.Fatalf("seq %d: #%d.Equal(#%d) = %v, model %v after:\n%s", seq, j, i, !sameSet, sameSet, strings.Join(log, "\n"))
					}
				}
			}
		}
	}
}

// TestResetMatchesFresh: an instance emptied by Reset and refilled by
// some Adds is indistinguishable from NewSized filled by the same Adds —
// Atoms, every ByPred and ByPos list in order, the slot of every atom
// and the schema — though its history left free slots, grown lists, a
// predicate of another arity and an interned view. Reset moves the
// epoch and drops the view, and a clone taken before it keeps its atoms.
func TestResetMatchesFresh(t *testing.T) {
	u := modelUniverse{
		terms: []term.Term{term.Const("a"), term.Const("b"), term.Const("c"), term.NullTerm("n1")},
		preds: map[string]int{"Z": 0, "S": 1, "R": 2, "T": 3},
	}
	for seq := 0; seq < 200; seq++ {
		r := rand.New(rand.NewSource(int64(seq)))
		ins := New()
		if err := ins.Add(NewAtom("W", term.Const("a"))); err != nil {
			t.Fatal(err)
		}
		for step := r.Intn(40); step > 0; step-- {
			if a := u.randAtom(r); r.Intn(4) == 0 {
				ins.Remove(a)
			} else if err := ins.Add(a); err != nil {
				t.Fatal(err)
			}
		}
		ins.Interned()
		clone, before := ins.Clone(), ins.Atoms()
		epoch := ins.Epoch()
		ins.Reset()
		if ins.Len() != 0 || ins.Epoch() == epoch || ins.interned.Load() != nil || ins.Schema().Len() != 0 {
			t.Fatalf("seq %d: after Reset: Len %d, epoch %d (was %d), interned view kept %v, %d predicates",
				seq, ins.Len(), ins.Epoch(), epoch, ins.interned.Load() != nil, ins.Schema().Len())
		}
		adds := append(u.randAtoms(r, 30), NewAtom("W", term.Const("a"), term.Const("b")))
		fresh := NewSized(0, 0)
		for _, a := range adds {
			if err := ins.Add(a); err != nil {
				t.Fatalf("seq %d: Add(%s) after Reset: %v", seq, a, err)
			}
			if err := fresh.Add(a); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := ins.Atoms(), fresh.Atoms(); !sameAtoms(got, want) {
			t.Fatalf("seq %d: Atoms %v, fresh %v", seq, got, want)
		}
		for _, a := range fresh.Atoms() {
			if got, want := ins.SlotOf(a.Pred, a.Args), fresh.SlotOf(a.Pred, a.Args); got != want {
				t.Fatalf("seq %d: slot of %s is %d, fresh %d", seq, a, got, want)
			}
		}
		for p, ar := range u.preds {
			if !sameAtoms(ins.ByPred(p), fresh.ByPred(p)) {
				t.Fatalf("seq %d: ByPred(%s) %v, fresh %v", seq, p, ins.ByPred(p), fresh.ByPred(p))
			}
			for pos := 0; pos < ar; pos++ {
				for _, x := range u.terms {
					if got, want := ins.ByPos(p, pos, x), fresh.ByPos(p, pos, x); !sameAtoms(got, want) {
						t.Fatalf("seq %d: ByPos(%s,%d,%s) %v, fresh %v", seq, p, pos, x, got, want)
					}
				}
			}
		}
		if got, want := ins.Schema().String(), fresh.Schema().String(); got != want {
			t.Fatalf("seq %d: schema %s, fresh %s", seq, got, want)
		}
		if got := clone.Atoms(); !sameAtoms(got, before) {
			t.Fatalf("seq %d: a clone taken before Reset now holds %v, want %v", seq, got, before)
		}
	}
}

// TestEmptiedListTakesNewView: a predicate's only atom is removed and
// another atom of the predicate added. The new atom starts lists of its
// own; the removed atom's lists, still held by a clone and by a caller,
// keep their contents.
func TestEmptiedListTakesNewView(t *testing.T) {
	a, b := atomR("a", "b"), atomR("a", "c")
	ins := MustFromAtoms(a, NewAtom("S", term.Const("a")))
	clone := ins.Clone()
	held := [][]Atom{ins.ByPred("R"), ins.ByPos("R", 0, term.Const("a")), ins.ByPos("R", 1, term.Const("b"))}
	ins.Remove(a)
	if err := ins.Add(b); err != nil {
		t.Fatal(err)
	}
	for i, list := range held {
		if !sameAtoms(list, []Atom{a}) {
			t.Errorf("list %d held before the removal now reads %v", i, list)
		}
	}
	for _, c := range []struct {
		ins  *Instance
		want Atom
	}{{ins, b}, {clone, a}} {
		if got := c.ins.ByPred("R"); !sameAtoms(got, []Atom{c.want}) {
			t.Errorf("ByPred(R) = %v, want [%s]", got, c.want)
		}
		if got := c.ins.ByPos("R", 0, term.Const("a")); !sameAtoms(got, []Atom{c.want}) {
			t.Errorf("ByPos(R,0,a) = %v, want [%s]", got, c.want)
		}
		if got := c.ins.ByPos("R", 1, c.want.Args[1]); !sameAtoms(got, []Atom{c.want}) {
			t.Errorf("ByPos(R,1,%s) = %v, want [%s]", c.want.Args[1], got, c.want)
		}
		if got := c.ins.ByPred("S"); len(got) != 1 {
			t.Errorf("ByPred(S) = %v, want one atom", got)
		}
	}
	if got := ins.ByPos("R", 1, term.Const("b")); len(got) != 0 {
		t.Errorf("ByPos(R,1,b) = %v after removing R(a,b)", got)
	}
}

// onePredInstance builds n atoms E(ci, ci+1) and a batch of 20 absent E
// atoms over the same constants.
func onePredInstance(n int) (*Instance, []Atom) {
	c := func(i int) term.Term { return term.Const(fmt.Sprintf("c%d", i)) }
	ins := New()
	for i := 0; i < n; i++ {
		if err := ins.Add(NewAtom("E", c(i), c(i+1))); err != nil {
			panic(err)
		}
	}
	batch := make([]Atom, 20)
	for i := range batch {
		batch[i] = NewAtom("E", c(i), c(i+2))
	}
	return ins, batch
}

// applyDeltaPair inserts the batch and deletes it again.
func applyDeltaPair(ins *Instance, batch []Atom) error {
	if res, err := ins.ApplyDelta(batch, nil); err != nil || res.Inserted != len(batch) {
		return fmt.Errorf("insert: %+v, %v", res, err)
	}
	if res, err := ins.ApplyDelta(nil, batch); err != nil || res.Deleted != len(batch) {
		return fmt.Errorf("delete: %+v, %v", res, err)
	}
	return nil
}

// TestAllocsApplyDelta guards the apply path's cost: it builds no
// Atom.Key strings (the batch is netted through a hashed atom set and
// presence is a slot lookup), and a stored atom is one cell. An insert
// costs its cell; the overlay's private copies of a batch's inserts
// share one slab. Before that the pair took 123 allocations, then 68
// with a private copy per insert (now 49).
func TestAllocsApplyDelta(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	ins, batch := onePredInstance(20000)
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if e := applyDeltaPair(ins, batch); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("an insert/delete pair: %v allocs", allocs)
	if allocs > 49 {
		t.Errorf("an ApplyDelta insert/delete pair of 20 atoms allocates %v, want at most 49", allocs)
	}
}

// BenchmarkApplyDeltaPair times 20 inserts then the same 20 deletes on
// one predicate. A delete moves the list's last atom into the vacated
// position, so the pair costs the same at both sizes.
func BenchmarkApplyDeltaPair(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("atoms=%d", n), func(b *testing.B) {
			ins, batch := onePredInstance(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := applyDeltaPair(ins, batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParseNEF parses a 20,000-atom database in bench/'s
// patch-eval shape: per node one N, one E and one F atom.
func BenchmarkParseNEF(b *testing.B) {
	const nodes = 20000 / 3
	r := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&sb, "N(c%d).\n", i)
	}
	for i := 0; i < nodes; i++ {
		fmt.Fprintf(&sb, "E(c%d,c%d).\nF(c%d,c%d).\n", i, r.Intn(nodes), i, r.Intn(nodes))
	}
	text := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}
