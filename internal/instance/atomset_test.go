package instance

import (
	"fmt"
	"testing"

	"semacyclic/internal/term"
)

// TestAtomSetCollisions drives atomSet with every atom under one hash,
// so each lookup walks a chain and each removal unlinks from the head,
// the middle or the tail of one. Real hashes collide too rarely for
// the other tests to reach these paths.
func TestAtomSetCollisions(t *testing.T) {
	const h = 7
	atoms := make([]Atom, 6)
	for i := range atoms {
		atoms[i] = NewAtom("R", term.Const(fmt.Sprint(i)))
	}
	s := newAtomSet(0)
	slot := map[int]int32{}
	for i, a := range atoms {
		slot[i] = s.insert(h, a)
	}
	check := func(step string, present map[int]bool) {
		t.Helper()
		for i, a := range atoms {
			got := s.find(h, a.Pred, a.Args)
			if present[i] != (got >= 0) || present[i] && got != slot[i] {
				t.Fatalf("%s: find(%s) = %d, want present %v at slot %d", step, a, got, present[i], slot[i])
			}
		}
		if s.live != len(present) {
			t.Fatalf("%s: live %d, want %d", step, s.live, len(present))
		}
		for sl := range s.slots {
			if want := holdsSlot(slot, present, int32(sl)); s.isLive(sl) != want {
				t.Fatalf("%s: slot %d live %v, want %v", step, sl, s.isLive(sl), want)
			}
		}
	}
	present := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true}
	check("filled", present)
	// The chain runs from the last insert to the first: 5 is its head,
	// 0 its tail.
	for _, i := range []int{5, 2, 0} {
		s.remove(h, slot[i])
		delete(present, i)
		check(fmt.Sprintf("removed %d", i), present)
	}
	// Freed slots are reused last-freed first.
	freed := slot[0]
	slot[0] = s.insert(h, atoms[0])
	present[0] = true
	if slot[0] != freed {
		t.Fatalf("re-insert took slot %d, want the last freed %d", slot[0], freed)
	}
	check("re-inserted 0", present)
	for _, i := range []int{1, 3, 4, 0} {
		s.remove(h, slot[i])
		delete(present, i)
		check(fmt.Sprintf("removed %d", i), present)
	}
	if _, ok := s.heads[h]; ok {
		t.Fatal("empty chain still has a head")
	}
}

// holdsSlot reports whether slot sl belongs to a present atom.
func holdsSlot(slot map[int]int32, present map[int]bool, sl int32) bool {
	for i := range present {
		if slot[i] == sl {
			return true
		}
	}
	return false
}
