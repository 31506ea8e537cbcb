package core

import (
	"fmt"
	"sort"
	"strings"

	"semacyclic/internal/chase"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/hom"
	"semacyclic/internal/hypergraph"
	"semacyclic/internal/term"
)

// Certificate is a re-checkable proof that q ≡Σ w for an acyclic w:
// the two homomorphisms of Lemma 1 (witness into chase(q,Σ) and query
// into chase(w,Σ)) plus w's join tree. Every component is recomputed
// from scratch by Explain, so a certificate never merely echoes the
// decision that produced it.
type Certificate struct {
	Query   *cq.CQ
	Witness *cq.CQ
	// ForwardHom maps the witness's variables into chase(q,Σ),
	// establishing q ⊆Σ Witness by Lemma 1.
	ForwardHom term.Subst
	// BackwardHom maps the query's variables into chase(Witness,Σ),
	// establishing Witness ⊆Σ q.
	BackwardHom term.Subst
	// JoinTree certifies the witness's acyclicity.
	JoinTree *hypergraph.Forest
	// ChaseSteps counts the tgd applications behind the two chases.
	ChaseSteps int
}

// Explain reconstructs a certificate for a Yes decision. It fails when
// the result carries no witness or when a certificate component cannot
// be rebuilt (which would indicate a bug — the decision verified the
// same facts). Both chases poll opt.Cancel, as Decide's do, and a
// closed channel returns stop.ErrCancelled.
func Explain(q *cq.CQ, set *deps.Set, res *Result, opt Options) (*Certificate, error) {
	if res == nil || res.Verdict != Yes || res.Witness == nil {
		return nil, fmt.Errorf("core: only yes-results with witnesses are explainable")
	}
	opt = opt.withDefaults()
	w := res.Witness

	forest, ok := hypergraph.GYO(w.Atoms)
	if !ok {
		return nil, fmt.Errorf("core: witness %s is not acyclic", w)
	}

	copt := opt.Containment.Chase
	if copt.MaxDepth <= 0 && copt.MaxSteps <= 0 {
		copt.MaxDepth = q.Size() + w.Size() + len(set.TGDs) + 2
		copt.MaxSteps = 5000
	}

	// Forward: q ⊆Σ w via hom of w into chase(q,Σ) pinning free vars.
	chq, frozenQ, err := chase.Query(q, set, copt)
	if err != nil {
		return nil, err
	}
	pin := term.NewSubst()
	for i, x := range w.Free {
		pin[x] = frozenQ[i]
	}
	fwd, ok := hom.Find(w.Atoms, chq.Instance, pin)
	if !ok {
		return nil, fmt.Errorf("core: no forward homomorphism — witness unverifiable at this chase budget")
	}

	// Backward: w ⊆Σ q via hom of q into chase(w,Σ).
	chw, frozenW, err := chase.Query(w, set, copt)
	if err != nil {
		return nil, err
	}
	pinB := term.NewSubst()
	for i, x := range q.Free {
		pinB[x] = frozenW[i]
	}
	bwd, ok := hom.Find(q.Atoms, chw.Instance, pinB)
	if !ok {
		return nil, fmt.Errorf("core: no backward homomorphism — witness unverifiable at this chase budget")
	}

	return &Certificate{
		Query:       q,
		Witness:     w,
		ForwardHom:  restrict(fwd, w),
		BackwardHom: restrict(bwd, q),
		JoinTree:    forest,
		ChaseSteps:  chq.Steps + chw.Steps,
	}, nil
}

// restrict trims a homomorphism to the query's own variables.
func restrict(h term.Subst, q *cq.CQ) term.Subst {
	out := term.NewSubst()
	for _, v := range q.Vars() {
		out[v] = h.Resolve(v)
	}
	return out
}

// String renders the certificate as a readable proof sketch.
func (c *Certificate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "q  = %s\n", c.Query)
	fmt.Fprintf(&b, "q' = %s\n\n", c.Witness)
	b.WriteString("q' is acyclic; join tree:\n")
	b.WriteString(indent(c.JoinTree.String()))
	b.WriteString("\n\nq ⊆Σ q' — homomorphism q' → chase(q,Σ):\n")
	b.WriteString(indent(renderHom(c.ForwardHom)))
	b.WriteString("\n\nq' ⊆Σ q — homomorphism q → chase(q',Σ):\n")
	b.WriteString(indent(renderHom(c.BackwardHom)))
	fmt.Fprintf(&b, "\n\nchase steps across both directions: %d\n", c.ChaseSteps)
	return b.String()
}

func renderHom(h term.Subst) string {
	keys := h.Domain()
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s ↦ %s", k, h[k]))
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n")
}
