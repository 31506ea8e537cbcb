package core

import (
	"fmt"
	"sync"

	"semacyclic/internal/containment"
	"semacyclic/internal/cq"
	"semacyclic/internal/deps"
	"semacyclic/internal/stop"
)

// UCQResult reports a UCQ semantic-acyclicity decision (§8.1 of the
// paper): the union is semantically acyclic iff every disjunct either
// has an acyclic Σ-equivalent of bounded size or is redundant in the
// union (Propositions 33/34).
type UCQResult struct {
	Verdict Verdict
	// Witness is the acyclic union, when Verdict is Yes: for every
	// non-redundant disjunct its acyclic equivalent.
	Witness *cq.UCQ
	// Redundant[i] reports that disjunct i is Σ-contained in another
	// disjunct and was dropped.
	Redundant []bool
	// PerDisjunct holds the CQ-level result for each non-redundant
	// disjunct (nil entries for redundant ones).
	PerDisjunct []*Result
	Definitive  bool
	// RedundancyChecks counts the containment tests the redundancy-
	// marking phase ran. DETERMINISTIC: the phase is sequential.
	RedundancyChecks int
}

// DecideUCQ determines whether the UCQ is equivalent under Σ to a
// union of acyclic CQs.
func DecideUCQ(u *cq.UCQ, set *deps.Set, opt Options) (*UCQResult, error) {
	if u == nil || len(u.Disjuncts) == 0 {
		return nil, fmt.Errorf("core: empty UCQ")
	}
	if set == nil {
		set = &deps.Set{}
	}
	out := &UCQResult{
		Redundant:   make([]bool, len(u.Disjuncts)),
		PerDisjunct: make([]*Result, len(u.Disjuncts)),
		Definitive:  true,
	}

	// Mark redundant disjuncts: q_i ⊆Σ q_j for some j ≠ i. Ties (mutual
	// containment) keep the earlier disjunct. opt carries the caller's
	// cancel channel into each containment chase/rewrite via
	// withDefaults, so the phase aborts within one check.
	opt = opt.withDefaults()
	for i, qi := range u.Disjuncts {
		for j, qj := range u.Disjuncts {
			if i == j || out.Redundant[j] {
				continue
			}
			if stop.Cancelled(opt.Cancel) {
				return nil, stop.ErrCancelled
			}
			out.RedundancyChecks++
			dec, err := containment.Contains(qi, qj, set, opt.Containment)
			if err != nil {
				return nil, err
			}
			if !dec.Definitive {
				out.Definitive = false
			}
			if dec.Holds {
				out.RedundancyChecks++
				back, err := containment.Contains(qj, qi, set, opt.Containment)
				if err != nil {
					return nil, err
				}
				if back.Holds && i < j {
					continue // mutual: keep i, let j be marked on its turn
				}
				out.Redundant[i] = true
				break
			}
		}
	}

	// Decide the surviving disjuncts — concurrently when asked: the
	// decisions are independent (all shared inputs are read-only) and
	// results land in per-index slots, so the outcome is deterministic.
	workers := opt.parallelism()
	type job struct{ i int }
	jobs := make(chan job)
	errs := make([]error, len(u.Disjuncts))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, err := Decide(u.Disjuncts[j.i], set, opt)
				if err != nil {
					errs[j.i] = err
					continue
				}
				out.PerDisjunct[j.i] = res
			}
		}()
	}
	for i := range u.Disjuncts {
		if !out.Redundant[i] {
			jobs <- job{i}
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var witnesses []*cq.CQ
	verdict := Yes
	for i := range u.Disjuncts {
		if out.Redundant[i] {
			continue
		}
		res := out.PerDisjunct[i]
		switch res.Verdict {
		case Yes:
			witnesses = append(witnesses, res.Witness)
		case No:
			if !res.Definitive {
				out.Definitive = false
			}
			verdict = No
		case Unknown:
			out.Definitive = false
			if verdict == Yes {
				verdict = Unknown
			}
		}
	}
	out.Verdict = verdict
	if verdict == Yes && len(witnesses) > 0 {
		w, err := cq.NewUCQ(witnesses...)
		if err != nil {
			return nil, fmt.Errorf("core: internal: %w", err)
		}
		out.Witness = w
	}
	if verdict == No {
		// A No from any disjunct settles the union only when definitive;
		// otherwise degrade to Unknown.
		if !out.Definitive {
			out.Verdict = Unknown
		}
	}
	return out, nil
}
