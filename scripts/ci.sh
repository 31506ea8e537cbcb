#!/usr/bin/env bash
# Tier-1 gate: everything here must pass before a change lands.
#
#   scripts/ci.sh          # vet + build + race-enabled tests + short benchmarks
#
# The test step runs with -race on purpose: semacycd runs decisions on
# a worker pool beside its instance registry and caches, and the tests
# that drive them only mean something when the race detector watches
# them. A decision itself runs in one goroutine.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== semalint =="
# The determinism & cancellation contracts, enforced statically: no raw
# map ranges in decision packages, every fixpoint loop polls
# Options.Cancel, no wall-clock input to fingerprints, errors.Is for
# sentinels, every obs stats field classified — plus the
# interprocedural suite: dettaint (nondeterminism-taint dataflow),
# guardedby (sem:"guardedby(...)" lock discipline) and lockorder
# (static lock-acquisition cycles). Self-test must be zero findings.
# See internal/lint and docs/LINT.md.
#
# The budget keeps the parallel runner's speedup locked in: the run
# fails (exit 3) when total analyzer wall time exceeds the budget.
# Override per machine with SEMALINT_BUDGET_MS; 0 disables.
# (the suite currently takes ~0.4s of analyzer time on a dev box).
go run ./cmd/semalint -budget-ms "${SEMALINT_BUDGET_MS:-10000}" ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
# -shuffle=on randomizes test (and subtest-sibling) execution order so
# accidental inter-test coupling surfaces here, not in a flaky bisect.
go test -race -shuffle=on ./...

echo "== bench module (vet, race tests, semalint) =="
# bench/ is its own Go module (it replaces semacyclic with this
# checkout), so the root ./... patterns above never reach it.
(cd bench && go vet ./... && go test -race -count=1 ./... && go run semacyclic/cmd/semalint ./...)

echo "== allocation guards (no race: counts must be exact) =="
# The probe operations promise 0 allocs/op: hom's candidate probe over
# the ByPred/ByPos map index, and the interned view's semijoin
# membership and index range in yannakakis and instance. The answer
# boundary promises allocations that do not grow with the number of
# matches or answers (hom undo stack, yannakakis answer slab) and none
# at all for answers already in canonical order (core), the decision
# path promises a steady-state hom.Exists with 0 allocs (pooled
# enumerator) and a canonical key in a handful (cq), and the telemetry
# nil-recorder span hook promises 0 allocs/op so untraced requests pay
# nothing. The candidate kernels are copy-free: hom.Core freezes once
# per round rather than cloning per victim, DedupAtoms copies into one
# slab, and IsAcyclic builds no forest, keys or per-atom slices. The
# query, dependency and database parsers slice escape-free quoted
# constants from their input, the rule parsers reuse one argument
# buffer per parse, and deps.Parse validates each dependency once. A
# stored atom is one allocation: ApplyDelta nets its batch without key
# strings, the chase keeps derivation depths by instance slot and
# reuses its trigger and argument buffers, and a fresh null's name is
# one allocation. cq.Freeze sizes its instance from the query, so it
# grows no table, and builds no substitution map. A reused cq.Keyer
# keys a query with no allocation, and a decision's search layers
# build candidates in scratch and copy only the ones they keep (core).
# They verify candidates in reusable scratch: an instance emptied by
# Reset keeps its tables, a reused cq.Freezer allocates only the stored
# atoms' cells, and a reused chase.Runner keeps its run state and null
# names (chase); the decision's verifier owns the one runner that
# layers 2 to 4 and the shape layer verify in, and layer 4 walks every
# candidate from the empty one in one goroutine, with one keyer and
# buffers reused along the walk; layers
# 3 and 4 check a candidate by a scan instead of CQ.Validate (core); a
# decision chases q once, in its verifier, for the unsatisfiability
# test and layers 3 and 4 (core). semacycd renders
# answer rows as windows of one slab, two allocations however many
# answers (server).
# A UCQ rewriting owns its scratch: each tgd is renamed once per call,
# piece unification and the rewriting reuse buffers, one hom.Corer
# core-reduces every step (freezing into one reset instance), one
# cq.Keyer keys it, and only an unseen disjunct is copied (rewrite).
# ApplyDelta copies a batch's effective inserts into one slab.
# ExecuteDelta reuses an unchanged state for one allocation and repairs
# from the rows a batch appended to the view, without atom keys or
# copies, keying only the delta's rows, so a repair's allocations do
# not grow with the cached projection. The guards skip themselves under
# -race, so run them once without it.
go test -count=1 -run 'Allocs' ./internal/hom/ ./internal/cq/ ./internal/deps/ ./internal/yannakakis/ ./internal/core/ ./internal/instance/ ./internal/telemetry/ ./internal/hypergraph/ ./internal/chase/ ./internal/term/ ./internal/server/ ./internal/rewrite/

echo "== reference gate =="
# The allocation-light kernels against the implementations they
# replaced, kept as test-only references: hom.Core (same retraction,
# atom for atom, also through one reused Corer) and the enumerator's
# atom order; the scratch UCQ rewriting against the kernel it replaced
# (same disjunct keys in the same order, Complete and Rounds) on the
# sticky and non-recursive decide-cold templates and their layer-2/3
# candidates, random workloads, Example 3 and truncated runs; cq's DedupAtoms,
# Freeze (also through one reused Freezer) and CanonicalKey (also
# through one reused Keyer), hypergraph's IsAcyclic and GYO (same
# forest); one reused chase.Runner against a fresh chase.Query per
# (q, Σ), with cancelled and failing runs between; layers 3 and 4's
# candidate scans and the rewriting's per-step scan against
# CQ.Validate; layer 2's scratch-built moves against
# the quotientMoves list they replaced (same atoms, same order, same
# keys); the decision's hoisted witness verification against
# containment.Equivalent, with the decision's own checker serving
# layers 2-3;
# game.Evaluate, the one enumerator both game methods run, against the
# guarded and egd enumerators it merged (same answer sets, also through
# the Plans); the shape layer against layer 4 and containment.Equivalent
# on random arity-2 workloads, and under renamed predicates; and the
# decide-cold golden file, which freezes verdict,
# layer, candidates, witness and deterministic fingerprint of bench's
# fifteen decide-cold templates, and Approximate's query.
# -count=1: a cached 'ok' can never satisfy the gate.
go test -count=1 -run 'MatchesReference|MatchesEquivalent|MatchesValidate|PreparedServes|DecideColdGolden|ShapeAgreesWithCompleteSearch|ShapeRenamingKeepsDecision' \
    ./internal/hom/ ./internal/cq/ ./internal/hypergraph/ ./internal/chase/ ./internal/core/ ./internal/rewrite/

echo "== cancellation & server gate (race) =="
# The semacycd service package and the per-layer cancellation tests are
# the PR-acceptance surface for deadline propagation; run them again
# with -count=1 so a cached 'ok' can never satisfy the gate. hom's core
# search polls the cancel channel too: a 256-atom chain, its own core,
# must stop within 250 ms of the close; so do the game's sweeps, a
# prepared checker's chase, and the generic evaluator, whose enumerator
# polls every 64 nodes, so an answer-free triangle search over a
# 43,200-atom DAG stops too. Every engine polls through internal/stop,
# whose contract test calls each cancellable entry point with a closed
# channel (stop.ErrCancelled) and a nil one (success).
go test -race -count=1 ./internal/server/
go test -race -count=1 -run 'Cancel' ./internal/chase/ ./internal/rewrite/ ./internal/core/ ./internal/hom/ \
    ./internal/yannakakis/ ./internal/game/ ./internal/containment/ ./internal/stop/

echo "== delta & overlay differential gate (race) =="
# Incremental evaluation must never drift from from-scratch: apply
# delta batches, repair reducer states one to four batches old through
# ExecuteDelta, evaluate overlays, and compare answers and
# deterministic fingerprints against full re-evaluation, at the
# instance, reducer and plan layers; the instance layer also pins the
# relation-family rule ExecuteDelta reads what changed by. BooleanPlan is the Boolean stop's
# property test (hom's answer, no join rows, one semijoin per forest
# edge, delta runs equal to fresh ones). -count=1: a cached 'ok' can
# never satisfy the gate.
go test -race -count=1 -run 'Delta|Overlay|Incremental|BooleanPlan' \
    ./internal/instance/ ./internal/yannakakis/ ./internal/core/

echo "== map-order determinism gate (race) =="
# Go randomizes map iteration per run, so a map-order leak shows only
# when two runs differ: these tests repeat one Clone/ReplaceTerm/Union
# sequence, one core computation, one chase and one decision, and
# demand a single result. -count=1: a cached 'ok' can never satisfy
# the gate.
go test -race -count=1 -run 'MapOrder' \
    ./internal/instance/ ./internal/hom/ ./internal/chase/ ./internal/core/

echo "== internal/README.md completeness =="
# Every internal package gets its paragraph; a new package without one
# fails the gate here rather than drifting silently.
for d in internal/*/; do
    pkg=$(basename "$d")
    if ! grep -q "^\*\*${pkg}\*\*" internal/README.md; then
        echo "internal/README.md: no paragraph for internal/${pkg}" >&2
        exit 1
    fi
done

echo "== torture corpus (race) =="
# The data-driven corpus under testdata/corpus: parser regressions,
# differential method agreement on frozen verdicts/answers, stable
# error messages, and the decision layer-monotonicity contract. Run
# with -count=1 so the gate never trusts a cached result.
go test -race -count=1 -run 'TestCorpus' .

echo "== fuzz smoke (10s per target, seed corpus + short exploration) =="
# Native fuzz targets (no race: fuzzing under the race detector is an
# order of magnitude slower and the corpus gate above already runs the
# differential checks race-enabled). Longer runs: -fuzztime 60s.
for target in FuzzParseCQ FuzzParseDeps FuzzInstanceRoundTrip FuzzMethodAgreement; do
    go test -run "^${target}\$" -fuzz "^${target}\$" -fuzztime 10s .
done

echo "== API smoke (semacycd end to end) =="
scripts/api_smoke.sh

echo "== short benchmarks (compile + one iteration) =="
go test -run '^$' -bench . -benchtime 1x ./...

echo "ci: all green"
