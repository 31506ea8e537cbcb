#!/usr/bin/env bash
# Tier-1 gate: everything here must pass before a change lands.
#
#   scripts/ci.sh          # vet + build + race-enabled tests + short benchmarks
#
# The test step runs with -race on purpose: the witness search and the
# UCQ layer run goroutine pools, and their determinism contract (same
# answer at every -j) is enforced by tests that only mean something
# when the race detector watches them.
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
# The interned hot path promises 0 allocs/op on its probe operations
# (candidate pre-filter, semijoin membership, index range), the answer
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
# constants from their input, and the rule parsers reuse one argument
# buffer per parse. The guards skip themselves under -race, so run
# them once without it.
go test -count=1 -run 'Allocs' ./internal/hom/ ./internal/cq/ ./internal/deps/ ./internal/yannakakis/ ./internal/core/ ./internal/instance/ ./internal/telemetry/ ./internal/hypergraph/

echo "== reference gate =="
# The allocation-light kernels against the implementations they
# replaced, kept as test-only references: hom.Core (same retraction,
# atom for atom) and the enumerator's atom order, cq's DedupAtoms and
# CanonicalKey, hypergraph's IsAcyclic and GYO (same forest); the
# decision's hoisted witness verification against
# containment.Equivalent, with a caller's Prepared serving layers 2-3;
# and game.Evaluate, the one enumerator both game methods run, against
# the guarded and egd enumerators it merged (same answer sets, also
# through the Plans).
# -count=1: a cached 'ok' can never satisfy the gate.
go test -count=1 -run 'MatchesReference|MatchesEquivalent|PreparedServes' \
    ./internal/hom/ ./internal/cq/ ./internal/hypergraph/ ./internal/core/

echo "== cancellation & server gate (race) =="
# The semacycd service package and the per-layer cancellation tests are
# the PR-acceptance surface for deadline propagation; run them again
# with -count=1 so a cached 'ok' can never satisfy the gate.
go test -race -count=1 ./internal/server/
go test -race -count=1 -run 'Cancel' ./internal/chase/ ./internal/rewrite/ ./internal/core/

echo "== delta & overlay differential gate (race) =="
# Incremental evaluation must never drift from from-scratch: replay
# delta journals through ExecuteDelta and overlays and compare answers
# and deterministic fingerprints against full re-evaluation, at the
# instance, reducer and plan layers. BooleanPlan is the Boolean stop's
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

echo "== torture corpus (race, -j 1/4/8) =="
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
