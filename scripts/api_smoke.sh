#!/usr/bin/env bash
# End-to-end smoke test of the semacycd HTTP API (docs/API.md): builds
# the server, starts it on a private port, and curls every endpoint,
# asserting status codes and key response fields. Called from ci.sh;
# runnable on its own:
#
#   scripts/api_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SEMACYCD_SMOKE_PORT:-18787}"
BASE="http://127.0.0.1:${PORT}"
BIN="$(mktemp -d)/semacycd"
trap 'kill "${SERVER_PID:-0}" 2>/dev/null || true; rm -rf "$(dirname "$BIN")"' EXIT

go build -o "$BIN" ./cmd/semacycd
"$BIN" -addr "127.0.0.1:${PORT}" -workers 2 &
SERVER_PID=$!

for _ in $(seq 1 50); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.1
done

fail() { echo "api_smoke: FAIL: $*" >&2; exit 1; }

# request METHOD PATH EXPECTED_STATUS [BODY] — prints the response body.
request() {
    local method=$1 path=$2 want=$3 body=${4:-}
    local out status
    if [[ -n "$body" ]]; then
        out=$(curl -s -w $'\n%{http_code}' -X "$method" "$BASE$path" -d "$body")
    else
        out=$(curl -s -w $'\n%{http_code}' -X "$method" "$BASE$path")
    fi
    status=${out##*$'\n'}
    out=${out%$'\n'*}
    [[ "$status" == "$want" ]] || fail "$method $path: status $status, want $want ($out)"
    printf '%s' "$out"
}

# expect_contains HAYSTACK NEEDLE LABEL
expect_contains() {
    [[ "$1" == *"$2"* ]] || fail "$3: missing $2 in: $1"
}

echo "-- healthz"
expect_contains "$(request GET /healthz 200)" '"status":"ok"' healthz

echo "-- decide (miss, then byte-identical cached hit)"
DECIDE_BODY='{"query":"q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).","deps":"Interest(x,z), Class(y,z) -> Owns(x,y)."}'
first=$(request POST /decide 200 "$DECIDE_BODY")
expect_contains "$first" '"verdict":"yes"' decide
expect_contains "$first" '"witness":"q(x,y) :- Interest(x,z), Class(y,z)"' decide
second=$(request POST /decide 200 "$DECIDE_BODY")
[[ "$first" == "$second" ]] || fail "decide: cache hit not byte-identical"

echo "-- decide/batch"
expect_contains "$(request POST /decide/batch 200 \
    '{"requests":[{"query":"q :- E(x,y)."},{"query":"q :- E(x,y), E(y,z), E(z,x)."}]}')" \
    '"results":' batch

echo "-- approximate"
expect_contains "$(request POST /approximate 200 '{"query":"q :- E(x,y), E(y,z), E(z,x)."}')" \
    '"equivalent":false' approximate

echo "-- decide errors: removed max_witness field 400"
expect_contains "$(request POST /decide 400 \
    '{"query":"q :- E(x,y), E(y,z), E(z,x).","deps":"E(x,y), E(y,z), E(z,x) -> R(x,y,z).","max_witness":2}')" \
    'max_witness' decide-max-witness

echo "-- instances: load, conflict, list, 404 evaluate"
ATOMS='Interest(alice,jazz). Class(kindofblue,jazz). Owns(alice,kindofblue).'
load=$(request POST /instances 201 "{\"name\":\"musicstore\",\"atoms\":\"$ATOMS\"}")
expect_contains "$load" '"atoms":3' instances-load
request POST /instances 409 "{\"name\":\"musicstore\",\"atoms\":\"$ATOMS\"}" >/dev/null
expect_contains "$(request GET /instances 200)" '"name":"musicstore"' instances-list
request POST /evaluate 404 '{"query":"q :- E(x,y).","instance":"nope"}' >/dev/null

echo "-- evaluate (plan-cache miss, then hit, identical answers)"
EVAL_BODY='{"query":"q(x,y) :- Interest(x,z), Class(y,z), Owns(x,y).","deps":"Interest(x,z), Class(y,z) -> Owns(x,y).","instance":"musicstore"}'
e1=$(request POST /evaluate 200 "$EVAL_BODY")
expect_contains "$e1" '"method":"yannakakis"' evaluate
expect_contains "$e1" '"answers":[["alice","kindofblue"]]' evaluate
expect_contains "$e1" '"plan_cached":false' evaluate
e2=$(request POST /evaluate 200 "$EVAL_BODY")
expect_contains "$e2" '"plan_cached":true' evaluate-hit
ans1=$(grep -o '"answers":\[[^]]*\]\]' <<<"$e1" || true)
ans2=$(grep -o '"answers":\[[^]]*\]\]' <<<"$e2" || true)
[[ -n "$ans1" && "$ans1" == "$ans2" ]] || \
    fail "evaluate: cached answers differ: $ans1 vs $ans2"

echo "-- evaluate errors: bad method 400"
request POST /evaluate 400 '{"query":"q :- E(x,y).","instance":"musicstore","method":"bogus"}' >/dev/null

echo "-- metrics (Prometheus text format)"
# Request/cache metrics are observed after the response is written, so
# give the post-handler hook a moment to land before scraping.
metrics=""
for _ in $(seq 1 50); do
    metrics=$(request GET /metrics 200)
    [[ "$metrics" == *'semacycd_request_duration_seconds_bucket{endpoint="/decide"'* ]] && break
    sleep 0.1
done
expect_contains "$metrics" '# TYPE semacycd_request_duration_seconds histogram' metrics
expect_contains "$metrics" 'semacycd_request_duration_seconds_bucket{endpoint="/decide",le="+Inf"}' metrics
expect_contains "$metrics" 'semacycd_decision_layer_duration_seconds_bucket' metrics
expect_contains "$metrics" 'semacycd_cache_hits_total{cache="decision"}' metrics
expect_contains "$metrics" 'semacycd_cache_misses_total{cache="decision"}' metrics
expect_contains "$metrics" 'semacycd_cache_evictions_total{cache="decision"}' metrics
expect_contains "$metrics" 'server_requests_total' metrics

echo "-- trace header echo (opt-in, body unchanged)"
traced=$(curl -s -D /tmp/smoke_headers.$$ -H 'X-Semacycd-Trace: 1' \
    -X POST "$BASE/decide" -d "$DECIDE_BODY")
trace_hdr=$(grep -i '^X-Semacycd-Trace:' /tmp/smoke_headers.$$ || true)
rm -f /tmp/smoke_headers.$$
expect_contains "$trace_hdr" 'request:/decide' trace-header
[[ "$traced" == "$first" ]] || fail "trace header changed the response body"
plain_hdr=$(curl -s -D - -o /dev/null -X POST "$BASE/decide" -d "$DECIDE_BODY" \
    | grep -ci '^X-Semacycd-Trace:' || true)
[[ "$plain_hdr" == "0" ]] || fail "trace header echoed without opt-in"

echo "-- debug traces ring"
expect_contains "$(request GET /debug/traces 200)" '"traces":' debug-traces

echo "-- obs counters on /metrics (the one metrics surface; no /debug/vars)"
metrics=$(request GET /metrics 200)
expect_contains "$metrics" 'server_evaluations_total' obs-counters
expect_contains "$metrics" 'server_plan_cache_hits_total' obs-counters
request GET /debug/vars 404 >/dev/null

echo "-- patch: apply delta, epoch advances, errors"
p1=$(request PATCH /instances/musicstore 200 \
    '{"insert":"Interest(bob,jazz). Owns(bob,kindofblue)."}')
expect_contains "$p1" '"inserted":2' patch
expect_contains "$p1" '"atoms":5' patch
epoch1=$(grep -o '"epoch":[0-9]*' <<<"$p1")
request PATCH /instances/nope 404 '{"insert":"R(a)."}' >/dev/null
request PATCH /instances/musicstore 400 '{"insert":"R(a"}' >/dev/null
request PATCH /instances/musicstore 400 '{}' >/dev/null
request PATCH /instances/musicstore 409 '{"insert":"Owns(onlyone)."}' >/dev/null
p2=$(request PATCH /instances/musicstore 200 '{"delete":"Owns(bob,kindofblue)."}')
expect_contains "$p2" '"deleted":1' patch-delete
epoch2=$(grep -o '"epoch":[0-9]*' <<<"$p2")
[[ "$epoch1" != "$epoch2" ]] || fail "patch: epoch did not advance ($epoch1 vs $epoch2)"

echo "-- evaluate: reducer progression cold → reused → repaired"
YQ='{"query":"q(x) :- Interest(x,z), Class(y,z).","instance":"musicstore","method":"yannakakis"}'
expect_contains "$(request POST /evaluate 200 "$YQ")" '"reducer":"cold"' reducer-cold
expect_contains "$(request POST /evaluate 200 "$YQ")" '"reducer":"reused"' reducer-reused
request PATCH /instances/musicstore 200 '{"insert":"Interest(carol,jazz)."}' >/dev/null
r3=$(request POST /evaluate 200 "$YQ")
expect_contains "$r3" '"reducer":"repaired"' reducer-repaired
expect_contains "$r3" '"carol"' reducer-repaired-answer

echo "-- evaluate: what-if overlay (stateless, base untouched)"
OV='{"query":"q(x) :- Interest(x,z), Class(y,z).","instance":"musicstore","method":"yannakakis","overlay":{"insert":"Interest(dave,jazz)."}}'
ov=$(request POST /evaluate 200 "$OV")
expect_contains "$ov" '"overlay":true' overlay
expect_contains "$ov" '"dave"' overlay-answer
after=$(request POST /evaluate 200 "$YQ")
[[ "$after" != *'"dave"'* ]] || fail "overlay leaked into the base instance"
expect_contains "$after" '"reducer":"reused"' overlay-stateless
request POST /evaluate 400 \
    '{"query":"q :- E(x,y).","instance":"musicstore","overlay":{}}' >/dev/null
request POST /evaluate 409 \
    '{"query":"q :- E(x,y).","instance":"musicstore","overlay":{"insert":"Owns(onlyone)."}}' >/dev/null

echo "-- delta metrics series present"
dm=$(request GET /metrics 200)
expect_contains "$dm" 'semacycd_patches_total' delta-metrics
expect_contains "$dm" 'semacycd_delta_atoms_total{op="insert"}' delta-metrics
expect_contains "$dm" 'semacycd_delta_atoms_total{op="delete"}' delta-metrics
expect_contains "$dm" 'semacycd_epoch_churn_total' delta-metrics
expect_contains "$dm" 'semacycd_reducer_decisions_total{decision="cold"}' delta-metrics
expect_contains "$dm" 'semacycd_reducer_decisions_total{decision="repaired"}' delta-metrics
expect_contains "$dm" 'semacycd_overlay_evaluations_total' delta-metrics

echo "-- instance delete: 204 then 404"
request DELETE /instances/musicstore 204 >/dev/null
request DELETE /instances/musicstore 404 >/dev/null

echo "api_smoke: all green"
