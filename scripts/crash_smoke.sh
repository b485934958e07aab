#!/usr/bin/env bash
# crash_smoke.sh — end-to-end crash-recovery check against a real timingd
# process: load a design, stream an edit burst, kill -9 the server, restart
# it on the same -data-dir, and require the identical slacks answer, version
# included; then SIGTERM it (drain plus final snapshot), restart again, and
# require the next edit's version to follow the last acknowledged one.
#
#   scripts/crash_smoke.sh [path-to-timingd]
#
# Builds the binary itself when no path is given. Needs curl + jq.
set -euo pipefail

BIN=${1:-}
if [[ -z "$BIN" ]]; then
  BIN=$(mktemp -d)/timingd
  go build -o "$BIN" ./cmd/timingd
fi

DATA=$(mktemp -d)
PORT=${PORT:-18450}
BASE="http://127.0.0.1:$PORT"
CIRCUIT=${CIRCUIT:-c432}
EDITS=${EDITS:-25}
PID=""

cleanup() { [[ -n "$PID" ]] && kill -9 "$PID" 2>/dev/null || true; rm -rf "$DATA"; }
trap cleanup EXIT

start() {
  "$BIN" -addr "127.0.0.1:$PORT" -lib synth -data-dir "$DATA" -fsync always &
  PID=$!
}

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/v1/readyz" >/dev/null 2>&1; then return 0; fi
    kill -0 "$PID" 2>/dev/null || { echo "timingd died during startup" >&2; exit 1; }
    sleep 0.1
  done
  echo "timingd never became ready" >&2
  exit 1
}

echo "== first boot: load $CIRCUIT and apply $EDITS edits"
start
wait_ready
curl -fsS -X PUT "$BASE/v1/designs/smoke" -d "{\"circuit\":\"$CIRCUIT\"}" >/dev/null

# Resize a rotating set of gates through the strength ladder. Every edit is
# acknowledged (and therefore in the WAL) before the next one is sent.
mapfile -t GATES < <(curl -fsS "$BASE/v1/designs/smoke/gates" | jq -r '.gates[].name' | head -8)
STRENGTHS=(1 2 4 8)
for i in $(seq 1 "$EDITS"); do
  g=${GATES[$((i % ${#GATES[@]}))]}
  s=${STRENGTHS[$((i % ${#STRENGTHS[@]}))]}
  code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/designs/smoke/edits" \
    -d "{\"op\":\"resize\",\"gate\":\"$g\",\"strength\":$s}")
  [[ "$code" == 200 || "$code" == 400 ]] || { echo "edit $i: HTTP $code" >&2; exit 1; }
done

# version is the design's accepted-edit count + 1, persisted like the timing
# values, so the whole answer must survive the crash.
slacks() { curl -fsS "$BASE/v1/designs/smoke/slacks?period_ps=2000" | jq -S .; }
# A resize of the first gate to its current strength: a no-op the engine
# always accepts, and like every accepted edit it takes the next version.
edit_version() {
  local cell
  cell=$(curl -fsS "$BASE/v1/designs/smoke/gates" | jq -r '.gates[0].cell')
  curl -fsS -X POST "$BASE/v1/designs/smoke/edits" \
    -d "{\"op\":\"resize\",\"gate\":\"${GATES[0]}\",\"strength\":${cell##*x}}" | jq -r .version
}
before=$(slacks)

echo "== kill -9 (no drain, no final snapshot)"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== restart on the same data dir"
start
wait_ready
after=$(slacks)
if [[ "$before" != "$after" ]]; then
  echo "FAIL: slacks answer diverged across crash recovery" >&2
  diff <(echo "$before") <(echo "$after") >&2 || true
  exit 1
fi
echo "OK: $(echo "$after" | jq '.slacks_ps | length') endpoint slacks and version $(echo "$after" | jq .version) identical across kill -9"

echo "== SIGTERM (drain and final snapshot), then restart"
v1=$(edit_version)
kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""
start
wait_ready
v2=$(edit_version)
kill "$PID" 2>/dev/null
wait "$PID" 2>/dev/null || true
PID=""
if [[ "$v2" != "$((v1 + 1))" ]]; then
  echo "FAIL: first edit after a graceful restart got version $v2, want $((v1 + 1))" >&2
  exit 1
fi
echo "OK: versions $v1 -> $v2 continue across a graceful restart"
