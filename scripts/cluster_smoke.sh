#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end sharded-cluster check against three real
# timingd processes: boot a 3-node durable cluster, load a design through
# any node, stream edits, require the replica's slacks to converge
# bit-identical to the owner's, check the cluster + runtime metric
# families, push a traced and request-ID-correlated request through a proxy
# hop and a redirect, merge the per-node trace files with cmd/tracemerge,
# kill -9 one replica and require reads and writes to keep serving — then
# restart the whole cluster from its data dirs, kill -9 the owner, and
# require a surviving replica to promote itself under a strictly greater
# lease epoch with bit-identical slacks, writes resuming on the new owner,
# and the revived old owner fenced with 409 stale_epoch.
#
#   scripts/cluster_smoke.sh [path-to-timingd]
#
# Builds the binaries itself when no path is given. Needs curl + jq +
# python3.
set -euo pipefail

WORK=$(mktemp -d)
BIN=${1:-}
if [[ -z "$BIN" ]]; then
  BIN=$WORK/timingd
  go build -o "$BIN" ./cmd/timingd
fi
MERGEBIN=$WORK/tracemerge
go build -o "$MERGEBIN" ./cmd/tracemerge

BASEPORT=${BASEPORT:-18470}
CIRCUIT=${CIRCUIT:-c432}
EDITS=${EDITS:-15}
PORTS=("$BASEPORT" "$((BASEPORT + 1))" "$((BASEPORT + 2))")
URLS=()
for p in "${PORTS[@]}"; do URLS+=("http://127.0.0.1:$p"); done
PEERS=$(IFS=,; echo "${URLS[*]}")
PIDS=("" "" "")

cleanup() {
  for pid in "${PIDS[@]}"; do
    [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

start() { # start <index> [extra flags...]
  local i=$1
  shift
  # stderr appends to a per-node log (kept across restarts) so request-ID
  # correlation can be grepped per node; -trace-sample 1 traces every
  # request; the trace file is written at graceful shutdown.
  "$BIN" -addr "127.0.0.1:${PORTS[$i]}" -lib synth \
    -cluster-self "${URLS[$i]}" -cluster-peers "$PEERS" \
    -cluster-replicas 1 -data-dir "$WORK/data$i" \
    -replicate-interval 200ms -heartbeat-interval 200ms -heartbeat-timeout 300ms \
    -promotion-interval 200ms \
    -trace-sample 1 "$@" 2>>"$WORK/node$i.log" &
  PIDS[$i]=$!
}

wait_ready() { # wait_ready <url> <pid>
  local url=$1 pid=$2
  for _ in $(seq 1 100); do
    if curl -fsS "$url/v1/readyz" >/dev/null 2>&1; then return 0; fi
    kill -0 "$pid" 2>/dev/null || { echo "timingd at $url died during startup" >&2; exit 1; }
    sleep 0.1
  done
  echo "timingd at $url never became ready" >&2
  exit 1
}

echo "== boot 3-node cluster on ports ${PORTS[*]}"
for i in 0 1 2; do start "$i" -cluster-proxy -trace-out "$WORK/trace-node$i.json"; done
for i in 0 1 2; do wait_ready "${URLS[$i]}" "${PIDS[$i]}"; done

echo "== load $CIRCUIT through node 0 and apply $EDITS edits"
curl -fsS -X PUT "${URLS[0]}/v1/designs/smoke" -d "{\"circuit\":\"$CIRCUIT\"}" >/dev/null

mapfile -t GATES < <(curl -fsS "${URLS[0]}/v1/designs/smoke/gates" | jq -r '.gates[].name' | head -8)
STRENGTHS=(1 2 4 8)
for i in $(seq 1 "$EDITS"); do
  g=${GATES[$((i % ${#GATES[@]}))]}
  s=${STRENGTHS[$((i % ${#STRENGTHS[@]}))]}
  code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "${URLS[0]}/v1/designs/smoke/edits" \
    -d "{\"op\":\"resize\",\"gate\":\"$g\",\"strength\":$s}")
  [[ "$code" == 200 || "$code" == 400 ]] || { echo "edit $i: HTTP $code" >&2; exit 1; }
done

echo "== discover placement"
route=$(curl -fsS "${URLS[0]}/v1/cluster/designs/smoke")
OWNER=$(echo "$route" | jq -r '.ring.owner')
REPLICA=$(echo "$route" | jq -r '.ring.replicas[0]')
echo "   owner=$OWNER replica=$REPLICA"
[[ -n "$OWNER" && -n "$REPLICA" && "$OWNER" != "null" && "$REPLICA" != "null" ]] \
  || { echo "FAIL: route did not name an owner and a replica: $route" >&2; exit 1; }

echo "== wait for the replica to converge bit-identical to the owner"
converged=0
for _ in $(seq 1 100); do
  o=$(curl -fsS "$OWNER/v1/designs/smoke/slacks?period_ps=2000" | jq -S .)
  r=$(curl -fsS "$REPLICA/v1/designs/smoke/slacks?period_ps=2000" | jq -S . || true)
  if [[ -n "$r" && "$o" == "$r" ]]; then converged=1; break; fi
  sleep 0.1
done
if [[ "$converged" != 1 ]]; then
  echo "FAIL: replica slacks never converged to the owner's" >&2
  diff <(echo "$o") <(echo "$r") >&2 || true
  exit 1
fi
echo "   $(echo "$o" | jq '.slacks_ps | length') endpoint slacks bit-identical at version $(echo "$o" | jq '.version')"

echo "== cluster + runtime metric families on the owner"
metrics=$(curl -fsS "$OWNER/metrics")
for fam in cluster_replication_lag_seqs cluster_forwards_total cluster_breaker_open \
           timingd_cluster_requests_total timingd_requests_total \
           process_goroutines process_heap_inuse_bytes process_gc_pause_p99_seconds; do
  grep -q "^# TYPE $fam" <<<"$metrics" \
    || { echo "FAIL: metric family $fam missing from $OWNER/metrics" >&2; exit 1; }
done

OWNER_I=-1 REPLICA_I=-1 NEITHER_I=-1
for i in 0 1 2; do
  case "${URLS[$i]}" in
    "$OWNER") OWNER_I=$i ;;
    "$REPLICA") REPLICA_I=$i ;;
    *) NEITHER_I=$i ;;
  esac
done
NEITHER=${URLS[$NEITHER_I]}

grep_log() { # grep_log <pattern> <node-index> — retries: the access log lands
  local pat=$1 i=$2 # just after the response, so allow a short settle window
  for _ in $(seq 1 50); do
    grep -q "$pat" "$WORK/node$i.log" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "FAIL: pattern '$pat' never appeared in node $i's log" >&2
  tail -20 "$WORK/node$i.log" >&2 || true
  exit 1
}

echo "== traced request through a proxy hop (via node $NEITHER_I, owner node $OWNER_I)"
RID=smoke-trace-proxy
TP="00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
hdrs=$(curl -fsS -D - -o /dev/null -H "X-Request-ID: $RID" -H "traceparent: $TP" \
  "$NEITHER/v1/designs/smoke")
grep -qi <<<"$hdrs" "^x-request-id: $RID" \
  || { echo "FAIL: proxied response did not echo X-Request-ID: $RID" >&2; echo "$hdrs" >&2; exit 1; }
grep -qi <<<"$hdrs" "^traceparent: 00-0123456789abcdef0123456789abcdef-" \
  || { echo "FAIL: proxied response did not carry the trace ID" >&2; echo "$hdrs" >&2; exit 1; }
[[ $(echo "$hdrs" | grep -ci "^x-request-id:") == 1 ]] \
  || { echo "FAIL: X-Request-ID duplicated on proxied response" >&2; echo "$hdrs" >&2; exit 1; }
grep_log "request_id=$RID" "$NEITHER_I"
grep_log "request_id=$RID" "$OWNER_I"
echo "   request id $RID in both the proxying node's and the owner's logs"

echo "== traced request through a redirect (restart node $NEITHER_I without -cluster-proxy)"
kill "${PIDS[$NEITHER_I]}"
wait "${PIDS[$NEITHER_I]}" 2>/dev/null || true  # SIGTERM → graceful, writes trace file
start "$NEITHER_I" -trace-out "$WORK/trace-node$NEITHER_I-restart.json"
wait_ready "$NEITHER" "${PIDS[$NEITHER_I]}"
RID2=smoke-trace-redirect
hdrs=$(curl -sS -D - -o /dev/null -H "X-Request-ID: $RID2" "$NEITHER/v1/designs/smoke")
grep -q <<<"$hdrs" "HTTP/1.1 307" \
  || { echo "FAIL: non-proxy node did not 307-redirect" >&2; echo "$hdrs" >&2; exit 1; }
grep -qi <<<"$hdrs" "^x-request-id: $RID2" \
  || { echo "FAIL: 307 did not echo X-Request-ID: $RID2" >&2; echo "$hdrs" >&2; exit 1; }
code=$(curl -sS -o /dev/null -w '%{http_code}' -H "X-Request-ID: $RID2" -L \
  "$NEITHER/v1/designs/smoke")
[[ "$code" == 200 ]] || { echo "FAIL: following the redirect: HTTP $code" >&2; exit 1; }
grep_log "request_id=$RID2" "$OWNER_I"
echo "   request id $RID2 followed the 307 to the owner's log"

echo "== slow-request log on the owner"
curl -fsS "$OWNER/v1/debug/slow" | jq -e '.slowest | length > 0' >/dev/null \
  || { echo "FAIL: owner slow-request log is empty" >&2; exit 1; }

echo "== kill -9 the replica; reads and writes must keep serving"
for i in 0 1 2; do
  if [[ "${URLS[$i]}" == "$REPLICA" ]]; then
    kill -9 "${PIDS[$i]}"
    wait "${PIDS[$i]}" 2>/dev/null || true
    PIDS[$i]=""
  fi
done

SURVIVORS=()
for i in 0 1 2; do [[ -n "${PIDS[$i]}" ]] && SURVIVORS+=("${URLS[$i]}"); done
for _ in $(seq 1 20); do
  for u in "${SURVIVORS[@]}"; do
    curl -fsS -L "$u/v1/designs/smoke/slacks?period_ps=2000" >/dev/null \
      || { echo "FAIL: read via $u stopped serving after replica kill" >&2; exit 1; }
  done
  sleep 0.1
done
# Write through the owner: the restarted neither node no longer proxies.
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$OWNER/v1/designs/smoke/edits" \
  -d "{\"op\":\"resize\",\"gate\":\"${GATES[0]}\",\"strength\":2}")
[[ "$code" == 200 ]] || { echo "FAIL: edit via survivor after replica kill: HTTP $code" >&2; exit 1; }

echo "== stop survivors gracefully and merge per-node trace files"
for i in 0 1 2; do
  if [[ -n "${PIDS[$i]}" ]]; then
    kill "${PIDS[$i]}" 2>/dev/null || true
    wait "${PIDS[$i]}" 2>/dev/null || true
    PIDS[$i]=""
  fi
done
for f in "$WORK/trace-node$OWNER_I.json" "$WORK/trace-node$NEITHER_I.json"; do
  [[ -s "$f" ]] || { echo "FAIL: trace file $f missing or empty" >&2; exit 1; }
done
"$MERGEBIN" -trace 0123456789abcdef0123456789abcdef -out "$WORK/merged.json" \
  "$WORK/trace-node$OWNER_I.json" "$WORK/trace-node$NEITHER_I.json"

python3 - "$WORK/merged.json" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
evs = m["traceEvents"]
spans = [e for e in evs if e.get("args", {}).get("span_id")]
pids = {e["pid"] for e in spans}
assert len(pids) >= 2, f"merged trace covers {len(pids)} node(s), want >= 2"
ids = {e["args"]["span_id"]: e["pid"] for e in spans}
cross = [e for e in spans
         if e["args"].get("parent_span_id")
         and ids.get(e["args"]["parent_span_id"], e["pid"]) != e["pid"]]
assert cross, "no span links to a parent recorded on the other node"
assert any(e.get("ph") == "s" for e in evs), "no flow-start events"
assert any(e.get("ph") == "f" for e in evs), "no flow-finish events"
print(f"   merged trace: {len(spans)} spans across {len(pids)} nodes, "
      f"{len(cross)} cross-node parent link(s)")
PY

echo "== restart the full cluster from its data dirs"
for i in 0 1 2; do start "$i"; done
for i in 0 1 2; do wait_ready "${URLS[$i]}" "${PIDS[$i]}"; done

echo "== wait for ownership to re-establish and a replica to catch up"
design_status() { curl -fsS "$1/v1/cluster/designs/smoke" 2>/dev/null || true; }
GEN_OWNER="" GEN_EPOCH=0 CAUGHT=""
for _ in $(seq 1 150); do
  o=$(design_status "${URLS[0]}" | jq -r '.lease.owner // empty')
  if [[ -n "$o" ]]; then
    ost=$(design_status "$o")
    oseq=$(echo "$ost" | jq -r '.local.seq // 0')
    if [[ "$oseq" != 0 && $(echo "$ost" | jq -r '.local.fenced') == false ]]; then
      for u in "${URLS[@]}"; do
        [[ "$u" == "$o" ]] && continue
        rst=$(design_status "$u")
        if [[ $(echo "$rst" | jq -r '.local.role // empty') == replica \
           && $(echo "$rst" | jq -r '.local.seq // 0') == "$oseq" ]]; then
          GEN_OWNER=$o
          GEN_EPOCH=$(echo "$ost" | jq -r '.lease.epoch')
          CAUGHT=$u
          break 2
        fi
      done
    fi
  fi
  sleep 0.2
done
[[ -n "$GEN_OWNER" && -n "$CAUGHT" ]] \
  || { echo "FAIL: no unfenced owner with a caught-up replica after full restart" >&2; exit 1; }
[[ "$GEN_EPOCH" -ge 2 ]] \
  || { echo "FAIL: recovered owner re-elected at epoch $GEN_EPOCH, want >= 2" >&2; exit 1; }
echo "   owner=$GEN_OWNER epoch=$GEN_EPOCH caught-up-replica=$CAUGHT"
PRE=$(curl -fsS -L "$GEN_OWNER/v1/designs/smoke/slacks?period_ps=2000" | jq -S .)

echo "== kill -9 the owner; a surviving replica must promote under a higher epoch"
for i in 0 1 2; do
  if [[ "${URLS[$i]}" == "$GEN_OWNER" ]]; then
    kill -9 "${PIDS[$i]}"
    wait "${PIDS[$i]}" 2>/dev/null || true
    PIDS[$i]=""
    GEN_OWNER_I=$i
  fi
done
# Both survivors hold durable replica copies (the earlier replica kill moved
# the replica, the restart recovered both), so the jittered election may be
# won by either one — accept whichever promotes.
NEWOWNER=""
for _ in $(seq 1 150); do
  for u in "${URLS[@]}"; do
    [[ "$u" == "$GEN_OWNER" ]] && continue
    st=$(design_status "$u")
    if [[ $(echo "$st" | jq -r '.local.role // empty') == owner \
       && $(echo "$st" | jq -r '.local.fenced') == false \
       && $(echo "$st" | jq -r '.lease.epoch // 0') -gt "$GEN_EPOCH" ]] 2>/dev/null; then
      NEW_EPOCH=$(echo "$st" | jq -r '.lease.epoch')
      NEWOWNER=$u
      break 2
    fi
  done
  sleep 0.2
done
[[ -n "$NEWOWNER" ]] || { echo "FAIL: no replica promoted after owner kill -9" >&2; exit 1; }
echo "   promoted: $NEWOWNER now owns smoke at epoch $NEW_EPOCH (was $GEN_EPOCH)"

POST=$(curl -fsS "$NEWOWNER/v1/designs/smoke/slacks?period_ps=2000" | jq -S .)
if [[ "$POST" != "$PRE" ]]; then
  echo "FAIL: promoted owner's slacks diverge from the dead owner's" >&2
  diff <(echo "$PRE") <(echo "$POST") >&2 || true
  exit 1
fi
echo "   slacks bit-identical across the failover"

wrote=0
# Upsizing to the max strength is always applicable (pin-cap deltas are
# non-negative), so anything but an eventual 200 is a real failure.
for _ in $(seq 1 50); do
  out=$(curl -sS -w '\n%{http_code}' -X POST "$NEWOWNER/v1/designs/smoke/edits" \
    -d "{\"op\":\"resize\",\"gate\":\"${GATES[1]}\",\"strength\":8}")
  code=$(echo "$out" | tail -1)
  [[ "$code" == 200 ]] && { wrote=1; break; }
  sleep 0.2
done
[[ "$wrote" == 1 ]] \
  || { echo "FAIL: writes never resumed on the promoted owner (last: $out)" >&2; exit 1; }
echo "   writes resumed on the promoted owner"

echo "== revive the killed owner; its stale epoch must be fenced"
start "$GEN_OWNER_I"
wait_ready "$GEN_OWNER" "${PIDS[$GEN_OWNER_I]}"
stale=$(curl -sS -w '\n%{http_code}' -X POST "$NEWOWNER/v1/internal/edits" \
  -H 'X-Timingd-Internal: edits' -H "X-Timingd-Peer: $GEN_OWNER" \
  -d "{\"design\":\"smoke\",\"seq\":999999,\"epoch\":$GEN_EPOCH,\"payload\":{\"op\":\"resize\",\"gate\":\"${GATES[0]}\",\"strength\":4}}")
code=$(echo "$stale" | tail -1)
body=$(echo "$stale" | head -1)
[[ "$code" == 409 ]] \
  || { echo "FAIL: old-epoch internal edit answered HTTP $code, want 409: $body" >&2; exit 1; }
[[ $(echo "$body" | jq -r '.error.code') == stale_epoch ]] \
  || { echo "FAIL: 409 body does not carry code stale_epoch: $body" >&2; exit 1; }
echo "   epoch $GEN_EPOCH traffic rejected with 409 stale_epoch"

rejoined=0
for _ in $(seq 1 150); do
  back=$(curl -fsS -L "$GEN_OWNER/v1/designs/smoke/slacks?period_ps=2000" 2>/dev/null | jq -S . || true)
  cur=$(curl -fsS -L "$NEWOWNER/v1/designs/smoke/slacks?period_ps=2000" 2>/dev/null | jq -S . || true)
  if [[ -n "$back" && -n "$cur" && "$back" == "$cur" ]]; then rejoined=1; break; fi
  sleep 0.2
done
[[ "$rejoined" == 1 ]] || { echo "FAIL: revived owner never rejoined with current reads" >&2; exit 1; }
echo "   revived owner serves current reads again"

echo "== lease metric families on the promoted owner"
metrics=$(curl -fsS "$NEWOWNER/metrics")
for fam in cluster_promotions_total cluster_fenced_requests_total cluster_lease_epoch; do
  grep -q "^# TYPE $fam" <<<"$metrics" \
    || { echo "FAIL: metric family $fam missing from $NEWOWNER/metrics" >&2; exit 1; }
done
promos=$(echo "$metrics" | awk '$1 == "cluster_promotions_total" {print int($2)}')
[[ "${promos:-0}" -ge 1 ]] \
  || { echo "FAIL: cluster_promotions_total = ${promos:-0}, want >= 1" >&2; exit 1; }

echo "OK: 3-node cluster replicated bit-identically, correlated one request ID across a proxy hop and a redirect, merged cross-node traces, survived a replica kill -9, recovered from a full restart, promoted a replica under a higher epoch after an owner kill -9 with bit-identical slacks, and fenced the revived owner's stale epoch"
