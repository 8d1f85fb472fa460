#!/usr/bin/env bash
# CI cluster e2e gate: the multi-process sharding topology out of process.
#
#   ci/e2e_cluster.sh [BUILD_DIR]
#
# Leg 1 (reference): a single-process `service_demo --serve` (one engine)
# ingests a synProbe chain under a parked watcher; the pushed EVENT MATCH
# lines are the expected multiset.
#
# Leg 2 (cluster): two worker daemons + a coordinator serving the same
# unix-socket protocol. The same watcher/feeder scripts run against it,
# with a kill -9 of worker 0 mid-stream and a restart from its frame log.
# The recovered cluster must deliver the byte-identical sorted multiset —
# nothing lost to the crash, nothing delivered twice — and the restarted
# worker must prove it actually replayed its log on reconnect.
#
# Leg 3 (observability) is interleaved with leg 2: workers run with
# --http-port 0, the coordinator /metrics must federate the workers'
# edges_fed counters exactly, /cluster.json and /epochs.json must report
# the live topology and epoch phases, and /healthz must flip to degraded
# after the kill -9 and back to ok once the restarted worker reconnects.
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/examples/service_demo"
CLIENT="$BUILD_DIR/examples/streamworks_client"
TMP="/tmp/streamworks_e2e_cluster_$$"
SSOCK="$TMP/single.sock"
CSOCK="$TMP/cluster.sock"
mkdir -p "$TMP/w0" "$TMP/w1"

SINGLE_PID=""
W0_PID=""
W1_PID=""
COORD_PID=""

fail() {
  echo "e2e_cluster: FAIL: $*" >&2
  for log in single.server single.watcher single.feeder \
             w0 w0.restarted w1 coord cluster.watcher \
             cluster.feeder_a cluster.feeder_b; do
    echo "--- $log log ---" >&2
    cat "$TMP/$log.log" >&2 2>/dev/null || true
  done
  exit 1
}
cleanup() {
  kill $SINGLE_PID $W0_PID $W1_PID $COORD_PID 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

# The workload: a 60-edge synProbe path 1->2->...->61. Every consecutive
# edge pair is a two-hop chain match, so completions need partial matches
# that hop between shards (vertex i and i+1 rarely share an owner). The
# split point puts edge 30->31's chain partner on the far side of the
# worker crash: its match only exists if the frame log brought the first
# half back.
N_EDGES=60
N_MATCHES=$((N_EDGES - 1))
seq 1 "$N_EDGES" \
  | awk '{print "FEED " $1 " Host " $1+1 " Host synProbe " $1}' \
  > "$TMP/feed_all.txt"
head -n $((N_EDGES / 2)) "$TMP/feed_all.txt" > "$TMP/feed_a.txt"
echo "FLUSH" >> "$TMP/feed_a.txt"
tail -n +$((N_EDGES / 2 + 1)) "$TMP/feed_all.txt" > "$TMP/feed_b.txt"
echo "FLUSH" >> "$TMP/feed_b.txt"
cat "$TMP/feed_a.txt" "$TMP/feed_b.txt" > "$TMP/feed_single.txt"

cat > "$TMP/subscribe.txt" <<'EOF'
DEFINE chain
  node a Host
  node b Host
  node c Host
  edge a b synProbe
  edge b c synProbe
  window 1000
END
SESSION watcher
SUBMIT watcher live chain CAP 256
STREAM watcher live
EOF

await_banner() {  # await_banner LOGFILE PATTERN PID WHAT
  for _ in $(seq 1 150); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    kill -0 "$3" 2>/dev/null || fail "$4 died before ready"
    sleep 0.1
  done
  fail "$4 never became ready ($2)"
}

run_watcher_and_feeders() {  # run_watcher_and_feeders SOCK NAME FEED...
  local sock="$1" name="$2"
  shift 2
  timeout 120 "$CLIENT" --unix "$sock" --expect-events "$N_MATCHES" \
    --timeout-ms 90000 < "$TMP/subscribe.txt" \
    > "$TMP/$name.watcher.log" 2>&1 &
  WATCHER_PID=$!
  await_banner "$TMP/$name.watcher.log" "OK stream watcher.live" \
    "$WATCHER_PID" "$name watcher"
}

# --- Leg 1: single-process reference ---------------------------------------

"$SERVER" --serve --unix "$SSOCK" --http 0 \
  > "$TMP/single.server.log" 2>&1 &
SINGLE_PID=$!
await_banner "$TMP/single.server.log" "^SERVING " "$SINGLE_PID" \
  "single-process server"

run_watcher_and_feeders "$SSOCK" single
timeout 60 "$CLIENT" --unix "$SSOCK" < "$TMP/feed_single.txt" \
  > "$TMP/single.feeder.log" 2>&1 || fail "single-process feeder failed"
wait "$WATCHER_PID" || fail "single-process watcher failed"

sed -n 's/^EVENT MATCH watcher\.live //p' "$TMP/single.watcher.log" \
  | sort > "$TMP/single.matches"
MATCHES=$(wc -l < "$TMP/single.matches")
[ "$MATCHES" -eq "$N_MATCHES" ] \
  || fail "reference run pushed $MATCHES of $N_MATCHES chain matches"

kill -TERM "$SINGLE_PID"
wait "$SINGLE_PID" || fail "single-process server exited non-zero"
SINGLE_PID=""

# --- Leg 2: coordinator + 2 workers, kill -9 mid-stream --------------------

# Raw HTTP/1.1 GET over bash's /dev/tcp (no curl dependency). The
# endpoint closes after one response, so read-to-EOF is the framing.
scrape() {
  local port="$1" target="$2" out="$3"
  exec 3<>"/dev/tcp/127.0.0.1/$port" || return 1
  printf 'GET %s HTTP/1.1\r\nHost: e2e\r\n\r\n' "$target" >&3
  cat <&3 > "$out"
  exec 3<&- 3>&- || true
}

"$SERVER" --role worker --listen-port 0 --http-port 0 --data-dir "$TMP/w0" \
  > "$TMP/w0.log" 2>&1 &
W0_PID=$!
"$SERVER" --role worker --listen-port 0 --http-port 0 --data-dir "$TMP/w1" \
  > "$TMP/w1.log" 2>&1 &
W1_PID=$!
await_banner "$TMP/w0.log" "^WORKER port=" "$W0_PID" "worker 0"
await_banner "$TMP/w1.log" "^WORKER port=" "$W1_PID" "worker 1"
W0_PORT=$(sed -n 's/^WORKER port=\([0-9]*\).*$/\1/p' "$TMP/w0.log")
W1_PORT=$(sed -n 's/^WORKER port=\([0-9]*\).*$/\1/p' "$TMP/w1.log")
W0_HTTP=$(sed -n 's/^WORKER port=[0-9]* http=\([0-9]*\)$/\1/p' "$TMP/w0.log")
W1_HTTP=$(sed -n 's/^WORKER port=[0-9]* http=\([0-9]*\)$/\1/p' "$TMP/w1.log")
[ -n "$W0_HTTP" ] && [ -n "$W1_HTTP" ] \
  || fail "worker banners carry no http= port (w0='$W0_HTTP' w1='$W1_HTTP')"

"$SERVER" --role coordinator \
  --workers "127.0.0.1:$W0_PORT,127.0.0.1:$W1_PORT" \
  --serve --unix "$CSOCK" --http 0 > "$TMP/coord.log" 2>&1 &
COORD_PID=$!
await_banner "$TMP/coord.log" "^SERVING " "$COORD_PID" "coordinator"

run_watcher_and_feeders "$CSOCK" cluster

# First half; its trailing FLUSH barriers the cluster, so both frame logs
# hold the applied prefix before the crash.
timeout 60 "$CLIENT" --unix "$CSOCK" < "$TMP/feed_a.txt" \
  > "$TMP/cluster.feeder_a.log" 2>&1 || fail "cluster feeder (first half) failed"

# --- Leg 3a: one pane of glass over the healthy cluster --------------------

COORD_HTTP=$(sed -n 's/^SERVING .*http=\([0-9][0-9]*\).*/\1/p' "$TMP/coord.log")
[ -n "$COORD_HTTP" ] || fail "coordinator SERVING banner has no http= port"

# Federation exactness: the coordinator's merged edges_fed{role="worker"}
# series must equal the sum of the workers' own scrapes. Nothing is
# feeding, so all three scrapes see the same settled counters.
scrape "$COORD_HTTP" /metrics "$TMP/coord.metrics" \
  || fail "scrape coordinator /metrics failed"
head -1 "$TMP/coord.metrics" | grep -q "HTTP/1.1 200 OK" \
  || fail "coordinator /metrics not 200"
scrape "$W0_HTTP" /metrics "$TMP/w0.metrics" || fail "scrape w0 /metrics failed"
scrape "$W1_HTTP" /metrics "$TMP/w1.metrics" || fail "scrape w1 /metrics failed"
FED_SERIES='streamworks_edges_fed_total{role="worker"}'
COORD_FED=$(awk -v s="$FED_SERIES" '$1 == s {print $2}' "$TMP/coord.metrics")
W0_FED=$(awk -v s="$FED_SERIES" '$1 == s {print $2}' "$TMP/w0.metrics")
W1_FED=$(awk -v s="$FED_SERIES" '$1 == s {print $2}' "$TMP/w1.metrics")
[ -n "$COORD_FED" ] && [ -n "$W0_FED" ] && [ -n "$W1_FED" ] \
  || fail "edges_fed series missing (coord='$COORD_FED' w0='$W0_FED' w1='$W1_FED')"
[ "$COORD_FED" -eq $((W0_FED + W1_FED)) ] \
  || fail "federated edges_fed $COORD_FED != worker sum $((W0_FED + W1_FED))"
grep -q '^streamworks_epoch_phase_us_bucket{phase="barrier"' "$TMP/coord.metrics" \
  || fail "coordinator /metrics missing epoch phase histograms"
grep -q '^streamworks_stage_duration_us_bucket{role="worker"' \
  "$TMP/coord.metrics" \
  || fail "coordinator /metrics missing federated worker stage histograms"

# Worker-local endpoints: /healthz, /trace.json alongside /metrics.
scrape "$W0_HTTP" /healthz "$TMP/w0.healthz" || fail "scrape w0 /healthz failed"
grep -q '"status":"ok"' "$TMP/w0.healthz" || fail "w0 /healthz not ok"
grep -q '"role":"worker"' "$TMP/w0.healthz" || fail "w0 /healthz has no role"
scrape "$W0_HTTP" /trace.json "$TMP/w0.trace" || fail "scrape w0 /trace failed"
grep -q '"stages"' "$TMP/w0.trace" || fail "w0 /trace.json has no stages"

# Cluster topology + epoch timeline endpoints.
scrape "$COORD_HTTP" /cluster.json "$TMP/cluster.json" \
  || fail "scrape /cluster.json failed"
grep -q '"healthy":true' "$TMP/cluster.json" || fail "/cluster.json not healthy"
CONNECTED=$(grep -o '"connected":true' "$TMP/cluster.json" | wc -l)
[ "$CONNECTED" -eq 2 ] \
  || fail "/cluster.json shows $CONNECTED of 2 workers connected"
grep -q '"wal_seq":[1-9]' "$TMP/cluster.json" \
  || fail "/cluster.json has no advanced wal_seq"
scrape "$COORD_HTTP" /epochs.json "$TMP/epochs.json" \
  || fail "scrape /epochs.json failed"
grep -q '"barrier_us"' "$TMP/epochs.json" \
  || fail "/epochs.json carries no phase durations"
grep -q '"edges":[1-9]' "$TMP/epochs.json" \
  || fail "/epochs.json traced no edges"
scrape "$COORD_HTTP" /healthz "$TMP/coord.healthz.ok" \
  || fail "scrape coordinator /healthz failed"
grep -q '"status":"ok"' "$TMP/coord.healthz.ok" \
  || fail "coordinator /healthz not ok with a healthy cluster"

# The crash: no goodbye, no final sync — the frame log's page-cache
# contents are all that survives.
kill -9 "$W0_PID"
wait "$W0_PID" 2>/dev/null || true
W0_PID=""

# --- Leg 3b: /healthz must see the corpse ----------------------------------
# A health scrape only re-pulls once the cached report ages past
# metrics_cache_ms (1s default); the re-pull on the dead link then fails
# fast and flips the worker to disconnected. Poll until the cache window
# lapses — well under the 15s staleness threshold, so this proves the
# disconnect path, not the staleness fallback.
DEGRADED=""
for _ in $(seq 1 25); do
  scrape "$COORD_HTTP" /healthz "$TMP/coord.healthz.dead" \
    || fail "scrape coordinator /healthz after kill failed"
  if grep -q '"status":"degraded"' "$TMP/coord.healthz.dead"; then
    DEGRADED=1
    break
  fi
  sleep 0.2
done
[ -n "$DEGRADED" ] || fail "coordinator /healthz still ok after worker kill -9"
scrape "$COORD_HTTP" /cluster.json "$TMP/cluster.dead.json" \
  || fail "scrape /cluster.json after kill failed"
grep -q '"healthy":false' "$TMP/cluster.dead.json" \
  || fail "/cluster.json still healthy after worker kill -9"
grep -q '"connected":false' "$TMP/cluster.dead.json" \
  || fail "/cluster.json shows no disconnected worker after kill -9"

# Restart on the same port and frame log; the coordinator's reconnect
# (retrying inside its 30s recovery budget) replays it.
"$SERVER" --role worker --listen-port "$W0_PORT" --data-dir "$TMP/w0" \
  > "$TMP/w0.restarted.log" 2>&1 &
W0_PID=$!
await_banner "$TMP/w0.restarted.log" "^WORKER port=" "$W0_PID" \
  "restarted worker 0"

# Second half: edge 31 completes the chain whose first hop (edge 30)
# predates the crash — deliverable only from recovered state.
timeout 90 "$CLIENT" --unix "$CSOCK" < "$TMP/feed_b.txt" \
  > "$TMP/cluster.feeder_b.log" 2>&1 || fail "cluster feeder (second half) failed"
wait "$WATCHER_PID" || fail "cluster watcher failed (missing matches?)"

# --- Leg 3c: recovery visible on the pane of glass -------------------------
# The reconnect healed the link and the next pull reaches the restarted
# worker, whose report carries its replay counter.
scrape "$COORD_HTTP" /healthz "$TMP/coord.healthz.recovered" \
  || fail "scrape coordinator /healthz after recovery failed"
grep -q '"status":"ok"' "$TMP/coord.healthz.recovered" \
  || fail "coordinator /healthz not ok after worker recovery"
scrape "$COORD_HTTP" /cluster.json "$TMP/cluster.recovered.json" \
  || fail "scrape /cluster.json after recovery failed"
grep -q '"healthy":true' "$TMP/cluster.recovered.json" \
  || fail "/cluster.json not healthy after worker recovery"
grep -q '"replayed_frames":[1-9]' "$TMP/cluster.recovered.json" \
  || fail "/cluster.json shows no replayed frames on the restarted worker"

sed -n 's/^EVENT MATCH watcher\.live //p' "$TMP/cluster.watcher.log" \
  | sort > "$TMP/cluster.matches"
cmp "$TMP/single.matches" "$TMP/cluster.matches" || {
  diff "$TMP/single.matches" "$TMP/cluster.matches" >&2 || true
  fail "cluster matches are not byte-identical to the single-process run"
}

# The restarted worker must have replayed its log, not started fresh; its
# graceful-shutdown summary carries the counter.
kill -TERM "$W0_PID"
for _ in $(seq 1 100); do
  kill -0 "$W0_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$W0_PID" 2>/dev/null && fail "restarted worker did not exit on SIGTERM"
wait "$W0_PID" || fail "restarted worker exited non-zero"
W0_PID=""
REPLAYED=$(sed -n 's/.*replayed=\([0-9]*\).*/\1/p' "$TMP/w0.restarted.log")
[ -n "$REPLAYED" ] && [ "$REPLAYED" -gt 0 ] \
  || fail "restarted worker reports no replayed frames (replayed=$REPLAYED)"

# Clean teardown of the rest of the cluster.
kill -TERM "$COORD_PID"
for _ in $(seq 1 100); do
  kill -0 "$COORD_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$COORD_PID" 2>/dev/null && fail "coordinator did not exit on SIGTERM"
wait "$COORD_PID" || fail "coordinator exited non-zero"
COORD_PID=""
grep -q "^SHUTDOWN " "$TMP/coord.log" || fail "coordinator: no SHUTDOWN summary"
kill -TERM "$W1_PID"
wait "$W1_PID" || fail "worker 1 exited non-zero"
W1_PID=""

echo "e2e_cluster: PASS ($N_MATCHES cross-shard chain matches byte-identical" \
     "to single-process; worker 0 kill -9 mid-stream, replayed=$REPLAYED" \
     "frames on restart)"
