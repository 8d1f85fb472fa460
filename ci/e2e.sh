#!/usr/bin/env bash
# CI e2e gate: the first out-of-process exercise of the whole stack.
#
#   ci/e2e.sh [BUILD_DIR]
#
# Starts `service_demo --serve` (its engine behind the QueryService behind
# the SocketServer) on a unix socket, then
# drives it with two independent streamworks_client processes: a watcher
# that subscribes and push-streams, and a feeder that ingests the probes
# the watcher is waiting for. A second leg repeats the exercise with the
# feeder in --binary mode (FEEDB frames), asserting the binary wire path
# pushes exactly as many matches as the text leg did. Fails on any
# timeout, transport error, ERR response, missing match, or an unclean
# server shutdown.
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="$BUILD_DIR/examples/service_demo"
CLIENT="$BUILD_DIR/examples/streamworks_client"
SOCK="/tmp/streamworks_e2e_$$.sock"
SERVER_LOG="/tmp/streamworks_e2e_$$.server.log"
WATCHER_LOG="/tmp/streamworks_e2e_$$.watcher.log"
FEEDER_LOG="/tmp/streamworks_e2e_$$.feeder.log"
WATCHER2_LOG="/tmp/streamworks_e2e_$$.watcher2.log"
FEEDER2_LOG="/tmp/streamworks_e2e_$$.feeder2.log"
DATA_DIR="/tmp/streamworks_e2e_$$.data"
RSOCK="/tmp/streamworks_e2e_$$.r.sock"
RSERVER1_LOG="/tmp/streamworks_e2e_$$.rserver1.log"
RSERVER2_LOG="/tmp/streamworks_e2e_$$.rserver2.log"
RWATCHER1_LOG="/tmp/streamworks_e2e_$$.rwatcher1.log"
RFEEDER1_LOG="/tmp/streamworks_e2e_$$.rfeeder1.log"
RWATCHER2_LOG="/tmp/streamworks_e2e_$$.rwatcher2.log"
RFEEDER2_LOG="/tmp/streamworks_e2e_$$.rfeeder2.log"
OBS_WATCHER_LOG="/tmp/streamworks_e2e_$$.obswatcher.log"
OBS_FEEDER_LOG="/tmp/streamworks_e2e_$$.obsfeeder.log"
OBS_STATS_LOG="/tmp/streamworks_e2e_$$.obsstats.log"
OBS_DIR="/tmp/streamworks_e2e_$$.obs"
FAN_SERVER_LOG="/tmp/streamworks_e2e_$$.fanserver.log"
FAN_FEEDER_LOG="/tmp/streamworks_e2e_$$.fanfeeder.log"
FAN_STATS_LOG="/tmp/streamworks_e2e_$$.fanstats.log"
FAN_DIR="/tmp/streamworks_e2e_$$.fanout"

fail() {
  echo "e2e: FAIL: $*" >&2
  echo "--- server log ---" >&2;  cat "$SERVER_LOG" >&2 || true
  echo "--- watcher log ---" >&2; cat "$WATCHER_LOG" >&2 || true
  echo "--- feeder log ---" >&2;  cat "$FEEDER_LOG" >&2 || true
  echo "--- watcher2 log ---" >&2; cat "$WATCHER2_LOG" >&2 || true
  echo "--- feeder2 log ---" >&2;  cat "$FEEDER2_LOG" >&2 || true
  echo "--- recovery server 1 log ---" >&2; cat "$RSERVER1_LOG" >&2 || true
  echo "--- recovery server 2 log ---" >&2; cat "$RSERVER2_LOG" >&2 || true
  echo "--- recovery watcher 1 log ---" >&2; cat "$RWATCHER1_LOG" >&2 || true
  echo "--- recovery feeder 1 log ---" >&2; cat "$RFEEDER1_LOG" >&2 || true
  echo "--- recovery watcher 2 log ---" >&2; cat "$RWATCHER2_LOG" >&2 || true
  echo "--- recovery feeder 2 log ---" >&2; cat "$RFEEDER2_LOG" >&2 || true
  echo "--- obs watcher log ---" >&2; cat "$OBS_WATCHER_LOG" >&2 || true
  echo "--- obs stats log ---" >&2; cat "$OBS_STATS_LOG" >&2 || true
  echo "--- fanout server log ---" >&2; cat "$FAN_SERVER_LOG" >&2 || true
  echo "--- fanout feeder log ---" >&2; cat "$FAN_FEEDER_LOG" >&2 || true
  echo "--- fanout stats log ---" >&2; cat "$FAN_STATS_LOG" >&2 || true
  exit 1
}
touch "$WATCHER2_LOG" "$FEEDER2_LOG" "$RSERVER1_LOG" "$RSERVER2_LOG" \
      "$RWATCHER1_LOG" "$RFEEDER1_LOG" "$RWATCHER2_LOG" "$RFEEDER2_LOG" \
      "$OBS_WATCHER_LOG" "$OBS_FEEDER_LOG" "$OBS_STATS_LOG" \
      "$FAN_SERVER_LOG" "$FAN_FEEDER_LOG" "$FAN_STATS_LOG"
mkdir -p "$OBS_DIR" "$FAN_DIR"

"$SERVER" --serve --unix "$SOCK" --http 0 > "$SERVER_LOG" 2>&1 &
SERVER_PID=$!
RSERVER_PID=""
FAN_SERVER_PID=""
# fail() prints every log before it exits, so the trap can remove them.
trap 'kill "$SERVER_PID" $RSERVER_PID $FAN_SERVER_PID 2>/dev/null || true; rm -rf "$DATA_DIR" "$OBS_DIR" "$FAN_DIR" /tmp/streamworks_e2e_$$.*.log' EXIT

# The SERVING banner is the readiness signal (it prints after the bind,
# so it also implies the socket file exists).
for _ in $(seq 1 100); do
  grep -q "^SERVING " "$SERVER_LOG" 2>/dev/null && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died before binding"
  sleep 0.1
done
grep -q "^SERVING " "$SERVER_LOG" || fail "no SERVING banner"
[ -S "$SOCK" ] || fail "SERVING printed but $SOCK is missing"

# Watcher first (it parks waiting for 3 pushed events), then the feeder.
timeout 60 "$CLIENT" --unix "$SOCK" --expect-events 3 \
  < ci/e2e_subscribe.txt > "$WATCHER_LOG" 2>&1 &
WATCHER_PID=$!
# The watcher must have subscribed before the feeder fires; its SUBMIT is
# the 3rd response, so a short grep-poll on its log is enough.
for _ in $(seq 1 100); do
  grep -q "OK stream watcher.live" "$WATCHER_LOG" && break
  sleep 0.1
done
grep -q "OK stream watcher.live" "$WATCHER_LOG" || fail "watcher never subscribed"

timeout 60 "$CLIENT" --unix "$SOCK" < ci/e2e_feed.txt > "$FEEDER_LOG" 2>&1 \
  || fail "feeder client failed (exit $?)"
wait "$WATCHER_PID" || fail "watcher client failed (exit $?)"

# The watcher saw exactly its three pushed matches...
EVENTS=$(grep -c "^EVENT MATCH watcher.live" "$WATCHER_LOG" || true)
[ "$EVENTS" -eq 3 ] || fail "expected 3 pushed matches, saw $EVENTS"
# ...and the feeder's STATS observed the multi-tenant picture: the
# watcher's session was opened (sessions=1), and it is either still
# listed or — if it already collected its events and quit — reclaimed
# (disconnect compaction erases the tombstone; both outcomes are correct,
# which one we see is a benign race against the watcher's exit).
grep -q "service: sessions=1 " "$FEEDER_LOG" || fail "feeder STATS missing sessions=1"
grep -qE "'watcher'|reclaimed=[1-9]" "$FEEDER_LOG" \
  || fail "feeder STATS shows neither the watcher session nor its reclamation"
grep -q "edges_fed=3" "$FEEDER_LOG" || fail "feeder STATS missing edges_fed=3"

# --- Binary leg: same scenario, feeder speaks FEEDB frames ------------------
# The watcher's text-protocol view is identical either way; only the
# feeder's wire encoding changes. Its pushed-match count must equal the
# text leg's — the codec proven out-of-process on every push.

timeout 60 "$CLIENT" --unix "$SOCK" --expect-events 3 \
  < ci/e2e_subscribe.txt > "$WATCHER2_LOG" 2>&1 &
WATCHER2_PID=$!
for _ in $(seq 1 100); do
  grep -q "OK stream watcher.live" "$WATCHER2_LOG" && break
  sleep 0.1
done
grep -q "OK stream watcher.live" "$WATCHER2_LOG" \
  || fail "binary-leg watcher never subscribed"

timeout 60 "$CLIENT" --unix "$SOCK" \
  --feed-file ci/e2e_edges_binary.txt --binary --batch 2 \
  < ci/e2e_feed_tail.txt > "$FEEDER2_LOG" 2>&1 \
  || fail "binary feeder client failed (exit $?)"
wait "$WATCHER2_PID" || fail "binary-leg watcher client failed (exit $?)"

# The binary frames were acknowledged per frame (3 edges over frames of
# --batch 2: 2 + 1)...
grep -q "OK feedb 3 0" "$FEEDER2_LOG" \
  || fail "binary feeder missing 'OK feedb 3 0' acknowledgement"
# ...the watcher saw exactly as many pushed matches as the text leg...
EVENTS2=$(grep -c "^EVENT MATCH watcher.live" "$WATCHER2_LOG" || true)
[ "$EVENTS2" -eq "$EVENTS" ] \
  || fail "binary leg pushed $EVENTS2 matches, text leg pushed $EVENTS"
# ...and the service counted both legs' edges.
grep -q "edges_fed=6" "$FEEDER2_LOG" || fail "feeder2 STATS missing edges_fed=6"

# --- Observability leg: HTTP scrapes under a live streaming watcher --------
# The --http listener rides the same poll loop as the line protocol, so a
# scrape sees exactly the state the text STATS verb sees. Assert the two
# tell the same story, then feed more edges under a parked watcher and
# assert the scrape advanced with the stream.

HTTP_PORT=$(sed -n 's/^SERVING .*http=\([0-9][0-9]*\).*/\1/p' "$SERVER_LOG")
[ -n "$HTTP_PORT" ] || fail "SERVING banner has no http= port"

# Raw HTTP/1.1 GET over bash's /dev/tcp (no curl dependency). The
# endpoint closes after one response, so read-to-EOF is the framing.
scrape() {
  local port="$1" target="$2" out="$3"
  exec 3<>"/dev/tcp/127.0.0.1/$port" || return 1
  printf 'GET %s HTTP/1.1\r\nHost: e2e\r\n\r\n' "$target" >&3
  cat <&3 > "$out"
  exec 3<&- 3>&- || true
}

timeout 60 "$CLIENT" --unix "$SOCK" --expect-events 3 \
  < ci/e2e_subscribe.txt > "$OBS_WATCHER_LOG" 2>&1 &
OBS_WATCHER_PID=$!
for _ in $(seq 1 100); do
  grep -q "OK stream watcher.live" "$OBS_WATCHER_LOG" && break
  sleep 0.1
done
grep -q "OK stream watcher.live" "$OBS_WATCHER_LOG" \
  || fail "obs watcher never subscribed"

scrape "$HTTP_PORT" /metrics "$OBS_DIR/metrics" || fail "scrape /metrics failed"
head -1 "$OBS_DIR/metrics" | grep -q "HTTP/1.1 200 OK" || fail "/metrics not 200"
grep -q "Content-Type: text/plain; version=0.0.4" "$OBS_DIR/metrics" \
  || fail "/metrics wrong content type"
# Exposition-format shape: HELP + TYPE per family, histograms close +Inf.
grep -q "^# HELP streamworks_edges_fed_total " "$OBS_DIR/metrics" \
  || fail "/metrics missing HELP for edges_fed"
grep -q "^# TYPE streamworks_edges_fed_total counter$" "$OBS_DIR/metrics" \
  || fail "/metrics missing TYPE for edges_fed"
grep -q "^# TYPE streamworks_stage_duration_us histogram$" "$OBS_DIR/metrics" \
  || fail "/metrics missing the stage-duration histogram"
grep -q 'le="+Inf"' "$OBS_DIR/metrics" || fail "/metrics histogram lacks +Inf"
grep -q "^streamworks_frontend_http_requests_total " "$OBS_DIR/metrics" \
  || fail "/metrics missing frontend http counter"

# The text STATS verb and the scrape must agree on edges_fed; TRACE must
# answer over the same wire.
METRICS_FED=$(awk '$1 == "streamworks_edges_fed_total" {print $2}' \
  "$OBS_DIR/metrics")
timeout 60 "$CLIENT" --unix "$SOCK" < ci/e2e_obs_stats.txt \
  > "$OBS_STATS_LOG" 2>&1 || fail "obs stats client failed (exit $?)"
STATS_FED=$(sed -n 's/.* edges_fed=\([0-9][0-9]*\).*/\1/p' "$OBS_STATS_LOG" \
  | head -1)
[ -n "$METRICS_FED" ] && [ "$METRICS_FED" = "$STATS_FED" ] \
  || fail "edges_fed disagrees: STATS=$STATS_FED /metrics=$METRICS_FED"
grep -q "^OK trace n=" "$OBS_STATS_LOG" || fail "TRACE verb did not answer"

scrape "$HTTP_PORT" /stats.json "$OBS_DIR/stats.json" \
  || fail "scrape /stats.json failed"
grep -q "\"edges_fed\":$STATS_FED" "$OBS_DIR/stats.json" \
  || fail "/stats.json edges_fed disagrees with STATS"
scrape "$HTTP_PORT" /healthz "$OBS_DIR/healthz" || fail "scrape /healthz failed"
grep -q '"status":"ok"' "$OBS_DIR/healthz" || fail "/healthz not ok"
scrape "$HTTP_PORT" /queries.json "$OBS_DIR/queries.json" \
  || fail "scrape /queries.json failed"
grep -q '"query_name":"sweep"' "$OBS_DIR/queries.json" \
  || fail "/queries.json missing the live query"

# promtool, when present, vets the full exposition document.
if command -v promtool >/dev/null 2>&1; then
  awk 'body {print} /^\r?$/ {body=1}' "$OBS_DIR/metrics" \
    | promtool check metrics || fail "promtool rejected /metrics"
fi

# Feed under the parked watcher: the stream and the scrape advance together.
timeout 60 "$CLIENT" --unix "$SOCK" < ci/e2e_obs_feed.txt \
  > "$OBS_FEEDER_LOG" 2>&1 || fail "obs feeder client failed (exit $?)"
wait "$OBS_WATCHER_PID" || fail "obs watcher client failed (exit $?)"
OBS_EVENTS=$(grep -c "^EVENT MATCH watcher.live" "$OBS_WATCHER_LOG" || true)
[ "$OBS_EVENTS" -eq 3 ] || fail "obs watcher saw $OBS_EVENTS matches, want 3"
scrape "$HTTP_PORT" /metrics "$OBS_DIR/metrics2" \
  || fail "post-feed scrape failed"
grep -q "^streamworks_edges_fed_total $((STATS_FED + 3))$" "$OBS_DIR/metrics2" \
  || fail "post-feed scrape did not advance edges_fed to $((STATS_FED + 3))"

# Graceful shutdown: SIGTERM must produce the SHUTDOWN summary and exit 0.
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
# A wedged shutdown must fail the gate now, not hang `wait` for the job's
# 6-hour ceiling.
kill -0 "$SERVER_PID" 2>/dev/null && fail "server did not exit after SIGTERM"
if wait "$SERVER_PID"; then :; else fail "server exited non-zero"; fi
grep -q "^SHUTDOWN " "$SERVER_LOG" || fail "no SHUTDOWN summary"
[ -S "$SOCK" ] && fail "socket file not unlinked on shutdown"

# --- Crash-recovery leg: kill -9 mid-stream, restart from --data-dir --------
# A durable daemon (--snapshot-every 4) takes a snapshot at edge 4, so
# edges 5-6 live only in the WAL when the harness kill -9s it. The
# restarted process must recover the watcher's session + subscription
# from the snapshot, replay the WAL tail, and resume pushing matches to
# the re-attached watcher — the resumed count asserts it.

"$SERVER" --serve --unix "$RSOCK" \
  --data-dir "$DATA_DIR" --snapshot-every 4 > "$RSERVER1_LOG" 2>&1 &
RSERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "^SERVING " "$RSERVER1_LOG" 2>/dev/null && break
  kill -0 "$RSERVER_PID" 2>/dev/null || fail "durable server died before binding"
  sleep 0.1
done
grep -q "^SERVING " "$RSERVER1_LOG" || fail "durable server: no SERVING banner"
# A fresh data dir is a fresh start, stated on the banner.
grep -q "^RECOVERED snapshot=- wal_seq=0 " "$RSERVER1_LOG" \
  || fail "durable server: missing fresh-start RECOVERED banner"

timeout 60 "$CLIENT" --unix "$RSOCK" --expect-events 6 \
  < ci/e2e_subscribe.txt > "$RWATCHER1_LOG" 2>&1 &
RWATCHER1_PID=$!
for _ in $(seq 1 100); do
  grep -q "OK stream watcher.live" "$RWATCHER1_LOG" && break
  sleep 0.1
done
grep -q "OK stream watcher.live" "$RWATCHER1_LOG" \
  || fail "recovery watcher never subscribed"

timeout 60 "$CLIENT" --unix "$RSOCK" < ci/e2e_recover_feed.txt \
  > "$RFEEDER1_LOG" 2>&1 || fail "recovery feeder failed (exit $?)"
wait "$RWATCHER1_PID" || fail "recovery watcher failed (exit $?)"
REVENTS1=$(grep -c "^EVENT MATCH watcher.live" "$RWATCHER1_LOG" || true)
[ "$REVENTS1" -eq 6 ] || fail "expected 6 pre-crash matches, saw $REVENTS1"
ls "$DATA_DIR"/snap-*.snap >/dev/null 2>&1 \
  || fail "no snapshot written by --snapshot-every"

# The crash: no SIGTERM courtesy, no final snapshot.
kill -9 "$RSERVER_PID"
wait "$RSERVER_PID" 2>/dev/null || true

"$SERVER" --serve --unix "$RSOCK" --http 0 \
  --data-dir "$DATA_DIR" --snapshot-every 4 > "$RSERVER2_LOG" 2>&1 &
RSERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "^SERVING " "$RSERVER2_LOG" 2>/dev/null && break
  kill -0 "$RSERVER_PID" 2>/dev/null || fail "restarted server died (recovery crash?)"
  sleep 0.1
done
grep -q "^SERVING " "$RSERVER2_LOG" || fail "restarted server: no SERVING banner"
# Snapshot at edge 4 + WAL tail of 2: the banner must say exactly that.
grep -Eq "^RECOVERED snapshot=.*snap-0000000000000004\.snap wal_seq=6 window_edges=4 sessions=1 subscriptions=1 replayed_edges=2$" \
  "$RSERVER2_LOG" || fail "restarted server: wrong RECOVERED banner"

timeout 60 "$CLIENT" --unix "$RSOCK" --expect-events 2 \
  < ci/e2e_recover_attach.txt > "$RWATCHER2_LOG" 2>&1 &
RWATCHER2_PID=$!
for _ in $(seq 1 100); do
  grep -q "OK stream watcher.live" "$RWATCHER2_LOG" && break
  sleep 0.1
done
grep -q "OK attach watcher id=0 subs=live:active" "$RWATCHER2_LOG" \
  || fail "re-attach did not resolve the recovered session"
grep -q "OK stream watcher.live" "$RWATCHER2_LOG" \
  || fail "re-attached watcher never streamed"

timeout 60 "$CLIENT" --unix "$RSOCK" < ci/e2e_recover_feed_tail.txt \
  > "$RFEEDER2_LOG" 2>&1 || fail "post-recovery feeder failed (exit $?)"
wait "$RWATCHER2_PID" || fail "post-recovery watcher failed (exit $?)"
REVENTS2=$(grep -c "^EVENT MATCH watcher.live" "$RWATCHER2_LOG" || true)
[ "$REVENTS2" -eq 2 ] || fail "expected 2 resumed matches, saw $REVENTS2"
# STATS surfaces the durability counters and the recovered session.
grep -q "persist: wal_seq=8 " "$RFEEDER2_LOG" \
  || fail "post-recovery STATS missing persist counters (wal_seq=8)"
grep -Eq "recovered\(edges=4,sessions=1,subs=1,replayed=2\)" "$RFEEDER2_LOG" \
  || fail "post-recovery STATS missing recovery counters"
grep -q "'watcher'" "$RFEEDER2_LOG" \
  || fail "post-recovery STATS does not list the recovered session"

# /healthz on the durable daemon reports WAL/snapshot freshness: the WAL
# ran 2 edges past the recovered snapshot plus the 2 resumed matches.
RHTTP_PORT=$(sed -n 's/^SERVING .*http=\([0-9][0-9]*\).*/\1/p' "$RSERVER2_LOG")
[ -n "$RHTTP_PORT" ] || fail "durable SERVING banner has no http= port"
scrape "$RHTTP_PORT" /healthz "$OBS_DIR/healthz_durable" \
  || fail "scrape durable /healthz failed"
grep -q '"persist_enabled":true' "$OBS_DIR/healthz_durable" \
  || fail "durable /healthz missing persist_enabled"
grep -q '"wal_seq":8' "$OBS_DIR/healthz_durable" \
  || fail "durable /healthz wrong wal_seq"
grep -q '"status":"ok"' "$OBS_DIR/healthz_durable" \
  || fail "durable /healthz not ok"

# Graceful shutdown of the durable daemon writes a final snapshot.
kill -TERM "$RSERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$RSERVER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$RSERVER_PID" 2>/dev/null && fail "durable server did not exit after SIGTERM"
if wait "$RSERVER_PID"; then :; else fail "durable server exited non-zero"; fi
grep -q "^SNAPSHOT final wal_seq=8 " "$RSERVER2_LOG" \
  || fail "no final shutdown snapshot"

# --- Bench smoke: the stage hooks must not wreck FeedBatch ingest ----------
# One tiny repetition of each arm proves the benchmark (the overhead gate
# measured in bench-results/BENCH_obs.json) still builds and runs; the
# real before/after numbers are committed, not re-measured in CI.
if [ -x "$BUILD_DIR/bench/bench_micro" ]; then
  timeout 120 "$BUILD_DIR/bench/bench_micro" \
    --benchmark_filter=BM_ServiceFeedBatch --benchmark_min_time=0.05 \
    > "$OBS_DIR/bench_smoke" 2>&1 || fail "bench smoke failed"
  grep -q "BM_ServiceFeedBatch/0" "$OBS_DIR/bench_smoke" \
    || fail "bench smoke missing hooks-off arm"
  grep -q "BM_ServiceFeedBatch/1" "$OBS_DIR/bench_smoke" \
    || fail "bench smoke missing hooks-on arm"
fi

# --- Fanout leg: 64 streaming watchers + one deliberately-stalled reader ----
# A multi-loop (epoll) frontend with a tiny write high-water: 64 watcher
# processes each subscribe + push-stream on their own connection while one
# raw /dev/tcp connection subscribes CAP 4 POLICY drop_oldest and then
# never reads. Every healthy watcher must still receive all matches, and
# STATS must show the backpressure localized to the stalled subscription.

FAN_EDGES=2000
FAN_WATCHERS=64
"$SERVER" --serve --tcp 0 --io-loops 4 \
  --max-connections $((FAN_WATCHERS + 8)) \
  --write-high-water 2048 --so-sndbuf 4096 > "$FAN_SERVER_LOG" 2>&1 &
FAN_SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "^SERVING " "$FAN_SERVER_LOG" 2>/dev/null && break
  kill -0 "$FAN_SERVER_PID" 2>/dev/null || fail "fanout server died before binding"
  sleep 0.1
done
grep -q "^SERVING " "$FAN_SERVER_LOG" || fail "fanout server: no SERVING banner"
FAN_PORT=$(sed -n 's/^SERVING tcp=\([0-9][0-9]*\).*/\1/p' "$FAN_SERVER_LOG")
[ -n "$FAN_PORT" ] || fail "fanout SERVING banner has no tcp= port"

# The stalled reader: a bash fd, commands written by hand. Its setup
# responses are consumed (so the subscription provably exists before the
# feed), then the fd is simply never read again.
exec 4<>"/dev/tcp/127.0.0.1/$FAN_PORT" || fail "stalled reader cannot connect"
printf 'DEFINE sweep\nnode a Host\nnode b Host\nedge a b synProbe\nwindow 1000000\nEND\nSESSION stalled\nSUBMIT stalled live sweep CAP 4 POLICY drop_oldest\nSTREAM stalled live\n' >&4
FAN_TERMS=0
while [ "$FAN_TERMS" -lt 9 ]; do
  IFS= read -r -t 10 -u 4 line || fail "stalled reader setup timed out"
  case "$line" in
    ERR*) fail "stalled reader setup refused: $line" ;;
    .*) FAN_TERMS=$((FAN_TERMS + 1)) ;;
  esac
done

FAN_WATCHER_PIDS=()
for i in $(seq 0 $((FAN_WATCHERS - 1))); do
  {
    printf 'DEFINE sweep\nnode a Host\nnode b Host\nedge a b synProbe\nwindow 1000000\nEND\n'
    printf 'SESSION w%d\nSUBMIT w%d live sweep CAP %d\nSTREAM w%d live\n' \
      "$i" "$i" $((FAN_EDGES + 16)) "$i"
  } > "$FAN_DIR/sub_$i.txt"
  timeout 120 "$CLIENT" --tcp "127.0.0.1:$FAN_PORT" \
    --expect-events "$FAN_EDGES" --timeout-ms 90000 \
    < "$FAN_DIR/sub_$i.txt" > "$FAN_DIR/watcher_$i.log" 2>&1 &
  FAN_WATCHER_PIDS+=($!)
done
for i in $(seq 0 $((FAN_WATCHERS - 1))); do
  for _ in $(seq 1 200); do
    grep -q "OK stream w$i.live" "$FAN_DIR/watcher_$i.log" 2>/dev/null && break
    sleep 0.1
  done
  grep -q "OK stream w$i.live" "$FAN_DIR/watcher_$i.log" \
    || fail "fanout watcher $i never subscribed"
done

seq 1 "$FAN_EDGES" \
  | awk '{print "FEED " 2*$1 " Host " 2*$1+1 " Host synProbe " $1}' \
  > "$FAN_DIR/feed.txt"
timeout 120 "$CLIENT" --tcp "127.0.0.1:$FAN_PORT" \
  --feed-file "$FAN_DIR/feed.txt" < ci/e2e_feed_tail.txt \
  > "$FAN_FEEDER_LOG" 2>&1 || fail "fanout feeder failed (exit $?)"

# Healthy watchers all drain the full stream even though the stalled
# reader's connection has been wedged since the first kilobytes.
for i in $(seq 0 $((FAN_WATCHERS - 1))); do
  wait "${FAN_WATCHER_PIDS[$i]}" || fail "fanout watcher $i failed (exit $?)"
  FAN_EVENTS=$(grep -c "^EVENT MATCH w$i.live" "$FAN_DIR/watcher_$i.log" || true)
  [ "$FAN_EVENTS" -eq "$FAN_EDGES" ] \
    || fail "fanout watcher $i saw $FAN_EVENTS of $FAN_EDGES matches"
done

# STATS (fresh connection): the stalled subscription alone dropped, and
# the per-loop split of the multi-loop frontend is visible.
timeout 60 "$CLIENT" --tcp "127.0.0.1:$FAN_PORT" < ci/e2e_obs_stats.txt \
  > "$FAN_STATS_LOG" 2>&1 || fail "fanout stats client failed (exit $?)"
STALLED_DROPPED=$(awk "/^session .*'stalled'/{s=1;next} /^session /{s=0} \
  s && /dropped=/{if (match(\$0, /dropped=[0-9]+/)) \
  print substr(\$0, RSTART+8, RLENGTH-8); exit}" "$FAN_STATS_LOG")
[ -n "$STALLED_DROPPED" ] && [ "$STALLED_DROPPED" -gt 0 ] \
  || fail "stalled subscription shows no drops (dropped=$STALLED_DROPPED)"
grep -q "^io_loop 3: " "$FAN_STATS_LOG" \
  || fail "STATS missing the per-loop split (io_loop 3)"

exec 4<&- 4>&- || true
kill -TERM "$FAN_SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$FAN_SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$FAN_SERVER_PID" 2>/dev/null \
  && fail "fanout server did not exit after SIGTERM"
if wait "$FAN_SERVER_PID"; then :; else fail "fanout server exited non-zero"; fi
FAN_SERVER_PID=""

echo "e2e: PASS ($EVENTS text + $EVENTS2 binary pushed matches, clean shutdown;" \
     "crash-recovery: $REVENTS1 pre-crash + $REVENTS2 resumed matches;" \
     "obs: /metrics agreed with STATS at edges_fed=$STATS_FED," \
     "advanced to $((STATS_FED + 3)) under a live watcher;" \
     "fanout: $FAN_WATCHERS watchers x $FAN_EDGES matches delivered," \
     "stalled reader throttled alone with dropped=$STALLED_DROPPED)"
