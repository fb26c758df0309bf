#!/usr/bin/env bash
# Loopback smoke test of the vabi_serve daemon + vabi_client, as CI runs it
# (.github/workflows/ci.yml, serve-smoke job) under ASan and TSan:
#
#   1. concurrent sessions: one daemon, N clients in parallel, all batches
#      complete with exit 0;
#   2. graceful drain + crash-safe resume: a client streams a slow batch, the
#      daemon gets SIGTERM mid-stream (drain -> cancel at the drain timeout),
#      a fresh daemon on the same journal dir restores the finished nets and
#      solves only the remainder -- and the combined per-net output is
#      bit-identical (full %.17g precision) to an uninterrupted run;
#   3. the stats endpoint serves the vabi_serve_stats v3 schema.
#
# Usage: tests/serve/loopback_smoke.sh [BUILD_DIR]
# Tunables (env): SMOKE_CLIENTS, SMOKE_SINKS, SMOKE_BATCH, SMOKE_SEED.
set -euo pipefail

BUILD_DIR=${1:-build}
SERVE="$BUILD_DIR/examples/vabi_serve"
CLIENT="$BUILD_DIR/examples/vabi_client"
CLIENTS=${SMOKE_CLIENTS:-3}
SINKS=${SMOKE_SINKS:-120}
BATCH=${SMOKE_BATCH:-6}
SEED=${SMOKE_SEED:-9}

[ -x "$SERVE" ] && [ -x "$CLIENT" ] || {
  echo "loopback_smoke: binaries missing under $BUILD_DIR" >&2
  exit 1
}

WORK=$(mktemp -d /tmp/vabi-smoke-XXXXXX)
SOCK="$WORK/serve.sock"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

start_server() {
  "$SERVE" --unix "$SOCK" --journal-dir "$WORK" "$@" &
  SERVER_PID=$!
  for _ in $(seq 1 300); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$SERVER_PID" 2>/dev/null || {
      echo "loopback_smoke: server died during startup" >&2
      exit 1
    }
    sleep 0.1
  done
  echo "loopback_smoke: server never bound $SOCK" >&2
  exit 1
}

stop_server() {  # graceful: SIGTERM -> drain -> exit 0
  kill -TERM "$SERVER_PID"
  wait "$SERVER_PID"
  local rc=$?
  SERVER_PID=""
  return $rc
}

# --- 1: concurrent sessions ------------------------------------------------
echo "=== concurrent sessions ($CLIENTS clients) ==="
start_server
pids=()
for i in $(seq 1 "$CLIENTS"); do
  "$CLIENT" --unix "$SOCK" --token "smoke$i" \
    --generate "$SINKS" --batch "$BATCH" --seed $((SEED + i)) \
    > "$WORK/client$i.out" 2> "$WORK/client$i.err" &
  pids+=($!)
done
for i in $(seq 1 "$CLIENTS"); do
  wait "${pids[$((i - 1))]}" || {
    echo "loopback_smoke: client $i failed" >&2
    cat "$WORK/client$i.err" >&2
    exit 1
  }
  ok=$(grep -c '^net .* ok ' "$WORK/client$i.out")
  [ "$ok" -eq "$BATCH" ] || {
    echo "loopback_smoke: client $i solved $ok/$BATCH nets" >&2
    exit 1
  }
done

# --- 3 (while the server is up): stats schema ------------------------------
echo "=== stats schema ==="
"$CLIENT" --unix "$SOCK" --stats > "$WORK/stats.json" 2>/dev/null
grep -q '"schema": "vabi_serve_stats v3"' "$WORK/stats.json"
grep -q '"solve_latency_ms"' "$WORK/stats.json"
stop_server

# --- 2: SIGTERM mid-stream, then resume bit-identity -----------------------
echo "=== drain + resume bit-identity ==="
# Uninterrupted reference run (separate journal token, same seed => same
# nets; drop our own journal so nothing is restored).
start_server
"$CLIENT" --unix "$SOCK" --token ref \
  --generate "$SINKS" --batch "$BATCH" --seed "$SEED" > "$WORK/ref.out" 2>&1
stop_server
rm -f "$WORK/ref.vjl"

# Interrupted run: short drain timeout so SIGTERM cancels what has not
# finished; the journal keeps only completed nets.
start_server --drain-timeout 1
"$CLIENT" --unix "$SOCK" --token victim --retries 2 --base-delay-ms 100 \
  --generate "$SINKS" --batch "$BATCH" --seed "$SEED" \
  > "$WORK/run1.out" 2> "$WORK/run1.err" &
CLIENT_PID=$!
for _ in $(seq 1 600); do
  [ "$(grep -c '^net ' "$WORK/run1.out" 2>/dev/null || true)" -ge 1 ] && break
  sleep 0.05
done
stop_server  # drain: SIGTERM mid-stream
wait "$CLIENT_PID" 2>/dev/null || true  # may exit nonzero: server went away

# Resume against a fresh daemon on the same journal dir.
start_server
"$CLIENT" --unix "$SOCK" --token victim --resume \
  --generate "$SINKS" --batch "$BATCH" --seed "$SEED" \
  > "$WORK/resumed.out" 2> "$WORK/resumed.err"
stop_server

restored=$(grep -c ' restored$' "$WORK/resumed.out" || true)
echo "restored $restored/$BATCH nets from the journal"
[ "$restored" -ge 1 ] || {
  echo "loopback_smoke: resume restored nothing from the journal" >&2
  exit 1
}
# Bit-identity: per-net lines (full %.17g nominals, buffer and candidate
# counts) must match the uninterrupted run exactly, modulo completion order
# and the ' restored' marker.
sed 's/ restored$//' "$WORK/resumed.out" | grep '^net ' | sort > "$WORK/resumed.norm"
grep '^net ' "$WORK/ref.out" | sort > "$WORK/ref.norm"
diff -u "$WORK/ref.norm" "$WORK/resumed.norm" || {
  echo "loopback_smoke: resumed output diverged from the reference" >&2
  exit 1
}
echo "BIT-IDENTICAL: interrupted+resumed run matches uninterrupted run"
echo "loopback_smoke: OK"
