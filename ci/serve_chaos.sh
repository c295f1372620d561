#!/usr/bin/env bash
# Chaos drill for the serving daemon (`wgft-serve`).
#
# Starts the daemon with `--chaos` fault injection wired under live traffic
# (BER 3e-4 operation-level faults, the campaigns' fault model on both
# tiers, seeded per request id), drives two tenants at opposite protection
# tiers — `free` on the unprotected fast path (by fault-site replay), `gold`
# on checksum+recompute — then SIGKILLs the daemon mid-load and
# restarts it on a fresh ephemeral port. The load clients' retry layer must
# mask the restart completely (they re-resolve the address from the port
# file), after which the BENCH_serve.json report is asserted on:
#
#   * every request answered — no silent drops across the kill;
#   * client retries > 0 — the kill actually landed and was masked;
#   * gold accuracy within 0.02 of the clean baseline while free degrades
#     below it — the paper's protection story holds under live faults;
#   * daemon corrected counters > 0 — ABFT actually fired, not just rode
#     out a lucky fault-free run.
#
# Chaos fault streams are keyed by (seed, request_id), so the request-id set
# fixes every prediction regardless of batching, thread interleaving, or
# where the kill lands — the accuracy assertions are deterministic.
#
# WGFT_SERVE_SMOKE=1 shrinks the request count for the main CI job; the
# dedicated serve job runs the full size.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${WGFT_SERVE_SMOKE:-0}" = "1" ]; then
  REQUESTS=120
else
  REQUESTS=240
fi

cargo build --release -p wgft-serve

BIN=target/release/wgft-serve
ROOT=target/serve/ci-serve-chaos
rm -rf "$ROOT"
mkdir -p "$ROOT"

# Escalation thresholds are parked out of reach: this drill measures the
# *configured* tiers, so the monitor must not promote `free` mid-run
# (auto-promotion has its own coverage in crates/serve/tests).
DAEMON_ARGS=(--model vgg_small --width 16 --scale test --images 16 --seed 42
             --cache-dir target/wgft-models
             --tenants free=fast,gold=checksum_recompute
             --chaos ber=3e-4,seed=7
             --escalate-detected 1000000000 --escalate-uncorrected 1000000000)

start_daemon() {
  # Drop any stale port file first so the wait loop below (and the load
  # clients re-resolving it) only ever see the live daemon's address.
  rm -f "$ROOT/addr"
  "$BIN" daemon --listen 127.0.0.1:0 --port-file "$ROOT/addr" \
    "${DAEMON_ARGS[@]}" --quiet &
  DAEMON_PID=$!
  for _ in $(seq 1 600); do
    [ -f "$ROOT/addr" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || {
      echo "daemon died before binding" >&2
      exit 1
    }
    sleep 0.1
  done
  echo "daemon never wrote its port file" >&2
  exit 1
}

LOAD_PID=""
start_daemon
trap 'kill "$DAEMON_PID" 2>/dev/null || true; kill "$LOAD_PID" 2>/dev/null || true' EXIT
echo "daemon at $(cat "$ROOT/addr")"

# The load re-resolves the daemon address from the port file on every
# reconnect, which is what survives the restart below.
"$BIN" load --connect-file "$ROOT/addr" --tenants free,gold \
  --threads 2 --requests "$REQUESTS" --seed 1 --retry-attempts 12 \
  --bench-out "$ROOT/BENCH_serve.json" &
LOAD_PID=$!

# SIGKILL the daemon once the counters prove traffic is flowing — a real
# mid-request crash, torn frames and in-flight batches included.
KILLED=0
for _ in $(seq 1 600); do
  if ! kill -0 "$LOAD_PID" 2>/dev/null; then
    break
  fi
  ACCEPTED=$("$BIN" status --connect "$(cat "$ROOT/addr")" 2>/dev/null \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["global"]["accepted"])' \
    2>/dev/null || echo 0)
  if [ "$ACCEPTED" -ge 16 ]; then
    kill -9 "$DAEMON_PID"
    wait "$DAEMON_PID" 2>/dev/null || true
    KILLED=1
    echo "SIGKILLed daemon (pid $DAEMON_PID) after $ACCEPTED accepted requests"
    break
  fi
  sleep 0.05
done
if [ "$KILLED" -ne 1 ]; then
  echo "load finished before the kill fired — drill is vacuous" >&2
  exit 1
fi

# Restart on a fresh ephemeral port; the model cache makes this fast and the
# clients follow the rewritten port file.
start_daemon
echo "daemon restarted at $(cat "$ROOT/addr")"

wait "$LOAD_PID"
LOAD_PID=""
"$BIN" shutdown --connect "$(cat "$ROOT/addr")"
wait "$DAEMON_PID"
trap - EXIT

python3 - "$ROOT/BENCH_serve.json" "$REQUESTS" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
requests = int(sys.argv[2])
clean = report["clean_accuracy"]
gold = report["tenants"]["gold"]
free = report["tenants"]["free"]
retries = sum(t["retries"] for t in report["tenants"].values())
corrected = sum(t["corrected"] for t in report["server"]["tenants"].values())

assert report["chaos"], "daemon was not running with chaos injection"
for name, tenant in report["tenants"].items():
    assert tenant["requests"] == requests, (
        f"{name}: {tenant['requests']} of {requests} requests answered — "
        "silent drops across the restart"
    )
assert retries > 0, "no client retries: the SIGKILL was never actually masked"
assert gold["accuracy"] >= clean - 0.02, (
    f"gold (checksum+recompute) accuracy {gold['accuracy']:.4f} fell more "
    f"than 0.02 below clean {clean:.4f}"
)
assert free["accuracy"] < clean, (
    f"free (unprotected) accuracy {free['accuracy']:.4f} did not degrade "
    f"below clean {clean:.4f} — chaos is not biting"
)
assert corrected > 0, "protected tier corrected nothing: ABFT never fired"

print(
    f"serve chaos drill: clean {clean:.4f}, gold {gold['accuracy']:.4f}, "
    f"free {free['accuracy']:.4f}, {retries} retries masked the restart, "
    f"{corrected} corrected"
)
EOF
echo "serve chaos drill passed"
