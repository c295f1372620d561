#!/usr/bin/env bash
# Load smoke for the serving daemon (`wgft-serve`), fault-free.
#
# Starts a chaos-free daemon with two tenants at opposite protection tiers,
# drives concurrent client threads against it, and asserts the clean-path
# contract: every request answered, both tiers exactly at the clean baseline
# accuracy (micro-batching and the ABFT path are bit-faithful at BER 0), no
# retries, no sheds, no escalation, and batches formed. The per-tier
# requests/sec and p50/p99 latencies land in BENCH_serve.json (pass an
# explicit output path as $1 to refresh the committed snapshot). The mean
# queue and service time per tier, from the daemon's counters, are printed
# as a report, not a gate.
#
# WGFT_SERVE_SMOKE=1 shrinks the request count for the main CI job.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${WGFT_SERVE_SMOKE:-0}" = "1" ]; then
  REQUESTS=64
else
  REQUESTS=192
fi

cargo build --release -p wgft-serve

BIN=target/release/wgft-serve
ROOT=target/serve/ci-serve-load
OUT="${1:-$ROOT/BENCH_serve.json}"
rm -rf "$ROOT"
mkdir -p "$ROOT"

"$BIN" daemon --listen 127.0.0.1:0 --port-file "$ROOT/addr" \
  --model vgg_small --width 16 --scale test --images 16 --seed 42 \
  --cache-dir target/wgft-models \
  --tenants free=fast,gold=checksum_recompute --quiet &
DAEMON_PID=$!
trap 'kill "$DAEMON_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 600); do
  [ -f "$ROOT/addr" ] && break
  kill -0 "$DAEMON_PID" 2>/dev/null || { echo "daemon died before binding" >&2; exit 1; }
  sleep 0.1
done
ADDR=$(cat "$ROOT/addr")
echo "daemon at $ADDR"

"$BIN" load --connect "$ADDR" --tenants free,gold \
  --threads 2 --requests "$REQUESTS" --seed 1 --bench-out "$OUT"

"$BIN" shutdown --connect "$ADDR"
wait "$DAEMON_PID"
trap - EXIT

python3 - "$OUT" "$REQUESTS" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
requests = int(sys.argv[2])
clean = report["clean_accuracy"]
server = report["server"]

assert not report["chaos"], "load smoke must run fault-free"
for name, tenant in report["tenants"].items():
    assert tenant["requests"] == requests, (
        f"{name}: {tenant['requests']} of {requests} requests answered"
    )
    assert tenant["accuracy"] == clean, (
        f"{name}: accuracy {tenant['accuracy']:.4f} != clean {clean:.4f} — "
        "the fault-free serving path must match the local baseline exactly"
    )
    assert tenant["retries"] == 0, f"{name}: {tenant['retries']} retries on a quiet loopback"
    assert tenant["promoted"] == 0, f"{name}: promoted without faults"
    assert tenant["p50_us"] > 0 and tenant["p99_us"] >= tenant["p50_us"]
assert server["escalation_level"] == 0, "fault-free traffic escalated"
assert server["global"]["overloaded"] == 0, "sheds on a quiet loopback"
assert server["global"]["batches"] > 0, "no batches were formed"
assert report["throughput_rps"] > 0

print(
    f"serve load smoke: {report['throughput_rps']:.1f} req/s, " +
    ", ".join(
        f"{name} p50 {t['p50_us']} us / p99 {t['p99_us']} us"
        for name, t in report["tenants"].items()
    )
)
for name, t in sorted(server["tenants"].items()):
    served = max(t["requests"], 1)
    print(
        f"  {name}: mean queue wait {t['queue_us'] / served:.0f} us, "
        f"mean service {t['service_us'] / served:.0f} us (report only)"
    )
EOF
echo "serve load smoke passed"
