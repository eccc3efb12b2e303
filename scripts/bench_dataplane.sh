#!/usr/bin/env bash
# Dataplane before/after numbers (Issue 2): run the E8/E13 micro-benchmarks
# that exercise the batched-channel and credit-window paths, and distill the
# google-benchmark JSON into a single machine-readable BENCH_dataplane.json
# keyed by benchmark name -> {ns_per_op, items_per_second}.
#
# Usage: scripts/bench_dataplane.sh [--release] [build-dir] [out-json] [min-time]
#   --release  configure+build an optimized tree (build-release/,
#              CMAKE_BUILD_TYPE=Release) first and benchmark that; output
#              defaults to BENCH_dataplane_release.json. Release numbers are
#              the ones the shm-RTT acceptance thresholds are judged on — a
#              debug build understates the dataplane by an order of
#              magnitude.
#   build-dir  cmake build directory holding bench/ binaries (default: build,
#              or build-release with --release)
#   out-json   output path (default: BENCH_dataplane.json in the repo root,
#              or BENCH_dataplane_release.json with --release)
#   min-time   --benchmark_min_time per benchmark, e.g. 0.05s for a CI smoke
#              run (default: benchmark's own default)
#
# The script fails (non-zero) if either binary is missing, a benchmark
# errors, or the distilled JSON lacks the headline counters the acceptance
# criteria are judged on — so CI can't go green on a silently empty file.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

RELEASE=0
if [ "${1:-}" = "--release" ]; then
  RELEASE=1
  shift
fi

if [ "$RELEASE" = 1 ]; then
  BUILD="${1:-$ROOT/build-release}"
  OUT="${2:-$ROOT/BENCH_dataplane_release.json}"
else
  BUILD="${1:-$ROOT/build}"
  OUT="${2:-$ROOT/BENCH_dataplane.json}"
fi
MIN_TIME="${3:-}"

if [ "$RELEASE" = 1 ]; then
  cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD" --target micro_runtime micro_net -j "$(nproc)" \
    >/dev/null
fi
# Older google-benchmark releases only accept a plain double for
# --benchmark_min_time; newer ones also take an "s" suffix. Strip the suffix
# so either form of the argument works against either library version.
MIN_TIME="${MIN_TIME%s}"

RUNTIME_BIN="$BUILD/bench/micro_runtime"
NET_BIN="$BUILD/bench/micro_net"
for b in "$RUNTIME_BIN" "$NET_BIN"; do
  if [ ! -x "$b" ]; then
    echo "ERROR: bench binary missing or not executable: $b" >&2
    echo "       (build with: cmake -B $BUILD -S $ROOT && cmake --build $BUILD -j)" >&2
    exit 1
  fi
done

TMPDIR_BENCH="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_BENCH"' EXIT

EXTRA=()
if [ -n "$MIN_TIME" ]; then
  EXTRA+=("--benchmark_min_time=$MIN_TIME")
fi

# Only the dataplane-relevant benchmarks; the full E8/E13 suites run from
# run_experiments.sh. The filter keeps the CI smoke job fast.
"$RUNTIME_BIN" \
  --benchmark_filter='BM_ChannelPushPop|BM_ChannelBatchTransfer|BM_FarmSteadyStateThroughput' \
  --benchmark_format=json "${EXTRA[@]}" \
  > "$TMPDIR_BENCH/runtime.json"
"$NET_BIN" \
  --benchmark_filter='BM_InprocRoundTrip|BM_TcpLoopbackRoundTrip|BM_ShmRoundTrip|BM_InprocCreditThroughput|BM_TcpCreditThroughput|BM_ShmCreditThroughput' \
  --benchmark_format=json "${EXTRA[@]}" \
  > "$TMPDIR_BENCH/net.json"

# CPU model for the context block: RTT thresholds only mean something
# pinned to the silicon that produced them.
CPU_MODEL="$(awk -F: '/model name/{gsub(/^ /,"",$2); print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
export BSK_BENCH_CPU_MODEL="${CPU_MODEL:-unknown}"
export BSK_BENCH_NPROC="$(nproc 2>/dev/null || echo 0)"
if [ "$RELEASE" = 1 ]; then
  export BSK_BENCH_BUILD_TYPE="Release"
else
  export BSK_BENCH_BUILD_TYPE="${BSK_BENCH_BUILD_TYPE:-default}"
fi

python3 - "$TMPDIR_BENCH/runtime.json" "$TMPDIR_BENCH/net.json" "$OUT" "$ROOT" <<'PY'
import json, os, subprocess, sys

runtime_path, net_path, out_path, root = sys.argv[1:5]


def git(*args):
    try:
        return subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


# Source state, recorded as e2ebench's run context records it.
git_sha = git("rev-parse", "HEAD")
git_status = git("status", "--porcelain", "--untracked-files=no")

benches = {}
context = {}
for path in (runtime_path, net_path):
    with open(path) as f:
        doc = json.load(f)
    if not context:
        ctx = doc.get("context", {})
        context = {
            "date": ctx.get("date"),
            "num_cpus": ctx.get("num_cpus"),
            "library_build_type": ctx.get("library_build_type"),
            "build_type": os.environ.get("BSK_BENCH_BUILD_TYPE", "default"),
            "cpu_model": os.environ.get("BSK_BENCH_CPU_MODEL", "unknown"),
            "nproc": int(os.environ.get("BSK_BENCH_NPROC", "0") or 0),
            "git_sha": git_sha,
            "git_dirty": None if git_status is None else bool(git_status),
        }
    for b in doc.get("benchmarks", []):
        if b.get("run_type") != "iteration":
            continue
        if "error_occurred" in b and b["error_occurred"]:
            print(f"ERROR: benchmark errored: {b['name']}: "
                  f"{b.get('error_message', '')}", file=sys.stderr)
            sys.exit(1)
        # Normalize all times to nanoseconds per op.
        unit = b.get("time_unit", "ns")
        mult = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        entry = {"ns_per_op": b["real_time"] * mult}
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        benches[b["name"]] = entry

# Headline claims this PR is judged on. Their absence means the benchmark
# binaries no longer cover the dataplane and the file would be misleading.
required = [
    "BM_ChannelPushPop",
    "BM_ChannelBatchTransfer/1",
    "BM_ChannelBatchTransfer/64",
    "BM_FarmSteadyStateThroughput/4",
    "BM_InprocCreditThroughput/1",
    "BM_InprocCreditThroughput/4",
    "BM_TcpCreditThroughput/1",
    "BM_TcpCreditThroughput/4",
    "BM_TcpLoopbackRoundTrip",
    "BM_ShmRoundTrip",
    "BM_ShmCreditThroughput/1",
    "BM_ShmCreditThroughput/4",
]
missing = [k for k in required if k not in benches]
if missing:
    print(f"ERROR: required benchmarks missing from output: {missing}",
          file=sys.stderr)
    sys.exit(1)

def ips(name):
    return benches[name].get("items_per_second", 0.0)

def us(name):
    return benches[name]["ns_per_op"] / 1e3

summary = {
    "batched_transfer_speedup_vs_per_item":
        round(ips("BM_ChannelBatchTransfer/64") /
              max(ips("BM_ChannelBatchTransfer/1"), 1e-9), 2),
    "inproc_credit4_speedup_vs_window1":
        round(ips("BM_InprocCreditThroughput/4") /
              max(ips("BM_InprocCreditThroughput/1"), 1e-9), 2),
    "tcp_credit4_speedup_vs_window1":
        round(ips("BM_TcpCreditThroughput/4") /
              max(ips("BM_TcpCreditThroughput/1"), 1e-9), 2),
    "tcp_loopback_rtt_us": round(us("BM_TcpLoopbackRoundTrip"), 3),
    "shm_rtt_us": round(us("BM_ShmRoundTrip"), 3),
    "shm_vs_tcp_rtt_speedup":
        round(us("BM_TcpLoopbackRoundTrip") /
              max(us("BM_ShmRoundTrip"), 1e-9), 2),
}

with open(out_path, "w") as f:
    json.dump({"context": context, "summary": summary, "benchmarks": benches},
              f, indent=2, sort_keys=True)
    f.write("\n")

print(f"wrote {out_path}")
for k, v in summary.items():
    unit = "us" if k.endswith("_us") else "x"
    print(f"  {k}: {v}{unit}")
PY
