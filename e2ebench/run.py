#!/usr/bin/env python3
"""End-to-end benchmark of the managed farm.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload farm-shm --seed 1 --seconds 15 --trace 0

Builds the benchmark package (e2ebench/CMakeLists.txt: the runtime compiled
from src/, the bskd daemon and the e2ebench driver) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), runs one
workload, and prints as the last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1),
each as {"value": v, "unit": u}. The line before it carries the run context
(source digest, git sha when available, build type, compiler, CPU, nproc,
seed, clock scale, open-loop rate). Full results are also kept under
<build dir>/results; the traced run's spans and per-layer self-time tables
under <build dir>/traces.

Workloads: farm-threads, farm-shm, farm-tcp, mape-steps (see BENCHMARK.json
for why each exists). Unit tests of the benchmark's own logic:

    cmake --build .bench_build/e2ebench --target e2ebench_selftest
    .bench_build/e2ebench/e2ebench_selftest
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("farm-threads", "farm-shm", "farm-tcp", "mape-steps")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(bdir):
    """Configure (once) and build the driver and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "rt", "farm.hpp")):
        raise RuntimeError(f"no runtime sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                    "e2ebench", "bskd"], check=True, stdout=sys.stderr)


def source_digest():
    """sha256 over the runtime sources and the benchmark, path-ordered."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_state():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
        return sha, bool(dirty)
    except (subprocess.CalledProcessError, OSError):
        return None, None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        build(bdir)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    traces = os.path.join(bdir, "traces")
    results = os.path.join(bdir, "results")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(bdir, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--bskd", os.path.join(bdir, "bskd"),
           "--trace-dir", traces]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"run failed with exit code {proc.returncode}")
        return 1
    out = json.loads(lines[-1])

    want = expected_metrics(bool(args.trace))
    if want is not None and sorted(want) != sorted(out["metrics"]):
        log(f"metric set {sorted(out['metrics'])} differs from BENCHMARK.json")
        return 1

    sha, dirty = git_state()
    ctx = dict(out.get("context", {}))
    ctx.update({"git_sha": sha, "git_dirty": dirty,
                "source_sha256": source_digest(), "cpu_model": cpu_model(),
                "nproc": os.cpu_count()})
    result = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(dict(result, context=ctx), fh, indent=1)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
