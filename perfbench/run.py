#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_sv|paper_dm|serve_mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds
perfbench/ (the qzz libraries plus the benchmark binary) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed.  The binary's last stdout line is one JSON object
(correct / attempted / failed / metrics); this script checks that its
metric names match BENCHMARK.json and passes it through.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(path)


def build():
    """Configure (once) and build the benchmark; exits on failure."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            log("configure failed")
            sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs,
           "--target", "qzz_perfbench", "perfbench_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    return out


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own helper tests")
    args = ap.parse_args()

    out = build()
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]
                              ).returncode
    if not args.workload:
        ap.error("--workload is required")

    cmd = [os.path.join(out, "qzz_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", os.getcwd()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        tmp = os.path.join(os.getcwd(), ".bench_tmp")
        if os.path.isdir(tmp) and not os.listdir(tmp):
            os.rmdir(tmp)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with code {proc.returncode}")
        return proc.returncode or 1

    result = json.loads(lines[-1])
    want = expected_metrics(bool(args.trace))
    if want is not None and set(result["metrics"]) != want:
        missing = sorted(want - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - want)
        lines.insert(-1, f"FAILED: metrics differ from BENCHMARK.json "
                         f"(missing {missing}, extra {extra})")
        result["correct"] = False
        result["failed"] += 1
        result["attempted"] += 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
