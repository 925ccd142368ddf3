#!/usr/bin/env python3
"""Check a change against its parent for performance regressions.

Machine portability is the whole design: CI runners differ in clock
speed, so absolute times are only compared within one host and run.

perfbench: run the repository benchmark (perfbench/run.py) on the
change's checkout and on the parent's, in alternating pairs on the
same host, and fail when the change's median of a gated end-to-end
metric is worse than the parent's by more than that metric's `bound`
in BENCHMARK.json.  Every workload of BENCHMARK.json runs for its
run_seconds, PAIRS times on each side.  suite_s is gated; the other
end-to-end metrics are printed.  Each checkout builds into its own
<checkout>/.bench_build.

Exit status 0 when nothing regressed, 1 otherwise.

Usage:
  check_perf_regression.py perfbench <change-dir> <parent-dir>
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# End-to-end metrics that fail the perfbench comparison; the rest of
# BENCHMARK.json's end-to-end list is reported only.
GATED = ("suite_s",)

# Alternating parent/change run pairs per workload.
PAIRS = 5


def run_perfbench(checkout, workload, seed, seconds):
    """One perfbench/run.py run in @checkout; its final JSON object."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"perfbench run failed in {checkout} "
                           f"({workload}, seed {seed})")
    return json.loads(lines[-1])


def worse_by(metric, change, parent):
    """Relative movement of @change against @parent, positive = worse."""
    move = (change - parent) / parent
    return move if metric["better"] == "lower" else -move


def check_perfbench(change_dir, parent_dir):
    spec = load(os.path.join(change_dir, "BENCHMARK.json"))
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    trees = (("parent", parent_dir), ("change", change_dir))
    failures = []
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for pair in range(PAIRS):
            # Alternate which side goes first, so a host slowing down
            # or speeding up over the job hits both sides alike.
            for side, checkout in (trees if pair % 2 == 0
                                   else trees[::-1]):
                result = run_perfbench(checkout, workload, pair + 1,
                                       seconds)
                values = {m: v["value"]
                          for m, v in result["metrics"].items()}
                runs[side].append(values)
                print(f"  {workload} pair {pair + 1} {side:6s} " +
                      " ".join(f"{m['name']}={values[m['name']]:.4g}"
                               for m in metrics if m["name"] in values),
                      flush=True)
                if side == "change" and (not result["correct"] or
                                         result["failed"]):
                    failures.append(
                        f"{workload} pair {pair + 1}: the change's output "
                        f"checks failed ({result['failed']} of "
                        f"{result['attempted']})")
        for m in metrics:
            name = m["name"]
            if not all(name in r for side in runs.values() for r in side):
                continue
            parent = statistics.median(r[name] for r in runs["parent"])
            change = statistics.median(r[name] for r in runs["change"])
            move = worse_by(m, change, parent)
            gated = name in GATED
            status = ("REGRESSED" if move > m["bound"] else "ok") \
                if gated else "reported"
            print(f"  {workload} {name:12s} parent {parent:10.4g}  "
                  f"change {change:10.4g}  worse by {move:+7.1%}  "
                  f"bound {m['bound']:.0%}  {status}")
            if gated and move > m["bound"]:
                failures.append(
                    f"{workload} {name}: median {change:.4g} {m['unit']} "
                    f"is {move:.1%} worse than the parent's {parent:.4g}, "
                    f"beyond the {m['bound']:.0%} bound")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("mode", choices=["perfbench"])
    ap.add_argument("current", help="change checkout")
    ap.add_argument("baseline", help="parent checkout")
    args = ap.parse_args()

    print(f"== {args.mode}: {args.current} vs {args.baseline} ==",
          flush=True)
    failures = check_perfbench(args.current, args.baseline)

    if failures:
        print("\nPERF REGRESSION:")
        for f in failures:
            print("  - " + f)
        return 1
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
