#!/usr/bin/env python3
"""Wire-level query benchmark: one run of one workload.

    python3 perfbench/run.py --workload point_static --seed 1 --seconds 25 --trace 0

Run from the root of the source tree. Builds perfbench/ (and with it
the library) into .bench_build/perfbench, runs the harness with the
workload's constants from perfbench/workloads.json, checks the answers,
prints a human-readable table on stderr and, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones and writes a Chrome trace of the run's spans.
Exits nonzero when an answer is wrong or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175  # a run (after the build) must end within this


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench_harness", "-j", "4"], check=True, stdout=sys.stderr)
    return build_dir / "perfbench_harness"


def harness_flags(workload):
    flags = []
    for key, value in workload.items():
        flags += ["--" + key, str(value)]
    return flags


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workloads = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in workloads:
        log("unknown workload %s" % args.workload)
        return 2
    workload = workloads[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        binary = build(target / "perfbench")
    except subprocess.CalledProcessError as err:
        log("build failed: %s" % err)
        return 1

    out = target / "perfbench-runs" / ("%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--out", str(out),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace=" + ("true" if args.trace else "false")]
    cmd += harness_flags(workload)
    started = time.monotonic()
    try:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=DEADLINE_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        log("harness failed: %s" % err)
        return 1
    log("harness ran %.1f s" % (time.monotonic() - started))

    counters = json.loads((out / "counters.json").read_text())
    rows = stats.parse_records((out / "records.tsv").read_text())
    shape = {
        "deadline_ms": workload["deadline_ms"],
        "churn": workload["churn_frames_per_s"] > 0,
    }
    e2e, attempted, n_failed, samples, tails = stats.end_to_end(counters, rows, shape)
    checks = counters["checks"]
    correct = checks["mismatches"] == 0 and checks["checked"] > 0
    log("checks: %d answers at %d snapshot versions (%d sketch-served), "
        "%d mismatches" % (checks["checked"], checks["versions"],
                           checks["sketch_checked"], checks["mismatches"]))
    log("error_frac %.6f (%d of %d queries/updates failed); latency samples %d, "
        "update samples %d" % (1 - e2e["ok_frac"], n_failed, attempted,
                               samples["latency"], samples["update"]))
    for name, n, q in (("latency", samples["latency"], 0.90),
                       ("update", samples["update"], 0.95)):
        if not stats.tail_supported(n, q):
            log("WARNING: p%d of %s rests on %d samples (< 10 beyond it)"
                % (round(q * 100), name, n))

    if args.trace:
        metrics = stats.per_layer(counters, rows, tails)
        for name in stats.counts_repeat(counters):
            log("WARNING: bfs count %s differs between identical passes" % name)
        log("trace: %s (open in https://ui.perfetto.dev)" % (out / "trace.json"))
        wanted = bench["per_layer"]
    else:
        metrics = e2e
        wanted = bench["end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    for m in wanted:
        log("  %-36s %16.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    problems = stats.check_result(result, bench, args.trace == 1)
    if problems:
        log("result does not match BENCHMARK.json: %s" % "; ".join(problems))
        return 1
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
