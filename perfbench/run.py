#!/usr/bin/env python3
"""Builds the PABR benchmark harness and runs one workload.

    python3 perfbench/run.py --workload ring_stationary --seed 1 \
        --seconds 20 --trace 0

Run from the repository root (or any checkout of it). The first run
configures and builds perfbench/ (the `pabr` library from src/ plus the
harness) into .bench_build/perfbench; later runs only re-check the build.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the host facts (not metrics). The full run record
(report, host facts, checks, spans) is written under
.bench_build/perfbench/runs/. When the record of the other --trace mode of
the same workload, seed, --seconds and sources is there, the two runs'
trajectory digests are compared as one more check. `--self-test` builds and runs the planted-value
tests of the benchmark's checks instead of a workload. See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("ring_stationary", "ring_daily")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the harness; exits 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                # A failed configure must not leave a cache that skips it.
                if cmd[1] == "-S":
                    cache = os.path.join(BUILD, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                fail("build failed (%s):\n%s" % (" ".join(cmd[:2]), tail))


def source_digest():
    """sha256 over the program and benchmark sources (identifies the code
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compare_with_other_mode(stem, args, facts, report):
    """Checks that the traced and the untraced run of the same workload,
    seed and --seconds leave the same trajectory digests: tracing must not
    disturb the trajectory. Compares with the run record of the other
    --trace mode when one exists for the same sources; a mismatch counts as
    a failed check."""
    other = stem[:-1] + str(1 - args.trace) + ".json"
    try:
        with open(other) as f:
            rec = json.load(f)
    except (OSError, ValueError):
        return
    if (rec.get("args", {}).get("seconds") != args.seconds or
            rec.get("host", {}).get("source_digest") !=
            facts["source_digest"]):
        return
    theirs = rec.get("report", {}).get("digests")
    if not theirs:
        return
    report["attempted"] += 1
    if report["digests"] != theirs:
        report["failed"] += 1
        report["correct"] = False
        report["failures"].append(
            "trace_digests_equal: trace %d %s vs trace %d %s" % (
                args.trace, json.dumps(report["digests"]), 1 - args.trace,
                json.dumps(theirs)))


def self_test_digest_compare():
    """Planted-value test of compare_with_other_mode: equal digests pass, a
    digest with one bit flipped fails. Returns 0 when both hold."""
    stem = os.path.join(BUILD, "selftest", "w-seed1-trace1")
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    args = argparse.Namespace(trace=1, seconds=25.0)
    facts = {"source_digest": "s"}
    with open(stem[:-1] + "0.json", "w") as f:
        json.dump({"args": {"seconds": 25.0}, "host": {"source_digest": "s"},
                   "report": {"digests": {"AC1": "00000000000000a1"}}}, f)
    bad = 0
    for digest, ok in (("00000000000000a1", True), ("00000000000000a0", False)):
        report = {"correct": True, "attempted": 1, "failed": 0,
                  "failures": [], "digests": {"AC1": digest}}
        compare_with_other_mode(stem, args, facts, report)
        if report["attempted"] != 2 or report["correct"] != ok:
            print("FAIL trace digest compare, digest %s" % digest)
            bad += 1
    return 1 if bad else 0


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run the planted-value tests of the checks")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main():
    args = parse_args()
    build()
    if args.self_test:
        rc = subprocess.run([os.path.join(BUILD, "perfbench_checks_test")],
                            timeout=RUN_TIMEOUT_S).returncode
        sys.exit(rc or self_test_digest_compare())

    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    stem = os.path.join(runs, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                    args.trace))
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "build_type": build_type(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }
    cmd = [os.path.join(BUILD, "pabr_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--spans-out", stem + ".spans.json",
           "--checks-out", stem + ".checks.jsonl"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in %d s" % (args.workload,
                                                     RUN_TIMEOUT_S))
    facts["loadavg_end"] = list(os.getloadavg())
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness exited with %d" % proc.returncode)
    report = json.loads(lines[-1])
    compare_with_other_mode(stem, args, facts, report)

    with open(stem + ".json", "w") as f:
        json.dump({"args": vars(args), "host": facts, "report": report}, f,
                  indent=1)
    for failure in report["failures"]:
        print("perfbench: check failed: " + failure, file=sys.stderr)
    print("host: " + json.dumps(facts))
    print(json.dumps({k: report[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
