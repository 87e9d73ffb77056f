#!/usr/bin/env python3
"""End-to-end benchmark of the conditional messaging path.

Run from the repository root:

    python3 cmbench/run.py --workload success_inproc --seed 1 --seconds 30 --trace 0
    python3 cmbench/run.py --smoke      # short run of every workload, both modes

Builds the cmx libraries and the benchmark binary from source into
.bench_build/cmbench (Release), runs one workload, checks its outputs, and
prints every metric by name and unit. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. The exit code is non-zero when the build fails, a correctness check
fails, or the output does not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmbench")
BINARY = os.path.join(BUILD, "cmbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally. Output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cmbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("cmbench: build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(workload, seed, seconds, trace):
    """Runs the binary; returns (exit code, stdout lines)."""
    workdir = os.path.join(BUILD, "work", "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("cmbench: run timed out after %ds" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out.splitlines()


def check_result(lines, trace):
    """Returns the parsed result line, or None (with a reason on stderr)."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("cmbench: no result line", file=sys.stderr)
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("cmbench: malformed result line", file=sys.stderr)
        return None
    want = expected_metrics(trace)
    if list(result["metrics"]) != want:
        print("cmbench: metrics %s do not match BENCHMARK.json %s"
              % (list(result["metrics"]), want), file=sys.stderr)
        return None
    return result


def smoke():
    """Short run of every workload in both modes; exit 0 when all pass."""
    with open(SPEC) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for workload in workloads:
        for trace in (False, True):
            code, lines = run_once(workload, 1, 2, trace)
            result = check_result(lines, trace) if lines else None
            passed = code == 0 and result is not None and result["correct"]
            ok = ok and passed
            print("smoke %-18s trace=%d %s" % (workload, trace,
                                                "ok" if passed else "FAILED"))
            if not passed:
                print("\n".join(lines[-12:]))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    code, lines = run_once(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    result = check_result(lines, bool(args.trace)) if lines else None
    if result is None:
        print("\n".join(lines[:-1]), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return code if code != 0 or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
