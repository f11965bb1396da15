#!/usr/bin/env python3
"""Builds and runs the statement-lifecycle benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <oltp_point|analytic|ingest_replicated|all>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The engine, the replica_server follower and the
harness are compiled from source into $CARGO_TARGET_DIR (default
.bench_build) on first use. The last line of standard output is the JSON
result; build output goes to standard error. Exit code 0 when every output
check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["oltp_point", "analytic", "ingest_replicated"]
HARNESS_TIMEOUT_S = 170


def build(build_dir, targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "3", "--target"] + targets)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def run_workload(build_dir, workload, args):
    """Runs one workload; returns (exit code, stdout text)."""
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--replica-bin", os.path.join(build_dir, "replica_server"),
               "--run-root", os.path.join(build_dir, "runs"),
               "--trace-dir", build_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {HARNESS_TIMEOUT_S} s",
              file=sys.stderr)
        return 3, ""
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if args.selftest:
        if not build(build_dir, ["perfbench_selftest"]):
            return 2
        scratch = os.path.join(build_dir, "selftest")
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest"),
                               scratch]).returncode

    if not build(build_dir, ["perfbench", "replica_server"]):
        return 2
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in workloads:
        code, out = run_workload(build_dir, workload, args)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {workload} printed no result", file=sys.stderr)
            sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
            return code or 4
        if len(workloads) == 1:
            sys.stdout.write(out)
            return code
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"{workload}: {lines[-1]}")
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
