#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--workload` is one of crawl, crawl-capped, fleet, build, or `all` (each
workload in its own process, so each peak RSS is that workload's own).
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run and its overhead. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

The benchmark is built from source with cargo into $CARGO_TARGET_DIR
(default: .bench_build). Segments and journals go to a fresh directory under
.bench_tmp that is removed when the run ends; traced runs write their spans
as CSV under $CARGO_TARGET_DIR/perfbench-spans.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["crawl", "crawl-capped", "fleet", "build"]
# One workload run must end well within the 180 s a run may take.
CHILD_TIMEOUT_S = 170
# Workloads whose threads only take turns: crawl-capped's client and its one
# service worker hand every request back and forth. Kept on one CPU, each
# hand-off is a context switch; spread over two CPUs of a virtual machine,
# each waits on the hypervisor to wake the other CPU, which put 0.1-1 ms
# outliers into the p90 latency and moved it by 4x between runs.
ONE_CPU = {"crawl-capped"}


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build(target):
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        # Build output goes to stderr: stdout carries the results only.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    binary = os.path.join(target, "release", "perfbench")
    if done.returncode != 0 or not os.path.isfile(binary):
        print("run.py: building the benchmark failed", file=sys.stderr)
        return None
    return binary


def run_workload(binary, target, workload, args):
    """Runs one workload; returns (exit code, stdout lines)."""
    scratch_root = os.path.join(ROOT, ".bench_tmp")
    scratch = os.path.join(scratch_root, f"{workload}-{os.getpid()}")
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", scratch,
        "--spans-dir", os.path.join(target, "perfbench-spans"),
    ]
    pin = None
    if workload in ONE_CPU:
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, preexec_fn=pin)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        print(f"run.py: {workload} ran over {CHILD_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    return code, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = target_dir()
    binary = build(target)
    if binary is None:
        return 2

    if args.workload != "all":
        code, lines = run_workload(binary, target, args.workload, args)
        print("\n".join(lines), flush=True)
        return code if parse_result(lines) is not None else (code or 1)

    # All workloads: their reports in turn, then one combined JSON line with
    # metrics named <workload>.<metric>.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, lines = run_workload(binary, target, workload, args)
        print("\n".join(lines[:-1]), flush=True)
        result = parse_result(lines)
        if code != 0 or result is None or not result.get("correct"):
            print(f"run.py: {workload} failed (exit code {code})", file=sys.stderr)
            combined["correct"] = False
            status = status or code or 1
            continue
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
