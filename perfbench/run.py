#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload paper_soc5 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds `perfbench` and the `ssresf-serve`
worker with cargo (into $CARGO_TARGET_DIR, default `.bench_build`), runs the
workload in its own process, so its peak memory is its own, and forwards its
output. The last stdout line is the result JSON. Artifact caches live in
`.perfbench_work/<pid>` under the current directory and are removed on exit.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# One run must finish well inside three minutes; a stuck one is stopped.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds both binaries; returns the target directory or None."""
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
        "-p", "ssresf-perfbench", "-p", "ssresf-serve", "--bins",
    ]
    # Cargo's output goes to stderr: stdout carries only the result.
    done = subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        return None
    return Path(env["CARGO_TARGET_DIR"]) / "release"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = dict(os.environ)
    # The bench crate shrinks every budget under SSRESF_QUICK=1.
    env.pop("SSRESF_QUICK", None)
    # Cargo resolves a relative target directory against its own working
    # directory; pin it to the directory this script was started from.
    env["CARGO_TARGET_DIR"] = str(Path(env.get("CARGO_TARGET_DIR", ".bench_build")).resolve())
    release = build(env)
    if release is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    worker = release / "ssresf-serve"
    if not worker.is_file():
        print(f"run.py: worker binary {worker} is missing", file=sys.stderr)
        return 1

    work_dir = Path(".perfbench_work") / str(os.getpid())
    command = [
        str(release / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--worker", str(worker),
        "--work-dir", str(work_dir),
    ]
    try:
        # Its own process group, so a timeout also stops its workers.
        with subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
        ) as bench:
            try:
                out, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(bench.pid, signal.SIGKILL)
                bench.communicate()
                print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    lines = out.splitlines()
    if bench.returncode != 0 or not lines:
        print(f"run.py: perfbench exited with {bench.returncode}", file=sys.stderr)
        return 1
    json.loads(lines[-1])
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
