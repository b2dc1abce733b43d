#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload learn-w1 --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, both taken
relative to the repository root. Build output goes to stderr; the benchmark's
own output goes to stdout, and its last line is the result JSON object.
The exit code is the benchmark's (0 when every output check passed), or 1
when the build fails or the result line does not match BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures once, then builds the benchmark and the concord CLI."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "-j", jobs,
                        "--target", "perfbench", "concord"],
                       check=True, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
        top, commit = git.stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return "git:" + commit
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    command = [
        os.path.join(out, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spec", os.path.join(HERE, "workloads.json"),
        "--concord", os.path.join(out, "concord_src", "cli", "concord"),
        "--work-dir", os.path.relpath(work, ROOT),
        "--source-id", source_id(),
    ]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        metrics = None
    if result.returncode not in (0, 1) or metrics is None:
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        print(f"perfbench: exited {result.returncode} without a result", file=sys.stderr)
        return result.returncode or 1
    if set(metrics) != expected_metrics(args.trace):
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        print("perfbench: result metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
