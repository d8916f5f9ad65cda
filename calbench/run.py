#!/usr/bin/env python3
r"""Builds calbench from source and runs one workload.

    python3 calbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR/calbench
(default .bench_build/calbench); traced runs also write their spans to
<build dir>/traces/<workload>-seed<n>.json. Build output goes to stderr, so
the last stdout line is the benchmark's JSON result. Any other arguments
(--tiny) are passed through to the binary.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary ends every run well inside this; a run still going is hung.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "calbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build directory configured for another checkout cannot be reused.
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "calbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, rest = parser.parse_known_args()

    binary = build()
    if binary is None:
        print("calbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace] + rest
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"calbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
