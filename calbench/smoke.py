#!/usr/bin/env python3
"""Smoke self-test of the benchmark: every workload at --tiny size, in seconds.

    python3 calbench/smoke.py

Run from the repository root. Builds like run.py, then checks for each
workload, untraced and traced, that the last stdout line has the result
schema with exactly the metrics BENCHMARK.json names (with their units), that
the reference kernel reproduced its checksum, and that no operation failed.
It also checks that the chaos campaign known to break the one-accessor
invariant (SameEngine, Fcfs, arbiter crash, plan seed 66) is counted as the
one failed campaign of the run: operations are counted once per batch, and
the tiny chaos run has one batch. Exits non-zero on any violation.
"""

import json
import math
import os
import subprocess
import sys

import run

# The seed-66 cell of the chaos workload (README.md, "Known defect").
KNOWN_FAILURE = ("chaos: transport=SameEngine policy=fcfs seed=66 "
                 "arbiter_crash=1:")
CELLS_PER_PLAN = 12  # 2 transports x 3 policies x {no crash, crash}


def run_tiny(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                       timeout=run.RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError(f"{cmd}: exit {p.returncode}\n{p.stderr}")
    return lines[:-1], json.loads(lines[-1])


def check_schema(result, expected):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append("attempted/failed are not whole numbers")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            problems.append(f"{name}: {m}")
        elif not (isinstance(m["value"], (int, float))
                  and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m['value']!r}")
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    binary = run.build()
    if binary is None:
        print("smoke: build failed")
        return 1

    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        # Seed 66 puts the known-defect cell into the tiny chaos batch.
        seed = 66 if workload == "chaos" else 1
        for trace in (0, 1):
            header, result = run_tiny(binary, workload, seed, trace)
            where = f"{workload} trace={trace}"
            failures += [f"{where}: {p}"
                         for p in check_schema(result, units[trace])]
            if not any("ref_checksum=" in line for line in header) or any(
                    "checksum mismatch" in line for line in header):
                failures.append(f"{where}: reference checksum not confirmed")
            if result.get("correct") is not True:
                failures.append(f"{where}: correct is false")
            failed_lines = [l for l in header if l.startswith("# failed:")]
            if workload == "chaos":
                if not (result["attempted"] == CELLS_PER_PLAN
                        and result["failed"] == 1 and len(failed_lines) == 1
                        and failed_lines[0].startswith(
                            "# failed: " + KNOWN_FAILURE)):
                    failures.append(
                        f"{where}: want the seed-66 cell as the one failed "
                        f"campaign of {CELLS_PER_PLAN}, got "
                        f"failed={result['failed']} "
                        f"of {result['attempted']}: {failed_lines}")
            elif result.get("failed") != 0 or failed_lines:
                failures.append(f"{where}: {failed_lines}")
            print(f"smoke: {where}: attempted={result.get('attempted')} "
                  f"failed={result.get('failed')}")

    for f in failures:
        print("smoke: FAIL", f)
    print("smoke:", "FAILED" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
