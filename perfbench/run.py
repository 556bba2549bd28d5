#!/usr/bin/env python3
r"""Builds and runs the psg end-to-end benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload psa2d-autophagy --seed 1 \
        --seconds 30 --trace 0

The psg libraries and the benchmark program, psg-perfbench, are built
from source into .bench_build/perfbench (CMake, RelWithDebInfo: the
configuration a user's default `cmake -B build -S .` gives).
psg-perfbench prints its run manifest, the correctness gate's verdict and
a metric table. This script checks the program's record against
BENCHMARK.json, self-tests that check, saves the full record under
.bench_build/perfbench/records/ and prints the record as the last line of
stdout. It exits non-zero when the build, the run, the correctness gate
or the record check fails.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RECORD_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "psg-perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {cmd[:2]} did not finish: {err}")
            if done.returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed; full log in {log_path}")
    return BUILD / "psg-perfbench"


def git_sha():
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def record_problems(record, expected_units):
    """Everything wrong with a record, checked against the metric set the
    run must report ({name: unit} from BENCHMARK.json)."""
    if not isinstance(record, dict) or set(record) != RECORD_KEYS:
        return [f"record keys must be exactly {sorted(RECORD_KEYS)}"]
    problems = []
    if not isinstance(record["correct"], bool):
        problems.append("'correct' is not a boolean")
    for key, least in (("attempted", 1), ("failed", 0)):
        value = record[key]
        if (isinstance(value, bool) or not isinstance(value, int)
                or value < least):
            problems.append(f"'{key}' is not a whole number >= {least}")
    metrics = record["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["'metrics' is not an object"]
    for name in expected_units:
        if name not in metrics:
            problems.append(f"metric {name} is missing")
    for name, metric in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"metric name {name!r} is invalid")
        elif name not in expected_units:
            problems.append(f"metric {name} is not declared for this run")
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            problems.append(f"metric {name} needs exactly a value and a unit")
            continue
        unit, value = metric["unit"], metric["value"]
        if not isinstance(unit, str) or not UNIT_RE.match(unit):
            problems.append(f"metric {name} has an invalid unit {unit!r}")
        elif expected_units.get(name) not in (None, unit):
            problems.append(f"metric {name} has unit {unit}, "
                            f"declared {expected_units[name]}")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"metric {name} has a non-numeric value")
    return problems


def self_test(record, expected_units):
    """The record check must reject a missing metric, a missing unit and
    an invalid name. Returns the mutations it failed to reject."""
    first = next(iter(expected_units))
    missing_metric = json.loads(json.dumps(record))
    del missing_metric["metrics"][first]
    missing_unit = json.loads(json.dumps(record))
    del missing_unit["metrics"][first]["unit"]
    bad_name = json.loads(json.dumps(record))
    bad_name["metrics"]["bad name!"] = bad_name["metrics"].pop(first)
    mutations = {"missing metric": missing_metric,
                 "missing unit": missing_unit,
                 "invalid name": bad_name}
    return [label for label, mutated in mutations.items()
            if not record_problems(mutated, expected_units)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    expected_units = {m["name"]: m["unit"] for m in declared}

    binary = build()
    out_dir = BUILD / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir), "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"psg-perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"psg-perfbench printed nothing (exit code {done.returncode})")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"psg-perfbench's last line is not a record (exit code "
             f"{done.returncode})")
    manifest = next((json.loads(line.split(" ", 1)[1]) for line in lines
                     if line.startswith("manifest ")), None)

    problems = record_problems(record, expected_units)
    missed = self_test(record, expected_units) if not problems else []
    for line in lines[:-1]:
        print(line)
    for problem in problems:
        print(f"record check: FAIL {problem}")
    for label in missed:
        print(f"record check self-test: FAIL accepted a record with a {label}")
    if not problems and not missed:
        print("record check: pass; self-test rejected a missing metric, a "
              "missing unit and an invalid name")

    records = BUILD / "records"
    records.mkdir(parents=True, exist_ok=True)
    saved = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps({"manifest": manifest, "record": record,
                                 "log": lines[:-1]}, indent=1) + "\n")

    if problems or missed:
        fail("the record is malformed")
    print(json.dumps(record))
    sys.stdout.flush()
    if done.returncode != 0 or not record["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
