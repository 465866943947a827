#!/usr/bin/env python3
"""LU cost ledger: build from source, run one workload, print one result.

    python3 lu_ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 lu_ledger/run.py --test

Run from the repository root. The first run configures and builds the
ledger (and the libraries under src/ it links) into .bench_build/ in
Release mode; later runs only re-check the build. The last line of standard
output is the result JSON; everything before it is context. A run exits
non-zero without a result when the sources are missing, the build fails or
the binary's metric table disagrees with BENCHMARK.json. A failed output
check prints its result with "correct": false and exits non-zero.

--test builds and runs the helper tests and checks that every metric the
ledger can print is declared in BENCHMARK.json with the same unit.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"lu_ledger: {message}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to the benchmark: run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "ledger_build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target"] +
                     targets)
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail("build failed: " + " ".join(step))


def declared_metrics():
    """(kind, name) -> unit from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            declared[(kind, metric["name"])] = metric["unit"]
    return declared


def catalog():
    """(kind, name) -> unit as the binary prints them."""
    out = subprocess.run([os.path.join(BUILD, "lu_ledger"), "--list-metrics"],
                         capture_output=True, text=True, check=True).stdout
    table = {}
    for line in out.splitlines():
        kind, name, unit = line.split()
        table[(kind, name)] = unit
    return table


def check_catalog():
    declared, printed = declared_metrics(), catalog()
    if declared != printed:
        missing = sorted(set(printed.items()) - set(declared.items()))
        extra = sorted(set(declared.items()) - set(printed.items()))
        fail(f"BENCHMARK.json and the ledger disagree: printed but not "
             f"declared {missing}, declared but not printed {extra}")
    return printed


def run(args):
    build(["lu_ledger"])
    table = check_catalog()
    command = [os.path.join(BUILD, "lu_ledger"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", ROOT]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(done.stdout, end="", file=sys.stderr)
        fail(f"{args.workload} failed with exit code {done.returncode}")
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {name for (k, name) in table if k == kind}
    if set(result.get("metrics", {})) != expected:
        fail(f"{args.workload} printed other metrics than BENCHMARK.json "
             f"declares")
    # A failed output check still prints its result (correct: false) and
    # exits non-zero.
    print("\n".join(lines))
    sys.exit(done.returncode)


def test():
    build(["lu_ledger", "ledger_test"])
    check_catalog()
    done = subprocess.run([os.path.join(BUILD, "ledger_test")])
    if done.returncode != 0:
        fail("helper tests failed")
    print("run.py: BENCHMARK.json declares every printed metric")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["shard_durable_rw", "cluster_adf_e2e"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if args.test:
        test()
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
