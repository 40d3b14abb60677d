#!/usr/bin/env python3
"""Build the pipeline ledger from source and run one workload.

    python3 ledger/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run it from the repository root. Each workload does a fixed amount of
work; --seconds only bounds a run (see pipeline_ledger.cpp). Every run
first brings the standalone CMake build of ledger/ (the obdrel library
plus the ledger binary) in .bench_build up to date; the first run in a
fresh checkout configures and compiles it, later runs find nothing to
do. The binary's output is passed
through unchanged, so the last stdout line is the run's JSON result, and
its exit code is returned. Run records and Chrome traces go to
.bench_build/ledger/.

Before returning, the script checks the result's metric names and units
against the catalogue in BENCHMARK.json (end_to_end for --trace 0,
per_layer for --trace 1), in both directions; a mismatch is an error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pipeline_ledger")
LOG = os.path.join(BUILD, "build.log")


def fail(message, code=1):
    print("ledger/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the ledger; output goes to LOG."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no obdrel sources at " + os.path.join(ROOT, "src") +
             "; run from a full checkout of the repository", 2)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(LOG, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(LOG) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_catalogue(result, traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
    if missing or extra or units:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "wrong unit %s" % (missing, extra, units))


def main():
    parser = argparse.ArgumentParser(add_help=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True)
    args = parser.parse_args()

    build()
    out_dir = os.path.join(BUILD, "ledger")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--out", out_dir, "--commit", commit_id()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("the ledger printed no JSON result")
        check_catalogue(result, args.trace == "1")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
