#!/usr/bin/env python3
"""Study-level benchmark entry point.

Run from the repository root:

    python3 studybench/run.py --workload paper-matrix --seed 1 --seconds 20 --trace 0

Builds the repository's libraries and the benchmark binary from source
into .bench_build/studybench (first run only; later runs rebuild
incrementally), runs one workload, checks the result line against the
metric names and units in BENCHMARK.json, and prints it as the last
line of standard output. Exits non-zero, without a result line, if the
sources are missing, the build fails, or the run fails.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "studybench")
BINARY = os.path.join(BUILD_DIR, "study_bench")
REFERENCE = os.path.join(HERE, "reference.txt")
WORKLOADS = ("paper-matrix", "scale-sweep", "service-cold", "service-warm")

# study_bench must finish well within a run's 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build study_bench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no repository sources at " + ROOT + "/src")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        os.makedirs(BUILD_DIR, exist_ok=True)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "study_bench",
         "-j", "4"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace):
    """{name: unit} of the metrics a run must report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Parse study_bench's result line and match it to BENCHMARK.json."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError("result keys are " + ", ".join(sorted(result)))
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise RuntimeError("metrics differ from BENCHMARK.json: missing "
                           f"{missing}, unexpected {extra}, unit {units}")
    return result


def run(workload, seed, seconds, trace, tiny=False, reference=REFERENCE):
    """Run study_bench once; returns the result line and its parse."""
    workdir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir, "--reference", reference]
    if trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build", f"trace-{workload}-{seed}.json")]
    if tiny:
        cmd.append("--tiny")
    # study_bench forks a process per unit: run it in its own process
    # group so a timeout stops the units too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"study_bench ran past {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"study_bench exited {proc.returncode}")
    return lines[-1], check_result(lines[-1], trace)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")
    try:
        build()
        line, _ = run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log("failed: " + str(e))
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
