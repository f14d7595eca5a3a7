#!/usr/bin/env python3
"""Self-tests of the study benchmark. Run from the repository root:

    python3 studybench/selftest.py

Checks, in order:
  1. the binary's unit self-test (study_bench --selftest): the
     percentile helper refuses a percentile with fewer than 10 samples
     beyond it, the digest gate trips on one perturbed cycle count, and
     span self time and layer coverage are computed as documented;
  2. a tiny-size untraced pass of each workload emits every end-to-end
     metric of BENCHMARK.json with its unit, and passes its digest gate;
  3. a tiny-size traced pass emits every per-layer metric with its unit;
  4. a reference with one digest changed fails that workload's run,
     with every attempted operation counted as failed.
Exits non-zero on the first failure.
"""

import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point)


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    run.build()
    proc = subprocess.run([run.BINARY, "--selftest"])
    check(proc.returncode == 0, "study_bench --selftest")

    for workload in run.WORKLOADS:
        _, result = run.run(workload, seed=1, seconds=0.2, trace=False,
                            tiny=True)
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1,
              f"tiny {workload}: every end-to-end metric, digest matches")

    _, result = run.run("paper-matrix", seed=2, seconds=0.2, trace=True,
                        tiny=True)
    check(result["correct"] and result["failed"] == 0,
          "tiny traced run: every per-layer metric, digests match")

    with open(run.REFERENCE) as f:
        lines = f.read().splitlines()
    key = "tiny/paper-matrix "
    bad = [l[:len(key)] + "00000000" if l.startswith(key) else l
           for l in lines]
    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     dir=os.path.dirname(run.BINARY),
                                     delete=False) as f:
        f.write("\n".join(bad) + "\n")
        path = f.name
    try:
        _, result = run.run("paper-matrix", seed=1, seconds=0.2,
                            trace=False, tiny=True, reference=path)
    finally:
        os.unlink(path)
    check(not result["correct"] and result["failed"] == result["attempted"],
          "a changed reference digest fails the run")
    print("selftest passed")


if __name__ == "__main__":
    main()
