#!/usr/bin/env python3
"""Measure the study benchmark's run-to-run spread. Run from the
repository root:

    python3 studybench/steadiness.py

Makes two sets of runs, one after the other. In each set every workload
runs 10 times untraced, with seeds 1-10, and each end-to-end metric gets
its median, its quartiles (statistics.quantiles(values, n=4)) and the
quartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json. For every metric it then reports how much worse the
second set's median is than the first's, as a share of the first.
Last comes one traced run, for each workload's layer coverage
(named-layer self time as a share of the timed phase), the sampling
error and the two cross-layer ratios the benchmark's design rests on.
Writes the summary as JSON to studybench/steadiness.json and prints it.
"""

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point)

SETS = 2
RUNS = 10
OUT = os.path.join(run.HERE, "steadiness.json")


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def one_set(seconds, bounds):
    """RUNS untraced runs of every workload: {workload: summary}."""
    out = {}
    for workload in run.WORKLOADS:
        samples, failures = {}, 0
        for seed in range(1, RUNS + 1):
            t0 = time.time()
            _, result = run.run(workload, seed, seconds, trace=False)
            failures += 0 if result["correct"] else 1
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.5g}"
                              for k, v in sorted(result["metrics"].items()))
                  + f" ({time.time() - t0:.1f} s)", file=sys.stderr,
                  flush=True)
        metrics = {}
        for name, values in sorted(samples.items()):
            s = summarize(values)
            s["bound"] = bounds[name]
            s["within_third_of_bound"] = s["spread"] < bounds[name] / 3
            metrics[name] = s
        out[workload] = {"incorrect_runs": failures, "metrics": metrics}
    return out


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower"
                       for m in spec["end_to_end"]}

    run.build()
    sets = [one_set(seconds, bounds) for _ in range(SETS)]
    # How much worse the second set's median is than the first's.
    second_worse = {}
    for workload in run.WORKLOADS:
        for name in sets[0][workload]["metrics"]:
            a = sets[0][workload]["metrics"][name]["median"]
            b = sets[-1][workload]["metrics"][name]["median"]
            worse = (b - a) / a if lower_is_better[name] else (a - b) / a
            second_worse.setdefault(workload, {})[name] = {
                "worse": worse, "bound": bounds[name],
                "within_bound": worse <= bounds[name]}

    _, traced = run.run(run.WORKLOADS[0], 1, seconds, trace=True)
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    summary = {
        "runs": RUNS, "seconds": seconds, "sets": sets,
        "second_median_worse": second_worse,
        "traced": {
            "correct": traced["correct"],
            "coverage_pct": {w: layer[w + ".coverage_pct"]
                             for w in ("paper-matrix", "scale-sweep")},
            "sample_err_pct": layer["scale-sweep.sample_err_pct"],
            "ns_per_ref_p1024_over_p16":
                layer["sim.ns_per_ref.p1024"] / layer["sim.ns_per_ref.p16"],
            "store_put_share_of_cold_simulate_and_publish":
                layer["svc.store.put_s"]
                / (layer["svc.store.put_s"] + layer["experiment.cell_s"]),
            "metrics": layer,
        },
    }
    with open(OUT, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    for i, s in enumerate(sets):
        for workload, w in s.items():
            for name, m in w["metrics"].items():
                worse = second_worse[workload][name]["worse"]
                print(f"set {i + 1} {workload:13s} {name:15s} "
                      f"median {m['median']:.5g} q1 {m['q1']:.5g} "
                      f"q3 {m['q3']:.5g} spread {100 * m['spread']:.2f}% "
                      f"(bound {100 * m['bound']:.0f}%)"
                      + (f", set 2 median worse by {100 * worse:+.2f}%"
                         if i == SETS - 1 else ""))
    print(json.dumps({k: v for k, v in summary["traced"].items()
                      if k != "metrics"}, indent=1))


if __name__ == "__main__":
    main()
