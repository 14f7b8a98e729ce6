#!/usr/bin/env python3
"""Self-checks of the benchmark, run from the repository root.

    python3 nwbench/check.py schema
        Every metric BENCHMARK.json names is in nwbench's metric table
        with the same unit and direction, and a short run of every
        workload prints exactly those metrics, with their units, in a
        well-formed result line (end-to-end with --trace 0, per-layer
        with --trace 1).

    python3 nwbench/check.py spread --workload NAME --seeds 1,2,3,4,5
        Runs the workload once per seed for BENCHMARK.json's run_seconds
        and prints, per end-to-end metric, the median and the spread
        (third minus first quartile, as a share of the median) next to
        the metric's bound. A spread under a third of its bound is steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    """Run the benchmark; return its stdout lines."""
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                       cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"run.py {' '.join(args)} exited {r.returncode}:\n"
                 f"{r.stderr[-2000:]}")
    return r.stdout.splitlines()


def result(workload, seed, seconds, trace):
    lines = run(["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)])
    res = json.loads(lines[-1])
    if set(res) != RESULT_KEYS:
        sys.exit(f"{workload}: result keys {sorted(res)}")
    return res


def schema():
    spec = bench_spec()
    table = {}
    for line in run(["--list-metrics"]):
        m = json.loads(line)
        table[m["name"]] = m
    problems = []
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            t = table.get(m["name"])
            if t is None or t["kind"] != kind:
                problems.append(f"{m['name']}: not a {kind} metric of the "
                                "nwbench program")
            elif (t["unit"], t["better"]) != (m["unit"], m["better"]):
                problems.append(f"{m['name']}: BENCHMARK.json says "
                                f"{m['unit']}/{m['better']}, nwbench "
                                f"{t['unit']}/{t['better']}")
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res = result(w["name"], 1, 1, trace)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} --trace {trace}: metrics "
                                f"differ from BENCHMARK.json {kind}")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{w['name']} --trace {trace}: {res}")
            print(f"{w['name']} --trace {trace}: {len(got)} metrics, "
                  f"correct={res['correct']}")
    for p in problems:
        print("FAIL", p)
    print("schema:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def spread(workload, seeds):
    spec = bench_spec()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds:
        res = result(workload, seed, spec["run_seconds"], 0)
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}"
              f"/{res['attempted']} " +
              " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)
    print(f"{'metric':18} {'median':>14} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        s = (q3 - q1) / med
        verdict = "steady" if s < m["bound"] / 3 else (
            "within" if s <= m["bound"] else "WIDE")
        print(f"{m['name']:18} {med:14.6g} {s:8.4f} {m['bound']:6.3f} "
              f"{verdict}")


def main():
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("schema")
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1,2,3,4,5")
    a = p.parse_args()
    if a.cmd == "schema":
        return schema()
    spread(a.workload, [int(x) for x in a.seeds.split(",")])
    return 0


if __name__ == "__main__":
    sys.exit(main())
