"""Benchmark entry point.

    python3 bench/run.py --workload maps --seed 1 --seconds 15 --trace 0

With --trace 0 it runs SETUP_RUNS set-up-only processes and one measuring
process, one at a time, and prints the end-to-end metrics; with --trace 1
it runs one traced process, prints the per-layer metrics and writes the
full span table to bench/out/traces/.  The line before the final JSON holds
the raw (uncorrected) figures and the reference-loop factors.  The last
line of stdout is always the result:

    {"correct": true, "attempted": 330, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import common
import spans

WORKLOADS = ("maps", "spectral", "cells", "cli")
SETUP_RUNS = 4
PROCESS_TIMEOUT_S = 150


def spawn(mode: str, args, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(common.BENCH_DIR, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=common.ROOT,
                       timeout=timeout)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"worker ({mode}) exited with {p.returncode}")
    return json.loads(p.stdout.splitlines()[-1])


def warm_up():
    """Compile the package's byte code and load its files once, unmeasured,
    so the first measured set-up does not pay for it alone."""
    subprocess.run([sys.executable, "-c", "import prochain.cli"], cwd=common.ROOT,
                   env=dict(os.environ, PYTHONPATH=common.SRC), check=True,
                   capture_output=True, timeout=PROCESS_TIMEOUT_S)


def corrected_items(rnd) -> list:
    return [t * f for t, f in zip(rnd["times"], rnd["factors"])]


def end_to_end(setups, main):
    n = main["items"]
    per_round = [corrected_items(r) for r in main["rounds"]]
    pooled = [t for ts in per_round for t in ts]
    raw_pooled = [t for r in main["rounds"] for t in r["times"]]
    setup = [s["setup_raw_s"] * s["setup_factor"] for s in setups]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (statistics.median(n / sum(ts) for ts in per_round), "1/s"),
        "item_p50_ms": (1000 * statistics.median(pooled), "ms"),
        "item_p90_ms": (1000 * common.p90(pooled), "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    raw = {
        "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
        "items_per_s": statistics.median(n / sum(r["times"]) for r in main["rounds"]),
        "item_p50_ms": 1000 * statistics.median(raw_pooled),
        "item_p90_ms": 1000 * common.p90(raw_pooled),
        "rounds": len(main["rounds"]),
        "samples": len(pooled),
        "ref_factor": statistics.median(r["factor"] for r in main["rounds"]),
        "setup_ref_factor": statistics.median(s["setup_factor"] for s in setups),
    }
    return metrics, raw


def per_layer(trace):
    """Counts from the traced rounds (which must agree exactly), times as
    the median over traced rounds of raw time times the round's factor."""
    rounds = trace["rounds"]
    metrics, problems = {}, []
    for name, (unit, read) in spans.LAYER_METRICS.items():
        values = [read(r["snap"]) for r in rounds]
        if unit == "s":
            metrics[name] = (statistics.median(v * r["factor"]
                                               for v, r in zip(values, rounds)), unit)
        else:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = (values[0], unit)
    if "import_s" in rounds[0]["snap"]:          # cli: measured in every command
        imp = statistics.median(statistics.median(r["snap"]["import_s"]) * r["factor"]
                                for r in rounds)
        mods = rounds[0]["snap"]["modules_loaded"]
    else:
        imp = trace["import_raw_s"] * trace["setup_factor"]
        mods = trace["modules_loaded"]
    metrics["cli.import_s"] = (imp, "s")
    metrics["cli.modules_loaded"] = (mods, "count")
    traced = statistics.median(sum(corrected_items(r)) for r in rounds)
    untraced = sum(corrected_items(trace["untraced"]))
    return metrics, problems, traced / untraced


def write_json(sub: str, name: str, doc):
    d = os.path.join(common.OUT_DIR, sub)
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, name), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(common.SRC, "prochain")):
        raise SystemExit(f"no package to measure: {common.SRC}/prochain is missing")

    warm_up()
    tag = f"{args.workload}-{args.seed}"
    if args.trace:
        run = spawn("trace", args, PROCESS_TIMEOUT_S)
        metrics, problems, overhead = per_layer(run)
        first = run["rounds"][0]["snap"]
        write_json("traces", f"{tag}.json", {
            "workload": args.workload, "seed": args.seed,
            "tracing_overhead": overhead,
            "per_layer": {k: v for k, (v, _) in metrics.items()},
            # by self time, largest first: [name, calls, total_s, self_s]
            "spans": sorted(([k] + v for k, v in first["spans"].items()),
                            key=lambda row: -row[3]),
            "caches": first["caches"]})
        print(f"tracing overhead: traced round / untraced round = {overhead:.3f}")
    else:
        setups = [spawn("setup", args, PROCESS_TIMEOUT_S) for _ in range(SETUP_RUNS)]
        run = spawn("run", args, PROCESS_TIMEOUT_S)
        metrics, raw = end_to_end(setups + [run], run)
        problems = []
        write_json("reports", f"{tag}.json", {
            "workload": args.workload, "seed": args.seed,
            "metrics": {k: v for k, (v, _) in metrics.items()}, "raw": raw})
        print("raw: " + json.dumps(raw, sort_keys=True))
    problems += run["errors"]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and run["n_errors"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
