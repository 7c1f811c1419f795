"""Steadiness report: run each workload N times, one run at a time and each
with another seed, and print for every end-to-end metric the median, the
quartiles, the spread (inter-quartile range over the median) against the
metric's bound, the same for the raw (uncorrected) figure, and the
reference-loop factor.

    python3 bench/steady.py --runs 10 --first-seed 1

The whole table also goes to bench/out/reports/steady-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import common

BENCHMARK = os.path.join(common.ROOT, "BENCHMARK.json")


def one_run(workload: str, seed: int, seconds: int):
    p = subprocess.run([sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True, cwd=common.ROOT)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{p.stderr[-2000:]}")
    lines = p.stdout.splitlines()
    raw = json.loads(next(ln for ln in lines if ln.startswith("raw: "))[5:])
    return raw, json.loads(lines[-1])


def spread(values):
    q1, med, q3 = common.quartiles(values)
    return q1, med, q3, (q3 - q1) / med


def main():
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    table = {}
    for w in [x["name"] for x in bench["workloads"]]:
        runs = [one_run(w, args.first_seed + k, bench["run_seconds"])
                for k in range(args.runs)]
        rows = {}
        print(f"\n{w}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<13}{'median':>11}{'q1':>11}{'q3':>11}{'spread':>8}"
              f"{'bound':>7}{'raw spread':>11}")
        for m in bench["end_to_end"]:
            name = m["name"]
            vals = [r["metrics"][name]["value"] for _, r in runs]
            q1, med, q3, sp = spread(vals)
            raw = [rw[name] for rw, _ in runs if name in rw]
            raw_sp = spread(raw)[3] if len(raw) == len(vals) else None
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp,
                          "bound": m["bound"], "raw_spread": raw_sp, "values": vals}
            print(f"  {name:<13}{med:>11.4g}{q1:>11.4g}{q3:>11.4g}{sp:>8.3f}"
                  f"{m['bound']:>7.2f}" + (f"{raw_sp:>11.3f}" if raw_sp is not None else ""))
        factors = [rw["ref_factor"] for rw, _ in runs]
        shares = {r["failed"] / r["attempted"] for _, r in runs}
        rows["ref_factor"] = {"median": statistics.median(factors),
                              "min": min(factors), "max": max(factors)}
        rows["failed_share"] = sorted(shares)
        rows["correct"] = all(r["correct"] for _, r in runs)
        print(f"  reference-loop factor: median {statistics.median(factors):.3f}, "
              f"range {min(factors):.3f}..{max(factors):.3f}; failed share "
              f"{sorted(shares)}; all correct: {rows['correct']}")
        table[w] = rows
    os.makedirs(os.path.join(common.OUT_DIR, "reports"), exist_ok=True)
    with open(os.path.join(common.OUT_DIR, "reports",
                           f"steady-{args.first_seed}.json"), "w") as fh:
        json.dump(table, fh, indent=1)


if __name__ == "__main__":
    main()
