"""One fresh benchmark process: set up a workload, then (mode `run`) time
whole rounds of its items, or (mode `trace`) time one untraced round and
traced rounds after it.  The last line of stdout is a JSON record that
run.py turns into metrics.

    python3 bench/worker.py --mode run --workload maps --seed 1 --seconds 15
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import common

# reference samples taken before and after set-up, to correct its time
SETUP_REF_SAMPLES = 12


def setup(workload: str, seed: int):
    """Import the package and build the inputs; returns the workload and
    the timings (raw seconds)."""
    common.use_source_tree()
    common.ref_loop()
    ref = [common.ref_sample() for _ in range(SETUP_REF_SAMPLES)]
    before = len(sys.modules)
    t0 = time.perf_counter()
    import prochain  # noqa: F401
    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - before
    import workloads
    wl = workloads.build(workload, seed)
    setup_s = time.perf_counter() - t0
    ref += [common.ref_sample() for _ in range(SETUP_REF_SAMPLES)]
    return wl, {"setup_raw_s": setup_s, "import_raw_s": import_s,
                "modules_loaded": modules,
                "setup_factor": common.IN_PROCESS.factor(ref)}


def run_round(items, caches, ref, tracer=None):
    """All items once, from empty caches; per item raw time and speed
    factor, and the round's factor."""
    import spans
    spans.clear_caches(caches)
    if tracer is not None:
        tracer.reset()
    gc.collect()
    meter = common.DriftMeter(ref)
    times, results = [], []
    t0 = time.perf_counter()
    for it in items:
        t = time.perf_counter()
        res = it.run()
        dt = time.perf_counter() - t
        meter.tick(dt)
        times.append(dt)
        results.append(res)
    wall = time.perf_counter() - t0
    meter.close()
    snap = tracer.snapshot() if tracer is not None else None
    return {"times": times, "factors": meter.factors(), "factor": meter.overall(),
            "wall_s": wall, "ref_samples": len(meter.samples), "snap": snap}, results


def rounds_until(seconds: float, first_wall: float, done: float) -> bool:
    """Whole rounds only: start another while it is expected to end no more
    than half a round past the measuring time."""
    return done + first_wall / 2 < seconds


def check_round(items, results, digests, errors, index):
    """Check the first round's results, compare later rounds with it, and
    count the operations that hit a known fault."""
    failed = 0
    for k, (it, res) in enumerate(zip(items, results)):
        if it.failed(res):
            failed += 1
        d = it.digest(res)
        if digests[k] is None:
            errors.extend(f"{it.label}[{k}]: {e}" for e in it.check(res))
            digests[k] = d
        elif d != digests[k]:
            errors.append(f"{it.label}[{k}]: round {index} differs from round 0")
    return failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()

    wl, info = setup(args.workload, args.seed)
    items = wl.items
    out = dict(info, items=len(items))
    if args.mode == "setup":
        print(json.dumps(out))
        return

    import spans
    caches = spans.lru_caches()
    digests = [None] * len(items)
    errors, rounds, failed = [], [], 0
    tracer = None
    if args.mode == "trace":
        base, results = run_round(items, caches, wl.reference)
        failed += check_round(items, results, digests, errors, 0)
        out["untraced"] = base
        tracer = wl.tracer(caches)
    measured = 0.0
    while True:
        r, results = run_round(items, caches, wl.reference, tracer)
        failed += check_round(items, results, digests, errors,
                              len(rounds) + (args.mode == "trace"))
        del results
        rounds.append(r)
        measured += r["wall_s"]
        if not rounds_until(args.seconds, rounds[0]["wall_s"], measured):
            break
    out.update(rounds=rounds, attempted=len(items) * (len(rounds) + (args.mode == "trace")),
               failed=failed, errors=errors[:20], n_errors=len(errors),
               # cli: the largest command it ran; the reference child
               # (refchild.py) stays well below one, see README.md
               peak_rss_mb=common.peak_rss_mb(resource.RUSAGE_CHILDREN
                                              if args.workload == "cli"
                                              else resource.RUSAGE_SELF))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
