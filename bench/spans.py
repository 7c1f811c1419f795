"""Spans around the package's public functions, installed from outside.

`install()` wraps every public function of every `prochain.*` module in
each namespace that holds it by name (chain.py keeps its own reference to
`snf`, tstruct.py its own to `cone`, and so on), plus the methods listed in
METHODS on their classes.  A span records calls, total time and self time,
the latter being the span's duration minus the time its child spans cover.
Cache hits and misses are read from `cache_info()`, never counted by hand.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# span name -> (module, class, method)
METHODS = {
    "ahss.spectral_sequence": ("prochain.ahss", "SpectralSequence", "__init__"),
    "ahss.SpectralSequence.derive": ("prochain.ahss", "SpectralSequence", "derive"),
    "ahss.validate_exactness": ("prochain.ahss", "ExactCouple", "validate_exactness"),
    "cli.report_write": ("prochain.cli", "Reporter", "write"),
}
# helpers too small to time without distorting their callers
SKIP_MODULES = ("prochain.errors", "prochain.exactalg.ring", "prochain.selftest")
GROUP_OPS = ("kernel", "image", "subquotient", "express_through",
             "group_from_presentation")


def short(module: str) -> str:
    """prochain.exactalg.matrices -> exactalg, prochain.chain -> chain."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "prochain" or name.startswith("prochain."))]


def lru_caches():
    """Every lru_cache table in the package, once each: name -> wrapper."""
    out = {}
    for mod in package_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, "cache_info") and hasattr(val, "cache_clear"):
                origin = getattr(val, "__wrapped__", val)
                key = f"{short(origin.__module__)}.{origin.__name__}"
                out.setdefault(key, val)
    return out


def clear_caches(caches):
    for c in caches.values():
        c.cache_clear()


class Tracer:
    def __init__(self, caches):
        self.caches = caches
        self.stats = {}          # name -> [calls, total_s, self_s]
        self._stack = []         # child time of every open span
        self.max_bits = 0        # largest SNF transform entry, in bits
        self.max_hom_rank = 0    # largest degree rank of a built hom complex
        self.classified = set()  # distinct maps passed to classify_map
        self._seen_misses = {}

    def reset(self):
        for v in self.stats.values():
            v[0], v[1], v[2] = 0, 0.0, 0.0
        self.max_bits = self.max_hom_rank = 0
        self.classified = set()
        self._seen_misses = {}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = clock() - t
                child = stack.pop()
                stats[0] += 1
                stats[1] += d
                stats[2] += d - child
                if stack:
                    stack[-1] += d
            if after is not None:
                # bookkeeping of the tracer: child time of the caller, so
                # no span counts it as its own
                t = clock()
                after(args, out)
                if stack:
                    stack[-1] += clock() - t
            return out
        span.__traced__ = fn
        return span

    def _missed(self, key) -> bool:
        m = self.caches[key].cache_info().misses
        if m > self._seen_misses.get(key, 0):
            self._seen_misses[key] = m
            return True
        return False

    def _after_snf(self, args, res):
        if self._missed("exactalg.snf"):
            for M in (res.U, res.Uinv, res.V, res.Vinv):
                for x in M.entries:
                    b = x.bit_length() if x >= 0 else (-x).bit_length()
                    if b > self.max_bits:
                        self.max_bits = b

    def _after_hom_complex(self, args, res):
        if self._missed("chain.hom_complex"):
            self.max_hom_rank = max(self.max_hom_rank, max(res.complex.ranks))

    def _after_classify(self, args, res):
        self.classified.add(args[0])

    def install(self):
        after = {"exactalg.snf": self._after_snf,
                 "chain.hom_complex": self._after_hom_complex,
                 "tstruct.classify_map": self._after_classify}
        wrapped = {}
        mods = [m for m in package_modules() if m.__name__ not in SKIP_MODULES]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__traced__", None):
                    continue
                origin = getattr(val, "__wrapped__", val)
                if not (inspect.isfunction(origin)
                        and origin.__module__.startswith("prochain")
                        and origin.__module__ not in SKIP_MODULES):
                    continue
                name = f"{short(origin.__module__)}.{origin.__name__}"
                if id(val) not in wrapped:
                    wrapped[id(val)] = self._wrap(name, val, after.get(name))
                setattr(mod, attr, wrapped[id(val)])
        for name, (modname, cls, meth) in METHODS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            klass = getattr(mod, cls)
            setattr(klass, meth, self._wrap(name, getattr(klass, meth)))

    # -- reading ---------------------------------------------------------------

    def snapshot(self):
        """Counts and times of this round, by span and by cache."""
        caches = {k: c.cache_info() for k, c in self.caches.items()}
        return {
            "spans": {k: list(v) for k, v in self.stats.items() if v[0]},
            "caches": {k: {"hits": i.hits, "misses": i.misses,
                           "entries": i.currsize} for k, i in caches.items()},
            "snf_max_bits": self.max_bits,
            "hom_complex_max_rank": self.max_hom_rank,
            "classify_distinct": len(self.classified),
        }


def _span(snap, name, field):
    v = snap["spans"].get(name, [0, 0.0, 0.0])
    return {"calls": v[0], "total_s": v[1], "self_s": v[2]}[field]


def _cache(snap, name, field):
    return snap["caches"].get(name, {}).get(field, 0)


# per-layer metric -> (unit, reader of one round's snapshot); times are
# scaled by the round's speed factor by the caller
LAYER_METRICS = {
    "exactalg.snf.calls": ("count", lambda s: _span(s, "exactalg.snf", "calls")),
    "exactalg.snf.misses": ("count", lambda s: _cache(s, "exactalg.snf", "misses")),
    "exactalg.snf.self_s": ("s", lambda s: _span(s, "exactalg.snf", "self_s")),
    "exactalg.snf.max_bits": ("bits", lambda s: s["snf_max_bits"]),
    "exactalg.solve.calls": ("count", lambda s: _span(s, "exactalg.solve", "calls")),
    "exactalg.solve.self_s": ("s", lambda s: _span(s, "exactalg.solve", "self_s")),
    "exactalg.groups.self_s": ("s", lambda s: sum(_span(s, f"exactalg.{op}", "self_s")
                                                  for op in GROUP_OPS)),
    "chain.homology_data.calls": ("count", lambda s: _span(s, "chain.homology_data", "calls")),
    "chain.homology_data.misses": ("count", lambda s: _cache(s, "chain.homology_data", "misses")),
    "chain.homology_data.self_s": ("s", lambda s: _span(s, "chain.homology_data", "self_s")),
    "chain.cone.calls": ("count", lambda s: _span(s, "chain.cone", "calls")),
    "chain.cone.self_s": ("s", lambda s: _span(s, "chain.cone", "self_s")),
    "chain.chain_map.calls": ("count", lambda s: _span(s, "chain.chain_map", "calls")),
    "chain.chain_map.self_s": ("s", lambda s: _span(s, "chain.chain_map", "self_s")),
    "chain.make_complex.self_s": ("s", lambda s: _span(s, "chain.make_complex", "self_s")),
    "chain.hom_complex.misses": ("count", lambda s: _cache(s, "chain.hom_complex", "misses")),
    "chain.hom_complex.self_s": ("s", lambda s: _span(s, "chain.hom_complex", "self_s")),
    "chain.hom_complex.max_rank": ("count", lambda s: s["hom_complex_max_rank"]),
    "tstruct.classify_map.calls": ("count", lambda s: _span(s, "tstruct.classify_map", "calls")),
    "tstruct.classify_map.distinct": ("count", lambda s: s["classify_distinct"]),
    "tstruct.factor_n.self_s": ("s", lambda s: _span(s, "tstruct.factor_n", "self_s")),
    "tstruct.find_lift.self_s": ("s", lambda s: _span(s, "tstruct.find_lift", "self_s")),
    "tstruct.truncate_above.misses": ("count", lambda s: _cache(s, "tstruct.truncate_above", "misses")),
    "ahss.spectral_sequence.builds": ("count", lambda s: _span(s, "ahss.spectral_sequence", "calls")),
    "ahss.build_exact_couple.self_s": ("s", lambda s: _span(s, "ahss.build_exact_couple", "self_s")),
    "ahss.validate_exactness.self_s": ("s", lambda s: _span(s, "ahss.validate_exactness", "self_s")),
    "ahss.derive.calls": ("count", lambda s: _span(s, "ahss.SpectralSequence.derive", "calls")),
    "ahss.derive.self_s": ("s", lambda s: _span(s, "ahss.SpectralSequence.derive", "self_s")),
    "pro.colim.calls": ("count", lambda s: _span(s, "pro.colim", "calls")),
    "pro.colim.self_s": ("s", lambda s: _span(s, "pro.colim", "self_s")),
    "pro.lim_lim1.self_s": ("s", lambda s: _span(s, "pro.lim_lim1", "self_s")),
    "pro.is_pro_isomorphism.self_s": ("s", lambda s: _span(s, "pro.is_pro_isomorphism", "self_s")),
    "prohomotopy.is_hstar_weak_equivalence.self_s":
        ("s", lambda s: _span(s, "prohomotopy.is_hstar_weak_equivalence", "self_s")),
    "prohomotopy.postnikov_replacement.self_s":
        ("s", lambda s: _span(s, "prohomotopy.postnikov_replacement", "self_s")),
    "workspace.parse_workspace.self_s": ("s", lambda s: _span(s, "workspace.parse_workspace", "self_s")),
    "cli.report_write.self_s": ("s", lambda s: _span(s, "cli.report_write", "self_s")),
    "cache.entries": ("count", lambda s: sum(c["entries"] for c in s["caches"].values())),
}


def merge(snaps):
    """One round's snapshot from the snapshots of several processes (the
    cli workload): counts and times add up, maxima stay maxima, and cache
    entries are the most any one process held."""
    out = {"spans": {}, "caches": {}, "snf_max_bits": 0,
           "hom_complex_max_rank": 0, "classify_distinct": 0}
    for s in snaps:
        for k, v in s["spans"].items():
            acc = out["spans"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += v[i]
        for k, c in s["caches"].items():
            acc = out["caches"].setdefault(k, {"hits": 0, "misses": 0, "entries": 0})
            acc["hits"] += c["hits"]
            acc["misses"] += c["misses"]
            acc["entries"] = max(acc["entries"], c["entries"])
        out["snf_max_bits"] = max(out["snf_max_bits"], s["snf_max_bits"])
        out["hom_complex_max_rank"] = max(out["hom_complex_max_rank"],
                                          s["hom_complex_max_rank"])
        out["classify_distinct"] += s["classify_distinct"]
    return out
