"""The four workloads: their fixed item lists, and the checks of their
results against computations made apart from the package.

Items call the package through its modules (`tstruct.factor_n`, not a
name imported once), so the traced run, which replaces module attributes,
sees every call.

Every workload builds, from its seed, a list of items in a fixed order with
a fixed make-up (see README.md); the seed only changes the matrices.  An
item's `run` is the timed call into the package.  `check` runs once per
run, after the first round and outside every timed region, and returns a
list of problems; later rounds must reproduce the first round's `digest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import common
import gen
import oracle


def _never(res) -> bool:
    return False


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    digest: Callable[[object], object]
    # an operation that hit a known fault of the package; counted in `failed`
    failed: Callable[[object], bool] = _never


@dataclass
class Workload:
    items: List[Item]
    # given the package's caches, start tracing and return the tracer
    tracer: Callable[[dict], object]
    reference: common.Reference = common.IN_PROCESS


def in_process_tracer(caches):
    import spans
    t = spans.Tracer(caches)
    t.install()
    return t


def _problems(cond: bool, msg: str) -> List[str]:
    return [] if cond else [msg]


def _group_digest(g):
    return tuple(oracle.of_group(g))


# ---------------------------------------------------------------------------
# maps: classification, factor/lift, Postnikov
# ---------------------------------------------------------------------------

N_RANGE = range(-3, 4)
PAIR_ITEMS = 64          # every (into, out) kind combination four times
FACTOR_ITEMS = 30
POSTNIKOV_ITEMS = 16


def _classify_all(maps):
    from prochain import tstruct
    out = []
    for f in maps:
        c = tstruct.classify_map(f)
        out.append((c.max_n_equivalence, c.min_co_n_equivalence,
                    tuple(tstruct.is_n_equivalence(f, n) for n in N_RANGE),
                    tuple(tstruct.is_co_n_equivalence(f, n) for n in N_RANGE)))
    return out


def _check_pair(maps, res) -> List[str]:
    """classify_map against classify_map_by_homology, then monotonicity and
    the six two-out-of-three rules at every n."""
    from prochain.tstruct import classify_map_by_homology
    errs = []
    for name, f, r in zip("f g gf".split(), maps, res):
        c = classify_map_by_homology(f)
        errs += _problems((c.max_n_equivalence, c.min_co_n_equivalence) == r[:2],
                          f"classify({name}) {r[:2]} != by homology "
                          f"{(c.max_n_equivalence, c.min_co_n_equivalence)}")
    names = ("f", "g", "gf")
    eq = {k: dict(zip(N_RANGE, r[2])) for k, r in zip(names, res)}
    co = {k: dict(zip(N_RANGE, r[3])) for k, r in zip(names, res)}
    # outside the table the thresholds decide
    thr = {k: r[:2] for k, r in zip(names, res)}

    def ok(d, k, n):
        if n in d[k]:
            return d[k][n]
        return n <= thr[k][0] if d is eq else n >= thr[k][1]

    for n in N_RANGE:
        for d, kind in ((eq, "n"), (co, "co-n")):
            rules = [(ok(d, "f", n) and ok(d, "g", n), ok(d, "gf", n)),
                     (ok(d, "f", n - 1) and ok(d, "gf", n), ok(d, "g", n)),
                     (ok(d, "g", n + 1) and ok(d, "gf", n), ok(d, "f", n))]
            for k, (pre, post) in enumerate(rules):
                if pre and not post:
                    errs.append(f"two-out-of-three rule {k} ({kind}) fails at n={n}")
        if ok(eq, "f", n) and not ok(eq, "f", n - 1):
            errs.append(f"n-equivalence not monotone at n={n}")
        if ok(co, "f", n) and not ok(co, "f", n + 1):
            errs.append(f"co-n-equivalence not monotone at n={n}")
    return errs


def _comps(f):
    return {n: [list(f.comp(n).row(i)) for i in range(f.comp(n).rows)]
            for n in range(f.lo, max(f.source.hi, f.target.hi) + 1)}


def _same_map(f, g, p) -> bool:
    """Equality of two chain maps, component by component, read as plain
    matrices (degrees missing on one side are zero there)."""
    a, b = _comps(f), _comps(g)
    for n in set(a) | set(b):
        x, y = a.get(n), b.get(n)
        if x is None or y is None:
            z = x if y is None else y
            if any(v % p if p else v for row in z for v in row):
                return False
        elif not gen.mat_equal(x, y, p):
            return False
    return True


def _plain_compose(g, f):
    """g o f computed from the components with the benchmark's own product."""
    from prochain.chain import chain_map
    from prochain.exactalg.matrices import IntMatrix
    fc, gc = _comps(f), _comps(g)
    degs = set(fc) | set(gc)
    out = {}
    for n in degs:
        rows_g = gc.get(n)
        rows_f = fc.get(n)
        if rows_g is None or rows_f is None:
            continue
        inner = f.target.rank(n)
        out[n] = IntMatrix.from_rows(gen.mat_mul(rows_g, rows_f, inner, f.source.rank(n)),
                                     f.source.ring, cols=f.source.rank(n))
    return chain_map(f.source, g.target, out, check=False)


def _check_factor(f, n, res) -> List[str]:
    i, p, h = res
    ring_p = f.source.ring.p
    errs = _problems(_same_map(_plain_compose(p, i), f, ring_p),
                     f"p o i != f (n={n})")
    if h is None:
        return errs + ["find_lift returned no lift on the factorization square"]
    errs += _problems(_same_map(_plain_compose(h, i), i, ring_p),
                      "upper lift triangle h o i != i")
    errs += _problems(_same_map(_plain_compose(p, h), p, ring_p),
                      "lower lift triangle p o h != p")
    return errs


def maps_items(seed: int) -> List[Item]:
    from prochain import prohomotopy, tstruct
    d = gen.Draw("maps", seed)
    items = []
    for k in range(PAIR_ITEMS):
        kinds = (k % 4, (k // 4) % 4)
        specs = gen.composable_pair(d, kinds, total=5)
        A = gen.to_complex(specs[0].A)
        B = gen.to_complex(specs[0].B)
        C = gen.to_complex(specs[1].B)
        f = gen.to_map(specs[0].A, specs[0].B, specs[0].comps, A, B)
        g = gen.to_map(specs[1].A, specs[1].B, specs[1].comps, B, C)
        gf = gen.to_map(specs[2].A, specs[2].B, specs[2].comps, A, C)
        maps = (f, g, gf)
        items.append(Item(
            "classify", lambda maps=maps: _classify_all(maps),
            lambda res, maps=maps: _check_pair(maps, res), tuple))
    for k in range(FACTOR_ITEMS):
        specs = gen.composable_pair(d, (k % 4, 0), lo=-1, hi=1, total=3)
        f = gen.to_map(specs[0].A, specs[0].B, specs[0].comps)
        n = k % 5 - 2

        def run(f=f, n=n):
            i, p = tstruct.factor_n(f, n)
            return i, p, tstruct.find_lift(i, p, i, p, n)
        items.append(Item(
            "factor_lift", run, lambda res, f=f, n=n: _check_factor(f, n, res),
            lambda res: (res[0].target.ranks, res[2] is not None)))
    for k in range(POSTNIKOV_ITEMS):
        X = gen.complex_of_rank(d, 0, -2, 2, 4, shears=0.5)
        T = gen.chain_tower(X, gen.tower_maps(d, X, k % 3, 0))

        def run(T=T):
            Z, canon = prohomotopy.postnikov_replacement(T)
            return prohomotopy.is_hstar_weak_equivalence(canon).verdict
        items.append(Item(
            "postnikov", run,
            lambda res: _problems(res == "weak_equivalence",
                                  f"Postnikov canonical map verdict {res}"),
            lambda res: res))
    return items


# ---------------------------------------------------------------------------
# spectral: convergence checks and the tower spectral sequence
# ---------------------------------------------------------------------------

# total rank -> pairs per round, once over Z and once over F_2
PAIR_MIX = {2: 20, 3: 12, 4: 12, 5: 6}
# half a product of shears per rank: the spectral items are about couples
# and pages, and a lighter change of basis keeps their cost from
# depending on the seed
SPECTRAL_SHEARS = 0.5


def _check_convergence(X, Y, PX, PY, rep) -> List[str]:
    """E2 against the universal coefficient theorem on the known homology,
    and the E-infinity orders and free ranks along every n against
    derived_hom, which is itself checked against the formula."""
    from prochain.ahss import SpectralSequence
    from prochain.chain import derived_hom
    errs = _problems(rep.all_iso, "convergence_check: not all iso")
    ss = SpectralSequence(X, Y)
    pages, _ = ss.run_to_stable()
    c = ss.states[0].couple
    p = X.ring.p
    for (pp, q) in c.slots():
        want = oracle.cohomology(PX.homology, PY.H(q), -pp)
        got = oracle.of_group(pages[0].group_at(pp, q, X.ring))
        if got != want:
            errs.append(f"E2({pp},{q}) = {got} but UCT gives {want}")
    einf = pages[-1]
    for n in range(c.n_lo, c.n_hi + 1):
        total = oracle.of_group(derived_hom(X, Y, n))
        want = oracle.derived_hom(PX.homology, PY.homology, n, p)
        if total != want:
            errs.append(f"[X,Y]_{n} = {total} but the formula gives {want}")
        free, order = 0, 1
        for q in range(c.q_lo, c.q_hi + 1):
            g = oracle.of_group(einf.group_at(n - q, q, X.ring))
            free += g.free
            order *= oracle.torsion_order(g)
        if (free, order) != (total.free, oracle.torsion_order(total)):
            errs.append(f"E-infinity along n={n}: free {free}, torsion order "
                        f"{order}; [X,Y]_{n} is {total}")
    return errs


def _check_pro_ahss(PX, PY, rep) -> List[str]:
    """A ConstantFrom tower: every colimit is the top entry's value."""
    errs = _problems(rep.levelwise_all_iso and rep.comparison_holds,
                     "pro_ahss: comparison does not hold")
    p = PX.p
    for (pp, q), g in rep.e2.items():
        want = oracle.cohomology(PX.homology, PY.H(q), -pp)
        if oracle.of_group(g) != want:
            errs.append(f"pro E2({pp},{q}) = {oracle.of_group(g)}, UCT gives {want}")
    for n, g in rep.abutment.items():
        want = oracle.derived_hom(PX.homology, PY.homology, n, p)
        if oracle.of_group(g) != want:
            errs.append(f"pro abutment n={n} = {oracle.of_group(g)}, want {want}")
    return errs


def _check_times2(rep) -> List[str]:
    errs = _problems(oracle.of_group(rep.e2[(0, 0)]).free == 0
                     and not oracle.of_group(rep.e2[(0, 0)]).torsion,
                     "x2 tower: E2(0,0) is not 0")
    errs += _problems(all(g.is_trivial for g in rep.abutment.values()),
                      "x2 tower: abutment is not 0")
    return errs + _problems(rep.comparison_holds, "x2 tower: comparison fails")


def _report_digest(rep):
    return (rep.lim_ok, rep.lim1_ok, rep.colim_ok, rep.stable_page,
            tuple(sorted(rep.graded_comparison.items())))


def _pro_digest(rep):
    return (tuple(sorted((k, _group_digest(v)) for k, v in rep.e2.items())),
            tuple(sorted((k, _group_digest(v)) for k, v in rep.abutment.items())),
            rep.comparison_holds)


def spectral_items(seed: int) -> List[Item]:
    from prochain import ahss
    d = gen.Draw("spectral", seed)
    items = []
    for p in (0, 2):
        for total, count in PAIR_MIX.items():
            for _ in range(count):
                PX = gen.complex_of_rank(d, p, -1, 1, total, SPECTRAL_SHEARS)
                PY = gen.complex_of_rank(d, p, -1, 1, total, SPECTRAL_SHEARS)
                X, Y = gen.to_complex(PX), gen.to_complex(PY)
                items.append(Item(
                    f"convergence_{'F2' if p else 'Z'}",
                    lambda X=X, Y=Y: ahss.convergence_check(X, Y),
                    lambda rep, X=X, Y=Y, PX=PX, PY=PY:
                        _check_convergence(X, Y, PX, PY, rep),
                    _report_digest))
    for depth in range(3):
        PX = gen.complex_of_rank(d, 2, -1, 1, 3)
        PY = gen.complex_of_rank(d, 2, -1, 1, 3)
        T = gen.chain_tower(PX, gen.tower_maps(d, PX, depth, 2))
        Y = gen.to_complex(PY)
        items.append(Item(
            "pro_ahss_F2", lambda T=T, Y=Y: ahss.pro_ahss(T, Y),
            lambda rep, PX=PX, PY=PY: _check_pro_ahss(PX, PY, rep),
            _pro_digest))
    T2, M2 = gen.times2_tower_of_point()
    items.append(Item("pro_ahss_x2", lambda: ahss.pro_ahss(T2, M2), _check_times2,
                      _pro_digest))
    return items


# ---------------------------------------------------------------------------
# cells: homology and cohomology of spaces
# ---------------------------------------------------------------------------

SPACES = [("torus", 3), ("torus", 4), ("klein", 3), ("klein", 4),
          ("sphere", 4), ("sphere", 5), ("sphere", 6),
          ("rp", 4), ("rp", 5), ("rp", 6),
          ("lens", 3), ("lens", 4), ("lens", 5)]
# three quarters of a product of +-1 shears per rank: over 90 seeds every
# changed-basis Z item stays under 0.6 s, while a full product sends some
# seeds past a minute and 1.5 products send every seed past 15 s
CHANGED_BASIS_SHEARS = 0.75


def _coefficients(p: int):
    """The coefficient groups, built with the group constructor."""
    from prochain.exactalg.groups import FgAbGroup
    from prochain.exactalg.matrices import IntMatrix
    ring = gen.ring_of(p)
    one = IntMatrix.identity(1, ring)
    if p:
        return [("F2", FgAbGroup(ring, (0,), one, one), oracle.ab_free(1, p))]
    return [(f"Z/{m}", FgAbGroup(ring, (m,), one, one), oracle.ab_cyclic(m))
            for m in (2, 3)]


def cells_items(seed: int) -> List[Item]:
    from prochain import chain, tstruct
    rng = gen.Draw("cells", seed).values
    items = []
    for name, size in SPACES:
        ranks, diffs, H = gen.space(name, size)
        top = max(ranks)
        for p in (0, 2):
            known = H if not p else oracle.reduce_homology(H, p)
            base = gen.Plain(p, ranks, diffs, known)
            for basis in ("standard", "changed"):
                P = base if basis == "standard" else \
                    gen.conjugate(base, gen.basis_change(rng, base, CHANGED_BASIS_SHEARS))
                X = gen.to_complex(P)
                tag = f"{name}{size}_{'F2' if p else 'Z'}_{basis}"
                degs = range(0, top + 1)

                def check_h(res, known=known, degs=degs, tag=tag, p=p):
                    want = tuple(tuple(known.get(n, oracle.ab_zero(p))) for n in degs)
                    return _problems(res == want, f"H_*({tag}) = {res}, want {want}")
                items.append(Item(
                    f"homology_{'F2' if p else 'Z'}_{basis}",
                    lambda X=X, degs=degs: tuple(_group_digest(chain.homology(X, n))
                                                 for n in degs),
                    check_h, lambda res: res))
                for cname, A, ab in _coefficients(p):
                    def check_c(res, known=known, degs=degs, ab=ab, tag=tag,
                                cname=cname):
                        # over F_2 the cohomology has the dimension of the
                        # homology; over Z the universal coefficient theorem
                        want = tuple(tuple(oracle.cohomology(known, ab, n))
                                     for n in degs)
                        return _problems(res == want,
                                         f"H^*({tag}; {cname}) = {res}, want {want}")
                    items.append(Item(
                        f"cohomology_{'F2' if p else 'Z'}_{basis}",
                        lambda X=X, A=A, degs=degs: tuple(
                            _group_digest(tstruct.cohomology_with_coefficients(X, A, n))
                            for n in degs),
                        check_c, lambda res: res))
    return items


def build(workload: str, seed: int) -> Workload:
    if workload == "cli":
        import cli_workload
        return cli_workload.build(seed)
    items = {"maps": maps_items, "spectral": spectral_items,
             "cells": cells_items}[workload](seed)
    return Workload(items, in_process_tracer)
