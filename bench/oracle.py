"""Finitely generated abelian groups by formula, apart from the package.

An Ab is (p, free rank, elementary divisors): over Z the torsion is kept as
a sorted tuple of prime powers; over F_p (p > 0) a group is a vector space
and only its dimension counts.  Hom, Ext, the universal coefficient theorem
and the Kunneth-type formula for maps between complexes of free modules
are evaluated on these, so the checks need nothing from the package but
the answer it printed.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, NamedTuple, Tuple


class Ab(NamedTuple):
    p: int
    free: int
    torsion: Tuple[int, ...]   # prime powers, sorted; empty over F_p


def _prime_powers(m: int):
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            q = 1
            while m % d == 0:
                m //= d
                q *= d
            out.append(q)
        d += 1
    if m > 1:
        out.append(m)
    return out


def ab_zero(p: int) -> Ab:
    return Ab(p, 0, ())


def ab_free(r: int, p: int = 0) -> Ab:
    return Ab(p, r, ())


def ab_cyclic(m: int) -> Ab:
    """Z/m over Z."""
    return Ab(0, 0, tuple(sorted(_prime_powers(m))))


def ab_sum(a: Ab, b: Ab) -> Ab:
    return Ab(a.p, a.free + b.free, tuple(sorted(a.torsion + b.torsion)))


def _cyclics(a: Ab):
    return [0] * a.free + list(a.torsion)


def _ab_from_cyclics(p: int, orders) -> Ab:
    out = ab_zero(p)
    for m in orders:
        if m == 0:
            out = ab_sum(out, ab_free(1, p))
        elif m > 1:
            out = ab_sum(out, ab_cyclic(m))
    return out


def ab_hom(a: Ab, b: Ab) -> Ab:
    if a.p:
        return ab_free(a.free * b.free, a.p)
    orders = []
    for x in _cyclics(a):
        for y in _cyclics(b):
            if x == 0:
                orders.append(y)           # Hom(Z, B) = B
            elif y != 0:
                orders.append(gcd(x, y))   # Hom(Z/x, Z/y); Hom(Z/x, Z) = 0
    return _ab_from_cyclics(0, orders)


def ab_ext(a: Ab, b: Ab) -> Ab:
    if a.p:
        return ab_zero(a.p)
    orders = []
    for x in a.torsion:
        for y in _cyclics(b):
            orders.append(x if y == 0 else gcd(x, y))
    return _ab_from_cyclics(0, orders)


def ab_tensor_fp(a: Ab, p: int) -> int:
    """dim of A (x) F_p for an integral group A."""
    return a.free + sum(1 for t in a.torsion if t % p == 0)


def reduce_homology(H: Dict[int, Ab], p: int) -> Dict[int, Ab]:
    """H_n(X; F_p) of a complex of free abelian groups from H_n(X; Z)."""
    degs = set(H) | {n + 1 for n in H}
    out = {}
    for n in degs:
        a = H.get(n, ab_zero(0))
        b = H.get(n - 1, ab_zero(0))
        tor = sum(1 for t in b.torsion if t % p == 0)
        dim = ab_tensor_fp(a, p) + tor
        if dim:
            out[n] = ab_free(dim, p)
    return out


def cohomology(H: Dict[int, Ab], A: Ab, deg: int) -> Ab:
    """H^deg(X; A) = Hom(H_deg X, A) + Ext(H_{deg-1} X, A)."""
    z = ab_zero(A.p)
    return ab_sum(ab_hom(H.get(deg, z), A), ab_ext(H.get(deg - 1, z), A))


def derived_hom(HX: Dict[int, Ab], HY: Dict[int, Ab], n: int, p: int) -> Ab:
    """[X, Y]_n = sum_k Hom(H_k X, H_{k+n} Y) + Ext(H_k X, H_{k+n+1} Y)."""
    z = ab_zero(p)
    out = z
    for k, a in HX.items():
        out = ab_sum(out, ab_hom(a, HY.get(k + n, z)))
        out = ab_sum(out, ab_ext(a, HY.get(k + n + 1, z)))
    return out


def of_group(g) -> Ab:
    """The Ab of a group the package returned (read, not computed)."""
    p = g.ring.p
    if p:
        return ab_free(g.free_rank, p)
    out = ab_free(g.free_rank)
    for d in g.invariant_factors:
        out = ab_sum(out, ab_cyclic(d))
    return out


def torsion_order(a: Ab) -> int:
    out = 1
    for t in a.torsion:
        out *= t
    return out


def fmt(a: Ab) -> str:
    """The text the package's reports print for a group: the free part,
    then the invariant factors d_1 | d_2 | ... ."""
    if not a.free and not a.torsion:
        return "0"
    parts = []
    if a.free:
        base = f"F{a.p}" if a.p else "Z"
        parts.append(base if a.free == 1 else f"{base}^{a.free}")
    parts.extend(f"Z/{d}" for d in invariant_factors(a))
    return " + ".join(parts)


def invariant_factors(a: Ab):
    by_prime: Dict[int, list] = {}
    for q in a.torsion:
        by_prime.setdefault(_base_prime(q), []).append(q)
    for qs in by_prime.values():
        qs.sort(reverse=True)
    width = max((len(qs) for qs in by_prime.values()), default=0)
    out = []
    for i in range(width):
        d = 1
        for qs in by_prime.values():
            if i < len(qs):
                d *= qs[i]
        out.append(d)
    return sorted(out)


def _base_prime(q: int) -> int:
    d = 2
    while q % d:
        d += 1
    return d
