"""Seeded inputs with known answers, built from explicit integer matrices.

Nothing here calls an algorithm of the package: complexes and maps are
assembled as plain lists of rows, multiplied with the small helpers below,
and handed to the constructors (IntMatrix.from_rows, make_complex,
chain_map, Tower, level_map) only at the end.  A later change to an
algorithm of the package therefore cannot change what is measured.

A complex is described by its summands before a change of basis: spheres
S(n) (one generator in degree n, homology Z there) and disks D(n, m) (a
generator in degree n with boundary m times a generator in degree n-1,
homology Z/|m| in degree n-1).  The homology of the description is known;
a seeded unimodular change of basis in every degree hides the block shape
without changing it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Tuple

from oracle import Ab, ab_cyclic, ab_free, ab_sum, ab_zero


# ---------------------------------------------------------------------------
# Plain integer matrices (lists of rows)
# ---------------------------------------------------------------------------

def zeros(m: int, n: int) -> List[List[int]]:
    return [[0] * n for _ in range(m)]


def ident(n: int) -> List[List[int]]:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a, b, inner: int, n: int) -> List[List[int]]:
    """a (m x inner) times b (inner x n); the sizes are passed because a
    matrix with no rows does not show its width."""
    out = zeros(len(a), n)
    for i, row in enumerate(a):
        acc = out[i]
        for t in range(inner):
            c = row[t]
            if c:
                brow = b[t]
                for j in range(n):
                    acc[j] += c * brow[j]
    return out


def mat_add(a, b) -> List[List[int]]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_equal(a, b, p: int) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if (x - y) % p if p else x != y:
                return False
    return True


def unimodular(rng: random.Random, n: int, shears: int):
    """A product of `shears` elementary row shears with coefficient +-1,
    and its exact inverse."""
    U, Ui = ident(n), ident(n)
    if n < 2:
        return U, Ui
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for r in Ui:
            r[j] -= c * r[i]
    return U, Ui


# ---------------------------------------------------------------------------
# Complexes and maps as plain data
# ---------------------------------------------------------------------------

@dataclass
class Plain:
    """A complex as degree -> rank and degree -> rows of d_n: C_n -> C_{n-1},
    with its homology as known from the construction."""

    p: int
    ranks: Dict[int, int]
    diffs: Dict[int, list]
    homology: Dict[int, Ab] = field(default_factory=dict)
    summands: list = field(default_factory=list)

    def rank(self, n: int) -> int:
        return self.ranks.get(n, 0)

    def diff(self, n: int):
        d = self.diffs.get(n)
        return d if d is not None else zeros(self.rank(n - 1), self.rank(n))

    def degrees(self):
        live = [n for n, r in self.ranks.items() if r]
        return range(min(live), max(live) + 1) if live else range(0)

    def H(self, n: int) -> Ab:
        return self.homology.get(n, ab_zero(self.p))

    def diff_rank(self, n: int) -> int:
        """Rank of d_n, read off the summand description."""
        p = self.p
        return sum(1 for kind, k, m in self.summands
                   if kind == "D" and k == n and (m % p if p else m))


# Z in degree 0, and the Moore complex M2: Z -2-> Z in degrees 1, 0
Z0 = Plain(0, {0: 1}, {}, {0: ab_free(1, 0)})
M2 = Plain(0, {0: 1, 1: 1}, {1: [[2]]}, {0: ab_cyclic(2)})


def plain_from_summands(p: int, summands) -> Tuple[Plain, Dict[int, list]]:
    """The block complex of a summand list, and for every summand index the
    (degree, position) of its generators."""
    ranks: Dict[int, int] = {}
    slots = []
    for kind, n, m in summands:
        if kind == "S":
            slots.append([(n, ranks.get(n, 0))])
            ranks[n] = ranks.get(n, 0) + 1
        else:
            top = (n, ranks.get(n, 0))
            ranks[n] = ranks.get(n, 0) + 1
            bot = (n - 1, ranks.get(n - 1, 0))
            ranks[n - 1] = ranks.get(n - 1, 0) + 1
            slots.append([top, bot])
    diffs = {}
    for n in ranks:
        if n - 1 in ranks:
            diffs[n] = zeros(ranks[n - 1], ranks[n])
    homology: Dict[int, Ab] = {}
    for (kind, n, m), sl in zip(summands, slots):
        if kind == "S":
            homology[n] = ab_sum(homology.get(n, ab_zero(p)), ab_free(1, p))
            continue
        (_, j), (_, i) = sl
        diffs[n][i][j] = m
        if p:
            if m % p == 0:
                for k in (n, n - 1):
                    homology[k] = ab_sum(homology.get(k, ab_zero(p)), ab_free(1, p))
        elif abs(m) > 1:
            homology[n - 1] = ab_sum(homology.get(n - 1, ab_zero(p)),
                                     ab_cyclic(abs(m)))
    return Plain(p, ranks, diffs, homology, list(summands)), slots


def conjugate(X: Plain, U: Dict[int, tuple]) -> Plain:
    """The same complex in the basis given by U[n] = (U_n, U_n^-1):
    d'_n = U_{n-1} d_n U_n^-1."""
    diffs = {}
    for n, d in X.diffs.items():
        Ulo = U[n - 1][0]
        Uhi_inv = U[n][1]
        diffs[n] = mat_mul(mat_mul(Ulo, d, X.rank(n - 1), X.rank(n)), Uhi_inv,
                           X.rank(n), X.rank(n))
    return Plain(X.p, dict(X.ranks), diffs, dict(X.homology), X.summands)


def basis_change(rng: random.Random, X: Plain, shears_per_rank: float):
    return {n: unimodular(rng, X.rank(n), int(round(shears_per_rank * X.rank(n))))
            for n in X.ranks}


def conj_map(comps: Dict[int, list], UA, UB, A: Plain, B: Plain) -> Dict[int, list]:
    """f'_n = UB_n f_n UA_n^-1 for f: A -> B."""
    none = ([], [])  # the basis of a zero module
    out = {}
    for n, c in comps.items():
        out[n] = mat_mul(mat_mul(UB.get(n, none)[0], c, B.rank(n), A.rank(n)),
                         UA.get(n, none)[1], A.rank(n), A.rank(n))
    return out


def map_degrees(A: Plain, B: Plain):
    degs = [n for n in set(A.ranks) | set(B.ranks) if A.rank(n) or B.rank(n)]
    return range(min(degs), max(degs) + 1) if degs else range(0)


def full_comps(A: Plain, B: Plain, comps: Dict[int, list]) -> Dict[int, list]:
    return {n: comps.get(n) if comps.get(n) is not None else zeros(B.rank(n), A.rank(n))
            for n in map_degrees(A, B)}


def compose(g: Dict[int, list], f: Dict[int, list], A: Plain, B: Plain, C: Plain):
    """(g o f)_n for f: A -> B, g: B -> C."""
    f = full_comps(A, B, f)
    g = full_comps(B, C, g)
    degs = set(map_degrees(A, B)) | set(map_degrees(B, C))
    out = {}
    for n in degs:
        fn = f.get(n, zeros(B.rank(n), A.rank(n)))
        gn = g.get(n, zeros(C.rank(n), B.rank(n)))
        out[n] = mat_mul(gn, fn, B.rank(n), A.rank(n))
    return out


def null_homotopic(rng: random.Random, A: Plain, B: Plain) -> Dict[int, list]:
    """d s + s d for a random degree-one map s: A_n -> B_{n+1}."""
    degs = map_degrees(A, B)
    s = {n: [[rng.randint(-1, 1) for _ in range(A.rank(n))]
             for _ in range(B.rank(n + 1))]
         for n in range(degs.start - 1, degs.stop)}
    out = {}
    for n in degs:
        left = mat_mul(B.diff(n + 1), s[n], B.rank(n + 1), A.rank(n))
        right = mat_mul(s[n - 1], A.diff(n), A.rank(n - 1), A.rank(n))
        out[n] = mat_add(left, right)
    return out


# ---------------------------------------------------------------------------
# Conversion to the package's objects (constructors only)
# ---------------------------------------------------------------------------

def ring_of(p: int):
    from prochain.exactalg.ring import RingTag
    return RingTag(p)


def to_complex(X: Plain):
    from prochain.chain import make_complex
    from prochain.exactalg.matrices import IntMatrix
    ring = ring_of(X.p)
    diffs = {n: IntMatrix.from_rows(d, ring, cols=X.rank(n))
             for n, d in X.diffs.items()}
    return make_complex(ring, dict(X.ranks), diffs)


def to_map(A: Plain, B: Plain, comps: Dict[int, list], CA=None, CB=None):
    from prochain.chain import chain_map
    from prochain.exactalg.matrices import IntMatrix
    ring = ring_of(A.p)
    CA = CA if CA is not None else to_complex(A)
    CB = CB if CB is not None else to_complex(B)
    mats = {n: IntMatrix.from_rows(c, ring, cols=A.rank(n))
            for n, c in full_comps(A, B, comps).items()}
    return chain_map(CA, CB, mats)


# ---------------------------------------------------------------------------
# Complexes of target rank (spectral, cli)
# ---------------------------------------------------------------------------

class Draw:
    """Two random streams.  `layout` fixes the shape of every input (which
    summands in which degrees, multiplier sizes, kinds of maps) and is the
    same for every seed, so every run does the same kind of work; `values`
    draws what the seed changes: signs, null-homotopic perturbations and
    changes of basis."""

    def __init__(self, workload: str, seed: int):
        self.layout = random.Random(f"{workload}-layout")
        self.values = random.Random(f"{workload}-{seed}")


def summands_of_rank(d: Draw, lo: int, hi: int, total: int, multipliers) -> list:
    """Spheres and disks in degrees [lo, hi] with exactly `total` generators."""
    out = []
    left = total
    while left > 0:
        if left >= 2 and hi > lo and d.layout.random() < 0.5:
            n = d.layout.randint(lo + 1, hi)
            m = d.layout.choice(multipliers) * d.values.choice((1, -1))
            out.append(("D", n, m))
            left -= 2
        else:
            out.append(("S", d.layout.randint(lo, hi), 0))
            left -= 1
    return out


def multipliers(p: int):
    return (2, 3, 4, 6, 1) if p == 0 else (1, 2)


def complex_of_rank(d: Draw, p: int, lo: int, hi: int, total: int,
                    shears: float = 1.0) -> Plain:
    X, _ = plain_from_summands(p, summands_of_rank(d, lo, hi, total, multipliers(p)))
    return conjugate(X, basis_change(d.values, X, shears))


# ---------------------------------------------------------------------------
# Composable pairs (maps)
# ---------------------------------------------------------------------------

@dataclass
class MapSpec:
    A: Plain
    B: Plain
    comps: Dict[int, list]


def scalar(X: Plain, c: int) -> Dict[int, list]:
    """Multiplication by c on X."""
    return {n: [[c if i == j else 0 for j in range(X.rank(n))]
                for i in range(X.rank(n))] for n in X.ranks}


def _block_select(A_slots, B_slots, pairs, A: Plain, B: Plain):
    """A map sending generator slots of A to slots of B (same degree)."""
    comps = {n: zeros(B.rank(n), A.rank(n)) for n in map_degrees(A, B)}
    for a, b in pairs:
        for (n, j), (_, i) in zip(A_slots[a], B_slots[b]):
            comps[n][i][j] = 1
    return comps


def _pair_mults(p: int):
    return (2, 3, 1) if p == 0 else (1, 2)


def _block_map(d: Draw, p: int, lo: int, hi: int, Bsum, kind: int, into: bool):
    """A block map of one of four kinds between the block complex B of
    `Bsum` and another block complex O: f: O -> B when `into`, else
    g: B -> O."""
    B, Bsl = plain_from_summands(p, Bsum)
    if kind == 0:       # multiplication by c
        return B, B, scalar(B, d.layout.choice((0, 1, 2, 3, 6)))
    if kind == 1:
        # inclusion of the summands with homology in degrees >= k (into), or
        # projection onto the summands living in degrees <= k (out)
        k = d.layout.randint(lo, hi)
        idx = [i for i, (kd, n, m) in enumerate(Bsum)
               if ((n if kd == "S" else n - 1) >= k if into else n <= k)]
        O, Osl = plain_from_summands(p, [Bsum[i] for i in idx])
        pairs = [(i, t) for t, i in enumerate(idx)]    # (slot of B, slot of O)
    else:
        # kind 2: projection B (+) W -> B (into) or inclusion B -> B (+) W
        # (out); kind 3: the zero map from or to W
        W = summands_of_rank(d, lo, hi, d.layout.randint(1, 3), _pair_mults(p))
        O, Osl = plain_from_summands(p, Bsum + W if kind == 2 else W)
        pairs = [(i, i) for i in range(len(Bsum))] if kind == 2 else []
    if into:
        return O, B, _block_select(Osl, Bsl, [(o, b) for b, o in pairs], O, B)
    return B, O, _block_select(Bsl, Osl, pairs, B, O)


def composable_pair(d: Draw, kinds: Tuple[int, int], p: int = 0,
                    lo: int = -2, hi: int = 2, total: int = 5):
    """(f: A -> B, g: B -> C, g o f) as MapSpecs: block maps of the given
    kinds, perturbed by null-homotopic maps, in seeded bases."""
    Bsum = summands_of_rank(d, lo, hi, total, _pair_mults(p))
    A, B, f = _block_map(d, p, lo, hi, Bsum, kinds[0], into=True)
    _, C, g = _block_map(d, p, lo, hi, Bsum, kinds[1], into=False)
    if d.layout.random() < 0.5:
        f = mat_sum_maps(full_comps(A, B, f), null_homotopic(d.values, A, B))
    if d.layout.random() < 0.5:
        g = mat_sum_maps(full_comps(B, C, g), null_homotopic(d.values, B, C))
    UA, UB, UC = (basis_change(d.values, X, 0.5) for X in (A, B, C))
    fc = conj_map(full_comps(A, B, f), UA, UB, A, B)
    gc = conj_map(full_comps(B, C, g), UB, UC, B, C)
    A2, B2c, C2 = conjugate(A, UA), conjugate(B, UB), conjugate(C, UC)
    gf = compose(gc, fc, A2, B2c, C2)
    return (MapSpec(A2, B2c, fc), MapSpec(B2c, C2, gc), MapSpec(A2, C2, gf))


def mat_sum_maps(f: Dict[int, list], g: Dict[int, list]) -> Dict[int, list]:
    return {n: mat_add(f[n], g[n]) if n in g else f[n] for n in f}


# ---------------------------------------------------------------------------
# Towers
# ---------------------------------------------------------------------------

def tower_maps(d: Draw, X: Plain, depth: int, p: int):
    """Structure maps X -> X for a ConstantFrom(depth) tower over X:
    multiplication by c, a null-homotopic map, or the identity."""
    maps = []
    for _ in range(depth):
        kind = d.layout.randrange(3)
        if kind == 0:
            maps.append(scalar(X, d.layout.choice((0, 1, 2, 3) if p == 0 else (0, 1))))
        elif kind == 1:
            maps.append(null_homotopic(d.values, X, X))
        else:
            maps.append(scalar(X, 1))
    return maps


def chain_tower(X: Plain, maps):
    """The tower X <- X <- ... <- X with the given structure maps and a
    constant tail from the last entry."""
    from prochain.pro import TailPolicy, Tower
    CX = to_complex(X)
    structure = tuple(to_map(X, X, m, CX, CX) for m in maps)
    return Tower((CX,) * (len(maps) + 1), structure,
                 TailPolicy.constant_from(len(maps)))


def times2_tower_of_point():
    """Z[0] <-2- Z[0] <-2- ... (a repeat tail) and the Moore complex M2,
    as the package's objects."""
    from prochain.pro import TailPolicy, Tower
    CZ0 = to_complex(Z0)
    endo = to_map(Z0, Z0, {0: [[2]]}, CZ0, CZ0)
    return Tower((CZ0,), (), TailPolicy.repeat_from(0, endo)), to_complex(M2)


# ---------------------------------------------------------------------------
# Spaces (cells)
# ---------------------------------------------------------------------------

def _simplicial(p: int, simplices_by_dim: Dict[int, list]) -> Dict[int, list]:
    """Boundary matrices of an ordered simplicial complex; each simplex is a
    vertex tuple whose order fixes its orientation."""
    index = {d: {frozenset(s): (i, s) for i, s in enumerate(ss)}
             for d, ss in simplices_by_dim.items()}
    diffs = {}
    for d, ss in simplices_by_dim.items():
        if d == 0:
            continue
        rows = zeros(len(simplices_by_dim[d - 1]), len(ss))
        for j, s in enumerate(ss):
            for k in range(len(s)):
                face = s[:k] + s[k + 1:]
                i, stored = index[d - 1][frozenset(face)]
                sign = (-1) ** k * _orientation(face, stored)
                rows[i][j] += sign
        diffs[d] = rows
    return diffs


def _orientation(face, stored) -> int:
    """Sign of the permutation taking `stored` to `face`."""
    perm = [stored.index(v) for v in face]
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def _grid_surface(k: int, flip: bool):
    """k x k grid on the square with (i, j) ~ (i, j + k) and (i + k, j) ~
    (i, j) (torus) or (i + k, j) ~ (i, -j) (Klein bottle); each cell is cut
    into two triangles along its diagonal."""
    def vert(i, j):
        if i >= k:
            i -= k
            if flip:
                j = -j
        return (i, j % k)

    tris = []
    for i in range(k):
        for j in range(k):
            a, b = vert(i, j), vert(i + 1, j)
            c, d = vert(i, j + 1), vert(i + 1, j + 1)
            tris.append((a, b, d))
            tris.append((a, c, d))
    edges = {}
    for t in tris:
        for u, v in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])):
            edges.setdefault(frozenset((u, v)), (u, v))
    verts = sorted({v for t in tris for v in t})
    return {0: [(v,) for v in verts], 1: list(edges.values()), 2: tris}


def space(name: str, size: int):
    """(ranks, diffs, integral homology) of one of the cellular models."""
    if name in ("torus", "klein"):
        simp = _grid_surface(size, name == "klein")
        diffs = _simplicial(0, simp)
        ranks = {d: len(s) for d, s in simp.items()}
        if name == "torus":
            H = {0: ab_free(1, 0), 1: ab_free(2, 0), 2: ab_free(1, 0)}
        else:
            H = {0: ab_free(1, 0), 1: ab_sum(ab_free(1, 0), ab_cyclic(2))}
        return ranks, diffs, H
    if name == "sphere":        # boundary of the size-simplex, S^(size-1)
        verts = range(size + 1)
        simp = {d: list(combinations(verts, d + 1)) for d in range(size)}
        ranks = {d: len(s) for d, s in simp.items()}
        H = {0: ab_free(1, 0)}
        H[size - 1] = ab_sum(H.get(size - 1, ab_zero(0)), ab_free(1, 0))
        return ranks, _simplicial(0, simp), H
    if name == "rp":            # RP^size, one cell per dimension
        ranks = {d: 1 for d in range(size + 1)}
        diffs = {d: [[1 + (-1) ** d]] for d in range(1, size + 1)}
        H = {0: ab_free(1, 0)}
        for d in range(1, size + 1):
            if d % 2 == 1:
                H[d] = ab_free(1, 0) if d == size else ab_cyclic(2)
        return ranks, diffs, H
    if name == "lens":          # L(size, 1)
        ranks = {d: 1 for d in range(4)}
        diffs = {1: [[0]], 2: [[size]], 3: [[0]]}
        H = {0: ab_free(1, 0), 1: ab_cyclic(size), 3: ab_free(1, 0)}
        return ranks, diffs, H
    raise ValueError(name)
