"""Independent oracles for the test suite.

`scalar_matmul` is the matrix product as a scalar triple loop over every
entry of the right factor, the oracle of the zero-skipping row kernel of
`IntMatrix.__matmul__`.

`GenericPages` derives the pages of the spectral sequence of a pair (X, Y)
from the filtered complex C = Hom(X, adapted Y), by the general formula of
Romero, Rubio & Sergeraert, "Computing spectral sequences" (J. Symbolic
Comput. 41, 2006), see also McCleary, A User's Guide to Spectral Sequences
(2nd ed., sec. 2.2).  `adapted_complex` writes Y in a basis adapted to its
cycles: in degree m the cycles come first (the kernel columns of the Smith
V of d_m), then the rest of V.  A cycle generator of Y_m has level m and
any other generator level m-1, and F_q C = Hom(X, tau_{>= q} Y) is spanned
by the coordinates whose Y-row has level >= q.  With
Z_s^q = {x in F_q C_n : dx in F_{q+s} C_{n-1}}, page r = s + 1 is

    E^r_{p,q} = Z_s^q / (Z_{s-1}^{q+1} + d Z_{s-1}^{q-s+1}),  n = p + q,

a subquotient of C_n, and d_r is induced by d_n with bidegree (-r, r-1).  It
assumes only that d keeps every F_q, not that it keeps every level, so it
checks the split reading of `prochain.ahss` (E^2 = H^{-p}(X; H_q Y), read on
the coefficient complex of each H_q Y) and does not rest on it.

`coefficient_e2` is the pro-AHSS E2 by its definition, the colimit over
the tower of the coefficient cohomology H^{-p}(X_s; H_q Y) = [X_s, K]_p with
K the coefficient complex of H_q Y; `pro_ahss` reads E2 off its levelwise
E^2 pages instead.

`cell_state_factor` is `tstruct.factor_n` as it was first written: a
sparse builder that keeps every differential and every component of p as
{(i, j): v} dicts, attaches the disks and the killing cells one generator
at a time and rebuilds the dense complex and map after the disks and after
every round.  `factor_n` builds the same generators in the same order as
block matrices.

`pair_order` is the closed form of Hom(Z/a, Z/b), the oracle of the hom
groups, which `hom_group` presents as subquotients.

`cone_below` is `tstruct.truncate_below_free` as it was first written:
T_{<= n} X as the mapping cone of tau_{>= n+1} X -> X, with the cone's
inclusion of X as its anchor.  It has up to twice the rank of the quotient
X / tau_{>= n+1} X that `truncate_below` builds, and the quotient map out of
the cone is a quasi-isomorphism.

`connecting_homology_map` and `cone_les_exact` read the long exact
sequence of the cone, ... -> H_n(Y) -> H_n(C f) -> H_{n-1}(X) -> ..., through
the inclusion and projection that `chain.cone_maps` builds.

`postnikov_step_by_composite` is a structure map of
`prohomotopy.postnikov_replacement` as it was first built: the tower step
T_{<= n+1} Y_{k+1} -> T_{<= n} Y_{k+1} followed by the truncated structure
map T_{<= n} Y_{k+1} -> T_{<= n} Y_k, each with its own quotients.

`pro_iso_by_fillers` is `pro.is_pro_isomorphism` as it was first written:
one filler solve per level t <= T*, at the depth s the docstring of
`is_pro_isomorphism` derives, and the first level with no filler as the
certificate.  `is_pro_isomorphism` decides by the nilpotency of the tail
maps on the kernel and the cokernel and solves only for a false verdict.

`composite_from_identity` is `pro.Tower.composite` as it was first
written: the identity of T_t composed with each structure map in turn.
`composite` starts from structure_map(t) and builds no identity.

`abutment_filtration_by_truncations` is `ahss.abutment_filtration` as it was
first written: F_q as the image of the map [X, tau_{>= q} Y]_n -> [X, Y]_n
that the truncation inclusion induces, with the homology of a hom complex
per truncation.  `abutment_filtration` reads the same subgroups off the
cycles of Hom(X, Y) alone.

`block_tower` draws a tail endomorphism that is a direct sum of blocks
whose lim, Mittag-Leffler verdict and colimit are known in closed form,
in a basis changed by unimodular shears, as the oracle of `pro.lim_lim1`
and `pro.colim`.
"""

import random
from functools import lru_cache
from math import gcd
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from prochain.ahss import Page, Slot, _window
from prochain.chain import (ChainComplex, ChainMap, _hom_blocks, chain_map, cone,
                            cone_maps, derived_hom, hom_complex, homology,
                            homology_data, identity_map, induced_homology_map,
                            induced_map_on_derived_hom, make_complex)
from prochain.errors import ContainmentViolation, PostconditionViolated
from prochain.exactalg.groups import (GroupHom, SubquotientData, cokernel,
                                      exact_at, free_group, group_from_orders,
                                      group_from_presentation, hom, image,
                                      induced_hom, kernel)
from prochain.exactalg.matrices import (IntMatrix, Lattice, block_matrix, hcat,
                                       kernel_lattice, snf)
from prochain.exactalg.ring import ZZ
from prochain.pro import (ProIsoVerdict, ProMap, Tower, _filler_exists,
                          _identity, _levelize, _nilpotency_bound, colim)
from prochain.prohomotopy import derived_hom_system
from prochain.tstruct import (_is_surjective_matrix, coefficient_complex,
                              truncate_above, truncate_below_map,
                              truncate_below_step)


def scalar_matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """A @ B entry by entry; over F_p the sums are taken mod p at the end."""
    m, k, n = A.rows, A.cols, B.cols
    a, b = A.entries, B.entries
    out = [0] * (m * n)
    for i in range(m):
        arow = a[i * k:(i + 1) * k]
        for t in range(k):
            c = arow[t]
            if c == 0:
                continue
            boff = t * n
            ooff = i * n
            for j in range(n):
                out[ooff + j] += c * b[boff + j]
    p = A.ring.p
    return IntMatrix(m, n, tuple(x % p for x in out) if p else tuple(out), A.ring)


@lru_cache(maxsize=64)
def adapted_complex(Y: ChainComplex) -> Tuple[ChainComplex, Mapping[int, tuple]]:
    """Y in a basis adapted to its cycles, with the level of every generator.

    Degree m takes the columns of the Smith V of d_m, the kernel columns
    first.  A cycle generator has level m and any other level m - 1, so
    tau_{>= q} Y is spanned by the generators of level >= q."""
    basis, inverse, levels = {}, {}, {}
    for m in Y.degrees:
        s = snf(Y.diff(m))
        order = list(range(s.rank, Y.rank(m))) + list(range(s.rank))
        basis[m] = s.V.take_columns(order)
        inverse[m] = s.Vinv.take_rows(order)
        levels[m] = (m,) * (Y.rank(m) - s.rank) + (m - 1,) * s.rank
    diffs = {m: inverse[m - 1] @ Y.diff(m) @ basis[m] for m in range(Y.lo + 1, Y.hi + 1)}
    return (make_complex(Y.ring, {m: Y.rank(m) for m in Y.degrees}, diffs),
            MappingProxyType(levels))


def _spread_rows(M: IntMatrix, rows: List[int], size: int) -> IntMatrix:
    """M with its rows placed at `rows` of a size-row matrix, zero elsewhere."""
    k = M.cols
    e = [0] * (size * k)
    for t, i in enumerate(rows):
        e[i * k:(i + 1) * k] = M.row(t)
    return IntMatrix(size, k, tuple(e), M.ring)


def _embed(lattice: Lattice, rows: List[int], size: int) -> Lattice:
    """The lattice with its basis rows and its C columns placed at `rows` of
    size, zero elsewhere; C @ basis is unchanged."""
    C = _spread_rows(lattice.C.transpose(), rows, size).transpose()
    return Lattice(_spread_rows(lattice.basis, rows, size), C, lattice.divisors)


class GenericPage(Page):
    """A page with its differentials of bidegree (-r, r-1) between nonzero
    slots."""

    _fields = Page._fields + ("differentials",)

    def __init__(self, r: int, data: Dict[Slot, SubquotientData],
                 differentials: Dict[Slot, GroupHom]):
        super().__init__(r, data)
        self.differentials = differentials


class GenericPages:
    """The pages of C = Hom(ss.X, adapted ss.Y) under the filtration by the
    levels of its coordinates, over ss.window."""

    def __init__(self, ss):
        X = ss.X
        Ya, ylevels = adapted_complex(ss.Y)
        self.C = hom_complex(X, Ya).complex
        # block k of C_n holds a Y_{k+n} x X_k matrix row by row
        self.levels = {n: tuple(lev for k in _hom_blocks(X, Ya, n)
                                for lev in ylevels[k + n] for _ in range(X.rank(k)))
                       for n in self.C.degrees}
        self.window, self.ring = ss.window, ss.ring
        self._cycles_memo: Dict[tuple, Lattice] = {}

    def cycles(self, n: int, q: int, top: int) -> Lattice:
        """{x in F_q C_n : dx in F_top C_{n-1}}, a lattice in C_n coordinates."""
        key = (n, q, top)
        Z = self._cycles_memo.get(key)
        if Z is None:
            src, tgt = self.levels.get(n, ()), self.levels.get(n - 1, ())
            cols = [j for j, lev in enumerate(src) if lev >= q]
            rows = [i for i, lev in enumerate(tgt) if lev < top]
            Z = self._cycles_memo[key] = _embed(
                kernel_lattice(self.C.diff(n).take_rows(rows).take_columns(cols)),
                cols, self.C.rank(n))
        return Z

    def subquotient(self, n: int, num: Lattice, den: IntMatrix) -> SubquotientData:
        """span(num) / span(den) in C_n, presented by the coordinates of den
        in num."""
        coords = num.coords(den)
        if coords is None:
            raise ContainmentViolation(f"boundaries outside the cycles in degree {n}")
        return SubquotientData(free_group(self.C.rank(n), self.ring),
                               group_from_presentation(coords), num)

    def page(self, r: int) -> GenericPage:
        s, C = r - 1, self.C
        data = {}
        for (p, q) in self.window.slots():
            n = p + q
            if not C.rank(n):
                continue
            den = hcat(self.cycles(n, q + 1, q + s).basis,
                       C.diff(n + 1) @ self.cycles(n + 1, q - s + 1, q).basis)
            sq = self.subquotient(n, self.cycles(n, q, q + s), den)
            if not sq.group.is_trivial:
                data[(p, q)] = sq
        diffs = {}
        for (p, q), src in data.items():
            tgt = data.get((p - r, q + r - 1))
            if tgt is not None:
                diffs[(p, q)] = induced_hom(src, C.diff(p + q), tgt)
        return GenericPage(r, data, diffs)

    def pages(self, r_top: int) -> List[GenericPage]:
        """E^2, ..., E^{r_top}."""
        return [self.page(r) for r in range(2, r_top + 1)]


def coefficient_e2(X, Y, q_lo: int, q_hi: int, n_lo: int, n_hi: int) -> dict:
    """E2 via colimits of coefficient cohomology, over the slots (n - q, q)."""
    e2 = {}
    for q in range(q_lo, q_hi + 1):
        K = coefficient_complex(homology(Y, q))
        for n in range(n_lo, n_hi + 1):
            e2[(n - q, q)] = colim(derived_hom_system(X, K, n - q))
    return e2


class _CellState:
    """Z = X (+) attached cells, with p: Z -> Y, built incrementally.

    X occupies the leading coordinates of every degree and is never touched,
    so the inclusion stays a split mono with free cokernel.  Differentials
    and p-components are stored sparsely and materialized on snapshot.
    """

    def __init__(self, X: ChainComplex, f: ChainMap):
        self.ring = X.ring
        self.X = X
        self.Y = f.target
        self.ranks = {m: X.rank(m) for m in X.degrees}
        self.d_entries = {}  # m -> {(i, j): v} for d: Z_m -> Z_{m-1}
        for m in range(X.lo + 1, X.hi + 1):
            d = X.diff(m)
            self.d_entries[m] = {(i, j): d[i, j] for i in range(d.rows)
                                 for j in range(d.cols) if d[i, j]}
        self.p_entries = {}  # m -> {(i, j): v} for p: Z_m -> Y_m
        for m in range(min(X.lo, self.Y.lo), max(X.hi, self.Y.hi) + 1):
            c = f.comp(m)
            self.p_entries[m] = {(i, j): c[i, j] for i in range(c.rows)
                                 for j in range(c.cols) if c[i, j]}

    def rank(self, m):
        return self.ranks.get(m, 0)

    def attach(self, m, boundary, p_value):
        """New generator e in degree m with d(e) = boundary, p(e) = p_value."""
        j = self.rank(m)
        self.ranks[m] = j + 1
        de = self.d_entries.setdefault(m, {})
        for i, v in enumerate(boundary):
            if v:
                de[(i, j)] = v
        pe = self.p_entries.setdefault(m, {})
        for i, v in enumerate(p_value):
            if v:
                pe[(i, j)] = v

    def snapshot(self):
        ring = self.ring
        ranks = {m: r for m, r in self.ranks.items()}
        lo = min(list(ranks) + [self.Y.lo])
        hi = max(list(ranks) + [self.Y.hi])
        full = {m: ranks.get(m, 0) for m in range(lo, hi + 1)}
        diffs = {}
        for m in range(lo + 1, hi + 1):
            rows, cols = full[m - 1], full[m]
            M = [[0] * cols for _ in range(rows)]
            for (i, j), v in self.d_entries.get(m, {}).items():
                M[i][j] = v
            diffs[m] = IntMatrix.from_rows(M, ring, cols=cols)
        Z = make_complex(ring, full, diffs)
        pc = {}
        for m in range(lo, hi + 1):
            rows, cols = self.Y.rank(m), full[m]
            M = [[0] * cols for _ in range(rows)]
            for (i, j), v in self.p_entries.get(m, {}).items():
                M[i][j] = v
            pc[m] = IntMatrix.from_rows(M, ring, cols=cols) if rows else \
                IntMatrix.zeros(0, cols, ring)
        p = chain_map(Z, self.Y, pc)
        return Z, p


def cell_state_factor(f: ChainMap, n: int) -> Tuple[ChainMap, ChainMap]:
    """(i, p) with f = p o i, built on `_CellState`."""
    X, Y = f.source, f.target
    ring = X.ring
    state = _CellState(X, f)

    for m in range(Y.lo, Y.hi + 1):
        if _is_surjective_matrix(f.comp(m)) or Y.rank(m) == 0:
            continue
        dY = Y.diff(m)
        for g in range(Y.rank(m)):
            # disk pair: v in degree m-1 with p(v) = d(y_g), u in degree m
            yv = [0] * Y.rank(m)
            yv[g] = 1
            v_index = state.rank(m - 1)
            state.attach(m - 1, [0] * state.rank(m - 2), list(dY.column(g)))
            boundary = [0] * state.rank(m - 1)
            boundary[v_index] = 1
            state.attach(m, boundary, yv)

    Z, p = state.snapshot()
    C = cone(p)
    # a round kills H_k(cone p) at the lowest bad degree k >= n + 1 and leaves
    # lower degrees alone, so that degree rises from round to round; the top
    # degree of the cone stays put until a round reaches it, and there H_k is
    # free, so the new cells add no homology above it
    rounds = max(C.hi - max(n + 1, C.lo) + 1, 0) + 1
    for _ in range(rounds):
        bad = [k for k in range(max(n + 1, C.lo), C.hi + 1)
               if not homology(C, k).is_trivial]
        if not bad:
            break
        k = bad[0]
        rY = p.target.rank(k)
        # one cell per homology generator: its cycle (y, x) in Y_k (+) Z_{k-1}
        # becomes a cell e with d(e) = -x and p(e) = y
        for vec in homology_data(C, k).decode_matrix().columns():
            state.attach(k, [-v for v in vec[rY:]], list(vec[:rY]))
        Z, p = state.snapshot()
        C = cone(p)
    else:
        raise PostconditionViolated(
            f"cell attachment did not finish within {rounds} rounds, its bound")

    i = chain_map(X, Z, {m: block_matrix(
        (X.rank(m), Z.rank(m) - X.rank(m)), (X.rank(m),),
        {(0, 0): IntMatrix.identity(X.rank(m), ring)}, ring)
        for m in range(min(X.lo, Z.lo), max(X.hi, Z.hi) + 1)})
    return i, p


def pair_order(a: int, b: int, ring):
    """Order and generator multiplier of Hom(Z/a, Z/b); a, b = 0 mean free."""
    if ring.is_field:
        return 0, 1
    if a == 0:
        return b, 1          # Hom(Z, Z/b) = Z/b, generator 1 -> 1
    if b == 0:
        return 1, 0          # Hom(Z/a, Z) = 0
    g = gcd(a, b)
    return g, b // g         # generated by multiplication with b/g


def abutment_filtration_by_truncations(X: ChainComplex, Y: ChainComplex, n: int):
    """Decreasing filtration F_q = im([X, tau_{>= q} Y]_n -> [X, Y]_n).

    Returns (total group, list of (q, Subgroup)); F exhausts at the bottom
    of the window and vanishes past the top.
    """
    w = _window(X, Y)
    idX = identity_map(X)
    total = derived_hom(X, Y, n)
    out = []
    for q in range(w.q_lo, w.q_hi + 2):
        T, incl = truncate_above(Y, q)
        anchor = induced_map_on_derived_hom(idX, incl, n)
        out.append((q, image(anchor)))
    return total, out


def cone_below(X: ChainComplex, n: int) -> Tuple[ChainComplex, ChainMap]:
    """T_{<= n} X as the cone of tau_{>= n+1} X -> X, with its anchor
    X -> T_{<= n} X."""
    anchor, _ = cone_maps(truncate_above(X, n + 1)[1])
    return anchor.target, anchor


def connecting_homology_map(f: ChainMap, n: int) -> GroupHom:
    """The boundary map H_n(cone f) -> H_{n-1}(source f) of the cone
    sequence, induced by the projection of a cycle to its source component."""
    _, proj = cone_maps(f)
    return induced_hom(homology_data(proj.source, n), proj.comp(n),
                       homology_data(f.source, n - 1))


def cone_les_exact(f: ChainMap) -> bool:
    """Exactness of ... -> H_n(Y) -> H_n(cone f) -> H_{n-1}(X) -> H_{n-1}(Y) -> ...
    at every spot, as subgroup equalities."""
    incl, _ = cone_maps(f)
    C = incl.target
    lo = min(f.source.lo, C.lo) - 1
    hi = max(f.source.hi + 1, C.hi) + 1
    for n in range(lo, hi + 1):
        a = induced_homology_map(f, n)                  # H_n X -> H_n Y
        b = induced_homology_map(incl, n)               # H_n Y -> H_n C
        c = connecting_homology_map(f, n)               # H_n C -> H_{n-1} X
        a1 = induced_homology_map(f, n - 1)             # H_{n-1} X -> H_{n-1} Y
        if not (exact_at(a, b) and exact_at(b, c) and exact_at(c, a1)):
            return False
    return True


def postnikov_step_by_composite(f: ChainMap, n: int) -> ChainMap:
    """T_{<= n+1} S -> T_{<= n} T for f: S -> T, through T_{<= n} S."""
    return truncate_below_map(f, n).compose(truncate_below_step(f.source, n))


def pro_iso_by_fillers(f: ProMap) -> ProIsoVerdict:
    """The pro-isomorphism verdict from one filler solve per level."""
    f = _levelize(f)
    X, Y = f.source, f.target
    T_star = max(X.tail.start, Y.tail.start, f.window)
    s = T_star
    if not (X.tail.is_constant and Y.tail.is_constant):
        f_top = f.comp(T_star)
        s += (_nilpotency_bound(kernel(f_top).group)
              + _nilpotency_bound(cokernel(f_top).group))
    for t in range(T_star + 1):
        if _filler_exists(f, t, s) is None:
            return ProIsoVerdict("false", certificate_level=t)
    return ProIsoVerdict("true", witness_levels=tuple(range(T_star + 1)))


def composite_from_identity(T: Tower, s: int, t: int):
    """The composed map T_s -> T_t, s >= t, folded onto the identity of T_t."""
    m = _identity(T.entry(t))
    for k in range(t, s):
        m = m.compose(T.structure_map(k))
    return m


def _shears(rng, n: int):
    """A unimodular P and its inverse, as row lists, from 2n random shears
    row_i += c row_j (none when n = 1)."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        P[i] = [u + c * v for u, v in zip(P[i], P[j])]
        for row in Pinv:  # times (I - c e_ij) on the right
            row[j] -= c * row[i]
    return IntMatrix.from_rows(P), IntMatrix.from_rows(Pinv)


def block_tower(seed: int):
    """(e, lim, mittag_leffler, colim) for an endomorphism e of a direct sum
    of one to three blocks, written in a basis changed by seeded shears;
    colim is None when the colimit is not finitely generated.

    - Z along a in {0, +-1, +-2, 3}: lim Z for a = +-1 and 0 otherwise;
      ML iff the image chain a^k Z settles, that is iff a is 0 or +-1.
    - Z/p^k along a: finite, so ML; lim Z/p^k when p does not divide a
      (a is invertible) and 0 otherwise (a is nilpotent).
    - Z/2 (+) Z along [[x, y], [0, a]]: the answers of Z/2 along x beside
      those of Z along a; y, which sends the free generator into the
      torsion, changes none of them.

    lim and colim of a sum are the sums.  The colim of an ML block is its
    lim (the stable image); a non-ML block Z along a has colimit Z[1/a]."""
    rng = random.Random(seed)
    orders, blocks, lim, ml = [], [], [], True
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("Z", "Z/p^k", "Z/2+Z"))
        if kind == "Z/p^k":
            q = rng.choice((2, 3)) ** rng.randint(1, 2)
            a = rng.randrange(q)
            block, rows = (q,), [[a]]
            lim += [q] if gcd(a, q) == 1 else []
        else:
            a = rng.choice((0, 1, -1, 2, -2, 3))
            block, rows = (0,), [[a]]
            if kind == "Z/2+Z":
                x = rng.randrange(2)
                block, rows = (2, 0), [[x, rng.randrange(2)], [0, a]]
                lim += [2] if x else []
            lim += [0] if abs(a) == 1 else []
            ml = ml and abs(a) <= 1
        orders += block
        blocks.append(rows)
    n, sizes = len(orders), tuple(len(b) for b in blocks)
    M = block_matrix(sizes, sizes, {(k, k): IntMatrix.from_rows(b)
                                    for k, b in enumerate(blocks)}, ZZ)
    relations = IntMatrix.from_columns([[d if i == j else 0 for i in range(n)]
                                        for j, d in enumerate(orders) if d], n)
    P, Pinv = _shears(rng, n)
    A = group_from_presentation(P @ relations)
    e = hom(A, A, A.to_canonical @ P @ M @ Pinv @ A.from_canonical)
    expected = group_from_orders(lim)
    return e, expected, ml, expected if ml else None
