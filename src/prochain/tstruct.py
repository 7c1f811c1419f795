"""The standard truncation calculus on bounded complexes, made executable.

tau_{>= n} is the kernel subcomplex (free over a PID, so complexes stay
free); the below-truncation T_{<= n} is the quotient by tau_{>= n+1}, free
over Z or F_p and no larger than the complex, and the Smith form of d_{n+1}
gives its anchor, its tower steps and its action on maps.  Classification of
maps into n-equivalences and co-n-equivalences reads off the homology
support of the mapping cone.  Factorization attaches free generators
(surjectivity disks anywhere, homology-killing cells in degrees >= n+1),
reading the homology of the cone of p after each round.  Both read the cone
as a complex alone; only the layers build its inclusion and projection.
Those reads need homology only up to isomorphism and ask `homology`, which
reads it off Smith diagonals; the cycles of the cone that factorization
attaches cells to, and the maps induced on homology, come from the
subquotients of `homology_data`.
Lifting corrects a degreewise candidate by one solve in Hom(coker i, ker p),
which succeeds because [coker i, ker p]_{-1} vanishes: coker i has homology
in degrees >= n+1 and ker p in degrees <= n-1.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple

from . import chain
from .chain import (ChainComplex, ChainMap, _hom_blocks, chain_map,
                    coefficient_complex, cone, cone_maps, hom_complex,
                    homology, homology_data, homology_support, identity_map,
                    induced_homology_map, induced_map_on_derived_hom,
                    make_complex, minimal_model, shift, zero_complex, zero_map)
from .errors import PostconditionViolated, PreconditionViolated
from .exactalg.groups import (FgAbGroup, GroupHom, is_injective,
                              is_isomorphism, is_surjective)
from .exactalg.matrices import (IntMatrix, block_matrix, hcat, kernel_lattice,
                                snf, solve)
from .value import Value, store

INF = math.inf
NEG_INF = -math.inf


# ---------------------------------------------------------------------------
# Truncations
# ---------------------------------------------------------------------------

# bounds at twice or more the most distinct arguments one benchmark round
# passes (95 truncations in `spectral`)
TRUNCATION_CACHE_SIZE = 1024


@lru_cache(maxsize=TRUNCATION_CACHE_SIZE)
def truncate_above(X: ChainComplex, n: int) -> Tuple[ChainComplex, ChainMap]:
    """tau_{>= n} X as a subcomplex, with its inclusion into X.

    Degrees above n are copied; degree n becomes ker(d_n), free over a PID;
    degrees below vanish.  H_i agrees with X for i >= n and vanishes below.
    """
    ring = X.ring
    if n <= X.lo:
        return X, identity_map(X)
    if n > X.hi:
        Z = zero_complex(ring)
        return Z, zero_map(Z, X)
    cycles = kernel_lattice(X.diff(n))
    ranks = {m: X.rank(m) for m in range(n + 1, X.hi + 1)}
    ranks[n] = cycles.basis.cols
    diffs = {m: X.diff(m) for m in range(n + 2, X.hi + 1)}
    if X.rank(n + 1):
        into_kernel = cycles.coords(X.diff(n + 1))
        if into_kernel is None:
            raise PostconditionViolated(f"im d_{n + 1} is not inside ker d_{n}")
        diffs[n + 1] = into_kernel
    T = make_complex(ring, ranks, diffs)
    comps = {m: IntMatrix.identity(X.rank(m), ring) for m in range(n + 1, X.hi + 1)}
    comps[n] = cycles.basis
    incl = chain_map(T, X, comps)
    return T, incl


def truncation_step(X: ChainComplex, n: int) -> ChainMap:
    """The inclusion tau_{>= n+1} X -> tau_{>= n} X.  Above n both inclusions
    into X are identities on tau_{>= n} X, so its components are those of
    tau_{>= n+1} X -> X there; at n and below its source is zero."""
    Tn1, incl1 = truncate_above(X, n + 1)
    Tn, _ = truncate_above(X, n)
    return chain_map(Tn1, Tn, {m: incl1.comp(m) for m in range(n + 1, X.hi + 1)})


def truncate_below(X: ChainComplex, n: int) -> ChainComplex:
    """T_{<= n} X as the quotient X / tau_{>= n+1} X: X up to degree n and,
    in degree n + 1, X_{n+1} / ker d_{n+1} on the complement of the cycles
    in the Smith `coimage` of d_{n+1}, with d_{n+1} on it.  It is 0 for
    n < X.lo and X for n >= X.hi.  Over Z or F_p the quotient is free, and
    H_m agrees with X for m <= n and vanishes above."""
    if n < X.lo:
        return zero_complex(X.ring)
    if n >= X.hi:
        return X
    s = snf(X.diff(n + 1))
    ranks = {m: X.rank(m) for m in range(X.lo, n + 1)}
    ranks[n + 1] = s.rank
    diffs = {m: X.diff(m) for m in range(X.lo + 1, n + 1)}
    diffs[n + 1] = X.diff(n + 1) @ s.coimage[0]
    return make_complex(X.ring, ranks, diffs)


def truncate_below_free(X: ChainComplex, n: int) -> Tuple[ChainComplex, ChainMap]:
    """T_{<= n} X with its anchor X -> T_{<= n} X, the quotient map: the
    identity up to degree n and, in degree n + 1, the projection of the
    Smith `coimage` of d_{n+1}, which kills the cycles."""
    Q = truncate_below(X, n)
    comps = {m: IntMatrix.identity(X.rank(m), X.ring)
             for m in range(X.lo, min(n, X.hi) + 1)}
    comps[n + 1] = snf(X.diff(n + 1)).coimage[1]
    return Q, chain_map(X, Q, comps)


def truncate_below_step(X: ChainComplex, n: int) -> ChainMap:
    """T_{<= n+1} X -> T_{<= n} X: the anchor X -> T_{<= n} X read on
    T_{<= n+1} X, which is X up to degree n + 1."""
    Q, anchor = truncate_below_free(X, n)
    return chain_map(truncate_below(X, n + 1), Q,
                     {m: anchor.comp(m) for m in range(X.lo, min(n + 1, X.hi) + 1)})


def truncate_below_map(f: ChainMap, n: int) -> ChainMap:
    """T_{<= n} f: f up to degree n and, in degree n + 1, f on the
    complement in the source's `coimage` of d_{n+1}, read through the
    projection of the target's.  f keeps cycles and the target's anchor
    kills them, so T_{<= n} f o anchor = anchor o f."""
    S, T = f.source, f.target
    comps = {m: f.comp(m) for m in range(f.lo, min(n, max(S.hi, T.hi)) + 1)}
    comps[n + 1] = (snf(T.diff(n + 1)).coimage[1] @ f.comp(n + 1)
                    @ snf(S.diff(n + 1)).coimage[0])
    return chain_map(truncate_below(S, n), truncate_below(T, n), comps)


class TruncationTower(Value):
    """All truncations of one complex with strictly commuting structure maps."""

    _fields = ("base", "n_lo", "n_hi", "below", "above", "maps_below", "maps_above",
               "anchors_below", "anchors_above")

    def __init__(self, base: ChainComplex, n_lo: int, n_hi: int, below: dict,
                 above: dict, maps_below: dict, maps_above: dict,
                 anchors_below: dict, anchors_above: dict):
        store(self, "base", base)
        store(self, "n_lo", n_lo)
        store(self, "n_hi", n_hi)
        store(self, "below", below)                  # n -> T_{<= n} X (quotient model)
        store(self, "above", above)                  # n -> tau_{>= n} X (kernel subcomplex)
        store(self, "maps_below", maps_below)        # n -> (T_{<= n} X -> T_{<= n-1} X)
        store(self, "maps_above", maps_above)        # n -> (tau_{>= n+1} X -> tau_{>= n} X)
        store(self, "anchors_below", anchors_below)  # n -> (X -> T_{<= n} X)
        store(self, "anchors_above", anchors_above)  # n -> (tau_{>= n} X -> X)


def truncation_tower(X: ChainComplex) -> TruncationTower:
    """Towers indexed over [lo(X)-1, hi(X)+1]; outside, truncation is X or 0."""
    n_lo, n_hi = X.lo - 1, X.hi + 1
    above = {}
    anchors_above = {}
    for n in range(n_lo, n_hi + 2):
        T, incl = truncate_above(X, n)
        above[n] = T
        anchors_above[n] = incl
    maps_above = {n: truncation_step(X, n) for n in range(n_lo, n_hi + 1)}
    below = {}
    anchors_below = {}
    for n in range(n_lo, n_hi + 1):
        C, anchor = truncate_below_free(X, n)
        below[n] = C
        anchors_below[n] = anchor
    maps_below = {n: truncate_below_step(X, n - 1) for n in range(n_lo + 1, n_hi + 1)}
    return TruncationTower(X, n_lo, n_hi, below, above, maps_below, maps_above,
                           anchors_below, anchors_above)


def heart_homology(X: ChainComplex, n: int) -> FgAbGroup:
    return homology(X, n)


def layer_complex(X: ChainComplex, n: int):
    """cone(tau_{>= n+1} X -> tau_{>= n} X): a free model of Sigma^n H_n X,
    with the inclusion and projection of its cone sequence."""
    incl, proj = cone_maps(truncation_step(X, n))
    return incl.target, incl, proj


def layer_triangle_check(X: ChainComplex, n: int) -> bool:
    """Homology of the layer is exactly H_n(X) in degree n and zero elsewhere."""
    L = cone(truncation_step(X, n))
    for m in range(L.lo, L.hi + 1):
        h = homology(L, m)
        if m == n:
            if not h.isomorphic(homology(X, n)):
                return False
        elif not h.is_trivial:
            return False
    return True


# ---------------------------------------------------------------------------
# Classification of maps
# ---------------------------------------------------------------------------

class MapClassification(Value):
    _fields = ("max_n_equivalence", "min_co_n_equivalence")

    def __init__(self, max_n_equivalence: float, min_co_n_equivalence: float):
        # the largest n with f an n-equivalence, or +inf
        store(self, "max_n_equivalence", max_n_equivalence)
        # the smallest n with f a co-n-equivalence, or -inf
        store(self, "min_co_n_equivalence", min_co_n_equivalence)

    @property
    def is_weak_equivalence(self) -> bool:
        return self.max_n_equivalence == INF


# one entry per cone, so the bound of the cone table: a seed-5 `maps` round
# classifies 277 distinct maps 3,085 times, 15 questions for each map of a
# `classify` item and the pre- and postconditions of factor_n and find_lift
@lru_cache(maxsize=chain.CONE_CACHE_SIZE)
def classify_map(f: ChainMap) -> MapClassification:
    """Homology support of the cone decides both thresholds: f is an
    n-equivalence iff H_i(cone f) = 0 for i <= n, and a co-n-equivalence iff
    H_i(cone f) = 0 for i > n.  Each map is classified once; a table hit
    returns the same frozen classification."""
    support = homology_support(cone(f))
    if support is None:
        return MapClassification(INF, NEG_INF)
    lo, hi = support
    return MapClassification(lo - 1, hi)


def is_n_equivalence(f: ChainMap, n: int) -> bool:
    """Is f an n-equivalence?  Read off the one classification of f, so a
    sweep over n builds one cone and reads its homology once."""
    return n <= classify_map(f).max_n_equivalence


def is_co_n_equivalence(f: ChainMap, n: int) -> bool:
    """Is f a co-n-equivalence?  Read off the one classification of f, as
    `is_n_equivalence` is."""
    return n >= classify_map(f).min_co_n_equivalence


def classify_map_by_homology(f: ChainMap) -> MapClassification:
    """Independent characterization used for cross-checks: an n-equivalence
    induces isos on H_i for i < n and a surjection on H_n; dually for
    co-n-equivalences with injectivity at n."""
    lo = min(f.source.lo, f.target.lo) - 1
    hi = max(f.source.hi, f.target.hi) + 1
    max_n = INF
    for n in range(lo, hi + 1):
        h = induced_homology_map(f, n)
        if not is_isomorphism(h):
            max_n = n if is_surjective(h) else n - 1
            break
    min_co = NEG_INF
    for n in range(hi, lo - 1, -1):
        h = induced_homology_map(f, n)
        if not is_isomorphism(h):
            min_co = n if is_injective(h) else n + 1
            break
    return MapClassification(max_n, min_co)


# ---------------------------------------------------------------------------
# Cofibration / fibration tests
# ---------------------------------------------------------------------------

def is_degreewise_split_mono(f: ChainMap) -> bool:
    """Every component a split monomorphism, with a unit pivot in every
    column (then the cokernel is free)."""
    return all(snf(f.comp(n)).diag.count(1) == f.comp(n).cols for n in f.degrees)


def _is_surjective_matrix(c: IntMatrix) -> bool:
    """A split epi, with a unit pivot in every row."""
    return snf(c).diag.count(1) == c.rows


def is_degreewise_surjection(f: ChainMap) -> bool:
    return all(_is_surjective_matrix(f.comp(n)) for n in f.degrees)


def is_n_cofibration(f: ChainMap, n: int) -> bool:
    return is_degreewise_split_mono(f) and is_n_equivalence(f, n)


def is_co_n_fibration(f: ChainMap, n: int) -> bool:
    return is_degreewise_surjection(f) and is_co_n_equivalence(f, n)


def cokernel_complex(f: ChainMap) -> ChainComplex:
    """The free cokernel of a degreewise split mono, on the `cokernel` block
    of each component's Smith form; `find_lift` reads it as coker i."""
    if not is_degreewise_split_mono(f):
        raise PreconditionViolated("not a degreewise split mono")
    coker = {m: snf(f.comp(m)).cokernel for m in f.degrees}
    ranks = {m: len(orders) for m, (orders, _, _) in coker.items()}
    diffs = {m: coker[m - 1][1] @ f.target.diff(m) @ coker[m][2] for m in f.degrees[1:]}
    return make_complex(f.source.ring, ranks, diffs)


def pushout_product_check(f: ChainMap, j: int) -> bool:
    """Shifting the cofiber of an n-cofibration by a sphere dimension j lands
    in homology degrees above n + j; true for every actual n-cofibration."""
    if not is_degreewise_split_mono(f):
        raise PreconditionViolated("not a cofibration")
    n = classify_map(f).max_n_equivalence
    if n == INF:
        return True
    C = cokernel_complex(f)
    S = shift(C, j)
    for m in range(S.lo, int(n) + j + 1):
        if not homology(S, m).is_trivial:
            return False
    return True


# ---------------------------------------------------------------------------
# Factorization: n-cofibration followed by co-n-fibration
# ---------------------------------------------------------------------------

def _attach(p: ChainMap, m: int, d: IntMatrix, y: IntMatrix) -> ChainMap:
    """p: Z -> Y with new generators e_j in degree m after the old ones, with
    d(e_j) the column j of d and p(e_j) the column j of y: d_m gains the
    columns d, d_{m+1} gains zero rows and p_m gains the columns y."""
    Z = p.source
    ranks = {k: Z.rank(k) for k in Z.degrees}
    ranks[m] = Z.rank(m) + d.cols
    diffs = {k: Z.diff(k) for k in range(Z.lo + 1, Z.hi + 1)}
    diffs[m] = hcat(Z.diff(m), d)
    diffs[m + 1] = block_matrix((Z.rank(m), d.cols), (Z.rank(m + 1),),
                                {(0, 0): Z.diff(m + 1)}, Z.ring)
    comps = {k: p.comp(k) for k in range(p.lo, max(Z.hi, p.target.hi) + 1)}
    comps[m] = hcat(p.comp(m), y)
    return chain_map(make_complex(Z.ring, ranks, diffs), p.target, comps)


def factor_n(f: ChainMap, n: int) -> Tuple[ChainMap, ChainMap]:
    """Factor f = p o i with i an n-cofibration (split mono, free cokernel,
    an n-equivalence) and p a co-n-fibration (degreewise surjection and
    co-n-equivalence).

    Construction: Z is X plus one disk pair per generator y of Y_m, for
    every degree m where f is not surjective: u in degree m and v in degree
    m - 1, with d(u) = v, p(u) = y and p(v) = d(y).  Degree k of Z holds
    X_k, then the u's on Y_k, then the v's on Y_{k+1}.  Then, ascending from
    degree n+1, each round attaches cells killing H_k(cone p), after the
    generators Z_k has.  Disk pairs contribute no homology to the cokernel
    and the killing cells sit in degrees >= n+1, so the inclusion is
    automatically an n-equivalence.
    """
    X, Y = f.source, f.target
    ring = X.ring
    disks = {m: Y.rank(m) for m in Y.degrees if not _is_surjective_matrix(f.comp(m))}

    def sizes(k):  # X_k, the u's on Y_k, the v's on Y_{k+1}
        return (X.rank(k), disks.get(k, 0), disks.get(k + 1, 0))

    def p_comp(k):  # f on X_k, p(u) = y and p(v) = d(y)
        blocks = {(0, 0): f.comp(k)}
        if k in disks:
            blocks[0, 1] = IntMatrix.identity(disks[k], ring)
        if k + 1 in disks:
            blocks[0, 2] = Y.diff(k + 1)
        return block_matrix((Y.rank(k),), sizes(k), blocks, ring)

    degrees = range(min(X.lo, Y.lo - 1), max(X.hi, Y.hi) + 1)
    Z = make_complex(ring, {k: sum(sizes(k)) for k in degrees},
                     {k: block_matrix(sizes(k - 1), sizes(k), {
                         (0, 0): X.diff(k), (2, 1): IntMatrix.identity(disks.get(k, 0), ring)},
                         ring) for k in degrees[1:]})
    p = chain_map(Z, Y, {k: p_comp(k) for k in degrees})
    C = cone(p)
    # a round kills H_k(cone p) at the lowest bad degree k >= n + 1 and leaves
    # lower degrees alone, so that degree rises from round to round; the top
    # degree of the cone stays put until a round reaches it, and there H_k is
    # free, so the new cells add no homology above it
    rounds = max(C.hi - max(n + 1, C.lo) + 1, 0) + 1
    for _ in range(rounds):
        k = next((k for k in range(max(n + 1, C.lo), C.hi + 1)
                  if not homology(C, k).is_trivial), None)
        if k is None:
            break
        # one cell per homology generator: its cycle (y, x) in Y_k (+) Z_{k-1}
        # becomes a cell e with d(e) = -x and p(e) = y
        cycles = homology_data(C, k).decode_matrix()
        p = _attach(p, k, -cycles.take_rows(range(Y.rank(k), cycles.rows)),
                    cycles.take_rows(range(Y.rank(k))))
        C = cone(p)
    else:
        raise PostconditionViolated(
            f"cell attachment did not finish within {rounds} rounds, its bound")

    Z = p.source
    i = chain_map(X, Z, {m: block_matrix(
        (X.rank(m), Z.rank(m) - X.rank(m)), (X.rank(m),),
        {(0, 0): IntMatrix.identity(X.rank(m), ring)}, ring)
        for m in range(min(X.lo, Z.lo), max(X.hi, Z.hi) + 1)})
    if not p.compose(i).equal(f):
        raise PostconditionViolated("factorization does not compose to f")
    if not is_n_cofibration(i, n):
        raise PostconditionViolated("left factor is not an n-cofibration")
    if not is_co_n_fibration(p, n):
        raise PostconditionViolated("right factor is not a co-n-fibration")
    return i, p


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------

def find_lift(i: ChainMap, p: ChainMap, top: ChainMap, bottom: ChainMap,
              n: int) -> Optional[ChainMap]:
    """A lift h with h o i = top and p o h = bottom, both exactly.

    With pi: B -> Q = coker(i), its section sigma, and kappa: K = ker(p) -> X,
    the candidate h0 = top r + s bottom sigma pi (r a retraction of i, s a
    section of p) meets both identities, and so does every h0 - kappa c pi
    with c in Hom(Q, K)_0.  The defect d h0 - h0 d is kappa e pi with e in
    Hom(Q, K)_{-1}, and h is a chain map iff d c - c d = e.  That one solve
    succeeds because [Q, K]_{-1} = 0: Q has homology in degrees >= n+1 and
    K in degrees <= n-1.
    """
    if not is_n_cofibration(i, n):
        raise PreconditionViolated("i is not an n-cofibration")
    if not is_co_n_fibration(p, n):
        raise PreconditionViolated("p is not a co-n-fibration")
    if not bottom.compose(i).equal(p.compose(top)):
        raise PreconditionViolated("square does not commute")

    B, X = i.target, p.source
    degrees = range(min(B.lo, X.lo), max(B.hi, X.hi) + 1)
    # the splits of i and p from the Smith forms the checks above cached
    h0, pi, sigma, kappa = {}, {}, {}, {}
    for m in degrees:
        s_i = snf(i.comp(m))
        _, pi[m], sigma[m] = s_i.cokernel
        h0[m] = (top.comp(m) @ s_i.inverse
                 + snf(p.comp(m)).inverse @ bottom.comp(m) @ sigma[m] @ pi[m])
        kappa[m] = kernel_lattice(p.comp(m))

    def into_kernel(m, M):  # the coordinates in ker p_m of M's columns
        c = kappa[m].coords(M)
        if c is None:
            raise PostconditionViolated(f"a column leaves ker p in degree {m}")
        return c

    Q = cokernel_complex(i)
    K = make_complex(B.ring, {m: kappa[m].basis.cols for m in degrees},
                     {m: into_kernel(m - 1, X.diff(m) @ kappa[m].basis)
                      for m in degrees[1:]})
    # Hom(Q, K) has D(c) = d c + c d in degree 0, so e and c carry the sign
    # (-1)^k on block k
    defect = []
    for k in _hom_blocks(Q, K, -1):
        delta = (X.diff(k) @ h0[k]) - (h0[k - 1] @ B.diff(k))
        defect += into_kernel(k - 1, delta @ sigma[k]).scale(-1 if k % 2 else 1).entries
    sol = solve(hom_complex(Q, K).complex.diff(0),
                IntMatrix(len(defect), 1, tuple(defect), B.ring))
    if sol is None:
        return None
    comps, off = dict(h0), 0
    for k, size in _hom_blocks(Q, K, 0).items():
        c = IntMatrix(K.rank(k), Q.rank(k), sol.entries[off:off + size], B.ring)
        comps[k] = h0[k] - (kappa[k].basis @ c.scale(-1 if k % 2 else 1) @ pi[k])
        off += size
    h = chain_map(B, X, comps)
    if not (h.compose(i).equal(top) and p.compose(h).equal(bottom)):
        raise PostconditionViolated("the lift does not fill the square")
    return h


# ---------------------------------------------------------------------------
# Cohomology with coefficients
# ---------------------------------------------------------------------------

def cohomology_with_coefficients(X: ChainComplex, A: FgAbGroup, p: int) -> FgAbGroup:
    """H^p(X; A) = [X, K(A)]_{-p} up to isomorphism, computed as
    [M, K(A)]_{-p} on the minimal model M of X.

    K(A) is `coefficient_complex(A)`.  Over Z and F_p, X is homotopy
    equivalent to M = (+)_k Sigma^k K(H_k X) (see `minimal_model`), and
    [-, K(A)]_{-p} is homology of a Hom complex, which sends homotopy
    equivalences to isomorphisms.  So the group is
    isomorphic to derived_hom(X, K(A), -p).  It is the canonical group that
    `homology` reads off the Smith diagonals of Hom(M, K(A)), whose rank
    depends on the homology of X and not on its cells."""
    return chain.homology(chain.hom_complex(minimal_model(X),
                                            coefficient_complex(A)).complex, -p)


def induced_map_on_cohomology(f: ChainMap, A: FgAbGroup, p: int) -> GroupHom:
    """f^*: H^p(Y; A) -> H^p(X; A) for f: X -> Y.  Its source and target are
    presented on Hom(Y, K(A)) and Hom(X, K(A)), so they are isomorphic to,
    not equal to, the groups `cohomology_with_coefficients` returns; they
    are the E^2 slots of `ahss.SpectralSequence`, and `ahss.pro_ahss` reads
    the maps a tower induces there."""
    return induced_map_on_derived_hom(f, identity_map(coefficient_complex(A)), -p)
