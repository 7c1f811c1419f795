"""Bounded chain complexes of free modules, chain maps, cones, and hom complexes.

Complexes are immutable and hashable: ranks and differentials are stored in
degree-indexed tuples over a support interval [lo, hi].  Every module is
free; torsion only ever appears in homology values.  The graded bracket
[X,Y]_n is the degree-n homology of the hom complex, which computes maps in
the derived category because sources are bounded complexes of frees.
Homology comes two ways: `homology`, up to isomorphism, off the Smith
diagonals of the differentials, and `homology_data`, with the cycle
coordinates that induced maps read.  The mapping cone is cached as a
complex alone; its inclusion and projection are built on demand, for the
readers of those maps.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict

from .errors import PostconditionViolated, PreconditionViolated, ValidationError
from .exactalg.groups import (FgAbGroup, GroupHom, SubquotientData, free_group,
                              group_from_orders, group_from_presentation,
                              induced_hom, trivial_group)
from .exactalg.matrices import (IntMatrix, Lattice, _check_size, _mod,
                                block_matrix, kernel_lattice, kron,
                                smith_diagonal)
from .exactalg.ring import RingTag, ZZ, check_same_ring
from .value import Value, store


class ChainComplex(Value):
    """ranks[i] is the rank in degree lo + i, over the support interval
    [lo, hi] (ranks vanish outside); diffs[i] is the differential from
    degree lo+i+1 to lo+i, of shape ranks[i] x ranks[i+1]."""

    _fields = ("ring", "lo", "hi", "ranks", "diffs")

    def __init__(self, ring: RingTag, lo: int, hi: int, ranks: tuple, diffs: tuple):
        store(self, "ring", ring)
        store(self, "lo", lo)
        store(self, "hi", hi)
        store(self, "ranks", ranks)
        store(self, "diffs", diffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ring, self.lo, self.hi, self.ranks, self.diffs)
                == (other.ring, other.lo, other.hi, other.ranks, other.diffs))

    def __hash__(self):
        # frozen, so hashed once; the value lives outside the fields
        d = self.__dict__
        if "_hash" not in d:
            d["_hash"] = hash((self.ring, self.lo, self.hi, self.ranks, self.diffs))
        return d["_hash"]

    # -- access -------------------------------------------------------------

    def rank(self, n: int) -> int:
        if self.lo <= n <= self.hi:
            return self.ranks[n - self.lo]
        return 0

    def diff(self, n: int) -> IntMatrix:
        """The differential X_n -> X_{n-1} (zero matrix outside the support)."""
        if self.lo + 1 <= n <= self.hi:
            return self.diffs[n - self.lo - 1]
        return IntMatrix.zeros(self.rank(n - 1), self.rank(n), self.ring)

    @property
    def degrees(self):
        return range(self.lo, self.hi + 1)

    @property
    def is_zero(self) -> bool:
        return all(r == 0 for r in self.ranks)

    def total_rank(self) -> int:
        return sum(self.ranks)

    def __str__(self):
        chunks = [f"{n}:{self.rank(n)}" for n in self.degrees if self.rank(n)]
        return f"Complex({self.ring}; " + " ".join(chunks) + ")"


def _in_ring(M: IntMatrix, ring: RingTag) -> IntMatrix:
    """M tagged with ring; over F_p its entries are taken mod p, over Z they
    are exact already."""
    p = ring.p
    if p:
        return IntMatrix(M.rows, M.cols, _mod(M.entries, p), ring)
    return M if M.ring == ring else IntMatrix(M.rows, M.cols, M.entries, ring)


def make_complex(ring: RingTag, ranks: Dict[int, int],
                 diffs: Dict[int, IntMatrix]) -> ChainComplex:
    """Assemble and validate a complex from degree->rank and degree->matrix maps."""
    nonzero = [n for n, r in ranks.items() if r > 0]
    if not nonzero:
        return ChainComplex(ring, 0, 0, (0,), ())
    lo, hi = min(nonzero), max(nonzero)
    rk = tuple(ranks.get(n, 0) for n in range(lo, hi + 1))
    ds = []
    for n in range(lo + 1, hi + 1):
        d = diffs.get(n)
        if d is None:
            d = IntMatrix.zeros(rk[n - 1 - lo], rk[n - lo], ring)
        if d.shape != (rk[n - 1 - lo], rk[n - lo]):
            raise ValidationError(f"differential at degree {n} has shape {d.shape}")
        ds.append(_in_ring(d, ring))
    X = ChainComplex(ring, lo, hi, rk, tuple(ds))
    if not validate(X):
        raise ValidationError("d o d != 0")
    X.__dict__["_valid"] = True  # so `homology` need not check it again
    return X


def zero_complex(ring: RingTag = ZZ) -> ChainComplex:
    return ChainComplex(ring, 0, 0, (0,), ())


def free_one_term(ring: RingTag, degree: int, rank: int = 1) -> ChainComplex:
    """A free module concentrated in one degree (the sphere Z[degree])."""
    if rank == 0:
        return zero_complex(ring)
    return ChainComplex(ring, degree, degree, (rank,), ())


def moore_complex(m: int, degree: int = 0, ring: RingTag = ZZ) -> ChainComplex:
    """ring --m--> ring in degrees (degree+1, degree); homology ring/m at degree."""
    return make_complex(ring, {degree: 1, degree + 1: 1},
                        {degree + 1: IntMatrix.from_rows([[m]], ring)})


def validate(X: ChainComplex) -> bool:
    for n in range(X.lo + 2, X.hi + 1):
        if not (X.diff(n - 1) @ X.diff(n)).is_zero:
            return False
    return True


class ChainMap(Value):
    """comps[i] is the component in degree lo + i, lo = min(source.lo, target.lo)."""

    _fields = ("source", "target", "comps")

    def __init__(self, source: ChainComplex, target: ChainComplex, comps: tuple):
        store(self, "source", source)
        store(self, "target", target)
        store(self, "comps", comps)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.comps)
                == (other.source, other.target, other.comps))

    def __hash__(self):  # once, as ChainComplex.__hash__
        d = self.__dict__
        if "_hash" not in d:
            d["_hash"] = hash((self.source, self.target, self.comps))
        return d["_hash"]

    @property
    def lo(self) -> int:
        return min(self.source.lo, self.target.lo)

    @property
    def degrees(self) -> range:
        """The degrees where source or target may be nonzero."""
        return range(self.lo, max(self.source.hi, self.target.hi) + 1)

    def comp(self, n: int) -> IntMatrix:
        i = n - self.lo
        if 0 <= i < len(self.comps):
            return self.comps[i]
        return IntMatrix.zeros(self.target.rank(n), self.source.rank(n),
                               self.source.ring)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other."""
        if other.target != self.source:
            raise PreconditionViolated("composite of maps that do not meet")
        return chain_map(other.source, self.target,
                         {n: self.comp(n) @ other.comp(n)
                          for n in range(min(self.lo, other.lo),
                                         max(self.source.hi, other.source.hi,
                                             self.target.hi) + 1)})

    def _check_parallel(self, other: "ChainMap"):
        if self.source != other.source or self.target != other.target:
            raise PreconditionViolated("maps between different complexes")

    def __add__(self, other: "ChainMap") -> "ChainMap":
        self._check_parallel(other)
        return chain_map(self.source, self.target,
                         {n: self.comp(n) + other.comp(n) for n in self.degrees})

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        self._check_parallel(other)
        return chain_map(self.source, self.target,
                         {n: self.comp(n) - other.comp(n) for n in self.degrees})

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def equal(self, other: "ChainMap") -> bool:
        return (self.source == other.source and self.target == other.target
                and all(self.comp(n).entries == other.comp(n).entries
                        for n in range(min(self.lo, other.lo),
                                       max(self.source.hi, self.target.hi) + 1)))


def chain_map(source: ChainComplex, target: ChainComplex,
              comps: Dict[int, IntMatrix], check: bool = True) -> ChainMap:
    check_same_ring(source, target)
    ring = source.ring
    lo = min(source.lo, target.lo)
    hi = max(source.hi, target.hi)
    cs = []
    for n in range(lo, hi + 1):
        c = comps.get(n)
        if c is None:
            c = IntMatrix.zeros(target.rank(n), source.rank(n), ring)
        if c.shape != (target.rank(n), source.rank(n)):
            raise ValidationError(f"component at degree {n} has shape {c.shape}")
        cs.append(_in_ring(c, ring))
    f = ChainMap(source, target, tuple(cs))
    if check and not is_chain_map(f):
        raise ValidationError("components do not commute with differentials")
    return f


def is_chain_map(f: ChainMap) -> bool:
    for n in f.degrees[1:]:
        if not (f.source.rank(n) and f.target.rank(n - 1)):
            continue  # both products are empty matrices
        left = f.target.diff(n) @ f.comp(n)
        right = f.comp(n - 1) @ f.source.diff(n)
        if left.entries != right.entries:
            return False
    return True


def identity_map(X: ChainComplex) -> ChainMap:
    return chain_map(X, X, {n: IntMatrix.identity(X.rank(n), X.ring)
                            for n in X.degrees}, check=False)


def zero_map(X: ChainComplex, Y: ChainComplex) -> ChainMap:
    return chain_map(X, Y, {}, check=False)


def multiplication_map(X: ChainComplex, m: int) -> ChainMap:
    return chain_map(X, X, {n: IntMatrix.identity(X.rank(n), X.ring).scale(m)
                            for n in X.degrees})


# ---------------------------------------------------------------------------
# Shift, cone, direct sum
# ---------------------------------------------------------------------------

def shift(X: ChainComplex, k: int) -> ChainComplex:
    """(Sigma^k X)_n = X_{n-k}; differentials pick up the sign (-1)^k."""
    if k == 0 or X.is_zero:
        return X if k == 0 else zero_complex(X.ring)
    sign = 1 if k % 2 == 0 else -1
    ranks = {n + k: X.rank(n) for n in X.degrees}
    diffs = {n + k: X.diff(n).scale(sign) for n in range(X.lo + 1, X.hi + 1)}
    return make_complex(X.ring, ranks, diffs)


def shift_map(f: ChainMap, k: int) -> ChainMap:
    return chain_map(shift(f.source, k), shift(f.target, k),
                     {n + k: f.comp(n) for n in f.degrees})


def direct_sum_complex(A: ChainComplex, B: ChainComplex):
    """A (+) B with the four canonical maps (incl_A, incl_B, proj_A, proj_B)."""
    check_same_ring(A, B)
    ring = A.ring
    lo, hi = min(A.lo, B.lo), max(A.hi, B.hi)
    degrees = range(lo, hi + 1)

    def sizes(n):
        return (A.rank(n), B.rank(n))

    S = make_complex(ring, {n: A.rank(n) + B.rank(n) for n in degrees},
                     {n: block_matrix(sizes(n - 1), sizes(n),
                                      {(0, 0): A.diff(n), (1, 1): B.diff(n)}, ring)
                      for n in range(lo + 1, hi + 1)})

    def incl(n, which):
        one = IntMatrix.identity(sizes(n)[which], ring)
        return block_matrix(sizes(n), (one.cols,), {(which, 0): one}, ring)

    incl_a = chain_map(A, S, {n: incl(n, 0) for n in degrees})
    incl_b = chain_map(B, S, {n: incl(n, 1) for n in degrees})
    proj_a = chain_map(S, A, {n: incl(n, 0).transpose() for n in degrees})
    proj_b = chain_map(S, B, {n: incl(n, 1).transpose() for n in degrees})
    return S, incl_a, incl_b, proj_a, proj_b


# A `maps` benchmark round builds cones of a few hundred distinct maps; the
# bound keeps the table from growing for the life of the process.
CONE_CACHE_SIZE = 1024


@lru_cache(maxsize=CONE_CACHE_SIZE)
def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone C(f)_n = Y_n (+) X_{n-1}, the complex alone, in one table
    shared by every consumer; `cone_maps` builds its maps for their readers."""
    X, Y = f.source, f.target
    ring = X.ring
    lo = min(Y.lo, X.lo + 1)
    hi = max(Y.hi, X.hi + 1)

    def sizes(n):                                 # Y_n (+) X_{n-1}
        return (Y.rank(n), X.rank(n - 1))

    return make_complex(ring, {n: sum(sizes(n)) for n in range(lo, hi + 1)},
                        {n: block_matrix(sizes(n - 1), sizes(n),
                                         {(0, 0): Y.diff(n), (0, 1): f.comp(n - 1),
                                          (1, 1): -X.diff(n - 1)}, ring)
                         for n in range(lo + 1, hi + 1)})


def cone_maps(f: ChainMap):
    """The inclusion Y -> C(f) and the projection C(f) -> shift(X, 1) of the
    cone sequence, on C = cone(f); not cached, since only their readers
    build them."""
    X, Y, C = f.source, f.target, cone(f)
    ring = X.ring

    def sizes(n):                                 # Y_n (+) X_{n-1}
        return (Y.rank(n), X.rank(n - 1))

    incl = chain_map(Y, C, {n: block_matrix(sizes(n), (Y.rank(n),), {
        (0, 0): IntMatrix.identity(Y.rank(n), ring)}, ring) for n in C.degrees})
    proj = chain_map(C, shift(X, 1), {n: block_matrix((X.rank(n - 1),), sizes(n), {
        (0, 1): IntMatrix.identity(X.rank(n - 1), ring)}, ring) for n in C.degrees})
    return incl, proj


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

# bounds at twice or more the most distinct arguments one benchmark round
# passes (seed 5: 1,392 `homology` groups in `maps`, 1,053 `homology_data`
# subquotients and 263 hom complexes in `spectral`); `homology`,
# `homology_data` and `induced_homology_map` keep one table each, of
# HOMOLOGY_CACHE_SIZE
HOMOLOGY_CACHE_SIZE = 4096
HOM_COMPLEX_CACHE_SIZE = 1024
# a `cells` round asks for the models of 39 complexes 342 times; without the
# table every cohomology group rebuilds its model, and the round reads
# `homology` 2,196 times instead of 734.  A `spectral` round asks 200 times
# for 121 models, for the convergence check, so a larger table would only
# hold them longer
MINIMAL_MODEL_CACHE_SIZE = 128
# a seed-5 round asks for K(A) of 23 groups 452 times in `spectral` (E^2 and
# the models) and of 11 groups 506 times in `cells`; `maps` asks for none
COEFFICIENT_CACHE_SIZE = 64


@lru_cache(maxsize=HOMOLOGY_CACHE_SIZE)
def homology_data(X: ChainComplex, n: int) -> SubquotientData:
    """H_n(X) = ker d_n / im d_{n+1} as a subquotient of the chain group X_n,
    presented on a lattice basis of the cycles.

    The one source of coordinates: call it to read cycles, or to pair the
    group with induced maps (`induced_homology_map` reads both ends here).
    For H_n up to isomorphism call `homology`, which builds no lattice."""
    ring = X.ring
    if X.rank(n) == 0:
        empty = IntMatrix.zeros(0, 0, ring)
        return SubquotientData(trivial_group(ring), trivial_group(ring),
                               Lattice(empty, empty, ()))
    cycles = kernel_lattice(X.diff(n))
    expr = cycles.coords(X.diff(n + 1))
    if expr is None:
        raise PostconditionViolated(f"boundaries in degree {n} are not cycles")
    return SubquotientData(free_group(X.rank(n), ring), group_from_presentation(expr),
                           cycles)


@lru_cache(maxsize=HOMOLOGY_CACHE_SIZE)
def induced_homology_map(f: ChainMap, n: int) -> GroupHom:
    """H_n(f): H_n(source) -> H_n(target) on the groups `homology_data`
    presents, in one table beside theirs.  A seed-5 `maps` round asks for
    191 distinct induced maps 401 times: the H*-weak equivalence test asks
    again for the structure maps of the homology towers it has built,
    mostly identities of constant tails."""
    return induced_hom(homology_data(f.source, n), f.comp(n),
                       homology_data(f.target, n))


def _smith_diagonal(X: ChainComplex, n: int) -> tuple:
    """The Smith diagonal of d_n, empty outside the support."""
    return smith_diagonal(X.diffs[n - X.lo - 1]) if X.lo < n <= X.hi else ()


@lru_cache(maxsize=HOMOLOGY_CACHE_SIZE)
def homology(X: ChainComplex, n: int) -> FgAbGroup:
    """H_n(X) up to isomorphism, read off the Smith diagonals of d_n and
    d_{n+1} alone (Dumas, Heckenbach, Saunders & Welker 2003): its free rank
    is rank X_n - rank d_n - rank d_{n+1}, and over Z its torsion is the
    diagonal entries > 1 of d_{n+1}.  The diagonals come from
    `smith_diagonal`, a sparse elimination on unit pivots first that logs
    no operation, so no Smith form and no transform is built.

    The group is canonical, with identity transforms, so groups with the
    same invariants are equal; it is not the group `homology_data` presents
    on the cycles, and maps induced on homology do not act on it.  Call
    `homology_data` for those.  d o d = 0 is checked once per complex:
    `make_complex` has checked every complex it built, and any other is
    validated here on its first call."""
    if "_valid" not in X.__dict__:
        if not validate(X):
            raise PostconditionViolated("boundaries are not cycles")
        X.__dict__["_valid"] = True
    ring = X.ring
    if X.rank(n) == 0:
        return trivial_group(ring)
    down, up = _smith_diagonal(X, n), _smith_diagonal(X, n + 1)
    free = X.rank(n) - sum(map(bool, down)) - sum(map(bool, up))
    return group_from_orders(tuple(e for e in up if e > 1) + (0,) * free, ring)


def homology_support(X: ChainComplex) -> tuple:
    degs = [n for n in range(X.lo, X.hi + 1) if not homology(X, n).is_trivial]
    return (min(degs), max(degs)) if degs else None


def is_acyclic(X: ChainComplex) -> bool:
    return homology_support(X) is None


@lru_cache(maxsize=COEFFICIENT_CACHE_SIZE)
def coefficient_complex(A: FgAbGroup) -> ChainComplex:
    """K(A), the two-term free resolution
    ring^t --diag(invariant factors)--> ring^(t+f) of A in degrees 1, 0:
    the free model of the Eilenberg-MacLane object of A, with H_0 = A.

    It is the package's one model of K(A).  `minimal_model` sums its shifts,
    `tstruct.cohomology_with_coefficients` reads H^p(X; A) = [X, K(A)]_{-p}
    on it, and the AHSS reads E^2_{p,q} = H^{-p}(X; H_q Y) on K(H_q Y).
    Over F_p it is A in degree 0, with no differential."""
    ring = A.ring
    t = len(A.invariant_factors)
    f = A.free_rank
    if t == 0:
        return free_one_term(ring, 0, f)
    d = IntMatrix.diagonal(A.invariant_factors, t + f, t, ring)
    return make_complex(ring, {0: t + f, 1: t}, {1: d})


@lru_cache(maxsize=MINIMAL_MODEL_CACHE_SIZE)
def minimal_model(X: ChainComplex) -> ChainComplex:
    """M = (+)_k Sigma^k K(H_k X), with K(A) the two-term free resolution
    `coefficient_complex(A)`.

    Degree k holds the generators of H_k X, then the relation generators of
    H_{k-1} X, and d_k is the differential of K(H_{k-1} X) from those
    relations onto the generators of H_{k-1} X.  So H_k M = H_k X in every
    degree.

    M is homotopy equivalent to X over Z and over F_p.  Both rings are
    hereditary, so every H_k X has the two-term free resolution K.  Each
    Sigma^k K(H_k X) maps into X: its generators go to cycles that represent
    H_k X, and each relation generator to a preimage of the boundary its
    image becomes.  The sum of these maps is a quasi-isomorphism between
    bounded complexes of free modules, and so a homotopy equivalence.  Over
    F_p there is no torsion and every differential of M is zero; over Z, M
    has rank X_k minus the unit invariant factors of d_k and d_{k+1}.

    M is built from the invariants of `homology` alone, so it costs the
    Smith diagonals of X and no cycle lattice.  Readers that need only
    homotopy invariants compute on M in place of X:
    `tstruct.cohomology_with_coefficients`, and `ahss.on_minimal_models`
    (the convergence check and the `ahss` report).  Readers of coordinates
    in Hom(X, Y) cannot, since M comes with no maps to or from X."""
    ring = X.ring
    K = {k: coefficient_complex(homology(X, k)) for k in X.degrees}

    def sizes(k):                  # H_k generators, H_{k-1} relations
        return (K[k].rank(0), K[k - 1].rank(1) if k > X.lo else 0)

    diffs = {k: block_matrix(sizes(k - 1), sizes(k), {(0, 1): K[k - 1].diff(1)}, ring)
             for k in range(X.lo + 1, X.hi + 1) if K[k - 1].rank(1)}
    return make_complex(ring, {k: sum(sizes(k)) for k in X.degrees}, diffs)


def is_quasi_iso(f: ChainMap) -> bool:
    return is_acyclic(cone(f))


# ---------------------------------------------------------------------------
# Hom complex and the derived-hom oracle
# ---------------------------------------------------------------------------

def _hom_blocks(X: ChainComplex, Y: ChainComplex, n: int) -> Dict[int, int]:
    """The layout of degree n of Hom(X, Y): source degree k -> rank of its
    block Hom(X_k, Y_{k+n}), for the nonzero blocks in increasing k."""
    return {k: Y.rank(k + n) * X.rank(k) for k in X.degrees
            if X.rank(k) and Y.rank(k + n)}


class HomComplexView(Value):
    """Hom(X, Y), the complex with degree-n module (+)_k Hom(X_k, Y_{k+n}).

    Differential D(f) = d_Y o f + (-1)^n f o d_X.  Blocks in degree n are
    indexed by the source degree k, in increasing order; block k holds a
    Y_{k+n} x X_k matrix row by row, so that m -> b o m o a acts on it as
    kron(b, a^T).
    """

    _fields = ("complex",)

    def __init__(self, complex: ChainComplex):
        store(self, "complex", complex)


@lru_cache(maxsize=HOM_COMPLEX_CACHE_SIZE)
def hom_complex(X: ChainComplex, Y: ChainComplex) -> HomComplexView:
    check_same_ring(X, Y)
    ring = X.ring
    lo = Y.lo - X.hi
    hi = Y.hi - X.lo
    layout = {n: _hom_blocks(X, Y, n) for n in range(lo, hi + 1)}
    ranks = {n: sum(layout[n].values()) for n in range(lo, hi + 1)}
    for n in range(lo + 1, hi + 1):  # refuse from the ranks, before any block
        _check_size("Hom complex differential", ranks[n - 1], ranks[n])
    diffs = {}
    for n in range(lo + 1, hi + 1):
        src, tgt = layout[n], layout[n - 1]
        sign = -1 if n % 2 else 1
        blocks = {}
        for k in src:
            if k in tgt:        # d_Y o f stays in block k
                blocks[k, k] = kron(Y.diff(k + n), IntMatrix.identity(X.rank(k), ring))
            if k + 1 in tgt:    # f o d_X lands in block k + 1
                signed = IntMatrix.identity(Y.rank(k + n), ring).scale(sign)
                blocks[k + 1, k] = kron(signed, X.diff(k + 1).transpose())
        diffs[n] = block_matrix(tgt, src, blocks, ring)
    HC = make_complex(ring, ranks, diffs)
    return HomComplexView(HC)


def derived_hom_data(X: ChainComplex, Y: ChainComplex, n: int) -> SubquotientData:
    """[X,Y]_n as a subquotient of Hom(X, Y)_n."""
    return homology_data(hom_complex(X, Y).complex, n)


def derived_hom(X: ChainComplex, Y: ChainComplex, n: int) -> FgAbGroup:
    """[X,Y]_n, maps X -> Sigma^{-n} Y in the derived category."""
    return derived_hom_data(X, Y, n).group


def hom_chain_map(a: ChainMap, b: ChainMap, n: int) -> IntMatrix:
    """Hom(a, b) in degree n: the chain-level map m -> b o m o a from
    Hom(X, Y)_n to Hom(X', Y')_n, for a: X' -> X and b: Y -> Y'.

    On block k it is b_{k+n} (x) a_k^T in the row-by-row layout of the hom
    complex."""
    src = _hom_blocks(a.target, b.source, n)
    tgt = _hom_blocks(a.source, b.target, n)
    return block_matrix(tgt, src, {(k, k): kron(b.comp(k + n), a.comp(k).transpose())
                                   for k in tgt if k in src}, a.source.ring)


def induced_map_on_derived_hom(a: ChainMap, b: ChainMap, n: int) -> GroupHom:
    """[a, b]: [X,Y]_n -> [X',Y']_n for a: X' -> X and b: Y -> Y'."""
    data_s = derived_hom_data(a.target, b.source, n)
    data_t = derived_hom_data(a.source, b.target, n)
    return induced_hom(data_s, hom_chain_map(a, b, n), data_t)


def shift_identification(X: ChainComplex, Z: ChainComplex, n: int) -> GroupHom:
    """The canonical iso [X, shift(Z,1)]_n -> [X, Z]_{n-1}.

    Both hom complexes share coordinates blockwise; only the differential's
    sign differs, so cycles and boundaries agree and the matrix is the
    coordinate identity.
    """
    data_s = derived_hom_data(X, shift(Z, 1), n)
    data_t = derived_hom_data(X, Z, n - 1)
    return induced_hom(data_s, IntMatrix.identity(data_s.ambient.ngens, X.ring), data_t)


# ---------------------------------------------------------------------------
# Random generator
# ---------------------------------------------------------------------------

def _random_unimodular(rng: random.Random, n: int, ring: RingTag):
    """A unimodular matrix and its exact inverse, as a short product of shears."""
    U = IntMatrix.identity(n, ring).to_lists()
    Ui = IntMatrix.identity(n, ring).to_lists()
    red = ring.reduce
    for _ in range(2 * n):
        kind = rng.randrange(3)
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            # row shear U[i] += c U[j]; inverse gets the opposite column op
            U[i] = [red(a + c * b) for a, b in zip(U[i], U[j])]
            for r in Ui:
                r[j] = red(r[j] - c * r[i])
        elif kind == 1:
            U[i], U[j] = U[j], U[i]
            for r in Ui:
                r[i], r[j] = r[j], r[i]
        else:
            U[i] = [red(-a) for a in U[i]]
            for r in Ui:
                r[i] = red(-r[i])
    return (IntMatrix.from_rows(U, ring, cols=n),
            IntMatrix.from_rows(Ui, ring, cols=n))


def random_complex(seed: int, ring: RingTag = ZZ, lo: int = -3, hi: int = 3,
                   max_rank: int = 3) -> ChainComplex:
    """A random valid complex: spheres and multiplication disks, conjugated
    by unimodular changes of basis.  d o d = 0 holds by construction."""
    rng = random.Random(seed)
    if max_rank == 0:
        return zero_complex(ring)
    ranks = {n: 0 for n in range(lo, hi + 1)}
    # summands: (kind, degree, multiplier)
    summands = []
    for n in range(lo, hi + 1):
        while ranks[n] < max_rank and rng.random() < 0.55:
            if n > lo and rng.random() < 0.55 and ranks[n - 1] < max_rank:
                m = rng.choice([1, 1, 2, 2, 3, 4, 6])
                if rng.random() < 0.3:
                    m = -m
                summands.append(("disk", n, m))
                ranks[n] += 1
                ranks[n - 1] += 1
            else:
                summands.append(("sphere", n, 0))
                ranks[n] += 1
    if not any(ranks.values()):
        return zero_complex(ring)
    # block differentials from the summand schedule
    slot = {n: 0 for n in ranks}
    diff_entries = {n: [[0] * ranks[n] for _ in range(ranks.get(n - 1, 0))]
                    for n in ranks if n > lo}
    for kind, n, m in summands:
        j = slot[n]
        slot[n] += 1
        if kind == "disk":
            i = slot[n - 1]
            slot[n - 1] += 1
            if n in diff_entries:
                diff_entries[n][i][j] = m
    diffs = {n: IntMatrix.from_rows(diff_entries[n], ring, cols=ranks[n])
             for n in diff_entries}
    # conjugate by unimodular changes of basis degreewise
    U = {}
    Ui = {}
    for n in ranks:
        U[n], Ui[n] = _random_unimodular(rng, ranks[n], ring)
    new_diffs = {}
    for n, d in diffs.items():
        new_diffs[n] = U[n - 1] @ d @ Ui[n]
    return make_complex(ring, ranks, new_diffs)


def random_null_homotopic(rng: random.Random, X: ChainComplex,
                          Y: ChainComplex) -> ChainMap:
    """d s + s d for a random degreewise map s of degree +1; always a chain map."""
    ring = X.ring
    s = {n: IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(X.rank(n))]
         for _ in range(Y.rank(n + 1))], ring, cols=X.rank(n))
        for n in range(min(X.lo, Y.lo) - 1, max(X.hi, Y.hi) + 1)}
    comps = {}
    for n in range(min(X.lo, Y.lo), max(X.hi, Y.hi) + 1):
        comps[n] = (Y.diff(n + 1) @ s[n]) + (s[n - 1] @ X.diff(n))
    return chain_map(X, Y, comps)


def quasi_iso_thickening(rng: random.Random, Y: ChainComplex):
    """Y -> Y (+) cone(id_W) for a random W: an explicit quasi-isomorphism."""
    W = random_complex(rng.randrange(2 ** 30), Y.ring, Y.lo, Y.hi, 2)
    S, incl_y, _, _, _ = direct_sum_complex(Y, cone(identity_map(W)))
    return incl_y
