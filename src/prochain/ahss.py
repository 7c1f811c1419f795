"""The truncation-filtration spectral sequence of a pair of bounded complexes,
read off the coefficient complexes of the homology of the target: E^2,
convergence checking, and the tower version with colimit coefficients.

Hom(X, Y) has the decreasing filtration F_q = Hom(X, tau_{>= q} Y) (McCleary,
A User's Guide to Spectral Sequences, 2nd ed., sec. 2.2), with
E^2_{p,q} = [X, Sigma^q H(H_q Y)]_{p+q}, the layers of Y being the heart
objects Sigma^q H(H_q Y).  Over Z or F_p the heart object H(A) is K(A), the
two-term free resolution `coefficient_complex(A)`, so

    E^2_{p,q} = [X, K(H_q Y)]_p = H^{-p}(X; H_q Y),

and slot (p, q) is read as derived_hom_data(X, K(H_q Y), p).  Y enters E^2
only through the groups homology(Y, q).

Every d_r is zero, and E^2 = E^r = E^infinity.  Both rings are hereditary,
so every complex of free modules is quasi-isomorphic to the sum of its
shifted homology, Y ~ (+)_q Sigma^q K(H_q Y) (Weibel, An Introduction to
Homological Algebra, sec. 3.6; `chain.minimal_model` builds that sum).  The
truncations of the sum are its partial sums, so the filtration of Hom(X, Y)
splits: every class of E^2_{p,q} is a cycle of Hom(X, Sigma^q K(H_q Y)),
whose boundary is zero and not merely deeper in the filtration.  The later
pages hold the data of E^2; they exist so that reports list every page up
to the stable one.  The general formula with Z_s^q lattices (Romero, Rubio &
Sergeraert, "Computing spectral sequences", J. Symbolic Comput. 41, 2006),
which assumes only that d keeps every F_q, is the oracle of this reading in
the test suite.

The filtration is finite: F_q is everything below the window and zero
past it, so every D-column [X, tau_{>= q} Y]_n ends in zero and has
lim = lim^1 = 0.  A map of towers acts by precomposition, so it induces
its map on E^2 as the map on cohomology H^{-p}(X; H_q Y) -> H^{-p}(X'; H_q Y).

Two readings stay apart from E^2.  The convergence check compares E^2 with
the graded abutment F_q / F_{q+1} of [X, Y]_n, where
F_q = im([X, tau_{>= q} Y]_n -> [X, Y]_n).  That filtration is computed in
the one complex C = Hom(X, Y): the inclusion of Hom(X, tau_{>= q} Y) is
injective in each degree, so F_q is spanned by the classes in H_n(C) of the
cycles of C in its image.  The filtration is a chain of lattices in the
canonical coordinates of [X, Y]_n, one per q and shared where F_q is
constant; `graded` takes one presentation per step F_q / F_{q+1} at which
the lattice changes.  It reads only `truncate_above`, `hom_chain_map`
and the homology of C, so a wrong E^2 shows as a mismatch and is not
compared with itself.  The exact couple of the truncation filtration
(D^2 = [X, tau_{>= q} Y], E^2 = [X, layer_q Y], with i, j, k induced by the
truncation inclusion, the cone inclusion and the cone projection) is kept
as an independent oracle.  Everything outside the finite window is zero,
which the bounded supports justify.

The colimit condition of the convergence check maps X into T_{<= k} Y, the
quotient Y / tau_{>= k+1} Y that `tstruct.truncate_below` builds, the one
model of T_{<= k} in the package.  It has at most the rank of Y, and the
cone of tau_{>= k+1} Y -> Y, which has up to twice that, is its oracle in
the test suite.
"""

from __future__ import annotations

from math import prod
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from . import chain
from .chain import (ChainComplex, ChainMap, coefficient_complex, derived_hom,
                    derived_hom_data, hom_chain_map, homology,
                    homology_support, identity_map, induced_map_on_derived_hom,
                    shift_identification)
from .exactalg.groups import (FgAbGroup, GroupHom, SubquotientData,
                              direct_sum, exact_at, generator_lattice,
                              induced_hom, lattice_quotient, relation_lattice,
                              trivial_group, zero_hom)
from .exactalg.matrices import hcat, kernel_basis, span_lattice
from .exactalg.ring import check_same_ring
from .pro import DirectSystem, GroupOrUnknown, Tower, UnknownValue, colim
from .prohomotopy import hom_to_constant
from .tstruct import (cohomology_with_coefficients, induced_map_on_cohomology,
                      layer_complex, truncate_above, truncate_below,
                      truncation_step)
from .value import Record, Value, store

Slot = Tuple[int, int]


class Window(Value):
    """The slots (p, q) with q_lo <= q <= q_hi and n_lo <= p + q <= n_hi."""

    _fields = ("q_lo", "q_hi", "n_lo", "n_hi")

    def __init__(self, q_lo: int, q_hi: int, n_lo: int, n_hi: int):
        store(self, "q_lo", q_lo)
        store(self, "q_hi", q_hi)
        store(self, "n_lo", n_lo)
        store(self, "n_hi", n_hi)

    def slots(self):
        for q in range(self.q_lo, self.q_hi + 1):
            for n in range(self.n_lo, self.n_hi + 1):
                yield (n - q, q)

    @property
    def width(self) -> int:
        return self.q_hi - self.q_lo + 1


def _window(X: ChainComplex, Y: ChainComplex) -> Window:
    if Y.is_zero or X.is_zero:
        return Window(0, 0, 0, 0)
    return Window(Y.lo - 1, Y.hi + 1, Y.lo - X.hi - 1, Y.hi + 2 - X.lo)


# ---------------------------------------------------------------------------
# Exact couple (the independent oracle)
# ---------------------------------------------------------------------------

class ExactCouple(Window):
    """Bigraded D, E with i, j, k over a window; zero outside."""

    _fields = Window._fields + ("ring", "D", "E", "i", "j", "k")

    def __init__(self, q_lo: int, q_hi: int, n_lo: int, n_hi: int, ring,
                 D: Dict[Slot, FgAbGroup], E: Dict[Slot, FgAbGroup],
                 i: Dict[Slot, GroupHom], j: Dict[Slot, GroupHom],
                 k: Dict[Slot, GroupHom]):
        super().__init__(q_lo, q_hi, n_lo, n_hi)
        store(self, "ring", ring)
        store(self, "D", D)
        store(self, "E", E)
        store(self, "i", i)  # D(p,q) -> D(p+1,q-1)
        store(self, "j", j)  # D(p,q) -> E(p,q)
        store(self, "k", k)  # E(p,q) -> D(p-2,q+1)

    def D_at(self, p, q) -> FgAbGroup:
        return self.D.get((p, q), trivial_group(self.ring))

    def E_at(self, p, q) -> FgAbGroup:
        return self.E.get((p, q), trivial_group(self.ring))

    def i_at(self, p, q) -> GroupHom:
        m = self.i.get((p, q))
        return m if m is not None else zero_hom(self.D_at(p, q),
                                                self.D_at(p + 1, q - 1))

    def j_at(self, p, q) -> GroupHom:
        m = self.j.get((p, q))
        return m if m is not None else zero_hom(self.D_at(p, q), self.E_at(p, q))

    def k_at(self, p, q) -> GroupHom:
        m = self.k.get((p, q))
        return m if m is not None else zero_hom(self.E_at(p, q),
                                                self.D_at(p - 2, q + 1))

    def validate_exactness(self) -> bool:
        """im = ker at every node of every triangle in the window."""
        for (p, q) in self.slots():
            # at D(p,q): im(i from (p-1,q+1)) = ker(j at (p,q))
            if not exact_at(self.i_at(p - 1, q + 1), self.j_at(p, q)):
                return False
            # at E(p,q): im(j) = ker(k)
            if not exact_at(self.j_at(p, q), self.k_at(p, q)):
                return False
            # at D(p-2,q+1): im(k) = ker(i)
            if not exact_at(self.k_at(p, q), self.i_at(p - 2, q + 1)):
                return False
        return True


def build_exact_couple(X: ChainComplex, Y: ChainComplex) -> ExactCouple:
    """The exact couple of the truncation filtration of Y mapped against X."""
    check_same_ring(X, Y)
    ring = X.ring
    w = _window(X, Y)
    D: Dict[Slot, FgAbGroup] = {}
    E: Dict[Slot, FgAbGroup] = {}
    i: Dict[Slot, GroupHom] = {}
    j: Dict[Slot, GroupHom] = {}
    k: Dict[Slot, GroupHom] = {}

    trunc = {q: truncate_above(Y, q)[0] for q in range(w.q_lo, w.q_hi + 2)}
    steps = {q: truncation_step(Y, q) for q in range(w.q_lo, w.q_hi + 1)}
    layers = {q: layer_complex(Y, q) for q in range(w.q_lo, w.q_hi + 1)}

    for (p, q) in w.slots():
        D[(p, q)] = derived_hom(X, trunc[q], p + q)
        E[(p, q)] = derived_hom(X, layers[q][0], p + q)
    # top of the q-range: D at q_hi+1 is zero (trunc above top), keep implicit
    idX = identity_map(X)
    for (p, q) in w.slots():
        n = p + q
        # i: [X, T_{q+1}]_n -> [X, T_q]_n lives at slot (p-1, q+1)
        if q + 1 <= w.q_hi:
            i[(p - 1, q + 1)] = induced_map_on_derived_hom(idX, steps[q], n)
        j[(p, q)] = induced_map_on_derived_hom(idX, layers[q][1], n)
        # k: [X, layer_q]_n -> [X, Sigma T_{q+1}]_n = [X, T_{q+1}]_{n-1}
        kk = induced_map_on_derived_hom(idX, layers[q][2], n)
        k[(p, q)] = shift_identification(X, trunc[q + 1], n).compose(kk)
    return ExactCouple(w.q_lo, w.q_hi, w.n_lo, w.n_hi, ring, D, E, i, j, k)


# ---------------------------------------------------------------------------
# The pages
# ---------------------------------------------------------------------------

class Page(Record):
    """One page of the spectral sequence: slot (p, q) is
    H^{-p}(X; H_q Y), a subquotient of Hom(X, K(H_q Y))_p, when it is
    nonzero, and zero otherwise.  The filtration splits, so every d_r is
    zero and every page holds the data of E^2."""

    _fields = ("r", "data")

    def __init__(self, r: int, data: Dict[Slot, SubquotientData]):
        self.r = r
        self.data = data

    @property
    def groups(self) -> Dict[Slot, FgAbGroup]:
        return {slot: sq.group for slot, sq in self.data.items()}

    def group_at(self, p, q, ring) -> FgAbGroup:
        sq = self.data.get((p, q))
        return sq.group if sq is not None else trivial_group(ring)


class SpectralSequence:
    """The spectral sequence of Hom(X, Y) filtered by the truncations of Y:
    E^2_{p,q} = H^{-p}(X; H_q Y) = [X, K(H_q Y)]_p, on the one model
    K = `coefficient_complex` of each nonzero H_q Y.  Every d_r is zero,
    since over Z or F_p the filtration splits (see the module docstring).

    It is indexed by `window`, by default _window(X, Y); a pair of models
    passes the window of the pair they stand for (`on_minimal_models`)."""

    def __init__(self, X: ChainComplex, Y: ChainComplex,
                 window: Optional[Window] = None):
        check_same_ring(X, Y)
        self.X, self.Y = X, Y
        self.ring = X.ring
        self.window = window if window is not None else _window(X, Y)
        self._graded_memo: Dict[int, Dict[int, SubquotientData]] = {}
        self.pages: List[Page] = [self._e2()]

    # read by the benchmark's convergence check (bench/workloads.py) as
    # `states[0].couple`, for the slots and bounds of the window
    @property
    def states(self):
        return (SimpleNamespace(couple=self.window),)

    def _e2(self) -> Page:
        """E^2_{p,q} = H_p Hom(X, K(H_q Y)), with K(H_q Y) built once per q."""
        w = self.window
        data = {}
        for q in range(w.q_lo, w.q_hi + 1):
            A = homology(self.Y, q)
            if A.is_trivial:
                continue
            K = coefficient_complex(A)
            for n in range(w.n_lo, w.n_hi + 1):
                sq = derived_hom_data(self.X, K, n - q)
                if not sq.group.is_trivial:
                    data[(n - q, q)] = sq
        return Page(2, data)

    def derive(self) -> Page:
        """Appends and returns the next page, which is E^2 again."""
        self.pages.append(Page(self.pages[-1].r + 1, self.pages[0].data))
        return self.pages[-1]

    def stable_r(self) -> int:
        return self.window.width + 2

    def run_to_stable(self) -> Tuple[List[Page], int]:
        target = self.stable_r()
        while self.pages[-1].r < target:
            self.derive()
        return self.pages, target

    def graded(self, n: int) -> Dict[int, SubquotientData]:
        """{q: F_q / F_{q+1}} of abutment_filtration(X, Y, n) for every q in
        the window of (X, Y), computed once per n, each a subquotient of
        [X, Y]_n on the lattice of F_q.  Where F_{q+1} is the lattice F_q
        itself (below Y.lo, past Y.hi, and at every q when [X, Y]_n = 0)
        the piece is the trivial group, built with no elimination;
        elsewhere it is presented by the coordinates of F_{q+1} in F_q.
        F_q is the part of [X, Y]_n carried by the cycles of
        Hom(X, tau_{>= q} Y) inside Hom(X, Y); it reads the truncations of
        Y and not the coefficient complexes E^2 is read on, so comparing it
        with E-infinity is a check and not a tautology."""
        gr = self._graded_memo.get(n)
        if gr is None:
            total, filt = abutment_filtration(self.X, self.Y, n)
            gr = self._graded_memo[n] = {}
            piece = None
            for (q, F), (_, G) in zip(filt, filt[1:]):
                # the steps of a run of one lattice share one trivial piece
                if not (G is F and piece is not None and piece.lattice is F):
                    piece = lattice_quotient(total, F, G)
                gr[q] = piece
        return gr

    def convergence(self) -> ConvergenceReport:
        """Boardman-style conditions plus the slotwise E-infinity comparison.

        lim and lim^1 of every D-column vanish because the filtration is
        finite: the homology of Y sits at q <= q_hi (or X is zero, and with
        it Hom(X, Y)), so F_{q_hi+1} is acyclic and each column is zero from
        q_hi + 1 on.  The colimit condition is `_colimit_condition`, on
        the quotient model of T_{<= k} Y; and the graded comparison compares
        E-infinity slot by slot with `graded`, whose filtration is read off
        the cycles of Hom(X, Y) that come from Hom(X, tau_{>= q} Y), apart
        from E^2.  The slots are those of `window`; a q that `graded` leaves
        out lies outside the window of (X, Y) and reads as the zero group.
        """
        X, Y, w = self.X, self.Y, self.window
        pages, stable = self.run_to_stable()
        einf = pages[-1]
        support = homology_support(Y)
        finite = X.is_zero or support is None or support[1] <= w.q_hi
        colim_ok = _colimit_condition(X, Y, w)

        graded: Dict[Slot, bool] = {}
        zero = trivial_group(self.ring)
        for n in range(w.n_lo, w.n_hi + 1):
            gr = self.graded(n)
            for q in range(w.q_lo, w.q_hi + 1):
                g = gr[q].group if q in gr else zero
                graded[(n - q, q)] = einf.group_at(n - q, q, self.ring).isomorphic(g)
        return ConvergenceReport(finite, finite, colim_ok, stable, graded)


def on_minimal_models(X: ChainComplex, Y: ChainComplex) -> SpectralSequence:
    """The spectral sequence of (X, Y) computed on minimal_model(X) and
    minimal_model(Y), indexed by the window of (X, Y).

    Each model is homotopy equivalent to its complex (see `minimal_model`),
    and E^2 = H^{-p}(X; H_q Y), the abutment [X, Y]_n with its quotients
    F_q / F_{q+1}, and the colimit condition [X, T_{<= k} Y]_n are homotopy
    invariants in X and in Y: the truncations are invariant under
    quasi-isomorphism and keep bounded free complexes.  A model's support
    lies inside its complex's, so every slot of the pair's window outside
    the models' is zero on both sides.  So its pages and report are those
    of SpectralSequence(X, Y), group for group and slot for slot."""
    return SpectralSequence(chain.minimal_model(X), chain.minimal_model(Y),
                            _window(X, Y))


def run_to_stable(X: ChainComplex, Y: ChainComplex) -> Tuple[List[Page], int]:
    return SpectralSequence(X, Y).run_to_stable()


def e2_identification_check(X: ChainComplex, Y: ChainComplex) -> bool:
    """E^2_{p,q} is isomorphic to H^{-p}(X; H_q(Y)) across the window."""
    c = build_exact_couple(X, Y)
    for (p, q) in c.slots():
        lhs = c.E_at(p, q)
        rhs = cohomology_with_coefficients(X, homology(Y, q), -p)
        if not lhs.isomorphic(rhs):
            return False
    return True


# ---------------------------------------------------------------------------
# Abutment and convergence
# ---------------------------------------------------------------------------

# One cold seed-5 `spectral` round calls this 671 times.  442 calls have
# [X, Y]_n = 0 and return before any kernel or lattice; the other 229 span
# 292 interior lattices.  `graded` then presents the 521 steps at which the
# lattice changes, and builds 900 trivial pieces for the 1,993 steps at
# which it does not.  As Subgroups, the same filtrations would build 671
# zero and 229 full subgroups, 292 presentations of F_q that nothing reads,
# and 2,514 quotients.
def abutment_filtration(X: ChainComplex, Y: ChainComplex, n: int):
    """Decreasing filtration F_q = im([X, tau_{>= q} Y]_n -> [X, Y]_n).

    Returns (total group, list of (q, Lattice)): each lattice is F_q in the
    canonical coordinates of [X, Y]_n and contains the relations of the
    total group.  F exhausts at the bottom of the window and vanishes past
    the top: every q <= Y.lo, where the truncation is Y, shares the one
    lattice of all generator vectors, and every q > Y.hi, where it is
    zero, the one lattice of the relations.  When [X, Y]_n = 0 there are
    no generators, and every q shares the first.

    Everything is read inside the one complex C = Hom(X, Y).  In each degree
    the inclusion Hom(X, tau_{>= q} Y) -> C is injective, with matrix S_q =
    Hom(id_X, incl_q), so the cycles of the truncated complex are S_q times
    the kernel of d_n o S_q, and F_q is the span of their classes in
    H_n(C) and of the relations.
    """
    w = _window(X, Y)
    data = derived_hom_data(X, Y, n)
    total = data.group
    whole = generator_lattice(total)
    qs = range(w.q_lo, w.q_hi + 2)
    if total.is_trivial:
        return total, [(q, whole) for q in qs]
    zero = relation_lattice(total)
    # the lookup derived_hom_data makes, so that d and H_n(C) share one C
    d = chain.hom_complex(X, Y).complex.diff(n)
    idX = identity_map(X)
    out = []
    for q in qs:
        if q <= Y.lo:
            F = whole
        elif q > Y.hi:
            F = zero
        else:
            S = hom_chain_map(idX, truncate_above(Y, q)[1], n)
            cycles = S @ kernel_basis(d @ S)
            F = span_lattice(hcat(data.encode_matrix(cycles), zero.basis))
        out.append((q, F))
    return total, out


def _colimit_condition(X: ChainComplex, Y: ChainComplex, w: Window) -> bool:
    """[X, T_{<= n-q} Y]_n = 0 for every n of the window and q = 1-m, 2-m,
    with m the lowest degree of H_* X (true when X is acyclic).

    T_{<= k} Y is the quotient Y / tau_{>= k+1} Y of `truncate_below`,
    read without its anchor.  (n, 1-m) and (n+1, 2-m) share k, so each
    quotient is built once."""
    xsup = homology_support(X)
    if xsup is None:
        return True
    m = xsup[0]
    below = {k: truncate_below(Y, k) for k in range(w.n_lo - 2 + m, w.n_hi + m)}
    return all(chain.homology(chain.hom_complex(X, below[n - q]).complex, n).is_trivial
               for n in range(w.n_lo, w.n_hi + 1) for q in (1 - m, 2 - m))


class ConvergenceReport(Record):
    _fields = ("lim_ok", "lim1_ok", "colim_ok", "stable_page", "graded_comparison")

    def __init__(self, lim_ok: bool, lim1_ok: bool, colim_ok: bool, stable_page: int,
                 graded_comparison: Dict[Slot, bool]):
        self.lim_ok = lim_ok
        self.lim1_ok = lim1_ok
        self.colim_ok = colim_ok
        self.stable_page = stable_page
        self.graded_comparison = graded_comparison

    @property
    def all_iso(self) -> bool:
        return (self.lim_ok and self.lim1_ok and self.colim_ok
                and all(self.graded_comparison.values()))


def convergence_check(X: ChainComplex, Y: ChainComplex) -> ConvergenceReport:
    """SpectralSequence(X, Y).convergence(): the lim/lim^1 and colimit
    conditions, and E-infinity against the graded abutment slot by slot.
    It is computed on the minimal models in the window of (X, Y)
    (`on_minimal_models`), so the report is that of the pair."""
    return on_minimal_models(X, Y).convergence()


# ---------------------------------------------------------------------------
# Pro (tower) version
# ---------------------------------------------------------------------------

class ProAhssReport(Record):
    _fields = ("e2", "abutment", "slot_comparison", "total_comparison",
               "levelwise_all_iso")

    def __init__(self, e2: Dict[Slot, GroupOrUnknown], abutment: Dict[int, GroupOrUnknown],
                 slot_comparison: Dict[Slot, str], total_comparison: Dict[int, str],
                 levelwise_all_iso: bool):
        self.e2 = e2
        self.abutment = abutment
        self.slot_comparison = slot_comparison    # "iso" | "mismatch" | "unknown"
        self.total_comparison = total_comparison  # per n: "iso" | "order_match" | ...
        self.levelwise_all_iso = levelwise_all_iso

    @property
    def comparison_holds(self) -> bool:
        return (self.levelwise_all_iso
                and all(v == "iso" for v in self.slot_comparison.values())
                and all(v == "iso" for v in self.total_comparison.values()))


def _e2_maps(g: ChainMap, src: SpectralSequence, tgt: SpectralSequence,
             slots) -> Dict[Slot, GroupHom]:
    """The maps g: X' -> X induces from E^2 of (X, Y) to E^2 of (X', Y),
    slot by slot: g^* on H^{-p}(-; H_q Y), precomposition with g on
    [X, K(H_q Y)]_p."""
    a, b = src.pages[0], tgt.pages[0]
    out = {}
    for (p, q) in slots:
        if (p, q) in a.data and (p, q) in b.data:
            out[(p, q)] = induced_map_on_cohomology(g, homology(src.Y, q), -p)
        else:
            out[(p, q)] = zero_hom(a.group_at(p, q, src.ring), b.group_at(p, q, tgt.ring))
    return out


def pro_ahss(X: Tower, Y: ChainComplex,
             n_window: Optional[Tuple[int, int]] = None) -> ProAhssReport:
    """The tower spectral sequence with constant coefficients Y.

    Each E2 slot is colim_s H^{-p}(X_s; H_q Y): the colimit over the tower
    of the levelwise E^2, with the maps g^* the structure maps induce on
    cohomology.  Every level's filtration splits, so every d_r is zero and
    that is also the colimit of the levelwise E-infinity.  The abutment is
    colim_s [X_s, Y]_n; the comparison colimits the levelwise filtration
    quotients (with induced maps) and checks invariant-factor equality
    against E2 per slot.  Unknown propagates slotwise.
    """
    N = X.tail.start
    ring = Y.ring
    windows = [_window(X.entry(s), Y) for s in range(N + 1)]
    q_lo = min(w.q_lo for w in windows)
    q_hi = max(w.q_hi for w in windows)
    n_lo, n_hi = n_window if n_window is not None else (
        min(w.n_lo for w in windows), max(w.n_hi for w in windows))

    # abutment
    abutment = {n: hom_to_constant(X, Y, n) for n in range(n_lo, n_hi + 1)}

    # levelwise spectral sequences, one per distinct entry, checked for
    # convergence; E^infinity is their E^2
    built: Dict[ChainComplex, SpectralSequence] = {}
    for s in range(N + 1):
        if X.entry(s) not in built:
            built[X.entry(s)] = SpectralSequence(X.entry(s), Y)
    levelwise_all_iso = all(seq.convergence().all_iso for seq in built.values())
    ss = [built[X.entry(s)] for s in range(N + 1)]

    slots = [(n - q, q) for q in range(q_lo, q_hi + 1) for n in range(n_lo, n_hi + 1)]
    structure = [_e2_maps(X.structure[s], ss[s], ss[s + 1], slots)
                 for s in range(N)]
    tail = X.tail.mapped(N, lambda endo: _e2_maps(endo, ss[N], ss[N], slots))

    e2: Dict[Slot, GroupOrUnknown] = {}
    slot_comparison: Dict[Slot, str] = {}
    gr_colim: Dict[Slot, GroupOrUnknown] = {}
    for slot in slots:
        entries = tuple(seq.pages[0].group_at(*slot, ring) for seq in ss)
        e2[slot] = einf = colim(DirectSystem(entries, tuple(m[slot] for m in structure),
                                             tail.mapped(N, lambda maps: maps[slot])))
        gr_colim[slot] = _colim_gr_slot(X, ss, Y, slot)
        if isinstance(einf, UnknownValue) or isinstance(gr_colim[slot], UnknownValue):
            slot_comparison[slot] = "unknown"
        else:
            slot_comparison[slot] = "iso" if einf.isomorphic(gr_colim[slot]) else "mismatch"

    total_comparison: Dict[int, str] = {}
    for n in range(n_lo, n_hi + 1):
        pieces = []
        unknown = False
        for q in range(q_lo, q_hi + 1):
            v = gr_colim.get((n - q, q))
            if v is None:
                continue
            if isinstance(v, UnknownValue):
                unknown = True
                break
            pieces.append(v)
        ab = abutment[n]
        if unknown or isinstance(ab, UnknownValue):
            total_comparison[n] = "unknown"
            continue
        total = direct_sum(pieces, ring)
        if total.isomorphic(ab):
            total_comparison[n] = "iso"
        elif _same_order(total, ab):
            total_comparison[n] = "order_match_extension_unresolved"
        else:
            total_comparison[n] = "mismatch"
    return ProAhssReport(e2, abutment, slot_comparison, total_comparison,
                         levelwise_all_iso)


def _same_order(a: FgAbGroup, b: FgAbGroup) -> bool:
    return (a.free_rank == b.free_rank
            and prod(a.invariant_factors) == prod(b.invariant_factors))


def _colim_gr_slot(X: Tower, ss: List[SpectralSequence], Y: ChainComplex,
                   slot: Slot) -> GroupOrUnknown:
    """colim over the tower of the filtration quotients gr_q [X_s, Y]_n, read
    from the levelwise sequences ss; a q outside a level's window is zero."""
    p, q = slot
    n = p + q
    idY = identity_map(Y)
    data = [seq.graded(n).get(q) for seq in ss]
    entries = [trivial_group(Y.ring) if d is None else d.group for d in data]

    def gr_map(g: ChainMap, s: int, t: int) -> GroupHom:
        if entries[s].is_trivial or entries[t].is_trivial:
            return zero_hom(entries[s], entries[t])
        rho = induced_map_on_derived_hom(g, idY, n)
        return induced_hom(data[s], rho.matrix, data[t])

    return colim(X.levelwise(DirectSystem, entries.__getitem__, gr_map))
