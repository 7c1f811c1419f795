"""The truncation-filtration spectral sequence as an executable exact-couple
engine: construction from a pair of bounded complexes, page derivation,
stabilization, abutment filtration, convergence checking, and the tower
version with colimit coefficients.

D^2_{p,q} = [X, tau_{>= q} Y]_{p+q} and E^2_{p,q} = [X, layer_q Y]_{p+q}
over a finite window; i, j, k are induced by the truncation inclusion, the
cone inclusion, and the cone projection (bidegrees (1,-1), (0,0), (-2,1)).
Everything outside the window is implicitly zero, which the bounded supports
justify.  d_r has bidegree (-r, r-1); pages stabilize once r exceeds the
q-window width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .chain import (ChainComplex, ChainMap, derived_hom, homology,
                    homology_support, identity_map,
                    induced_map_on_derived_hom, shift_identification)
from .errors import ExactnessViolation
from .exactalg.groups import (FgAbGroup, GroupHom, Subgroup, SubquotientData,
                              direct_sum, exact_at, express_through, hom,
                              image, induced_hom, kernel, preimage_matrix,
                              subquotient, trivial_group, zero_hom)
from .exactalg.ring import check_same_ring
from .pro import (DEFAULT_BUDGET, DirectSystem, GroupOrUnknown, TailPolicy,
                  Tower, UnknownValue, colim)
from .prohomotopy import derived_hom_system, hom_to_constant
from .tstruct import (cohomology_with_coefficients, layer_complex,
                      truncate_above, truncate_below_free, truncation_step)

Slot = Tuple[int, int]


# ---------------------------------------------------------------------------
# Exact couple
# ---------------------------------------------------------------------------

@dataclass
class ExactCouple:
    """Bigraded D, E with i, j, k over a finite window; zero outside."""

    ring: object
    q_lo: int
    q_hi: int
    n_lo: int
    n_hi: int
    D: Dict[Slot, FgAbGroup]
    E: Dict[Slot, FgAbGroup]
    i: Dict[Slot, GroupHom]   # D(p,q) -> D(p+1,q-1)
    j: Dict[Slot, GroupHom]   # D(p,q) -> E(p - j_offset, q + j_offset)
    k: Dict[Slot, GroupHom]   # E(p,q) -> D(p-2,q+1)
    j_offset: int = 0

    def slots(self):
        for q in range(self.q_lo, self.q_hi + 1):
            for n in range(self.n_lo, self.n_hi + 1):
                yield (n - q, q)

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
        if m is not None:
            return m
        return zero_hom(self.D_at(p, q),
                        self.E_at(p - self.j_offset, q + self.j_offset))

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


def _window(X: ChainComplex, Y: ChainComplex):
    if Y.is_zero or X.is_zero:
        return (0, 0, 0, 0)
    q_lo, q_hi = Y.lo - 1, Y.hi + 1
    n_lo = Y.lo - X.hi - 1
    n_hi = Y.hi + 2 - X.lo
    return q_lo, q_hi, n_lo, n_hi


def build_exact_couple(X: ChainComplex, Y: ChainComplex) -> ExactCouple:
    """The exact couple of the truncation filtration of Y mapped against X."""
    check_same_ring(X, Y)
    ring = X.ring
    q_lo, q_hi, n_lo, n_hi = _window(X, Y)
    D: Dict[Slot, FgAbGroup] = {}
    E: Dict[Slot, FgAbGroup] = {}
    i: Dict[Slot, GroupHom] = {}
    j: Dict[Slot, GroupHom] = {}
    k: Dict[Slot, GroupHom] = {}

    trunc = {q: truncate_above(Y, q)[0] for q in range(q_lo, q_hi + 2)}
    steps = {q: truncation_step(Y, q) for q in range(q_lo, q_hi + 1)}
    layers = {q: layer_complex(Y, q) for q in range(q_lo, q_hi + 1)}

    for q in range(q_lo, q_hi + 1):
        Tq = trunc[q]
        Lq, incl_q, proj_q = layers[q]
        for n in range(n_lo, n_hi + 1):
            p = n - q
            D[(p, q)] = derived_hom(X, Tq, n)
            E[(p, q)] = derived_hom(X, Lq, n)
    # top of the q-range: D at q_hi+1 is zero (trunc above top), keep implicit
    idX = identity_map(X)
    for q in range(q_lo, q_hi + 1):
        for n in range(n_lo, n_hi + 1):
            p = n - q
            # i: [X, T_{q+1}]_n -> [X, T_q]_n lives at slot (p-1, q+1)
            if q + 1 <= q_hi:
                i[(p - 1, q + 1)] = induced_map_on_derived_hom(idX, steps[q], n)
            j[(p, q)] = induced_map_on_derived_hom(idX, layers[q][1], n)
            # k: [X, layer_q]_n -> [X, Sigma T_{q+1}]_n = [X, T_{q+1}]_{n-1}
            kk = induced_map_on_derived_hom(idX, layers[q][2], n)
            ident = shift_identification(X, trunc[q + 1], n)
            k[(p, q)] = ident.compose(kk)
    return ExactCouple(ring, q_lo, q_hi, n_lo, n_hi, D, E, i, j, k)


# ---------------------------------------------------------------------------
# Pages and derivation
# ---------------------------------------------------------------------------

@dataclass
class Page:
    """One page of the spectral sequence; differentials have bidegree
    (-r, r-1) and everything outside `groups` is zero."""

    r: int
    groups: Dict[Slot, FgAbGroup]
    differentials: Dict[Slot, GroupHom]
    # anchoring of each slot in the previous page (None on the base page)
    sq: Optional[Dict[Slot, SubquotientData]] = None
    prev: Optional["Page"] = None

    def group_at(self, p, q, ring) -> FgAbGroup:
        return self.groups.get((p, q), trivial_group(ring))


@dataclass
class _CoupleState:
    r: int
    couple: ExactCouple


class SpectralSequence:
    """Exact-couple engine: holds the page-2 couple and derives pages."""

    def __init__(self, X: ChainComplex, Y: ChainComplex, validate: bool = True):
        self.X, self.Y = X, Y
        self.ring = X.ring
        base = build_exact_couple(X, Y)
        if validate and not base.validate_exactness():
            raise ExactnessViolation("page-2 couple is not exact")
        self.states: List[_CoupleState] = [_CoupleState(2, base)]
        self.pages: List[Page] = [self._page_from_state(self.states[0], None)]

    # -- differentials -----------------------------------------------------

    def _differential(self, state: _CoupleState, p: int, q: int) -> GroupHom:
        c = state.couple
        return c.j_at(p - 2, q + 1).compose(c.k_at(p, q))

    def _page_from_state(self, state: _CoupleState, prev_data) -> Page:
        c = state.couple
        off = c.j_offset
        groups = {s: g for s, g in c.E.items() if not g.is_trivial}
        diffs = {}
        r = state.r
        for (p, q) in c.slots():
            d = self._differential(state, p, q)
            # target slot of j after offset: (p - 2 - off, q + 1 + off)
            if not d.is_zero or (not c.E_at(p, q).is_trivial
                                 and not c.E_at(p - 2 - off, q + 1 + off).is_trivial):
                diffs[(p, q)] = d
        sq, prev = (prev_data if prev_data else (None, None))
        return Page(r, groups, diffs, sq, prev)

    def derive(self) -> Page:
        """One derivation step; appends and returns the next page."""
        state = self.states[-1]
        c = state.couple
        off = c.j_offset
        ring = self.ring

        newD: Dict[Slot, FgAbGroup] = {}
        newE: Dict[Slot, FgAbGroup] = {}
        newi: Dict[Slot, GroupHom] = {}
        newj: Dict[Slot, GroupHom] = {}
        newk: Dict[Slot, GroupHom] = {}
        d_sub: Dict[Slot, Subgroup] = {}
        sq_data: Dict[Slot, SubquotientData] = {}

        # derived D: images of i
        for (p, q) in c.slots():
            sub = image(c.i_at(p - 1, q + 1))
            d_sub[(p, q)] = sub
            if not sub.group.is_trivial:
                newD[(p, q)] = sub.group

        # derived E: homology of d at each slot
        for (p, q) in c.slots():
            Epq = c.E_at(p, q)
            d_out = self._differential(state, p, q)
            src_in = (p + 2 + off, q - 1 - off)
            d_in = self._differential(state, *src_in)
            ker_sub = kernel(d_out)
            im_sub = image(d_in)
            sq = subquotient(Epq, ker_sub, im_sub)
            sq_data[(p, q)] = sq
            if not sq.group.is_trivial:
                newE[(p, q)] = sq.group

        def Dnew(p, q):
            return newD.get((p, q), trivial_group(ring))

        def Enew(p, q):
            return newE.get((p, q), trivial_group(ring))

        # derived structure maps
        for (p, q) in c.slots():
            src = Dnew(p, q)
            # i' = restriction of i
            tgt = Dnew(p + 1, q - 1)
            if src.is_trivial or tgt.is_trivial:
                newi[(p, q)] = zero_hom(src, tgt)
            else:
                comp = c.i_at(p, q).compose(d_sub[(p, q)].inclusion)
                newi[(p, q)] = express_through(d_sub[(p + 1, q - 1)].inclusion, comp)
            # k' on homology classes of E
            esrc = Enew(p, q)
            ktgt = Dnew(p - 2, q + 1)
            if esrc.is_trivial or ktgt.is_trivial:
                newk[(p, q)] = zero_hom(esrc, ktgt)
            else:
                newk[(p, q)] = induced_hom(sq_data[(p, q)], c.k_at(p, q).matrix,
                                           d_sub[(p - 2, q + 1)])
            # j'(i x) = [j x]; target slot shifts one step left-and-up
            jt = (p - 1 - off, q + 1 + off)
            jtgt = Enew(*jt)
            if src.is_trivial or jtgt.is_trivial:
                newj[(p, q)] = zero_hom(src, jtgt)
            else:
                # lift every generator of the derived D through i at once
                x = preimage_matrix(c.i_at(p - 1, q + 1), d_sub[(p, q)].inclusion.matrix)
                if x is None:
                    raise ExactnessViolation("derived D element has no i-preimage")
                jx = c.j_at(p - 1, q + 1).matrix @ x
                newj[(p, q)] = hom(src, jtgt, sq_data[jt].encode_matrix(jx))

        nc = ExactCouple(ring, c.q_lo, c.q_hi, c.n_lo, c.n_hi,
                         newD, newE, newi, newj, newk, j_offset=off + 1)
        nstate = _CoupleState(state.r + 1, nc)
        self.states.append(nstate)
        page = self._page_from_state(nstate, (sq_data, self.pages[-1]))
        self.pages.append(page)
        return page

    def stable_r(self) -> int:
        width = self.states[0].couple.q_hi - self.states[0].couple.q_lo + 1
        return width + 2

    def run_to_stable(self) -> Tuple[List[Page], int]:
        target = self.stable_r()
        while self.states[-1].r < target:
            self.derive()
        return self.pages, target


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

def abutment_filtration(X: ChainComplex, Y: ChainComplex, n: int):
    """Decreasing filtration F_q = im([X, tau_{>= q} Y]_n -> [X, Y]_n).

    Returns (total group, list of (q, Subgroup)); F exhausts at the bottom
    of the window and vanishes past the top.
    """
    q_lo, q_hi, _, _ = _window(X, Y)
    idX = identity_map(X)
    total = derived_hom(X, Y, n)
    out = []
    for q in range(q_lo, q_hi + 2):
        T, incl = truncate_above(Y, q)
        anchor = induced_map_on_derived_hom(idX, incl, n)
        out.append((q, image(anchor)))
    return total, out


@dataclass
class ConvergenceReport:
    lim_ok: bool
    lim1_ok: bool
    colim_ok: bool
    stable_page: int
    graded_comparison: Dict[Slot, bool]

    @property
    def all_iso(self) -> bool:
        return (self.lim_ok and self.lim1_ok and self.colim_ok
                and all(self.graded_comparison.values()))


def convergence_check(X: ChainComplex, Y: ChainComplex,
                      budget: int = DEFAULT_BUDGET) -> ConvergenceReport:
    """Boardman-style conditions plus the slotwise E-infinity comparison.

    lim/lim^1 vanishing of the D-columns is checked through the tower
    machinery (the columns are eventually literally zero); the colimit
    condition through vanishing of [X, T_{<= n-q} Y]_n for large q; and
    the graded comparison comapres E-infinity with the filtration quotients
    slot by slot.
    """
    return _convergence_report(SpectralSequence(X, Y), budget)


def _convergence_report(ss: SpectralSequence, budget: int) -> ConvergenceReport:
    """convergence_check on an already built spectral sequence of (X, Y)."""
    from .pro import lim_lim1, Lim1Verdict
    X, Y = ss.X, ss.Y
    pages, stable = ss.run_to_stable()
    einf = pages[-1]
    c = ss.states[0].couple
    ring = X.ring

    lim_ok = True
    lim1_ok = True
    for n in range(c.n_lo, c.n_hi + 1):
        entries = []
        structure = []
        for s in range(c.q_hi - c.q_lo + 2):
            q = c.q_lo + s
            entries.append(c.D_at(n - q, q))
        for s in range(len(entries) - 1):
            q = c.q_lo + s
            structure.append(c.i_at(n - q - 1, q + 1))
        tower = Tower(tuple(entries), tuple(structure),
                      TailPolicy.constant_from(len(entries) - 1))
        res = lim_lim1(tower, budget)
        if isinstance(res.lim, UnknownValue) or not res.lim.is_trivial:
            lim_ok = False
        if res.lim1 != Lim1Verdict.ZERO:
            lim1_ok = False

    colim_ok = True
    xsup = homology_support(X)
    if xsup is not None:
        m = xsup[0]
        for n in range(c.n_lo, c.n_hi + 1):
            for q in (1 - m, 2 - m):
                val = derived_hom(X, truncate_below_free(Y, n - q)[0], n)
                if not val.is_trivial:
                    colim_ok = False

    graded: Dict[Slot, bool] = {}
    for n in range(c.n_lo, c.n_hi + 1):
        total, filt = abutment_filtration(X, Y, n)
        subgroups = dict(filt)
        for q in range(c.q_lo, c.q_hi + 1):
            p = n - q
            e_grp = einf.group_at(p, q, ring)
            gr = subquotient(total, subgroups[q], subgroups[q + 1]).group
            graded[(p, q)] = e_grp.isomorphic(gr)
    return ConvergenceReport(lim_ok, lim1_ok, colim_ok, stable, graded)


# ---------------------------------------------------------------------------
# Maps of spectral sequences (needed for the tower version)
# ---------------------------------------------------------------------------

def induced_e2_maps(g: ChainMap, Y: ChainComplex,
                    ss_src: SpectralSequence, ss_tgt: SpectralSequence,
                    slots) -> Dict[Slot, GroupHom]:
    """Per-slot maps E2(X_s) -> E2(X_{s'}) induced by g: X_{s'} -> X_s."""
    c_s = ss_src.states[0].couple
    c_t = ss_tgt.states[0].couple
    out = {}
    for (p, q) in slots:
        src = c_s.E_at(p, q)
        tgt = c_t.E_at(p, q)
        if src.is_trivial or tgt.is_trivial:
            out[(p, q)] = zero_hom(src, tgt)
        else:
            L, _, _ = layer_complex(Y, q)
            out[(p, q)] = induced_map_on_derived_hom(g, identity_map(L), p + q)
    return out


def push_maps_to_page(ss_src: SpectralSequence, ss_tgt: SpectralSequence,
                      base_maps: Dict[Slot, GroupHom], r: int) -> Dict[Slot, GroupHom]:
    """Transport slotwise E2 maps through derivations to page r."""
    maps = dict(base_maps)
    slots = list(base_maps)
    for idx in range(1, len(ss_src.pages)):
        if ss_src.pages[idx].r > r:
            break
        page_s = ss_src.pages[idx]
        page_t = ss_tgt.pages[idx]
        nxt = {}
        for (p, q) in slots:
            src = page_s.groups.get((p, q), trivial_group(ss_src.ring))
            tgt = page_t.groups.get((p, q), trivial_group(ss_tgt.ring))
            if src.is_trivial or tgt.is_trivial:
                nxt[(p, q)] = zero_hom(src, tgt)
                continue
            nxt[(p, q)] = induced_hom(page_s.sq[(p, q)], maps[(p, q)].matrix,
                                      page_t.sq[(p, q)])
        maps = nxt
    return maps


# ---------------------------------------------------------------------------
# Pro (tower) version
# ---------------------------------------------------------------------------

@dataclass
class ProAhssReport:
    e2: Dict[Slot, GroupOrUnknown]
    abutment: Dict[int, GroupOrUnknown]
    slot_comparison: Dict[Slot, str]   # "iso" | "mismatch" | "unknown"
    total_comparison: Dict[int, str]   # per n: "iso" | "order_match" | ...
    levelwise_all_iso: bool

    @property
    def comparison_holds(self) -> bool:
        return (self.levelwise_all_iso
                and all(v == "iso" for v in self.slot_comparison.values())
                and all(v == "iso" for v in self.total_comparison.values()))


def pro_ahss(X: Tower, Y: ChainComplex, n_window: Optional[Tuple[int, int]] = None,
             budget: int = DEFAULT_BUDGET) -> ProAhssReport:
    """The tower spectral sequence with constant coefficients Y.

    E2 slots are colimits over the tower of levelwise coefficient
    cohomology; the abutment is colim_s [X_s, Y]_n; the comparison colimits
    the levelwise E-infinity terms and filtration quotients (with induced
    maps) and checks invariant-factor equality per slot.  Unknown
    propagates slotwise.
    """
    N = X.tail.start
    ring = Y.ring
    # window from the largest entry
    q_lo, q_hi, n_lo, n_hi = _window(X.entry(0), Y)
    for s in range(N + 1):
        a, b, cc, d = _window(X.entry(s), Y)
        q_lo, q_hi = min(q_lo, a), max(q_hi, b)
        n_lo, n_hi = min(n_lo, cc), max(n_hi, d)
    if n_window is not None:
        n_lo, n_hi = n_window

    # E2 via colimits of coefficient cohomology
    e2: Dict[Slot, GroupOrUnknown] = {}
    for q in range(q_lo, q_hi + 1):
        Hq = homology(Y, q)
        for n in range(n_lo, n_hi + 1):
            p = n - q
            sys = _cohomology_system(X, Hq, p)
            e2[(p, q)] = colim(sys, budget).value

    # abutment
    abutment = {n: hom_to_constant(X, Y, n, budget) for n in range(n_lo, n_hi + 1)}

    # levelwise spectral sequences and their colimits
    ss = {}
    reports = {}  # one per distinct entry, from the sequence built for it
    distinct = {}
    for s in range(N + 1):
        key = X.entry(s)
        if key not in distinct:
            distinct[key] = SpectralSequence(key, Y)
            reports[key] = _convergence_report(distinct[key], budget)
        ss[s] = distinct[key]
    levelwise_all_iso = all(r.all_iso for r in reports.values())

    slot_comparison: Dict[Slot, str] = {}
    einf_colim: Dict[Slot, GroupOrUnknown] = {}
    gr_colim: Dict[Slot, GroupOrUnknown] = {}
    r_top = max(ss[s].pages[-1].r for s in range(N + 1))
    for s in range(N + 1):
        while ss[s].pages[-1].r < r_top:
            ss[s].derive()

    all_slots = list(e2.keys())
    pushed_structure = []
    for s in range(N):
        base = induced_e2_maps(X.structure[s], Y, ss[s], ss[s + 1], all_slots)
        pushed_structure.append(push_maps_to_page(ss[s], ss[s + 1], base, r_top))
    # a tail whose endo is the slotwise map the tower's endo induces on E_r
    pushed_tail = X.tail.mapped(N, lambda endo: push_maps_to_page(
        ss[N], ss[N], induced_e2_maps(endo, Y, ss[N], ss[N], all_slots), r_top))

    for (p, q) in list(e2.keys()):
        einf_colim[(p, q)] = _colim_einf_slot(X, Y, ss, (p, q),
                                              pushed_structure, pushed_tail, budget)
        gr_colim[(p, q)] = _colim_gr_slot(X, Y, (p, q), budget)
        a, b = einf_colim[(p, q)], gr_colim[(p, q)]
        if isinstance(a, UnknownValue) or isinstance(b, UnknownValue):
            slot_comparison[(p, q)] = "unknown"
        else:
            slot_comparison[(p, q)] = "iso" if a.isomorphic(b) else "mismatch"

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
    if a.free_rank != b.free_rank:
        return False
    pa = 1
    for d in a.invariant_factors:
        pa *= d
    pb = 1
    for d in b.invariant_factors:
        pb *= d
    return pa == pb


def _cohomology_system(X: Tower, A: FgAbGroup, p: int) -> DirectSystem:
    """Direct system H^{-p}(X_s; A) with precomposition transitions."""
    from .tstruct import coefficient_complex
    K = coefficient_complex(A)
    return derived_hom_system(X, K, p)


def _colim_einf_slot(X: Tower, Y: ChainComplex, ss, slot: Slot,
                     pushed_structure, pushed_tail, budget: int) -> GroupOrUnknown:
    """colim over the tower of the E-infinity groups at one slot, along the
    maps induced by the structure maps (transported through all pages)."""
    N = X.tail.start
    entries = []
    for s in range(N + 1):
        entries.append(ss[s].pages[-1].groups.get(slot, trivial_group(Y.ring)))
    structure = [pushed_structure[s][slot] for s in range(N)]
    tail = pushed_tail.mapped(N, lambda maps: maps[slot])
    return colim(DirectSystem(tuple(entries), tuple(structure), tail), budget).value


def _colim_gr_slot(X: Tower, Y: ChainComplex, slot: Slot,
                   budget: int) -> GroupOrUnknown:
    """colim over the tower of the filtration quotients gr_q [X_s, Y]_n."""
    p, q = slot
    n = p + q
    N = X.tail.start
    idY = identity_map(Y)

    def gr_data(Xs: ChainComplex) -> SubquotientData:
        total, filt = abutment_filtration(Xs, Y, n)
        subs = dict(filt)
        return subquotient(total, subs[q], subs[q + 1])

    data = [gr_data(X.entry(s)) for s in range(N + 1)]
    entries = tuple(d.group for d in data)

    def gr_map(g: ChainMap, src: SubquotientData, tgt: SubquotientData) -> GroupHom:
        if src.group.is_trivial or tgt.group.is_trivial:
            return zero_hom(src.group, tgt.group)
        rho = induced_map_on_derived_hom(g, idY, n)
        return induced_hom(src, rho.matrix, tgt)

    structure = tuple(gr_map(X.structure[s], data[s], data[s + 1])
                      for s in range(N))
    tail = X.tail.mapped(N, lambda endo: gr_map(endo, data[N], data[N]))
    return colim(DirectSystem(entries, structure, tail), budget).value
