"""Homotopy theory of towers of chain complexes: weak-equivalence detection
through pro-homology, Postnikov replacement, fibrancy, and hom groups into
and out of constant towers.

A level map of towers is a weak equivalence when it is a levelwise
m-equivalence for a single m (automatic here: bounded entries and repeating
tails force a uniform bound) and induces pro-isomorphisms on all homology
towers.  The homology support is finite, so the check is a finite loop.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .chain import (ChainComplex, chain_map, derived_hom, homology_data,
                    homology_support, induced_homology_map,
                    induced_map_on_derived_hom, identity_map)
from .errors import WindowViolation
from .pro import (DirectSystem, GroupOrUnknown, Lim1Verdict, ProMap, Tower,
                  UnknownValue, _lim_of_colims, colim, is_pro_isomorphism,
                  level_map, lim_lim1)
from .tstruct import (classify_map, is_degreewise_split_mono,
                      is_degreewise_surjection, truncate_below_free)
from .value import Value, store


class HStarVerdict(Value):
    _fields = ("verdict", "reason", "failed_degree", "m_witness")

    def __init__(self, verdict: str, reason: str = "",
                 failed_degree: Optional[int] = None, m_witness: Optional[int] = None):
        store(self, "verdict", verdict)  # "weak_equivalence" | "not"; always decided
        store(self, "reason", reason)
        store(self, "failed_degree", failed_degree)
        store(self, "m_witness", m_witness)  # uniform levelwise m-equivalence bound

    def __bool__(self):
        return self.verdict == "weak_equivalence"


def tower_homology_support(T: Tower) -> Optional[Tuple[int, int]]:
    """Combined homology support over all entries (tails repeat entries)."""
    los, his = [], []
    for s in range(T.tail.start + 1):
        sup = homology_support(T.entry(s))
        if sup:
            los.append(sup[0])
            his.append(sup[1])
    if not los:
        return None
    return min(los), max(his)


def homology_tower(T: Tower, n: int) -> Tower:
    """Apply H_n levelwise; the tail policy carries over.  The entries are
    the groups of `homology_data`, which the structure maps act on."""
    return T.levelwise(Tower, lambda s: homology_data(T.entry(s), n).group,
                       lambda f, s, t: induced_homology_map(f, n))


def induced_homology_pro_map(f: ProMap, n: int) -> ProMap:
    src = homology_tower(f.source, n)
    tgt = homology_tower(f.target, n)
    comps = tuple(induced_homology_map(f.comp(t), n)
                  for t in range(f.window + 1))
    return ProMap(src, tgt, f.shift, comps)


def is_hstar_weak_equivalence(f: ProMap) -> HStarVerdict:
    """Two-clause test: a uniform levelwise m-equivalence bound plus
    pro-isomorphism on every homology tower in the combined support."""
    ms = []
    for t in range(f.window + 2):
        c = classify_map(f.comp(t))
        ms.append(c.max_n_equivalence)
    m = min(ms)
    # bounded entries and repeating components always give a finite m, so
    # clause 1 never fails here; it is recorded as the witness
    sup_s = tower_homology_support(f.source)
    sup_t = tower_homology_support(f.target)
    if sup_s is None and sup_t is None:
        return HStarVerdict("weak_equivalence",
                            m_witness=None if m == float("inf") else int(m))
    lo = min(s[0] for s in (sup_s, sup_t) if s)
    hi = max(s[1] for s in (sup_s, sup_t) if s)
    for n in range(lo, hi + 1):
        if not is_pro_isomorphism(induced_homology_pro_map(f, n)):
            return HStarVerdict("not", reason=f"H_{n} is not a pro-isomorphism",
                                failed_degree=n)
    return HStarVerdict("weak_equivalence",
                        m_witness=None if m == float("inf") else int(m))


# ---------------------------------------------------------------------------
# Postnikov replacement
# ---------------------------------------------------------------------------

def postnikov_replacement(Y: Tower) -> Tuple[Tower, ProMap]:
    """Diagonal flattening of the doubly indexed system of truncations
    T_{<= n} Y_s, together with the canonical level map Y -> Z.

    Entry k is T_{<= n0+k} Y_k where n0 is the bottom of the combined
    homology support; once the cut passes every module degree the entries
    literally equal the tower's own, so the tail policy carries over.
    """
    sup = tower_homology_support(Y)
    N = Y.tail.start
    top_mod = max(Y.entry(s).hi for s in range(N + 1))
    n0 = sup[0] if sup else top_mod
    # entries stabilize once n0 + k >= top_mod and k >= N
    K = max(N, top_mod - n0) + 1

    def cut(k: int) -> int:
        return n0 + k

    entries = []
    anchors = []
    for k in range(K + 1):
        C, anchor = truncate_below_free(Y.entry(k), cut(k))
        entries.append(C)
        anchors.append(anchor)
    structure = []
    for k in range(K):
        # T_{<= cut(k)+1} Y_{k+1} -> T_{<= cut(k)} Y_k: f up to degree
        # cut(k), where both ends are Y's own, and in degree cut(k) + 1,
        # where only the source is, f followed by the anchor of Y_k
        f = Y.structure_map(k)
        comps = {m: f.comp(m) for m in range(f.lo, cut(k) + 1)}
        comps[cut(k) + 1] = anchors[k].comp(cut(k) + 1) @ f.comp(cut(k) + 1)
        structure.append(chain_map(entries[k + 1], entries[k], comps))
    # beyond K the cut exceeds every module degree: T_{<= n} is the complex
    # itself, so the tail carries over unchanged
    tail = Y.tail.mapped(K, lambda endo: endo)
    Z = Tower(tuple(entries), tuple(structure), tail)
    canon = level_map(Y, Z, tuple(anchors))
    return Z, canon


def is_hstar_fibrant(Y: Tower) -> bool:
    """Strict fibrancy for towers: every structure map (tail included) a
    degreewise surjection; entries are bounded complexes, hence bounded
    above in the homology sense automatically (still checked per entry)."""
    N = Y.tail.start
    for s in range(N):
        if not is_degreewise_surjection(Y.structure[s]):
            return False
    if not Y.tail.is_constant:
        if not is_degreewise_surjection(Y.tail.endo):
            return False
    for s in range(N + 1):
        X = Y.entry(s)
        if homology_support(X) is not None and homology_support(X)[1] > X.hi:
            return False
    return True


def is_levelwise_cofibration(f: ProMap) -> bool:
    """Every component a degreewise split mono (free cokernel included)."""
    return all(is_degreewise_split_mono(f.comp(t)) for t in range(f.window + 2))


# ---------------------------------------------------------------------------
# Hom groups against constant towers and in the heart
# ---------------------------------------------------------------------------

def _homology_within(T: Tower, lo: float, hi: float) -> bool:
    """Every entry's homology support lies in [lo, hi]."""
    for s in range(T.tail.start + 1):
        sup = homology_support(T.entry(s))
        if sup and (sup[0] < lo or sup[1] > hi):
            return False
    return True


def derived_hom_system(X: Tower, Y: ChainComplex, n: int) -> DirectSystem:
    """The direct system [X_s, Y]_n with precomposition transitions."""
    return X.levelwise(DirectSystem, lambda s: derived_hom(X.entry(s), Y, n),
                       lambda g, s, t: induced_map_on_derived_hom(g, identity_map(Y), n))


def hom_to_constant(X: Tower, Y: ChainComplex, n: int) -> GroupOrUnknown:
    """P(X, cY)_n = colim_s [X_s, Y]_n for Y bounded above."""
    return colim(derived_hom_system(X, Y, n))


def heart_hom(X: Tower, Y: Tower, n: int = 0) -> GroupOrUnknown:
    """lim_t colim_s [X_s, Y_t]_0 for X levelwise >= n and Y levelwise <= n.

    This equals the pro-homotopy-category hom exactly (heart towers have
    homotopy-discrete mapping spaces), so no lim^1 correction is claimed.
    """
    if not _homology_within(X, n, float("inf")):
        raise WindowViolation("source tower not levelwise bounded below at n")
    if not _homology_within(Y, float("-inf"), n):
        raise WindowViolation("target tower not levelwise bounded above at n")
    return _lim_of_colims(X, Y, lambda B: derived_hom_system(X, B, 0),
                          lambda A, g: induced_map_on_derived_hom(identity_map(A), g, 0))


class HomFromConstantResult(Value):
    _fields = ("value", "lim", "lim1")

    def __init__(self, value: GroupOrUnknown, lim: GroupOrUnknown, lim1: Lim1Verdict):
        store(self, "value", value)  # claimed only when lim1 is Zero
        store(self, "lim", lim)
        store(self, "lim1", lim1)


def hom_from_constant(X: ChainComplex, Y: Tower, n: int) -> HomFromConstantResult:
    """P(cX, Y)_n through the Postnikov replacement of Y and the lim^1
    sequence: the value is exact only when lim^1 vanishes."""
    Z, _ = postnikov_replacement(Y)
    res = lim_lim1(Z.levelwise(Tower, lambda k: derived_hom(X, Z.entry(k), n),
                               lambda g, s, t: induced_map_on_derived_hom(
                                   identity_map(X), g, n)))
    value: GroupOrUnknown
    if res.lim1 == Lim1Verdict.ZERO:
        value = res.lim
    else:
        value = UnknownValue("lim1 obstruction")
    return HomFromConstantResult(value, res.lim, res.lim1)
