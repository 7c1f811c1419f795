"""Towers (inverse systems over the natural numbers), pro-maps as germs, and
the limit calculus: pro-isomorphism decision, lim/lim^1, colimits of direct
systems, and cofinal reindexing.

Infinite towers are finitely presented by a tail policy: either all
structure maps are identities from some index on (ConstantFrom), or the
entries and the structure map repeat a declared endomorphism (RepeatFrom).
Every completeness claim is relative to the declared tail.  One
computation decides the rest: the stable image e^B A of a tail
endomorphism e of A, at the nilpotency bound B read off the group.  e is
nilpotent iff e^B = 0; a tower is Mittag-Leffler iff e^B A = e^(B+1) A,
and the stable image is then both its lim and the colimit along e.  A map
is a pro-isomorphism iff the maps its tail induces on the kernel and the
cokernel are nilpotent, and only a false verdict solves for fillers, to
name its certificate level.  Unknown is a first-class result, not an
error: colim answers it only when the colimit is not finitely generated
(Z --2--> Z --2--> ... is Z[1/2]), and pro_hom passes it on.
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Optional, Sequence, Union

from .chain import identity_map as chain_identity
from .errors import (PostconditionViolated, PreconditionViolated,
                     ValidationError)
from .exactalg.groups import (FgAbGroup, GroupHom, Subgroup, cokernel,
                              direct_sum, free_group, full_subgroup,
                              group_from_orders, hom, hom_functor, hom_group,
                              identity_hom, image, induced_hom, kernel,
                              solve_hom_constraints)
from .exactalg.ring import check_same_ring
from .value import Value, store


# ---------------------------------------------------------------------------
# Generic entry/map shims: towers hold either FgAbGroups or ChainComplexes
# ---------------------------------------------------------------------------

def _is_group(entry) -> bool:
    return isinstance(entry, FgAbGroup)


def _identity(entry):
    return identity_hom(entry) if _is_group(entry) else chain_identity(entry)


def _same_object(a, b) -> bool:
    if _is_group(a):
        return a.orders == b.orders and a.to_canonical.entries == b.to_canonical.entries
    return a == b


class Lim1Verdict(enum.Enum):
    ZERO = "Zero"
    NONZERO_UNCOUNTABLE = "NonzeroUncountable"


class UnknownValue(Value):
    """A value the engine declines to claim, with the reason why."""

    _fields = ("reason",)

    def __init__(self, reason: str):
        store(self, "reason", reason)

    def __str__(self):
        return f"UNKNOWN: {self.reason}"


GroupOrUnknown = Union[FgAbGroup, UnknownValue]
NOT_FINITELY_GENERATED = UnknownValue("colimit not finitely generated")


# ---------------------------------------------------------------------------
# Tail policies and towers
# ---------------------------------------------------------------------------

class TailPolicy(Value):
    """ConstantFrom(N): identities from index N on.  RepeatFrom(N, endo):
    entries from N on all equal entry N and the structure maps repeat endo."""

    _fields = ("kind", "start", "endo")

    def __init__(self, kind: str, start: int, endo=None):
        store(self, "kind", kind)  # "constant" | "repeat"
        store(self, "start", start)
        store(self, "endo", endo)  # GroupHom | ChainMap for "repeat"

    @staticmethod
    def constant_from(N: int) -> "TailPolicy":
        return TailPolicy("constant", N)

    @staticmethod
    def repeat_from(N: int, endo) -> "TailPolicy":
        return TailPolicy("repeat", N, endo)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def mapped(self, start: int, f) -> "TailPolicy":
        """A tail of the same kind from `start` on, with endo f(endo)."""
        if self.is_constant:
            return TailPolicy.constant_from(start)
        return TailPolicy.repeat_from(start, f(self.endo))


class _TailedSequence(Value):
    """Entries and structure maps stored through index tail.start; the
    accessors extend both past it by the tail."""

    _fields = ("entries", "structure", "tail")

    def __init__(self, entries: tuple, structure: tuple, tail: TailPolicy):
        store(self, "entries", entries)
        store(self, "structure", structure)
        store(self, "tail", tail)

    def entry(self, s: int):
        return self.entries[min(s, self.tail.start)]

    def structure_map(self, s: int):
        """The map between entries s and s+1 (T_{s+1} -> T_s in a tower,
        A_s -> A_{s+1} in a direct system)."""
        if s < self.tail.start:
            return self.structure[s]
        if self.tail.is_constant:
            return self._tail_identity
        return self.tail.endo

    @cached_property
    def _tail_identity(self):
        """The identity of the last entry, the map of a constant tail, built
        once per sequence (one cold seed-5 `maps` round reads it 224 times)."""
        return _identity(self.entries[self.tail.start])

    def levelwise(self, kind, entry, arrow, start: Optional[int] = None):
        """A functor applied level by level, as kind(entries, structure,
        tail): entry(s) for s <= N, arrow(structure_map(s), s, s + 1) for
        s < N, and the tail maps to arrow(endo, N, N).  N is the tail start,
        or `start` when the caller reads further."""
        N = self.tail.start if start is None else start
        return kind(tuple(entry(s) for s in range(N + 1)),
                    tuple(arrow(self.structure_map(s), s, s + 1) for s in range(N)),
                    self.tail.mapped(N, lambda endo: arrow(endo, N, N)))


class Tower(_TailedSequence):
    """An inverse system T_0 <- T_1 <- ... with a declared tail.

    entries[s] for s <= tail.start; structure[s]: T_{s+1} -> T_s for
    s < tail.start.
    """

    def __init__(self, entries: tuple, structure: tuple, tail: TailPolicy):
        super().__init__(entries, structure, tail)
        N = self.tail.start
        if len(self.entries) != N + 1:
            raise ValidationError("entries must reach the tail start")
        if len(self.structure) != N:
            raise ValidationError("need one structure map per step")
        for s, m in enumerate(self.structure):
            if not _same_object(m.source, self.entries[s + 1]):
                raise ValidationError(f"map {s} source")
            if not _same_object(m.target, self.entries[s]):
                raise ValidationError(f"map {s} target")
        if self.tail.kind == "repeat":
            e = self.tail.endo
            if not (_same_object(e.source, self.entries[N])
                    and _same_object(e.target, self.entries[N])):
                raise ValidationError("tail endo is not an endomorphism of the last entry")

    def composite(self, s: int, t: int):
        """The composed map T_s -> T_t for s >= t: the identity for s == t,
        and otherwise structure_map(t) o ... o structure_map(s - 1), built
        from structure_map(t) with no identity composed in, so that
        composite(t + 1, t) is structure_map(t) itself."""
        if s < t:
            raise PreconditionViolated(f"composite T_{s} -> T_{t} needs s >= t")
        if s == t:
            return _identity(self.entry(t))
        m = self.structure_map(t)
        for k in range(t + 1, s):
            m = m.compose(self.structure_map(k))
        return m


def constant_tower(entry) -> Tower:
    return Tower((entry,), (), TailPolicy.constant_from(0))


def repeat_tower(endo) -> Tower:
    """The tower A <- A <- A <- ... with every structure map the given endo."""
    return Tower((endo.source,), (), TailPolicy.repeat_from(0, endo))


# ---------------------------------------------------------------------------
# Pro-maps
# ---------------------------------------------------------------------------

class IndexShift(Value):
    """A monotone reindexing t -> theta(t), the identity when no values are
    stored; past the stored values it advances linearly with the slope."""

    _fields = ("values", "tail_slope")

    def __init__(self, values: tuple = (), tail_slope: int = 1):
        store(self, "values", values)
        store(self, "tail_slope", tail_slope)

    @staticmethod
    def level() -> "IndexShift":
        return IndexShift()


def _shift_call(shift: IndexShift, t: int) -> int:
    if t < len(shift.values):
        return shift.values[t]
    if shift.values:
        last = shift.values[-1]
        return last + shift.tail_slope * (t - (len(shift.values) - 1))
    return t


class ProMap(Value):
    """A germ-represented morphism of towers: components X_{theta(t)} -> Y_t.

    comps[t] is stored for t <= window; beyond, components repeat the last
    stored one (well-typed because tails repeat entries).
    """

    _fields = ("source", "target", "shift", "comps")

    def __init__(self, source: Tower, target: Tower, shift: IndexShift, comps: tuple):
        store(self, "source", source)
        store(self, "target", target)
        store(self, "shift", shift)
        store(self, "comps", comps)

    def theta(self, t: int) -> int:
        return _shift_call(self.shift, t)

    @property
    def window(self) -> int:
        return len(self.comps) - 1

    def comp(self, t: int):
        return self.comps[min(t, self.window)]

    @property
    def periodic_from(self) -> int:
        """The first level from which the component, the target's structure
        map and the source composite over theta all repeat, so that every
        compatibility square from there on is the same square."""
        X, n = self.source, len(self.shift.values)
        # past its stored values theta advances by tail_slope >= 1, so it
        # reaches the source's tail start by t = n - 1 + tail start
        reach = next((t for t in range(n + X.tail.start)
                      if self.theta(t) >= X.tail.start), n + X.tail.start)
        return max(self.window, n - 1, self.target.tail.start, reach)

    def validate(self) -> bool:
        """Compatibility squares commute exactly through periodic_from + 1."""
        for t in range(self.periodic_from + 2):
            left = self.comp(t).compose(
                self.source.composite(self.theta(t + 1), self.theta(t)))
            right = self.target.structure_map(t).compose(self.comp(t + 1))
            if not left.equal(right):
                return False
        return True


def level_map(source: Tower, target: Tower, comps: Sequence) -> ProMap:
    f = ProMap(source, target, IndexShift.level(), tuple(comps))
    if not f.validate():
        raise ValidationError("pro-map squares do not commute")
    return f


def identity_pro_map(T: Tower) -> ProMap:
    N = T.tail.start
    return level_map(T, T, tuple(_identity(T.entry(t)) for t in range(N + 1)))


def compose_pro(g: ProMap, f: ProMap) -> ProMap:
    """g o f; components compose through the shifts."""
    window = max(g.window, f.window) + 1
    vals = []
    comps = []
    for t in range(window + 1):
        s_mid = g.theta(t)
        s_top = f.theta(s_mid)
        vals.append(s_top)
        comps.append(g.comp(t).compose(f.comp(s_mid)))
    slope = f.shift.tail_slope * g.shift.tail_slope
    out = ProMap(f.source, g.target,
                 IndexShift(tuple(vals), tail_slope=slope), tuple(comps))
    if not out.validate():
        raise PostconditionViolated("composite pro-map squares do not commute")
    return out


def _along(X: Tower, theta, N: int) -> Tower:
    """X_theta(0) <- X_theta(1) <- ... along composites of X, stored through
    N, with X's tail kind after N and X_theta(N+1) -> X_theta(N) as endo."""
    return Tower(tuple(X.entry(theta(t)) for t in range(N + 1)),
                 tuple(X.composite(theta(t + 1), theta(t)) for t in range(N)),
                 X.tail.mapped(N, lambda endo: X.composite(theta(N + 1), theta(N))))


def reindex_cofinal(T: Tower, step: int) -> Tower:
    """The subsequence tower T_0, T_step, T_{2 step}, ... with composites."""
    if step < 1:
        raise PreconditionViolated(f"reindexing step {step} is not positive")
    if step == 1:
        return T
    # from the first k with k*step at the tail start on, the tail repeats
    return _along(T, lambda k: k * step, (T.tail.start + step - 1) // step)


def reindex_pro_map(f: ProMap, step: int) -> ProMap:
    """Restrict a level map to the step-subsequence towers."""
    src = reindex_cofinal(f.source, step)
    tgt = reindex_cofinal(f.target, step)
    top = max(src.tail.start, tgt.tail.start) + 1
    comps = tuple(f.comp(k * step) for k in range(top + 1))
    return level_map(src, tgt, comps)


def comparison_to_reindexed(T: Tower, step: int) -> ProMap:
    """The canonical pro-map T -> reindex_cofinal(T, step): at level t the
    component is the identity of T_{t*step}."""
    R = reindex_cofinal(T, step)
    top = R.tail.start + 1
    vals = tuple(t * step for t in range(top + 1))
    comps = tuple(_identity(T.entry(t * step)) for t in range(top + 1))
    out = ProMap(T, R, IndexShift(vals, tail_slope=step), comps)
    if not out.validate():
        raise PostconditionViolated("reindexing comparison squares do not commute")
    return out


# ---------------------------------------------------------------------------
# Pro-isomorphism decision for group towers
# ---------------------------------------------------------------------------

class ProIsoVerdict(Value):
    """kind is "true" or "false".  A true verdict lists witness_levels, the
    levels 0, ..., T* at each of which a filler exists (is_pro_isomorphism
    says at which depth); a false one has the certificate_level, the first
    level with no filler at that depth."""

    _fields = ("kind", "witness_levels", "certificate_level")

    def __init__(self, kind: str, witness_levels: tuple = (), certificate_level: int = -1):
        store(self, "kind", kind)
        store(self, "witness_levels", witness_levels)
        store(self, "certificate_level", certificate_level)

    def __bool__(self):
        return self.kind == "true"


def _filler_exists(f: ProMap, t: int, s: int) -> Optional[GroupHom]:
    """g: Y_s -> X_t with g f_s = X(s -> t) and f_t g = Y(s -> t), for a
    level map f."""
    X, Y = f.source, f.target
    Xt, Ys = X.entry(t), Y.entry(s)
    cons = [
        (f.comp(s), identity_hom(Xt), X.composite(s, t)),
        (identity_hom(Ys), f.comp(t), Y.composite(s, t)),
    ]
    return solve_hom_constraints(Ys, Xt, cons)


def _levelize(f: ProMap) -> ProMap:
    """Replace a shifted pro-map by the level map on the reindexed source."""
    if not f.shift.values:
        return f
    N = max(f.window, f.source.tail.start, f.target.tail.start) + 1
    return level_map(_along(f.source, f.theta, N), f.target,
                     tuple(f.comp(t) for t in range(N + 1)))


def _nilpotency_bound(A: FgAbGroup) -> int:
    """A k with g^k = 0 for every nilpotent endomorphism g of A.

    With r the free rank and T the torsion subgroup, g^r A lies in T (g is
    nilpotent on the rational span); from there each step either shrinks
    the image, at least halving its order, or leaves it fixed for good, and
    a fixed nonzero image contradicts nilpotence.
    """
    order = 1
    for d in A.invariant_factors:
        order *= d
    return A.free_rank + order.bit_length()


def _stable_power(e: GroupHom) -> GroupHom:
    """e^B for the nilpotency bound B of e's group, stopping early at the
    zero power."""
    power = identity_hom(e.source)
    for _ in range(_nilpotency_bound(e.source)):
        if power.is_zero:
            break
        power = e.compose(power)
    return power


def _stable_image(e: GroupHom) -> Optional[Subgroup]:
    """The stable image e^B A of an endomorphism e of A, or None when the
    image chain e^k A never settles.

    It settles by k = B = _nilpotency_bound(A) if it settles at all: its
    rank stops falling at some k0 <= r (the free rank); from there the
    free quotients either shrink by |det| >= 2 at every step, or stay
    fixed, and then [e^k0 A : e^k A] <= |T| (the torsion order) leaves
    fewer than bit_length(|T|) strict steps.  On the stable image e is a
    surjective endomorphism of a finitely generated module, so an
    automorphism, and the image is both the lim of A <- A <- ... and the
    colim of A -> A -> ... along e.  If the chain never settles, that
    colim is not finitely generated: were it, some stage k would map onto
    it, so A = e A + ker e^j for j large, and e^j A = e^(j+1) A.
    """
    power = _stable_power(e)
    stable = image(power)
    # e^(B+1) A lies in e^B A, so one containment decides equality
    if image(e.compose(power)).contains_hom(stable.inclusion):
        return stable
    return None


def is_nilpotent(endo: GroupHom) -> bool:
    """Whether endo^k = 0 for some k: the power at the nilpotency bound
    decides."""
    return _stable_power(endo).is_zero


def is_pro_isomorphism(f: ProMap) -> ProIsoVerdict:
    """Decide pro-isomorphism of a map of f.g. abelian group towers.

    Pro-objects of an abelian category form an abelian category with
    levelwise kernels and cokernels (Artin-Mazur, Etale Homotopy, appendix),
    so the levelized f is a pro-isomorphism iff its kernel and cokernel
    towers are pro-zero.  From T* = max(tail starts, window) on they repeat
    K = ker f_{T*} and C = coker f_{T*} under the maps the tail induces, so
    the verdict is "true" iff both induced maps are nilpotent.

    The certificate is the filler criterion: f is a pro-isomorphism iff for
    every t some s >= t admits g: Y_s -> X_t with g f_s = X(s -> t) and
    f_t g = Y(s -> t), and solvability is monotone in s.  With a and b the
    nilpotency bounds of K and C, for t >= T* the map
    y |-> X(t+a -> t)(a lift through f of Y(s -> t+a) y) is a filler at
    s = t + a + b, well defined because K_{t+a} -> K_t is zero; composing
    with X(T* -> t) gives one for t < T*.  So a true verdict lists the
    levels 0, ..., T*, each with a filler at s = T* + a + b, and a false one
    solves at that s, level by level, for its certificate_level: the first
    t with no filler.  Only the false path solves.  ConstantFrom tails on
    both sides have identity tail maps and depth 0.
    """
    f = _levelize(f)
    X, Y = f.source, f.target
    T_star = max(X.tail.start, Y.tail.start, f.window)
    f_top = f.comp(T_star)
    K, C = kernel(f_top), cokernel(f_top)
    if (is_nilpotent(induced_hom(K, X.structure_map(T_star).matrix, K))
            and is_nilpotent(induced_hom(C, Y.structure_map(T_star).matrix, C))):
        return ProIsoVerdict("true", witness_levels=tuple(range(T_star + 1)))
    s = T_star
    if not (X.tail.is_constant and Y.tail.is_constant):
        s += _nilpotency_bound(K.group) + _nilpotency_bound(C.group)
    for t in range(T_star + 1):
        if _filler_exists(f, t, s) is None:
            return ProIsoVerdict("false", certificate_level=t)
    raise PostconditionViolated(
        f"a tail map is not nilpotent, yet every level up to {T_star} has a filler")


# ---------------------------------------------------------------------------
# lim and lim^1
# ---------------------------------------------------------------------------

class LimResult(Value):
    _fields = ("lim", "lim1", "mittag_leffler")

    def __init__(self, lim: GroupOrUnknown, lim1: Lim1Verdict, mittag_leffler: bool):
        store(self, "lim", lim)
        store(self, "lim1", lim1)
        store(self, "mittag_leffler", mittag_leffler)


def lim_lim1(T: Tower) -> LimResult:
    """lim and the lim^1 dichotomy for a tower of f.g. abelian groups.

    ConstantFrom tails are immediate.  A RepeatFrom tail with endomorphism
    e is Mittag-Leffler iff its stable image settles, and then lim is the
    stable image (_stable_image).  A non-ML tower has uncountable lim^1,
    and _non_ml_lim computes its lim.
    """
    if T.tail.is_constant:
        return LimResult(T.entry(T.tail.start), Lim1Verdict.ZERO, True)
    stable = _stable_image(T.tail.endo)
    if stable is not None:
        return LimResult(stable.group, Lim1Verdict.ZERO, True)
    return LimResult(_non_ml_lim(T.tail.endo), Lim1Verdict.NONZERO_UNCOUNTABLE, False)


def _non_ml_lim(endo: GroupHom) -> FgAbGroup:
    """lim of (A <- A <- ...) along endo when images do not stabilize.

    In canonical coordinates endo maps the torsion T into itself.  T is
    finite, so its tower is Mittag-Leffler, lim^1 T = 0, and
    0 -> lim T -> lim A -> lim A/T -> 0 is exact; lim A/T is free, so
    lim A = lim T (+) lim A/T.  lim T is the stable image of endo on T.
    For the free A/T the limit is the largest sublattice on which the
    transition is an automorphism: the kernel of the unit part of the
    characteristic polynomial, the product of its irreducible factors q
    with q(0) = +-1.  By the primary decomposition its rank is the degree
    of that part.
    """
    from .exactalg.poly import charpoly, factor  # so no other command compiles it
    A = endo.source
    t = len(A.invariant_factors)
    torsion, free = range(t), range(t, A.ngens)
    T = group_from_orders(A.invariant_factors, A.ring)
    on_T = hom(T, T, endo.matrix.take_rows(torsion).take_columns(torsion))
    on_free = endo.matrix.take_rows(free).take_columns(free)
    rank = sum((len(q) - 1) * m for q, m in factor(charpoly(on_free)) if abs(q[0]) == 1)
    return direct_sum([image(_stable_power(on_T)).group, free_group(rank, A.ring)])


# ---------------------------------------------------------------------------
# Colimits of direct systems
# ---------------------------------------------------------------------------

class DirectSystem(_TailedSequence):
    """A direct system A_0 -> A_1 -> ... with a declared tail (identities
    from `start` for constant tails, a repeated endomorphism otherwise);
    structure[s]: A_s -> A_{s+1}."""


def constant_system(entry) -> DirectSystem:
    return DirectSystem((entry,), (), TailPolicy.constant_from(0))


def colim(D: DirectSystem) -> GroupOrUnknown:
    """Colimit of a direct system of f.g. abelian groups under a tail policy:
    the stable entry for a constant tail, the stable image of the tail
    endomorphism when it settles, and Unknown otherwise, because the
    colimit is then not finitely generated (_stable_image)."""
    if D.tail.is_constant:
        return D.entry(D.tail.start)
    stable = _stable_image(D.tail.endo)
    return NOT_FINITELY_GENERATED if stable is None else stable.group


def hom_system(X: Tower, B: FgAbGroup) -> DirectSystem:
    """The direct system Hom(X_s, B) with precomposition transition maps."""
    return X.levelwise(DirectSystem, lambda s: hom_group(X.entry(s), B).group,
                       lambda g, s, t: hom_functor(g, identity_hom(B)))


def _lim_of_colims(X: Tower, Y: Tower, system, post) -> GroupOrUnknown:
    """lim_t colim_s H(X_s, Y_t) for H contravariant in its first argument:
    system(B) is the direct system H(X_s, B) and post(A, g) = H(id_A, g).

    With A the tail entry of X, colim_s H(X_s, Y_t) is the stable subgroup
    S_t of H(A, Y_t) under the tail map of system(Y_t) (all of H(A, Y_t)
    for a constant tail).  Pre- and post-composition commute, so
    H(id_A, g) carries S_{t+1} into S_t, and the lim is read on the tower
    of the S_t."""
    check_same_ring(X.entry(0), Y.entry(0))
    A = X.entry(X.tail.start)
    N = max(X.tail.start, Y.tail.start)
    stable = []
    for t in range(N + 1):
        D = system(Y.entry(t))
        S = (full_subgroup(D.entry(D.tail.start)) if D.tail.is_constant
             else _stable_image(D.tail.endo))
        if S is None:
            return NOT_FINITELY_GENERATED
        stable.append(S)
    return lim_lim1(Y.levelwise(
        Tower, lambda t: stable[t].group,
        lambda g, lo, hi: induced_hom(stable[hi], post(A, g).matrix, stable[lo]),
        start=N)).lim


def pro_hom(X: Tower, Y: Tower) -> GroupOrUnknown:
    """pro-Hom(X, Y) = lim_t colim_s Hom(X_s, Y_t) under the tail policies."""
    return _lim_of_colims(X, Y, lambda B: hom_system(X, B),
                          lambda A, g: hom_functor(identity_hom(A), g))
