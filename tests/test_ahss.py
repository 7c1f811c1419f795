"""The spectral sequence engine: couple exactness, derivation, abutment,
convergence, and the tower version."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import big_complex, random_chain_tower
from oracles import (GenericPages, abutment_filtration_by_truncations,
                     coefficient_e2, cone_below)
from prochain import ahss, chain, tstruct
from prochain.ahss import (SpectralSequence, Window, abutment_filtration,
                           build_exact_couple, convergence_check,
                           e2_identification_check, pro_ahss, run_to_stable)
from prochain.chain import (ChainComplex, HomComplexView, _random_unimodular,
                            chain_map, coefficient_complex, cone, derived_hom,
                            direct_sum_complex, free_one_term, homology,
                            homology_support, identity_map, make_complex,
                            minimal_model, moore_complex, multiplication_map,
                            random_complex, random_null_homotopic, zero_complex,
                            zero_map)
from prochain.errors import (ContainmentViolation, PostconditionViolated,
                             PreconditionViolated)
from prochain.exactalg.groups import (full_subgroup, image, kernel,
                                      subquotient, zero_subgroup)
from prochain.exactalg.matrices import IntMatrix, Lattice, hcat, solve
from prochain.exactalg.ring import GF, ZZ
from prochain.pro import TailPolicy, Tower, UnknownValue, constant_tower, repeat_tower
from prochain.tstruct import (cohomology_with_coefficients, truncate_above,
                              truncate_below)

Z0 = free_one_term(ZZ, 0)
M2 = moore_complex(2)


class TestCouple:
    def test_zero_target(self):
        c = build_exact_couple(Z0, zero_complex())
        assert all(g.is_trivial for g in c.D.values())
        assert all(g.is_trivial for g in c.E.values())
        assert c.validate_exactness()

    def test_represented_functor_column(self):
        Y = random_complex(1, ZZ, -2, 2, 2)
        c = build_exact_couple(Z0, Y)
        assert c.validate_exactness()
        for (p, q) in c.slots():
            e = c.E_at(p, q)
            if p == 0:
                assert e.isomorphic(homology(Y, q))
            else:
                assert e.is_trivial

    def test_moore_couple(self):
        c = build_exact_couple(M2, M2)
        assert c.validate_exactness()
        for (p, q) in c.slots():
            e = c.E_at(p, q)
            if (p, q) in ((0, 0), (-1, 0)):
                assert e.invariant_factors == (2,)
            else:
                assert e.is_trivial

    def test_exactness_random(self):
        for seed in range(4):
            X = random_complex(seed + 5, ZZ, -1, 1, 2)
            Y = random_complex(seed + 15, ZZ, -1, 1, 2)
            assert build_exact_couple(X, Y).validate_exactness()

    def test_e2_identification(self):
        assert e2_identification_check(Z0, random_complex(2, ZZ, -2, 2, 2))
        assert e2_identification_check(M2, M2)
        for seed in range(3):
            X = random_complex(seed + 25, ZZ, -1, 1, 2)
            Y = random_complex(seed + 35, ZZ, -1, 1, 2)
            assert e2_identification_check(X, Y)


class TestPages:
    def test_moore_stable_values(self):
        pages, stable = run_to_stable(M2, M2)
        einf = pages[-1]
        assert einf.groups[(0, 0)].invariant_factors == (2,)
        assert einf.groups[(-1, 0)].invariant_factors == (2,)

    def test_differentials_square_to_zero(self):
        for seed in range(3):
            X = random_complex(seed + 45, ZZ, -1, 1, 2)
            Y = random_complex(seed + 55, ZZ, -1, 1, 2)
            ss = SpectralSequence(X, Y)
            for page in GenericPages(ss).pages(ss.stable_r()):
                for (p, q), d in page.differentials.items():
                    src = (p + page.r, q - page.r + 1)
                    din = page.differentials.get(src)
                    if din is not None:
                        assert d.compose(din).is_zero

    def test_next_page_is_homology_of_previous(self):
        # recompute each generic E_{r+1} through subquotient and compare
        X = random_complex(71, ZZ, -1, 1, 2)
        Y = random_complex(72, ZZ, -1, 1, 2)
        ss = SpectralSequence(X, Y)
        pages = GenericPages(ss).pages(ss.stable_r())
        for cur, nxt in zip(pages, pages[1:]):
            for (p, q), g in cur.groups.items():
                d_out = cur.differentials.get((p, q))
                d_in = cur.differentials.get((p + cur.r, q - cur.r + 1))
                num = kernel(d_out) if d_out is not None else full_subgroup(g)
                den = image(d_in) if d_in is not None else zero_subgroup(g)
                sq = subquotient(g, num, den).group
                got = nxt.groups.get((p, q))
                if got is None:
                    assert sq.is_trivial
                else:
                    assert got.isomorphic(sq)

    def test_single_column_collapse(self):
        # homology concentrated in one degree: E2 = Einf
        for seed in range(3):
            Y = moore_complex(2 + seed, seed - 1)
            X = random_complex(seed + 80, ZZ, -1, 1, 2)
            ss = SpectralSequence(X, Y)
            pages, _ = ss.run_to_stable()
            first, last = pages[0], pages[-1]
            for slot, g in first.groups.items():
                other = last.groups.get(slot)
                assert other is not None and other.isomorphic(g)
            for page in GenericPages(ss).pages(ss.stable_r()):
                assert all(d.is_zero for d in page.differentials.values())

    @pytest.mark.parametrize("ring", [ZZ, GF(2)])
    def test_boundaries_outside_the_cycles_are_refused(self, ring):
        # den of the generic E^2 with one more column e_j: refused exactly
        # when the solve against the cycles finds no coordinates for e_j
        refused = 0
        for seed in range(3):
            X = random_complex(seed + 45, ring, -1, 1, 2)
            Y = random_complex(seed + 55, ring, -1, 1, 2)
            oracle = GenericPages(SpectralSequence(X, Y))
            C = oracle.C
            for (p, q) in oracle.window.slots():
                n = p + q
                if not C.rank(n):
                    continue
                num = oracle.cycles(n, q, q + 1)
                den = hcat(oracle.cycles(n, q + 1, q + 1).basis,
                           C.diff(n + 1) @ oracle.cycles(n + 1, q, q).basis)
                oracle.subquotient(n, num, den)
                for j in range(C.rank(n)):
                    e = IntMatrix.from_columns([[int(i == j) for i in range(C.rank(n))]],
                                               C.rank(n), ring)
                    bad = hcat(den, e)
                    if solve(num.basis, e) is None:
                        with pytest.raises(ContainmentViolation):
                            oracle.subquotient(n, num, bad)
                        refused += 1
                    else:
                        oracle.subquotient(n, num, bad)
        assert refused >= 10


class TestAbutment:
    def test_moore_single_jump(self):
        total, filt = abutment_filtration(M2, M2, 0)
        assert total.invariant_factors == (2,)
        subs = dict(filt)
        jumps = []
        for q in range(min(subs), max(subs)):
            gr = subquotient(total, subs[q], subs[q + 1]).group
            if not gr.is_trivial:
                jumps.append((q, gr))
        assert jumps == [(0, jumps[0][1])]
        assert jumps[0][1].invariant_factors == (2,)

    def test_represented_functor_jump(self):
        Y = random_complex(4, ZZ, -1, 1, 2)
        for n in range(-2, 3):
            total, filt = abutment_filtration(Z0, Y, n)
            subs = dict(filt)
            for q in range(min(subs), max(subs)):
                gr = subquotient(total, subs[q], subs[q + 1]).group
                if q == n:
                    assert gr.isomorphic(homology(Y, n))
                else:
                    assert gr.is_trivial

    def test_zero_target(self):
        total, filt = abutment_filtration(M2, zero_complex(), 0)
        assert total.is_trivial


@st.composite
def small_complexes(draw, ring):
    """A complex of total rank at most 8 in one to four consecutive degrees:
    a sum of spheres and of disks Z --m--> Z, in a basis changed by random
    shears in each degree.  No cells give the zero complex."""
    lo = draw(st.integers(-2, 1))
    hi = lo + draw(st.integers(0, 3))
    cells = draw(st.lists(st.tuples(st.integers(lo, hi), st.sampled_from([0, 1, 2, 3, -2, 6])),
                          max_size=8))
    ranks = dict.fromkeys(range(lo, hi + 1), 0)
    disks = []
    for k, m in cells:
        disk = bool(m) and k > lo         # a disk onto k - 1
        if sum(ranks.values()) + 1 + disk > 8:
            break
        if disk:
            disks.append((k, ranks[k], ranks[k - 1], m))
            ranks[k - 1] += 1
        ranks[k] += 1
    d = {k: [[0] * ranks[k] for _ in range(ranks[k - 1])] for k in range(lo + 1, hi + 1)}
    for k, j, i, m in disks:
        d[k][i][j] = m
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    shears = {k: _random_unimodular(rng, r, ring) for k, r in ranks.items()}
    return make_complex(ring, ranks, {
        k: shears[k - 1][0] @ IntMatrix.from_rows(d[k], ring, cols=ranks[k]) @ shears[k][1]
        for k in d})


pairs = st.sampled_from([ZZ, GF(2)]).flatmap(
    lambda ring: st.tuples(small_complexes(ring), small_complexes(ring)))


class TestAbutmentAgainstTruncations:
    @settings(max_examples=100, deadline=None)
    @given(pair=pairs)
    @example(pair=(zero_complex(), M2))
    @example(pair=(random_complex(5, GF(2), -1, 1, 2), zero_complex(GF(2))))
    @example(pair=(M2, free_one_term(ZZ, 0, 3)))
    def test_same_subgroups_as_the_truncations(self, pair):
        # every n of the window and one past each end, where [X, Y]_n = 0
        X, Y = pair
        w = ahss._window(X, Y)
        for n in range(w.n_lo - 1, w.n_hi + 2):
            total, filt = abutment_filtration(X, Y, n)
            want_total, want = abutment_filtration_by_truncations(X, Y, n)
            assert total.orders == want_total.orders
            assert [q for q, _ in filt] == [q for q, _ in want]
            for (q, F), (_, G) in zip(filt, want):
                assert F.contains_hom(G.inclusion) and G.contains_hom(F.inclusion), (n, q)

    def test_reads_only_the_hom_complex_of_x_and_y(self, monkeypatch):
        # no hom complex, and so no homology, per truncation of Y
        asked = []
        hom_complex = chain.hom_complex

        def recording(X, Y):
            asked.append((X, Y))
            return hom_complex(X, Y)

        monkeypatch.setattr(chain, "hom_complex", recording)
        cases = [(M2, M2)] + [(random_complex(seed, ZZ, -1, 1, 2),
                               random_complex(seed + 1, ZZ, -1, 1, 2)) for seed in (3, 7)]
        for X, Y in cases:
            asked.clear()
            w = ahss._window(X, Y)
            for n in range(w.n_lo, w.n_hi + 1):
                abutment_filtration(X, Y, n)
            assert set(asked) == {(X, Y)}


class TestConvergence:
    def test_moore(self):
        rep = convergence_check(M2, M2)
        assert rep.lim_ok and rep.lim1_ok and rep.colim_ok
        assert all(rep.graded_comparison.values())

    def test_represented(self):
        rep = convergence_check(Z0, random_complex(6, ZZ, -2, 2, 2))
        assert rep.all_iso

    def test_random_pairs(self):
        for seed in range(4):
            X = random_complex(seed + 90, ZZ, -1, 1, 2)
            Y = random_complex(seed + 95, ZZ, -1, 1, 2)
            assert convergence_check(X, Y).all_iso

    def test_f2_pairs(self):
        F2 = GF(2)
        for seed in range(3):
            X = random_complex(seed + 100, F2, -1, 1, 2)
            Y = random_complex(seed + 105, F2, -1, 1, 2)
            assert convergence_check(X, Y).all_iso

    @pytest.mark.parametrize("X, Y, k", [
        (M2, M2, 3),
        (random_complex(90, ZZ, -1, 1, 2), random_complex(95, ZZ, -1, 1, 2), 2),
    ])
    def test_levels_past_the_window_fail_lim(self, X, Y, k):
        # a window k below that of (X, Y) leaves homology of Y past q_hi, so
        # F_{q_hi+1} is not acyclic: the D-columns no longer end in zero
        # inside the window
        w = ahss._window(X, Y)
        low = Window(w.q_lo - k, w.q_hi - k, w.n_lo, w.n_hi)
        assert homology_support(Y)[1] > low.q_hi
        rep = SpectralSequence(X, Y, low).convergence()
        assert not rep.lim_ok
        assert not rep.all_iso


# Z --1--> Z in degrees 0, -1 beside Z in degree 1: homology only in degree 1,
# above the lowest chain degree
ABOVE_ITS_CHAINS = make_complex(ZZ, {-1: 1, 0: 1, 1: 1},
                                {0: IntMatrix.from_rows([[1]], ZZ)})
# Z/2 in degree 0 and Z in degree 1, so that Y / tau_{>= 1} Y is neither Y nor 0
M2_Z1 = make_complex(ZZ, {0: 1, 1: 2}, {1: IntMatrix.from_rows([[2, 0]], ZZ)})


def padded(rng: random.Random, X: ChainComplex) -> ChainComplex:
    """X, or X plus a contractible summand reaching a degree past X at
    either end, which widens the window of X and not that of its model."""
    if rng.random() < 0.5:
        return X
    W = random_complex(rng.randrange(2 ** 30), X.ring, X.lo - 1, X.hi, 2)
    return direct_sum_complex(X, cone(identity_map(W)))[0]


def assert_models_agree(X, Y):
    """The model path against the pair path: the same convergence report,
    and the same E^2 invariants slot by slot on every page."""
    model, pair = ahss.on_minimal_models(X, Y), SpectralSequence(X, Y)
    assert model.window == pair.window
    assert convergence_check(X, Y) == pair.convergence()
    pages, want = model.run_to_stable()[0], pair.run_to_stable()[0]
    assert [page.r for page in pages] == [page.r for page in want]
    for page, ref in zip(pages, want):
        assert sorted(page.groups) == sorted(ref.groups)
        for slot, g in ref.groups.items():
            h = page.groups[slot]
            assert (h.invariant_factors, h.free_rank) == (g.invariant_factors, g.free_rank)


class TestOnMinimalModels:
    @given(st.integers(min_value=0, max_value=2 ** 30), st.sampled_from([ZZ, GF(2)]))
    @settings(max_examples=25, deadline=None)
    def test_models_against_the_pair(self, seed, ring):
        rng = random.Random(seed)
        X = padded(rng, big_complex(rng, ring, -1, 1))
        Y = padded(rng, big_complex(rng, ring, -1, 1))
        assert_models_agree(X, Y)

    @pytest.mark.parametrize("ring", [ZZ, GF(2)])
    @pytest.mark.parametrize("case", ["acyclic X", "acyclic Y", "zero Y", "zero X"])
    def test_degenerate_pairs(self, case, ring):
        rng = random.Random(11)
        X = big_complex(rng, ring, -1, 1)
        Y = big_complex(rng, ring, -1, 1)
        X, Y = {"acyclic X": (cone(identity_map(X)), Y),
                "acyclic Y": (X, cone(identity_map(Y))),
                "zero Y": (X, zero_complex(ring)),
                "zero X": (zero_complex(ring), Y)}[case]
        assert_models_agree(X, Y)

    def test_report_keeps_the_pairs_window(self):
        # Y has chains in degrees -1..1 and homology in degree 1 only, so
        # its model's window is narrower; the slots and the stable page are
        # still those of (X, Y)
        X, Y = M2, ABOVE_ITS_CHAINS
        w = ahss._window(X, Y)
        assert ahss._window(minimal_model(X), minimal_model(Y)) != w
        rep = convergence_check(X, Y)
        assert sorted(rep.graded_comparison) == sorted(w.slots())
        assert rep.stable_page == w.width + 2
        assert rep == SpectralSequence(X, Y).convergence()

    def test_builds_the_sequence_on_the_models(self, monkeypatch):
        built = []
        init = SpectralSequence.__init__

        def recording_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(SpectralSequence, "__init__", recording_init)
        X, Y = M2, ABOVE_ITS_CHAINS
        convergence_check(X, Y)
        assert built == [(minimal_model(X), minimal_model(Y), ahss._window(X, Y))]


class TestColimitCondition:
    @settings(max_examples=100, deadline=None)
    @given(pair=st.sampled_from([ZZ, GF(2), GF(3)]).flatmap(
        lambda ring: st.tuples(small_complexes(ring), small_complexes(ring))))
    @example(pair=(zero_complex(), M2))
    @example(pair=(M2, zero_complex()))
    @example(pair=(ABOVE_ITS_CHAINS, M2_Z1))
    def test_quotient_against_the_cone(self, pair):
        # the cone of tau_{>= k+1} Y -> Y is the oracle of T_{<= k} Y, for
        # every k from two below Y to one past it and every n of the Hom
        # range and one past each end
        X, Y = pair
        for k in range(Y.lo - 2, Y.hi + 2):
            Q = truncate_below(Y, k)
            C, _ = cone_below(Y, k)
            for n in range(Y.lo - X.hi - 1, Y.hi - X.lo + 2):
                assert derived_hom(X, Q, n).isomorphic(derived_hom(X, C, n)), (k, n)

    @pytest.mark.parametrize("X, Y", [
        (M2, M2), (ABOVE_ITS_CHAINS, M2_Z1),
        (random_complex(90, ZZ, -1, 1, 2), random_complex(95, ZZ, -1, 1, 2)),
        (random_complex(100, GF(2), -1, 1, 2), random_complex(105, GF(2), -1, 1, 2)),
    ])
    def test_builds_no_cone(self, monkeypatch, X, Y):
        # every call of cone, under any name, shows in its cache statistics
        quotients, targets = [], []
        below, hom_complex = ahss.truncate_below, chain.hom_complex

        def recording_quotient(Y, k):
            quotients.append(below(Y, k))
            return quotients[-1]

        def recording_hom(X, Y):
            targets.append(Y)
            return hom_complex(X, Y)

        monkeypatch.setattr(ahss, "truncate_below", recording_quotient)
        monkeypatch.setattr(chain, "hom_complex", recording_hom)
        chain.cone.cache_clear()
        rep = convergence_check(X, Y)
        info = chain.cone.cache_info()
        assert info.hits + info.misses == 0
        assert rep.colim_ok and rep.all_iso
        if X is ABOVE_ITS_CHAINS:
            # computed on a proper quotient of Y, not assumed
            assert any(not Q.is_zero and Q != Y and Q in targets for Q in quotients)

    def test_a_wrong_model_fails(self, monkeypatch):
        # Y itself in place of every T_{<= k} Y: [X, Y]_n is not zero
        monkeypatch.setattr(ahss, "truncate_below", lambda Y, k: Y)
        assert not convergence_check(ABOVE_ITS_CHAINS, M2_Z1).colim_ok


class TestProAhss:
    def test_times2_tower_vanishing(self):
        t2 = repeat_tower(multiplication_map(Z0, 2))
        rep = pro_ahss(t2, M2)
        assert rep.levelwise_all_iso
        assert rep.e2[(0, 0)].is_trivial
        assert rep.abutment[0].is_trivial
        assert rep.comparison_holds

    def test_constant_tower_reduces(self):
        X = random_complex(7, ZZ, -1, 1, 2)
        Y = random_complex(8, ZZ, -1, 1, 2)
        rep = pro_ahss(constant_tower(X), Y)
        assert rep.levelwise_all_iso and rep.comparison_holds
        for (p, q), v in rep.e2.items():
            if not isinstance(v, UnknownValue):
                assert v.isomorphic(
                    cohomology_with_coefficients(X, homology(Y, q), -p))

    def test_one_spectral_sequence_per_distinct_entry(self, monkeypatch):
        # the levelwise convergence reports reuse the sequence pro_ahss built
        builds = []
        init = SpectralSequence.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SpectralSequence, "__init__", counting_init)
        x2 = multiplication_map(M2, 2)
        T = Tower((M2, M2, M2), (x2, x2), TailPolicy.constant_from(2))
        rep = pro_ahss(T, M2)
        assert len(builds) == 1
        assert rep.levelwise_all_iso

    def test_abutment_filtration_once_per_entry_and_degree(self, monkeypatch):
        calls = []
        filtration = ahss.abutment_filtration

        def counting(X, Y, n):
            calls.append((X, n))
            return filtration(X, Y, n)

        monkeypatch.setattr(ahss, "abutment_filtration", counting)
        up = chain_map(Z0, M2, {0: IntMatrix.identity(1, ZZ)})
        T = Tower((M2, Z0, Z0), (up, multiplication_map(Z0, 2)),
                  TailPolicy.constant_from(2))
        assert pro_ahss(T, M2).comparison_holds
        assert {X for X, _ in calls} == {M2, Z0}
        assert len(calls) == len(set(calls))

    def test_zero_entry(self):
        # the zero level has a window of its own; its slots outside it are
        # zero, so the tower behaves like the constant tower at Z0
        O = zero_complex()
        T = Tower((O, Z0), (zero_map(Z0, O),), TailPolicy.constant_from(1))
        rep, ref = pro_ahss(T, M2), pro_ahss(constant_tower(Z0), M2)
        assert rep.comparison_holds and ref.comparison_holds
        common = set(rep.e2) & set(ref.e2)
        assert common
        for slot in common:
            assert rep.e2[slot].isomorphic(ref.e2[slot])
        for n in set(rep.abutment) & set(ref.abutment):
            assert rep.abutment[n].isomorphic(ref.abutment[n])

    def test_f2_constant_from_towers(self):
        rng = random.Random(5)
        F2 = GF(2)
        for k in range(3):
            T = random_chain_tower(rng, F2, -1, 1, 2)
            Y = random_complex(k + 110, F2, -1, 1, 2)
            rep = pro_ahss(T, Y)
            assert rep.levelwise_all_iso
            assert rep.comparison_holds

    @pytest.mark.parametrize("ring", [ZZ, GF(2)])
    def test_e2_against_coefficient_cohomology(self, ring):
        # slot by slot, UNKNOWN reasons included, on ConstantFrom towers of
        # depth 0-3, repeat tails x0, x1, x2, x3 and -1, and towers whose
        # entries differ: a truncation inclusion and a zero entry
        rng = random.Random(23)
        unknown = 0
        for k in range(2):
            X = random_complex(rng.randrange(2 ** 30), ring, -1, 1, 2)
            Y = random_complex(rng.randrange(2 ** 30), ring, -1, 1, 2)
            towers = []
            for depth in range(4):
                maps = tuple(rng.choice([multiplication_map(X, rng.randint(0, 3)),
                                         random_null_homotopic(rng, X, X)])
                             for _ in range(depth))
                towers.append(Tower((X,) * (depth + 1), maps, TailPolicy.constant_from(depth)))
            towers += [repeat_tower(multiplication_map(X, m)) for m in (0, 1, 2, 3, -1)]
            T, incl = truncate_above(X, rng.randint(X.lo, X.hi))
            O = zero_complex(ring)
            towers += [Tower((X, T), (incl,), TailPolicy.constant_from(1)),
                       Tower((O, X), (zero_map(X, O),), TailPolicy.constant_from(1))]
            for tower in towers:
                e2 = pro_ahss(tower, Y).e2
                qs, ns = {q for _, q in e2}, {p + q for p, q in e2}
                want = coefficient_e2(tower, Y, min(qs), max(qs), min(ns), max(ns))
                assert list(e2) == list(want)
                for slot, v in e2.items():
                    if isinstance(v, UnknownValue):
                        unknown += 1
                        assert v == want[slot]
                    else:
                        assert v.isomorphic(want[slot])
        assert unknown if ring == ZZ else not unknown


def big_pair(rng: random.Random, ring):
    """X and Y of total rank at least 12 together, past the sizes the
    examples check by hand."""
    X = random_complex(rng.randrange(2 ** 30), ring, -1, 1, 3)
    Y = random_complex(rng.randrange(2 ** 30), ring, -1, 1, 3)
    while X.total_rank() + Y.total_rank() < 12:
        W = random_complex(rng.randrange(2 ** 30), ring, -1, 1, 2)
        if rng.random() < 0.5:
            X = direct_sum_complex(X, W)[0]
        else:
            Y = direct_sum_complex(Y, W)[0]
    return X, Y


def page_homology(page, slot, ring):
    """H(E^r, d_r) at one slot, from the groups and maps of the page.  A page
    of the split reading carries no differentials: every d_r is zero."""
    (p, q), r = slot, page.r
    g = page.group_at(p, q, ring)
    differentials = getattr(page, "differentials", {})
    d_out = differentials.get(slot)
    d_in = differentials.get((p + r, q - r + 1))
    num = kernel(d_out) if d_out is not None else full_subgroup(g)
    den = image(d_in) if d_in is not None else zero_subgroup(g)
    return subquotient(g, num, den).group


class TestFilteredEngine:
    @given(st.integers(min_value=0, max_value=2 ** 30), st.sampled_from([ZZ, GF(2)]))
    @settings(max_examples=20, deadline=None)
    def test_pages_against_couple_and_abutment(self, seed, ring):
        X, Y = big_pair(random.Random(seed), ring)
        ss = SpectralSequence(X, Y)
        pages, _ = ss.run_to_stable()
        slots = list(ss.window.slots())
        # every page is the homology of the one before
        for cur, nxt in zip(pages, pages[1:]):
            for slot in slots:
                assert nxt.group_at(*slot, ring).isomorphic(page_homology(cur, slot, ring))
        # E^2 is the E of the exact couple, which is exact
        couple = build_exact_couple(X, Y)
        assert couple.validate_exactness()
        for slot in slots:
            assert pages[0].group_at(*slot, ring).isomorphic(couple.E_at(*slot))
        # E-infinity is the graded abutment
        for n in range(ss.window.n_lo, ss.window.n_hi + 1):
            graded = ss.graded(n)
            assert sorted(graded) == list(range(ss.window.q_lo, ss.window.q_hi + 1))
            for q, gr in graded.items():
                assert pages[-1].group_at(n - q, q, ring).isomorphic(gr.group)

    @given(st.integers(min_value=0, max_value=2 ** 30), st.sampled_from([ZZ, GF(2)]))
    @settings(max_examples=20, deadline=None)
    def test_split_pages_against_the_generic_formula(self, seed, ring):
        X, Y = big_pair(random.Random(seed), ring)
        ss = SpectralSequence(X, Y)
        pages, stable = ss.run_to_stable()
        generic = GenericPages(ss).pages(stable)
        assert [page.r for page in pages] == [page.r for page in generic]
        # slot by slot on every page, the last pair being E-infinity; the
        # generic d_r are all zero, as the split predicts
        for split, page in zip(pages, generic):
            assert all(d.is_zero for d in page.differentials.values())
            assert sorted(split.data) == sorted(page.data)
            for slot, g in page.groups.items():
                assert split.groups[slot].isomorphic(g)

    @pytest.mark.parametrize("seed, ring", [(2, ZZ), (3, ZZ), (5, GF(2))])
    def test_entry_joining_two_levels_raises(self, monkeypatch, seed, ring):
        # the cycles of Y_q without one cycle that some boundary needs: that
        # boundary of Y_{q+1} leaves tau_{>= q} Y, and the abutment, which
        # reads the truncations, refuses it.  At q = Y.lo the truncation is
        # Y itself and reads no cycles, so there the check is unchanged.
        # Each pair here has a case above Y.lo, so every run checks a refusal
        X, Y = big_pair(random.Random(seed), ring)
        lattice = tstruct.kernel_lattice
        refusals = 0
        for q in Y.degrees:
            cycles = lattice(Y.diff(q))
            for j in range(cycles.basis.cols):
                keep = [i for i in range(cycles.basis.cols) if i != j]
                fewer = Lattice(cycles.basis.take_columns(keep), cycles.C.take_rows(keep),
                                (1,) * len(keep))
                if fewer.coords(Y.diff(q + 1)) is not None:
                    continue
                monkeypatch.setattr(tstruct, "kernel_lattice",
                                    lambda A, d=Y.diff(q), fewer=fewer:
                                    fewer if A == d else lattice(A))
                tstruct.truncate_above.cache_clear()
                if q == Y.lo:
                    assert SpectralSequence(X, Y).convergence().all_iso
                    continue
                with pytest.raises(PostconditionViolated, match="not inside ker"):
                    SpectralSequence(X, Y).convergence()
                refusals += 1
        tstruct.truncate_above.cache_clear()
        assert refusals

    def test_builds_no_exact_couple(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the engine built an exact couple")
        monkeypatch.setattr(ahss, "build_exact_couple", refuse)
        monkeypatch.setattr(ahss.ExactCouple, "__init__", refuse)
        assert convergence_check(M2, M2).all_iso
        assert pro_ahss(repeat_tower(multiplication_map(M2, 2)), M2).levelwise_all_iso

    @pytest.mark.parametrize("seed, ring", [(11, ZZ), (4, GF(2))])
    def test_corrupted_differential_is_refused_or_flagged(self, monkeypatch, seed, ring):
        # each entry of the differential of each Hom(X, K(H_q Y)), one at a
        # time: the engine refuses it, or its E^2 is the true one, or the
        # convergence check flags it; a wrong E^2 never passes silently.
        # The abutment and the colimit condition read the corrupted complex
        # too when a complex they build equals K(H_q Y), and may refuse it
        # there.  Over F_p, K(H_q Y) is one
        # module in degree 0, so Hom(X, K(H_q Y)) has the length of X; this
        # X has two degrees, so the corrupted complex has one differential,
        # no d o d to break, and is never refused.
        X = random_complex(seed, ring, -1, 1, 2)
        Y = random_complex(seed + 50, ring, -1, 1, 3)
        true_e2 = SpectralSequence(X, Y).pages[0].groups
        hom_complex = chain.hom_complex
        refused = flagged = 0
        for L in dict.fromkeys(coefficient_complex(homology(Y, q)) for q in Y.degrees):
            hc = hom_complex(X, L)
            C = hc.complex
            for t, d in enumerate(C.diffs):
                for idx in range(len(d.entries)):
                    entries = list(d.entries)
                    entries[idx] = ring.reduce(entries[idx] + 1)
                    diffs = C.diffs[:t] + (IntMatrix(d.rows, d.cols, tuple(entries), ring),) \
                        + C.diffs[t + 1:]
                    bad = HomComplexView(ChainComplex(C.ring, C.lo, C.hi, C.ranks, diffs))
                    monkeypatch.setattr(chain, "hom_complex", lambda X, Y, L=L, bad=bad:
                                        bad if Y == L else hom_complex(X, Y))
                    try:
                        ss = SpectralSequence(X, Y)
                        report = ss.convergence()
                    except (ContainmentViolation, PostconditionViolated,
                            PreconditionViolated):
                        refused += 1
                        continue
                    if not report.all_iso:
                        flagged += 1
                        continue
                    e2 = ss.pages[0].groups
                    assert sorted(e2) == sorted(true_e2), (L, t, idx)
                    for slot, g in true_e2.items():
                        assert e2[slot].isomorphic(g), (L, t, idx, slot)
        assert flagged and (refused or ring.is_field)
