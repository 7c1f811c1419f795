"""Truncations, classification calculus, factorization, lifting, and
cohomology with coefficients."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import prochain
from conftest import (big_complex, cells_spaces, maps_classify_maps,
                      random_chain_tower, random_composable_pair,
                      random_map_into, random_map_out)
from oracles import cell_state_factor, cone_les_exact
from prochain import chain
from prochain.chain import (CONE_CACHE_SIZE, chain_map, cone, derived_hom,
                            free_one_term, homology, homology_support,
                            identity_map, induced_homology_map, make_complex,
                            minimal_model, moore_complex,
                            multiplication_map, random_complex,
                            random_null_homotopic, shift, zero_complex,
                            zero_map, is_chain_map)
from prochain import tstruct
from prochain.errors import PreconditionViolated
from prochain.exactalg.groups import (free_group, group_from_orders,
                                      is_isomorphism)
from prochain.exactalg.matrices import solve
from prochain.exactalg.ring import GF, ZZ
from prochain.tstruct import (classify_map, classify_map_by_homology,
                              coefficient_complex,
                              cohomology_with_coefficients, factor_n,
                              find_lift, heart_homology,
                              induced_map_on_cohomology, is_co_n_equivalence,
                              is_co_n_fibration, is_degreewise_split_mono,
                              is_n_cofibration, is_n_equivalence,
                              layer_triangle_check, pushout_product_check,
                              truncate_above, truncate_below_free,
                              truncate_below_map, truncate_below_step,
                              truncation_step, truncation_tower)

INF = math.inf
Z0 = free_one_term(ZZ, 0)
M2 = moore_complex(2)


class TestTruncations:
    def test_truncate_above_examples(self):
        T, _ = truncate_above(Z0, 0)
        assert T == Z0
        T, _ = truncate_above(M2, 1)  # ker(x2) in degree 1 is zero
        assert homology_support(T) is None
        T, _ = truncate_above(M2, -5)
        assert T == M2

    def test_truncate_above_homology(self):
        for seed in range(6):
            X = random_complex(seed, ZZ, -2, 2, 2)
            for n in range(-3, 4):
                T, incl = truncate_above(X, n)
                assert is_chain_map(incl)
                for m in range(-4, 5):
                    if m < n:
                        assert homology(T, m).is_trivial
                    else:
                        assert homology(T, m).isomorphic(homology(X, m))

    def test_truncate_below_homology(self):
        for seed in range(6):
            X = random_complex(seed, ZZ, -2, 2, 2)
            for n in range(-3, 4):
                C, anchor = truncate_below_free(X, n)
                assert is_chain_map(anchor)
                for m in range(-4, 5):
                    if m > n:
                        assert homology(C, m).is_trivial
                    else:
                        assert homology(C, m).isomorphic(homology(X, m))

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]))
    @settings(max_examples=40, deadline=None)
    def test_quotient_model_is_the_truncation(self, seed, ring):
        # on A -> B -> C with B of total rank 12 or more, for every k from
        # two below B to one past it: the anchor is an iso on H_m for m <= k,
        # the quotient has no homology above k, the step and the maps commute
        # with the anchors, and T_{<= k} keeps composites
        rng = random.Random(seed)
        B = big_complex(rng, ring, -2, 2)
        f, g = random_map_into(rng, B), random_map_out(rng, B)
        for k in range(B.lo - 2, B.hi + 2):
            Q, anchor = truncate_below_free(B, k)
            for m in range(B.lo - 1, B.hi + 2):
                if m <= k:
                    assert is_isomorphism(induced_homology_map(anchor, m)), (k, m)
                else:
                    assert homology(Q, m).is_trivial, (k, m)
            up = truncate_below_free(B, k + 1)[1]
            assert truncate_below_step(B, k).compose(up).equal(anchor), k
            Qf = truncate_below_map(f, k)
            source_anchor = truncate_below_free(f.source, k)[1]
            assert Qf.compose(source_anchor).equal(anchor.compose(f)), k
            assert truncate_below_map(g.compose(f), k).equal(
                truncate_below_map(g, k).compose(Qf)), k

    def test_towers_build_no_cone(self):
        # every call of cone, under any name, shows in its cache statistics
        from prochain.prohomotopy import postnikov_replacement
        rng = random.Random(26)
        chain.cone.cache_clear()
        for ring in (ZZ, GF(2), GF(3)):
            truncation_tower(big_complex(rng, ring, -2, 2))
            postnikov_replacement(random_chain_tower(rng, ring))
        info = chain.cone.cache_info()
        assert info.hits + info.misses == 0

    def test_tower_squares_commute(self):
        X = random_complex(3, ZZ, -1, 2, 2)
        tw = truncation_tower(X)
        for n in range(tw.n_lo + 1, tw.n_hi + 1):
            left = tw.maps_below[n].compose(tw.anchors_below[n])
            assert left.equal(tw.anchors_below[n - 1])
        for n in range(tw.n_lo, tw.n_hi):
            comp = tw.anchors_above[n].compose(tw.maps_above[n])
            assert comp.equal(tw.anchors_above[n + 1])

    def test_tower_quasi_iso_steps(self):
        # H_0 and H_2 present: step at 1 is a quasi-iso, step at 2 is not
        from prochain.chain import direct_sum_complex
        Y, *_ = direct_sum_complex(Z0, free_one_term(ZZ, 2))
        tw = truncation_tower(Y)
        from prochain.chain import is_quasi_iso
        assert is_quasi_iso(tw.maps_below[1])
        assert not is_quasi_iso(tw.maps_below[2])

    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)])
    def test_truncation_step_is_the_solved_inclusion(self, ring):
        # the step read off the inclusions is the map solved through
        # tau_{>= n} X -> X, also with n past both ends of X
        for seed in range(12):
            X = random_complex(seed + 200, ring, -2, 2, 3)
            for n in range(X.lo - 2, X.hi + 2):
                step = truncation_step(X, n)
                _, incl1 = truncate_above(X, n + 1)
                _, incln = truncate_above(X, n)
                for m in range(X.lo - 3, X.hi + 3):
                    assert step.comp(m) == solve(incln.comp(m), incl1.comp(m)), (seed, n, m)

    def test_heart_homology(self):
        assert heart_homology(M2, 0).invariant_factors == (2,)
        for k in (-1, 2):
            assert heart_homology(shift(M2, k), k).isomorphic(
                heart_homology(M2, 0))

    def test_layer_triangles(self):
        assert layer_triangle_check(Z0, 0)
        assert layer_triangle_check(zero_complex(), 1)
        for seed in range(5):
            X = random_complex(seed + 50, ZZ, -2, 2, 2)
            for n in range(-3, 4):
                assert layer_triangle_check(X, n)


class TestClassification:
    def test_examples(self):
        c = classify_map(identity_map(M2))
        assert c.is_weak_equivalence and c.max_n_equivalence == INF
        assert c.min_co_n_equivalence == -INF
        c = classify_map(multiplication_map(Z0, 2))
        assert (c.max_n_equivalence, c.min_co_n_equivalence) == (-1, 0)
        c = classify_map(zero_map(zero_complex(), free_one_term(ZZ, 5)))
        assert c.max_n_equivalence == 4

    def test_cross_check_with_homology_characterization(self):
        rng = random.Random(0)
        for _ in range(40):
            f, g = random_composable_pair(rng)
            for h in (f, g, g.compose(f)):
                assert classify_map(h) == classify_map_by_homology(h)

    def test_one_cone_per_map(self):
        # classification and every threshold query read one shared cone
        f, _ = random_composable_pair(random.Random(2))
        cone.cache_clear()
        c = classify_map(f)
        for n in range(-3, 4):
            assert is_n_equivalence(f, n) == (n <= c.max_n_equivalence)
            assert is_co_n_equivalence(f, n) == (n >= c.min_co_n_equivalence)
        info = cone.cache_info()
        assert info.misses == 1 and info.maxsize == CONE_CACHE_SIZE
        assert c == classify_map_by_homology(f)

    def test_one_classification_per_map(self):
        # a `maps` classify item's 15 questions about one map build one cone
        # and classify the map once; the table bound is the cone table's
        triples = maps_classify_maps(5)
        f = triples[0][0]
        prochain.cache_clear()
        classify_map(f)
        for n in range(-3, 4):
            is_n_equivalence(f, n)
            is_co_n_equivalence(f, n)
        assert cone.cache_info().misses == 1
        info = classify_map.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (1, 14, CONE_CACHE_SIZE)
        for h in (h for maps in triples[:8] for h in maps):
            want = classify_map_by_homology(h)
            assert classify_map(h) == want
            for n in range(-3, 4):
                assert is_n_equivalence(h, n) == (n <= want.max_n_equivalence)
                assert is_co_n_equivalence(h, n) == (n >= want.min_co_n_equivalence)

    def test_classification_and_factorization_build_no_cone_maps(self, monkeypatch):
        # a cone read by classify_map or factor_n builds no chain map: its
        # inclusion and projection are left to their readers
        depth, in_cone = [0], []
        take_cone, make_map = tstruct.cone, chain.chain_map

        def counting_cone(f):
            depth[0] += 1
            try:
                return take_cone(f)
            finally:
                depth[0] -= 1

        def counting_map(*args, **kwargs):
            if depth[0]:
                in_cone.append(args[:2])
            return make_map(*args, **kwargs)

        monkeypatch.setattr(tstruct, "cone", counting_cone)
        monkeypatch.setattr(chain, "chain_map", counting_map)
        rng = random.Random(29)
        cone.cache_clear()
        for _ in range(6):
            f, g = random_composable_pair(rng)
            classify_map(g.compose(f))
            factor_n(f, rng.randint(-2, 2))
        assert cone.cache_info().misses > 6
        assert in_cone == []

    def test_monotone_and_weak(self):
        rng = random.Random(1)
        for _ in range(20):
            f, _ = random_composable_pair(rng)
            c = classify_map(f)
            for n in range(-3, 4):
                if is_n_equivalence(f, n):
                    assert is_n_equivalence(f, n - 1)
                if is_co_n_equivalence(f, n):
                    assert is_co_n_equivalence(f, n + 1)
                if is_n_equivalence(f, n) and is_co_n_equivalence(f, n):
                    assert c.is_weak_equivalence
            # weak equivalences belong to every class
            if c.is_weak_equivalence:
                assert all(is_n_equivalence(f, n) and is_co_n_equivalence(f, n)
                           for n in range(-3, 4))

    def test_shift_closure(self):
        rng = random.Random(2)
        from prochain.chain import shift_map
        for _ in range(10):
            f, _ = random_composable_pair(rng)
            c = classify_map(f)
            cs = classify_map(shift_map(f, 1))
            assert cs.max_n_equivalence == c.max_n_equivalence + 1
            assert cs.min_co_n_equivalence == c.min_co_n_equivalence + 1

    def test_two_out_of_three(self):
        rng = random.Random(3)
        for _ in range(60):
            f, g = random_composable_pair(rng)
            gf = g.compose(f)
            for n in range(-3, 4):
                if is_n_equivalence(f, n) and is_n_equivalence(g, n):
                    assert is_n_equivalence(gf, n)
                if is_co_n_equivalence(f, n) and is_co_n_equivalence(g, n):
                    assert is_co_n_equivalence(gf, n)
                if is_n_equivalence(f, n - 1) and is_n_equivalence(gf, n):
                    assert is_n_equivalence(g, n)
                if is_co_n_equivalence(f, n - 1) and is_co_n_equivalence(gf, n):
                    assert is_co_n_equivalence(g, n)
                if is_n_equivalence(g, n + 1) and is_n_equivalence(gf, n):
                    assert is_n_equivalence(f, n)
                if is_co_n_equivalence(g, n + 1) and is_co_n_equivalence(gf, n):
                    assert is_co_n_equivalence(f, n)

    def test_triangle_window_rules(self):
        # the six window rules on triangles (A -> B -> cone) via supports
        rng = random.Random(4)
        for _ in range(25):
            f, _ = random_composable_pair(rng)
            A, B = f.source, f.target
            C = cone(f)
            sa, sb, sc = (homology_support(Z) for Z in (A, B, C))

            def geq(s):  # largest n with the object in M_{>= n}; INF if zero
                return INF if s is None else s[0]

            def leq(s):  # smallest n with the object in M_{<= n}
                return -INF if s is None else s[1]

            for n in range(-3, 4):
                if geq(sa) >= n and geq(sc) >= n:
                    assert geq(sb) >= n
                if leq(sa) <= n and leq(sc) <= n:
                    assert leq(sb) <= n
                if geq(sa) >= n - 1 and geq(sb) >= n:
                    assert geq(sc) >= n
                if leq(sa) <= n - 1 and leq(sb) <= n:
                    assert leq(sc) <= n
                if geq(sb) >= n and geq(sc) >= n + 1:
                    assert geq(sa) >= n
                if leq(sb) <= n and leq(sc) <= n + 1:
                    assert leq(sa) <= n


class TestTAxioms:
    def test_truncation_vanishing(self):
        for seed in range(10):
            X = random_complex(seed, ZZ, -2, 2, 2)
            for n in range(-2, 3):
                T, _ = truncate_above(X, n)
                for i in range(-4, n):
                    assert homology(T, i).is_trivial

    def test_triangle_les(self):
        for seed in range(8):
            X = random_complex(seed, ZZ, -2, 2, 2)
            _, incl = truncate_above(X, 0)
            assert cone_les_exact(incl)

    def test_hom_vanishing(self):
        for seed in range(10):
            A = random_complex(seed, ZZ, -2, 2, 2)
            B = random_complex(seed + 77, ZZ, -2, 2, 2)
            X, _ = truncate_above(A, 0)
            Y, _ = truncate_below_free(B, -1)
            assert derived_hom(X, Y, 0).is_trivial

    def test_determination_desk_check(self):
        # an object with homology below 0 admits a nonzero map to its
        # below-truncation
        found = 0
        for seed in range(40):
            X = random_complex(seed, ZZ, -3, 1, 2)
            sup = homology_support(X)
            if sup is None or sup[0] >= 0:
                continue
            Y, _ = truncate_below_free(X, -1)
            if not derived_hom(X, Y, 0).is_trivial:
                found += 1
        assert found >= 5


class TestWhitehead:
    def test_whitehead_equivalences(self):
        rng = random.Random(9)
        tested = 0
        for _ in range(60):
            f, g = random_composable_pair(rng)
            for h in (f, g):
                c = classify_map(h)
                if c.max_n_equivalence == -INF:
                    continue
                tested += 1
                hom_iso = all(is_isomorphism(induced_homology_map(h, n))
                              for n in range(-4, 5))
                assert hom_iso == c.is_weak_equivalence
                # cohomology detection with cyclic coefficients from the
                # homology of source and target
                coeffs = []
                for Z in (h.source, h.target):
                    for n in range(-3, 4):
                        grp = homology(Z, n)
                        for d in grp.invariant_factors:
                            coeffs.append(group_from_orders([d]))
                        if grp.free_rank:
                            coeffs.append(free_group(1))
                coh_iso = all(
                    is_isomorphism(induced_map_on_cohomology(h, A, p))
                    for A in coeffs[:4] for p in range(-3, 4))
                if c.is_weak_equivalence:
                    assert coh_iso
                elif coeffs:
                    # not an equivalence: some homology map already failed
                    assert not hom_iso
        assert tested > 20


def change_basis(rng, B):
    """g: B -> B' and its inverse, with B' the complex B in a basis changed
    by random shears in every degree."""
    G = {m: chain._random_unimodular(rng, B.rank(m), B.ring) for m in B.degrees}
    B2 = make_complex(B.ring, {m: B.rank(m) for m in B.degrees},
                      {m: G[m - 1][0] @ B.diff(m) @ G[m][1] for m in B.degrees[1:]})
    return (chain_map(B, B2, {m: G[m][0] for m in B.degrees}),
            chain_map(B2, B, {m: G[m][1] for m in B.degrees}))


def factor_rounds(f, n):
    """The complexes factor_n(f, n) builds (one after the disks and one per
    round of cell attachment), and its bound from the first cone: the
    degrees from max(n + 1, lo) to hi, plus one.  Each round decodes the
    homology it kills, and only that loop calls homology_data in tstruct;
    its first cone is the one of p after the disks."""
    kills, cones = [], []
    decode, take_cone = tstruct.homology_data, tstruct.cone

    def counting(C, k):
        kills.append(k)
        return decode(C, k)

    def recording(p):
        cones.append(p)
        return take_cone(p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tstruct, "homology_data", counting)
        mp.setattr(tstruct, "cone", recording)
        i, p = factor_n(f, n)
    assert p.compose(i).equal(f)
    C0 = take_cone(cones[0])
    return 1 + len(kills), max(C0.hi - max(n + 1, C0.lo) + 1, 0) + 1


class TestFactorLift:
    def test_factor_identity(self):
        i, p = factor_n(identity_map(Z0), 0)
        assert p.compose(i).equal(identity_map(Z0))

    def test_factor_from_zero(self):
        f = zero_map(zero_complex(), Z0)
        i, p = factor_n(f, 0)
        assert is_n_cofibration(i, 0) and is_co_n_fibration(p, 0)
        # the middle is acyclic below degree 1 (here: acyclic, period)
        assert classify_map(i).max_n_equivalence >= 0

    def test_factor_times2_high_n(self):
        i, p = factor_n(multiplication_map(Z0, 2), 5)
        assert is_n_cofibration(i, 5)
        assert is_co_n_fibration(p, 5)
        assert p.compose(i).equal(multiplication_map(Z0, 2))

    def test_factor_random(self):
        rng = random.Random(10)
        for _ in range(25):
            f, g = random_composable_pair(rng, lo=-1, hi=1)
            n = rng.randint(-2, 2)
            for h in (f,):
                i, p = factor_n(h, n)
                assert p.compose(i).equal(h)
                assert is_n_cofibration(i, n)
                assert is_co_n_fibration(p, n)

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]), st.integers(min_value=-4, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_factor_rounds_within_the_bound(self, seed, ring, n):
        f, _ = random_composable_pair(random.Random(seed), ring, lo=-1, hi=1)
        used, bound = factor_rounds(f, n)
        assert used <= bound

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]), st.integers(min_value=-4, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_factor_matches_the_cell_state_oracle(self, seed, ring, n):
        # the block construction gives the sparse builder's Z, p and i
        f, _ = random_composable_pair(random.Random(seed), ring, lo=-2, hi=2)
        # ChainMap equality compares source, target and every component
        assert factor_n(f, n) == cell_state_factor(f, n)

    @pytest.mark.parametrize("n", [-2, -1, 0])
    def test_factor_rounds_reach_the_bound(self, n):
        # x2 on the Moore complex kills one degree per round up to the top
        used, bound = factor_rounds(multiplication_map(M2, 2), n)
        assert used == bound

    def test_lift_trivial_cases(self):
        # i = id: the lift is forced on the nose
        f = multiplication_map(M2, 2)
        i, p = factor_n(f, 1)
        h = find_lift(identity_map(M2), p, i, p.compose(i), 1)
        assert h is not None
        # p = id: the lift is the identity
        h = find_lift(i, identity_map(i.target), i, identity_map(i.target), 1)
        assert h is not None and h.equal(identity_map(i.target))

    def test_lift_manufactured_squares(self):
        rng = random.Random(11)
        for _ in range(12):
            f, _ = random_composable_pair(rng, lo=-1, hi=1)
            n = rng.randint(-1, 2)
            i, p = factor_n(f, n)
            # refactor p to get a nested square with nontrivial top
            i2, p2 = factor_n(p, n)
            h = find_lift(i, p2, i2.compose(i), p, n)
            assert h is not None
            assert h.compose(i).equal(i2.compose(i))
            assert p2.compose(h).equal(p)

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]), st.integers(min_value=-2, max_value=2),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_lift_in_changed_bases(self, seed, ring, n, other):
        # f = p o i = p2 o i2 through the factorization at n and, when
        # `other`, the one at n - 1 (a co-(n-1)-fibration is a co-n one).
        # B, the middle of (i, p), changes basis by shears, so i's Smith V
        # is no identity.  Middles reach rank 40; past that, Smith forms
        # over Z of sheared squares can take minutes (the coefficient growth
        # of ROADMAP item 4)
        rng = random.Random(seed)
        f, _ = random_composable_pair(rng, ring, lo=-1, hi=1, max_rank=3)
        i, p = factor_n(f, n)
        i2, p2 = factor_n(f, n - 1) if other else (i, p)
        g, g_inv = change_basis(rng, i.target)
        square = (g.compose(i), p2, i2, p.compose(g_inv))
        h = find_lift(*square, n)
        assert h is not None
        assert h.compose(square[0]).equal(i2)
        assert p2.compose(h).equal(square[3])

    def test_lift_precondition_errors(self):
        f = multiplication_map(Z0, 2)
        with pytest.raises(PreconditionViolated):
            find_lift(f, f, f, f, 0)


class TestCohomology:
    def test_examples(self):
        A = group_from_orders([2])
        assert cohomology_with_coefficients(Z0, A, 0).isomorphic(A)
        assert cohomology_with_coefficients(M2, A, 1).invariant_factors == (2,)
        assert cohomology_with_coefficients(M2, A, 9).is_trivial
        B = free_group(2)
        assert cohomology_with_coefficients(Z0, B, 0).isomorphic(B)

    def test_coefficient_complex(self):
        A = group_from_orders([2, 4, 0])
        K = coefficient_complex(A)
        assert homology(K, 0).isomorphic(A)
        assert homology(K, 1).is_trivial

    # free, cyclic and mixed coefficients; over F_p each is a vector space
    COEFFICIENTS = [[0, 0], [2], [4], [0, 2, 6]]

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]),
           st.sampled_from(COEFFICIENTS))
    @settings(max_examples=100, deadline=None)
    def test_model_against_the_unreduced_hom(self, seed, ring, orders):
        # the unreduced [X, K(A)]_{-p} stays the oracle, for every p of X's
        # range and one past each end
        X = random_complex(seed, ring, -2, 2, 4)
        A = group_from_orders(orders, ring)
        K = coefficient_complex(A)
        for p in range(X.lo - 1, X.hi + 2):
            assert cohomology_with_coefficients(X, A, p).isomorphic(
                derived_hom(X, K, -p)), p

    def test_cells_spaces_against_the_unreduced_hom(self):
        for p in (0, 2, 3):
            ring = ZZ if not p else GF(p)
            for label, X in cells_spaces(p)[:8]:
                for orders in self.COEFFICIENTS:
                    A = group_from_orders(orders, ring)
                    K = coefficient_complex(A)
                    for q in range(X.lo - 1, X.hi + 2):
                        assert cohomology_with_coefficients(X, A, q).isomorphic(
                            derived_hom(X, K, -q)), (label, orders, q)

    def test_builds_no_hom_complex_on_x(self, monkeypatch):
        # cohomology reads Hom(M, K(A)) of the minimal model M, never
        # Hom(X, K(A)) of X itself
        asked = []
        hom_complex = chain.hom_complex

        def recording(X, Y):
            asked.append((X, Y))
            return hom_complex(X, Y)

        monkeypatch.setattr(chain, "hom_complex", recording)
        cases = [X for _, X in cells_spaces(0)[:4]]
        cases += [X for X in (random_complex(seed, ring, -2, 2, 3)
                              for seed in range(12) for ring in (ZZ, GF(2)))
                  if minimal_model(X) != X][:4]
        assert len(cases) == 8
        for X in cases:
            asked.clear()
            for orders in self.COEFFICIENTS:
                A = group_from_orders(orders, X.ring)
                for p in range(X.lo - 1, X.hi + 2):
                    cohomology_with_coefficients(X, A, p)
            assert {S for S, _ in asked} == {minimal_model(X)}


class TestPushoutProduct:
    def test_always_true_for_cofibrations(self):
        rng = random.Random(12)
        checked = 0
        for _ in range(20):
            f, _ = random_composable_pair(rng, lo=-1, hi=1)
            n = rng.randint(-1, 1)
            i, _ = factor_n(f, n)
            for jdim in (0, 1, 2):
                assert pushout_product_check(i, jdim)
            checked += 1
        assert checked == 20
        assert pushout_product_check(zero_map(zero_complex(), M2), 1)

    def test_rejects_non_cofibration(self):
        with pytest.raises(PreconditionViolated):
            pushout_product_check(multiplication_map(Z0, 2), 1)
