"""Weak-equivalence detection, Postnikov replacement, fibrancy, and hom
groups against constant towers."""

import random

import pytest

from conftest import maps_postnikov_towers, random_chain_tower
from oracles import postnikov_step_by_composite
from prochain.chain import (derived_hom, direct_sum_complex, free_one_term,
                            homology, identity_map, moore_complex,
                            multiplication_map, random_complex, shift,
                            zero_complex, zero_map)
from prochain.errors import WindowViolation
from prochain.exactalg.groups import group_from_orders, hom_group
from prochain.exactalg.ring import GF, ZZ
from prochain.pro import (Lim1Verdict, TailPolicy, Tower, UnknownValue,
                          constant_tower, level_map, repeat_tower)
from prochain.prohomotopy import (heart_hom, hom_from_constant,
                                  hom_to_constant, homology_tower,
                                  is_hstar_fibrant,
                                  is_hstar_weak_equivalence,
                                  is_levelwise_cofibration,
                                  postnikov_replacement,
                                  tower_homology_support)
from prochain.tstruct import coefficient_complex, truncate_below_map

Z0 = free_one_term(ZZ, 0)
M2 = moore_complex(2)
ZC = zero_complex()


class TestHStarWe:
    def test_identity(self):
        T = constant_tower(M2)
        assert is_hstar_weak_equivalence(level_map(T, T, (identity_map(M2),)))

    def test_constant_to_zero_rejected_with_certificate(self):
        f = level_map(constant_tower(Z0), constant_tower(ZC), (zero_map(Z0, ZC),))
        v = is_hstar_weak_equivalence(f)
        assert v.verdict == "not" and v.failed_degree == 0

    def test_pro_zero_moore_tower(self):
        z = repeat_tower(zero_map(M2, M2))
        f = level_map(z, constant_tower(ZC), (zero_map(M2, ZC),))
        assert is_hstar_weak_equivalence(f).verdict == "weak_equivalence"

    def test_constant_towers_match_quasi_iso(self):
        from prochain.chain import is_quasi_iso, random_null_homotopic
        rng = random.Random(0)
        for seed in range(8):
            X = random_complex(seed, ZZ, -1, 1, 2)
            f = multiplication_map(X, rng.choice([0, 1, 2]))
            v = is_hstar_weak_equivalence(
                level_map(constant_tower(X), constant_tower(X), (f,)))
            assert bool(v) == is_quasi_iso(f)


class TestHomologyTower:
    def test_entries_are_the_ends_of_the_structure_maps(self):
        # the structure maps are induced maps, which act on the groups of
        # homology_data; an entry isomorphic to, but not equal to, the end
        # of a map would break every composite
        rng = random.Random(6)
        towers = maps_postnikov_towers() + [
            random_chain_tower(rng, ring, max_rank=3) for ring in (ZZ, GF(2))
            for _ in range(6)]
        towers += [repeat_tower(multiplication_map(random_complex(seed, ZZ, -2, 2, 3), 2))
                   for seed in range(3)]
        maps = 0
        for T in towers:
            sup = tower_homology_support(T)
            for n in range(sup[0], sup[1] + 1) if sup else ():
                H = homology_tower(T, n)
                ends = [(H.structure_map(s), s + 1, s) for s in range(H.tail.start)]
                if not H.tail.is_constant:
                    ends.append((H.tail.endo, H.tail.start, H.tail.start))
                for m, s, t in ends:
                    assert m.source == H.entry(s) and m.target == H.entry(t)
                    maps += 1
        assert maps >= 40


class TestPostnikov:
    def test_replacement_verified(self):
        for seed in (None, 0, 1, 2):
            Y = constant_tower(Z0 if seed is None
                               else random_complex(seed, ZZ, -2, 2, 2))
            Z, canon = postnikov_replacement(Y)
            assert is_hstar_weak_equivalence(canon).verdict == "weak_equivalence"

    def test_entries_lose_top_homology(self):
        Y2, *_ = direct_sum_complex(Z0, free_one_term(ZZ, 2))
        Z, canon = postnikov_replacement(constant_tower(Y2))
        assert is_hstar_weak_equivalence(canon)
        assert homology(Z.entry(0), 2).is_trivial
        assert not homology(Z.entry(5), 2).is_trivial

    def test_zero_tower(self):
        Z, canon = postnikov_replacement(constant_tower(ZC))
        assert is_hstar_weak_equivalence(canon)

    def test_repeat_tail(self):
        t2 = repeat_tower(multiplication_map(Z0, 2))
        Z, canon = postnikov_replacement(t2)
        assert not Z.tail.is_constant
        assert is_hstar_weak_equivalence(canon)

    def test_random_towers(self):
        rng = random.Random(3)
        for _ in range(6):
            T = random_chain_tower(rng)
            Z, canon = postnikov_replacement(T)
            assert is_hstar_weak_equivalence(canon), _

    def test_structure_maps_are_the_step_then_the_map(self):
        # entry k is T_{<= n0+k} Y_k; each structure map, built as one
        # chain map, is the tower step T_{<= n0+k+1} -> T_{<= n0+k} on
        # Y_{k+1} followed by T_{<= n0+k} of Y's structure map, and the
        # tail is the truncated tail endo
        rng = random.Random(4)
        towers = maps_postnikov_towers() + [
            random_chain_tower(rng, ring, max_rank=3) for ring in (ZZ, GF(2), GF(3))
            for _ in range(4)]
        towers += [repeat_tower(multiplication_map(Z0, 2)), constant_tower(ZC),
                   repeat_tower(multiplication_map(M2, 3))]
        for Y in towers:
            Z, _ = postnikov_replacement(Y)
            sup = tower_homology_support(Y)
            n0 = sup[0] if sup else max(Y.entry(s).hi for s in range(Y.tail.start + 1))
            for k in range(Z.tail.start):
                assert Z.structure[k].equal(
                    postnikov_step_by_composite(Y.structure_map(k), n0 + k)), k
            if not Z.tail.is_constant:
                assert Z.tail.endo.equal(
                    truncate_below_map(Y.tail.endo, n0 + Z.tail.start))


class TestFibrancy:
    def test_constant_is_fibrant(self):
        assert is_hstar_fibrant(constant_tower(M2))

    def test_non_surjective_structure_rejected(self):
        bad = Tower((Z0, Z0), (multiplication_map(Z0, 2),),
                    TailPolicy.constant_from(1))
        assert not is_hstar_fibrant(bad)

    def test_surjectivized_postnikov(self):
        # a tower with identity maps is strict fibrant
        T = Tower((M2, M2), (identity_map(M2),), TailPolicy.constant_from(1))
        assert is_hstar_fibrant(T)


class TestLevelwiseCofibration:
    def test_cases(self):
        T = constant_tower(Z0)
        assert is_levelwise_cofibration(level_map(T, T, (identity_map(Z0),)))
        assert not is_levelwise_cofibration(
            level_map(T, T, (multiplication_map(Z0, 2),)))
        assert is_levelwise_cofibration(
            level_map(constant_tower(ZC), constant_tower(M2),
                      (zero_map(ZC, M2),)))


class TestHomGroups:
    def test_to_constant(self):
        assert hom_to_constant(constant_tower(M2), M2, 0).invariant_factors == (2,)
        t2 = repeat_tower(multiplication_map(Z0, 2))
        assert hom_to_constant(t2, M2, 0).is_trivial
        assert hom_to_constant(t2, ZC, 0).is_trivial

    def test_to_constant_matches_derived_hom(self):
        for seed in range(5):
            X = random_complex(seed, ZZ, -1, 1, 2)
            Y = random_complex(seed + 9, ZZ, -1, 1, 2)
            for n in range(-2, 3):
                v = hom_to_constant(constant_tower(X), Y, n)
                assert v.isomorphic(derived_hom(X, Y, n))

    def test_from_constant_stable(self):
        r = hom_from_constant(M2, constant_tower(M2), 0)
        assert r.lim1 == Lim1Verdict.ZERO
        assert r.value.invariant_factors == (2,)

    def test_from_constant_lim1_obstruction(self):
        t2 = repeat_tower(multiplication_map(Z0, 2))
        r = hom_from_constant(Z0, t2, 0)
        assert r.lim1 == Lim1Verdict.NONZERO_UNCOUNTABLE
        assert r.lim.is_trivial
        assert isinstance(r.value, UnknownValue)

    def test_from_zero_source(self):
        t2 = repeat_tower(multiplication_map(Z0, 2))
        r = hom_from_constant(ZC, t2, 0)
        assert r.lim1 == Lim1Verdict.ZERO and r.value.is_trivial


class TestHeartHom:
    def test_constant_heart_objects(self):
        Z2 = group_from_orders([2])
        Z4 = group_from_orders([4])
        KX, KY = coefficient_complex(Z2), coefficient_complex(Z4)
        v = heart_hom(constant_tower(KX), constant_tower(KY), 0)
        assert v.isomorphic(hom_group(Z2, Z4).group)

    def test_eventually_zero_colim(self):
        Z2 = group_from_orders([2])
        t2 = repeat_tower(multiplication_map(Z0, 2))
        v = heart_hom(t2, constant_tower(coefficient_complex(Z2)), 0)
        assert v.is_trivial

    def test_into_a_unit_tail(self):
        # x3 is invertible on the Moore complex of Z/4, and [Z0, M4]_0 = Z/4
        M4 = moore_complex(4)
        v = heart_hom(constant_tower(Z0), repeat_tower(multiplication_map(M4, 3)), 0)
        assert v.isomorphic(group_from_orders([4]))

    def test_window_vanishing(self):
        Z2 = group_from_orders([2])
        KX = coefficient_complex(Z2)
        out = heart_hom(constant_tower(shift(KX, 1)),
                        constant_tower(coefficient_complex(group_from_orders([4]))), 1)
        assert out.is_trivial

    def test_window_violation(self):
        Z2 = group_from_orders([2])
        KX = coefficient_complex(Z2)
        with pytest.raises(WindowViolation):
            heart_hom(constant_tower(shift(KX, -1)),
                      constant_tower(KX), 0)
