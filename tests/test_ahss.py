"""The spectral sequence engine: couple exactness, derivation, abutment,
convergence, and the tower version."""

import random

import pytest

from conftest import random_chain_tower
from prochain.ahss import (SpectralSequence, abutment_filtration,
                           build_exact_couple, convergence_check,
                           e2_identification_check, pro_ahss, run_to_stable)
from prochain.chain import (free_one_term, homology, moore_complex,
                            multiplication_map, random_complex,
                            random_null_homotopic, zero_complex)
from prochain.exactalg.groups import subquotient
from prochain.exactalg.ring import GF, ZZ
from prochain.pro import TailPolicy, Tower, UnknownValue, constant_tower, repeat_tower
from prochain.tstruct import cohomology_with_coefficients

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
            pages, _ = ss.run_to_stable()
            for page in pages:
                for (p, q), d in page.differentials.items():
                    src = (p + page.r, q - page.r + 1)
                    din = page.differentials.get(src)
                    if din is not None:
                        assert d.compose(din).is_zero

    def test_next_page_is_homology_of_previous(self):
        # recompute E_{r+1} independently through subquotient and compare
        X = random_complex(71, ZZ, -1, 1, 2)
        Y = random_complex(72, ZZ, -1, 1, 2)
        ss = SpectralSequence(X, Y)
        pages, _ = ss.run_to_stable()
        from prochain.exactalg.groups import image, kernel
        for idx in range(len(pages) - 1):
            cur, nxt = pages[idx], pages[idx + 1]
            for (p, q), g in cur.groups.items():
                d_out = cur.differentials.get((p, q))
                src = (p + cur.r, q - cur.r + 1)
                d_in = cur.differentials.get(src)
                ker = kernel(d_out).group if d_out is not None else g
                if d_out is not None and d_in is not None:
                    sq = subquotient(g, kernel(d_out), image(d_in)).group
                elif d_out is not None:
                    sq = kernel(d_out).group
                elif d_in is not None:
                    from prochain.exactalg.groups import full_subgroup, image as im
                    sq = subquotient(g, full_subgroup(g), im(d_in)).group
                else:
                    sq = g
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
            for page in pages:
                assert all(d.is_zero for d in page.differentials.values())


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

    def test_f2_constant_from_towers(self):
        rng = random.Random(5)
        F2 = GF(2)
        for k in range(3):
            T = random_chain_tower(rng, F2, -1, 1, 2)
            Y = random_complex(k + 110, F2, -1, 1, 2)
            rep = pro_ahss(T, Y)
            assert rep.levelwise_all_iso
            assert rep.comparison_holds
