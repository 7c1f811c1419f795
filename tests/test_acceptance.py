"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS line (run with -s to see them); stated
runtime budgets are asserted where the criterion includes one.
"""

import math
import random
import time

import pytest

from conftest import random_chain_tower, random_composable_pair
from oracles import cone_les_exact
from prochain.ahss import convergence_check, pro_ahss, run_to_stable
from prochain.chain import (derived_hom, free_one_term, homology,
                            moore_complex, multiplication_map,
                            random_complex, zero_complex, zero_map)
from prochain.exactalg.groups import (free_group, group_from_presentation,
                                      multiplication_hom, zero_hom,
                                      trivial_group)
from prochain.exactalg.matrices import IntMatrix, kernel_basis, snf, solve
from prochain.exactalg.ring import GF, ZZ
from prochain.pro import (Lim1Verdict, constant_tower, is_pro_isomorphism,
                          level_map, lim_lim1, repeat_tower)
from prochain.prohomotopy import is_hstar_weak_equivalence, postnikov_replacement
from prochain.tstruct import (classify_map, factor_n, find_lift,
                              is_co_n_equivalence, is_co_n_fibration,
                              is_n_cofibration, is_n_equivalence,
                              layer_triangle_check, truncate_above,
                              truncate_below_free)

Z0 = free_one_term(ZZ, 0)
M2 = moore_complex(2)

SUITE_SIZE = 200
SUITE = None


def suite():
    global SUITE
    if SUITE is None:
        SUITE = [random_complex(seed, ZZ, -3, 3, 3) for seed in range(SUITE_SIZE)]
    return SUITE


def test_criterion_1_t_structure_axioms():
    t0 = time.time()
    comps = suite()
    above = []
    below = []
    for X in comps:
        T, incl = truncate_above(X, 0)
        # axiom: the truncation lands in the connective part
        for i in range(-4, 0):
            assert homology(T, i).is_trivial
        # the truncation triangle has an exact homology LES
        assert cone_les_exact(incl)
        above.append(T)
        C, _ = truncate_below_free(X, -1)
        below.append(C)
    # hom vanishing across the suite: pair each connective truncation with
    # a coconnective one drawn deterministically from the suite
    for s in range(SUITE_SIZE):
        X = above[s]
        Y = below[(31 * s + 7) % SUITE_SIZE]
        assert derived_hom(X, Y, 0).is_trivial, s
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 1 busted its budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 (t-structure axioms, n={SUITE_SIZE}): PASS "
          f"[{elapsed:.1f}s]")


def test_criterion_2_layer_triangles():
    t0 = time.time()
    for X in suite():
        for n in range(-4, 5):
            assert layer_triangle_check(X, n)
    print(f"ACCEPTANCE 2 (layer triangles, n={SUITE_SIZE}): PASS "
          f"[{time.time() - t0:.1f}s]")


def test_criterion_3_classification_calculus():
    t0 = time.time()
    rng = random.Random(2024)
    for trial in range(500):
        f, g = random_composable_pair(rng)
        gf = g.compose(f)
        cf, cg, cgf = classify_map(f), classify_map(g), classify_map(gf)
        for n in range(-3, 4):
            # monotonicity
            if is_n_equivalence(f, n):
                assert is_n_equivalence(f, n - 1)
            if is_co_n_equivalence(f, n):
                assert is_co_n_equivalence(f, n + 1)
            # six two-out-of-three implications
            if is_n_equivalence(f, n) and is_n_equivalence(g, n):
                assert is_n_equivalence(gf, n), trial
            if is_co_n_equivalence(f, n) and is_co_n_equivalence(g, n):
                assert is_co_n_equivalence(gf, n), trial
            if is_n_equivalence(f, n - 1) and is_n_equivalence(gf, n):
                assert is_n_equivalence(g, n), trial
            if is_co_n_equivalence(f, n - 1) and is_co_n_equivalence(gf, n):
                assert is_co_n_equivalence(g, n), trial
            if is_n_equivalence(g, n + 1) and is_n_equivalence(gf, n):
                assert is_n_equivalence(f, n), trial
            if is_co_n_equivalence(g, n + 1) and is_co_n_equivalence(gf, n):
                assert is_co_n_equivalence(f, n), trial
    print(f"ACCEPTANCE 3 (classification calculus, 500 pairs): PASS "
          f"[{time.time() - t0:.1f}s]")


def test_criterion_4_factor_and_lift():
    t0 = time.time()
    rng = random.Random(4096)
    factored = []
    for trial in range(200):
        f, _ = random_composable_pair(rng, lo=-1, hi=1)
        n = rng.randint(-2, 2)
        i, p = factor_n(f, n)
        assert p.compose(i).equal(f), trial
        assert is_n_cofibration(i, n), trial
        assert is_co_n_fibration(p, n), trial
        factored.append((f, n, i, p))
    lifted = 0
    idx = 0
    while lifted < 100:
        f, n, i, p = factored[idx % len(factored)]
        idx += 1
        if lifted % 2 == 0:
            # the factorization square itself
            h = find_lift(i, p, i, p, n)
            assert h is not None
            assert h.compose(i).equal(i) and p.compose(h).equal(p)
        else:
            # nested square through a refactorization of p
            i2, p2 = factor_n(p, n)
            h = find_lift(i, p2, i2.compose(i), p, n)
            assert h is not None
            assert h.compose(i).equal(i2.compose(i))
            assert p2.compose(h).equal(p)
        lifted += 1
    print(f"ACCEPTANCE 4 (factor 200 / lift 100): PASS "
          f"[{time.time() - t0:.1f}s]")


def test_criterion_5_oracle_values():
    # engine values
    assert derived_hom(M2, M2, 0).invariant_factors == (2,)
    assert derived_hom(M2, M2, -1).invariant_factors == (2,)
    # independent hand computation of the three-term hom complex:
    # degree 1 block Hom(X_0,Y_1)=Z, degree 0 blocks Hom(X_0,Y_0)+Hom(X_1,Y_1),
    # degree -1 block Hom(X_1,Y_0)=Z, with D(f) = d f - (-1)^n f d
    D1 = IntMatrix.from_rows([[2], [2]])     # s -> (2s, 2s)
    D0 = IntMatrix.from_rows([[-2, 2]])      # (a,b) -> 2b - 2a
    assert (D0 @ D1).is_zero
    K0 = kernel_basis(D0)
    rel0 = solve(K0, D1)
    h0 = group_from_presentation(rel0)
    assert h0.invariant_factors == (2,)      # matches Hom(Z/2, Z/2)
    # degree -1: everything is a cycle; boundaries are the image of D0
    hm1 = group_from_presentation(D0.transpose())
    assert hm1.invariant_factors == (2,)     # matches Ext^1(Z/2, Z/2)
    print("ACCEPTANCE 5 (derived-hom oracle vs hand SNF): PASS")


def test_criterion_6_collapse_for_represented_functor():
    t0 = time.time()
    for seed in range(20):
        Y = random_complex(seed + 3000, ZZ, -2, 2, 2)
        pages, _ = run_to_stable(Z0, Y)
        for page in pages:
            for (p, q), g in page.groups.items():
                if p != 0:
                    assert g.is_trivial, (seed, page.r, p, q)
                else:
                    assert g.isomorphic(homology(Y, q)), (seed, page.r, q)
        for n in range(-3, 4):
            assert derived_hom(Z0, Y, n).isomorphic(homology(Y, n))
    print(f"ACCEPTANCE 6 (represented-functor collapse, 20 Y): PASS "
          f"[{time.time() - t0:.1f}s]")


def test_criterion_7_convergence():
    t0 = time.time()
    for seed in range(100):
        X = random_complex(2 * seed + 10001, ZZ, -2, 2, 2)
        Y = random_complex(2 * seed + 10002, ZZ, -2, 2, 2)
        rep = convergence_check(X, Y)
        assert rep.lim_ok and rep.lim1_ok and rep.colim_ok, seed
        assert all(rep.graded_comparison.values()), seed
    F2 = GF(2)
    for seed in range(50):
        X = random_complex(2 * seed + 20001, F2, -2, 2, 2)
        Y = random_complex(2 * seed + 20002, F2, -2, 2, 2)
        rep = convergence_check(X, Y)
        assert rep.all_iso, seed
    elapsed = time.time() - t0
    assert elapsed < 600, f"criterion 7 busted its budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE 7 (convergence, 100 Z + 50 F2 pairs): PASS "
          f"[{elapsed:.1f}s]")


def test_criterion_8_pro_whitehead():
    t0 = time.time()
    rng = random.Random(888)
    for trial in range(50):
        if trial % 2 == 0:
            T = constant_tower(random_complex(trial + 4000, ZZ, -2, 2, 2))
        else:
            T = random_chain_tower(rng)
        _, canon = postnikov_replacement(T)
        v = is_hstar_weak_equivalence(canon)
        assert v.verdict == "weak_equivalence", trial
    # constant Z[0] -> 0 is rejected with an H_0 certificate
    f = level_map(constant_tower(Z0), constant_tower(zero_complex()),
                  (zero_map(Z0, zero_complex()),))
    v = is_hstar_weak_equivalence(f)
    assert v.verdict == "not" and v.failed_degree == 0
    print(f"ACCEPTANCE 8 (pro-Whitehead, 50 towers): PASS "
          f"[{time.time() - t0:.1f}s]")


def test_criterion_9_lim_lim1_dichotomy():
    Z = free_group(1)
    r = lim_lim1(repeat_tower(multiplication_hom(Z, 2)))
    assert r.lim.is_trivial and r.lim1 == Lim1Verdict.NONZERO_UNCOUNTABLE
    r = lim_lim1(constant_tower(Z))
    assert r.lim.isomorphic(Z) and r.lim1 == Lim1Verdict.ZERO
    r = lim_lim1(constant_tower(trivial_group()))
    assert r.lim1 == Lim1Verdict.ZERO
    z4 = group_from_presentation(IntMatrix.from_rows([[4]]))
    r = lim_lim1(repeat_tower(multiplication_hom(z4, 2)))
    assert r.mittag_leffler and r.lim.is_trivial and r.lim1 == Lim1Verdict.ZERO
    print("ACCEPTANCE 9 (lim/lim1 dichotomy): PASS")


def test_criterion_10_pro_ahss():
    t0 = time.time()
    # x2 tower of Z[0] against the free resolution of Z/2
    t2 = repeat_tower(multiplication_map(Z0, 2))
    rep = pro_ahss(t2, M2)
    assert rep.e2[(0, 0)].is_trivial
    assert rep.abutment[0].is_trivial
    assert rep.levelwise_all_iso and rep.comparison_holds
    # 20 ConstantFrom cases over F2 with all-iso comparison
    rng = random.Random(246)
    F2 = GF(2)
    for trial in range(20):
        T = random_chain_tower(rng, F2, -1, 1, 2)
        Y = random_complex(trial + 5000, F2, -1, 1, 2)
        rep = pro_ahss(T, Y)
        assert rep.levelwise_all_iso, trial
        assert rep.comparison_holds, (trial, rep.slot_comparison,
                                      rep.total_comparison)
    print(f"ACCEPTANCE 10 (pro-AHSS, x2 tower + 20 F2 towers): PASS "
          f"[{time.time() - t0:.1f}s]")
