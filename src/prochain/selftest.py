"""Built-in invariant suites run by the CLI selftest command.  Each suite
returns True on success; the sample counts are sized for interactive use."""

from __future__ import annotations

import random

from .chain import (derived_hom, homology, moore_complex, multiplication_map,
                    random_complex, random_null_homotopic)
from .exactalg.matrices import IntMatrix, snf
from .exactalg.ring import GF, ZZ
from .pro import (Lim1Verdict, constant_tower, is_pro_isomorphism, level_map,
                  lim_lim1, repeat_tower)
from .exactalg.groups import free_group, multiplication_hom, zero_hom, trivial_group
from .tstruct import (classify_map, classify_map_by_homology, factor_n,
                      find_lift, is_co_n_fibration, is_n_cofibration,
                      layer_triangle_check, truncate_above)
from .ahss import convergence_check


def suite_snf(seed: int, count: int) -> bool:
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        ring = ZZ if rng.random() < 0.7 else GF(rng.choice([2, 3, 5]))
        M = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)]
                                 for _ in range(m)], ring, cols=n)
        s = snf(M)
        if (s.U @ M @ s.V).entries != s.S.entries:
            return False
        d = s.diag
        for a, b in zip(d, d[1:]):
            if a != 0 and b != 0 and b % a != 0:
                return False
            if a == 0 and b != 0:
                return False
    return True


def suite_truncation(seed: int, count: int) -> bool:
    for k in range(count):
        X = random_complex(seed + k, ZZ, -2, 2, 2)
        for n in range(-3, 4):
            T, _ = truncate_above(X, n)
            for m in range(-4, 5):
                h = homology(T, m)
                if m < n and not h.is_trivial:
                    return False
                if m >= n and not h.isomorphic(homology(X, m)):
                    return False
            if not layer_triangle_check(X, n):
                return False
    return True


def suite_classify(seed: int, count: int) -> bool:
    rng = random.Random(seed)
    for k in range(count):
        X = random_complex(seed + k, ZZ, -2, 2, 2)
        f = multiplication_map(X, rng.choice([0, 1, 2, 3]))
        if classify_map(f) != classify_map_by_homology(f):
            return False
    return True


def suite_factor_lift(seed: int, count: int) -> bool:
    rng = random.Random(seed)
    for k in range(count):
        X = random_complex(seed + 2 * k, ZZ, -1, 1, 2)
        Y = random_complex(seed + 2 * k + 1, ZZ, -1, 1, 2)
        n = rng.randint(-1, 2)
        f = random_null_homotopic(rng, X, Y)
        i, p = factor_n(f, n)
        if not (p.compose(i).equal(f) and is_n_cofibration(i, n)
                and is_co_n_fibration(p, n)):
            return False
        h = find_lift(i, p, i, p, n)
        if h is None:
            return False
    return True


def suite_oracle() -> bool:
    M2 = moore_complex(2)
    a = derived_hom(M2, M2, 0)
    b = derived_hom(M2, M2, -1)
    return a.invariant_factors == (2,) and b.invariant_factors == (2,)


def suite_pro() -> bool:
    Z = free_group(1)
    t2 = repeat_tower(multiplication_hom(Z, 2))
    r = lim_lim1(t2)
    if not (r.lim1 == Lim1Verdict.NONZERO_UNCOUNTABLE and r.lim.is_trivial):
        return False
    f = level_map(t2, constant_tower(trivial_group()),
                  (zero_hom(Z, trivial_group()),))
    return is_pro_isomorphism(f).kind == "false"


def suite_ahss(seed: int, count: int) -> bool:
    for k in range(count):
        X = random_complex(seed + 31 * k, ZZ, -1, 1, 2)
        Y = random_complex(seed + 31 * k + 7, ZZ, -1, 1, 2)
        if not convergence_check(X, Y).all_iso:
            return False
    return True


def run(seed: int = 0):
    return [
        ("snf", suite_snf(seed, 50)),
        ("truncation_layers", suite_truncation(seed, 3)),
        ("classification", suite_classify(seed, 10)),
        ("factor_lift", suite_factor_lift(seed, 3)),
        ("derived_hom_oracle", suite_oracle()),
        ("pro_limits", suite_pro()),
        ("ahss_convergence", suite_ahss(seed, 2)),
    ]
