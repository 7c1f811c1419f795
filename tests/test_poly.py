"""exactalg.poly against sympy as an independent oracle: factorization of
seeded products and of fixed hard cases, the characteristic polynomial,
and the rank of the limit of a tower that is not Mittag-Leffler."""

import random

import pytest

from prochain.exactalg.groups import free_group, hom
from prochain.exactalg.matrices import IntMatrix
from prochain.exactalg.poly import charpoly, factor
from prochain.pro import _non_ml_lim

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def to_sympy(f):
    return sympy.Poly(list(reversed(f)) or [0], X)


def from_sympy(p):
    return [int(c) for c in reversed(sympy.Poly(p, X).all_coeffs())]


def sympy_factor(f):
    return sorted((from_sympy(q), m) for q, m in sympy.factor_list(to_sympy(f))[1])


def product(powers):
    f = to_sympy([1])
    for q, m in powers:
        f *= to_sympy(q) ** m
    return from_sympy(f)


def random_product(rng, max_degree=12):
    """prod q_i^m_i over random monic q_i; factors may repeat or split."""
    powers, degree = [], 0
    for _ in range(rng.randint(1, 4)):
        d, m = rng.randint(1, 4), rng.randint(1, 3)
        if degree + d * m <= max_degree:
            powers.append(([rng.randint(-6, 6) for _ in range(d)] + [1], m))
            degree += d * m
    return product(powers)


@pytest.mark.parametrize("seed", range(4))
def test_factor_of_seeded_products(seed):
    rng = random.Random(seed)
    for _ in range(60):
        f = random_product(rng)
        assert sorted(factor(f)) == sympy_factor(f), f


SD2 = [1, 0, -10, 0, 1]                        # minimal polynomial of sqrt2 + sqrt3
SD3 = [576, 0, -960, 0, 352, 0, -40, 0, 1]     # ... of sqrt2 + sqrt3 + sqrt5
PHI12 = [1, 0, -1, 0, 1]
PHI15 = [1, -1, 0, 1, -1, 1, 0, -1, 1]
CUBE_ROOT_2 = [-2, 0, 0, 1]
GOLDEN = [-1, -1, 1]


@pytest.mark.parametrize("powers", [
    [],
    [([0, 1], 1)],
    [([0, 1], 3)],
    [(SD2, 1)],
    [(SD3, 1)],
    [(PHI12, 1), (PHI15, 1), (CUBE_ROOT_2, 1)],
    [(GOLDEN, 3), ([-2, 1], 2)],
], ids=["one", "x", "x^3", "sd2", "sd3", "phi12_phi15_cbrt2", "golden^3_(x-2)^2"])
def test_factor_of_hard_cases(powers):
    # the Swinnerton-Dyer polynomials split into factors of degree <= 2
    # modulo every prime, so recombination must try sets of them
    f = product(powers)
    expected = sorted(powers, key=lambda qm: (len(qm[0]), qm[0]))
    assert factor(f) == expected
    assert sorted(factor(f)) == sympy_factor(f)


@pytest.mark.parametrize("n", range(9))
def test_charpoly(n):
    rng = random.Random(n)
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        expected = from_sympy(sympy.Matrix(n, n, sum(rows, [])).charpoly(X))
        assert charpoly(IntMatrix.from_rows(rows, cols=n)) == expected


def sympy_lim_rank(rows):
    """The rank of the kernel of the unit part of the characteristic
    polynomial evaluated at the matrix, all in sympy."""
    n = len(rows)
    M = sympy.Matrix(rows)
    unit = sympy.Integer(1)
    for q, m in sympy.factor_list(M.charpoly(X).as_expr())[1]:
        if abs(sympy.Poly(q, X).all_coeffs()[-1]) == 1:
            unit *= q ** m
    U = sympy.zeros(n, n)
    for c in sympy.Poly(unit, X).all_coeffs():  # Horner
        U = U * M + c * sympy.eye(n)
    return n - U.rank()


def test_lim_rank_against_sympy():
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        A = free_group(n)
        lim = _non_ml_lim(hom(A, A, IntMatrix.from_rows(rows)))
        assert lim == free_group(sympy_lim_rank(rows)), rows
