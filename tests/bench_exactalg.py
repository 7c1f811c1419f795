"""Micro-benchmarks of the `exactalg` layer: matrix products, and Smith forms
with all four transforms replayed, by shape, ring and density.

    PYTHONPATH=src python -m pytest tests/bench_exactalg.py --benchmark-only

It needs pytest-benchmark.  Its name does not match `test_*.py`, so the
default test run does not collect it.
"""

import random

import pytest

from prochain.exactalg.matrices import IntMatrix, _snf_impl
from prochain.exactalg.ring import GF, ZZ

pytest.importorskip("pytest_benchmark")


def matrix(seed, m, n, ring, density, entries=(1, -1, 1, -1, 2, 3)):
    """Each entry nonzero with probability `density`: a residue over F_p,
    over Z drawn from `entries`."""
    rng = random.Random(seed)

    def draw():
        if rng.random() >= density:
            return 0
        return rng.randrange(1, ring.p) if ring.p else rng.choice(entries)
    return IntMatrix(m, n, tuple(draw() for _ in range(m * n)), ring)


def label(shape, ring, density):
    return f"{'x'.join(map(str, shape))}-{ring}-{density}"


# (m, k, n) for an m x k times k x n product
PRODUCTS = [
    ((80, 48, 64), ZZ, 0.3),
    ((80, 48, 64), GF(2), 0.3),
    ((80, 48, 64), ZZ, 1.0),
    ((30, 30, 30), GF(3), 0.05),
    ((1, 1, 1), ZZ, 1.0),
    ((2, 2, 2), ZZ, 1.0),
    ((4, 4, 4), ZZ, 1.0),
    ((4, 4, 4), ZZ, 0.3),
    ((0, 12, 12), ZZ, 1.0),
    ((12, 12, 12), ZZ, 0.0),
]


@pytest.mark.parametrize("shape, ring, density", PRODUCTS,
                         ids=[label(*case) for case in PRODUCTS])
def test_product(benchmark, shape, ring, density):
    m, k, n = shape
    A = matrix(1, m, k, ring, density, range(-9, 10))
    B = matrix(2, k, n, ring, density, range(-9, 10))
    benchmark(A.__matmul__, B)


# (m, n); dense integer inputs stay small, their entries grow fast
SMITH_FORMS = [
    ((8, 8), ZZ, 1.0),
    ((20, 20), ZZ, 0.15),
    ((48, 64), ZZ, 0.05),
    ((30, 30), GF(2), 0.5),
    ((30, 30), GF(3), 0.2),
    # F_2 on packed rows, at the shapes of the `cells` workload's largest
    # differentials (the surfaces' d_2, the spheres' middle one) and sparse
    ((48, 32), GF(2), 0.15),
    ((35, 35), GF(2), 0.15),
    ((200, 200), GF(2), 0.02),
]


def snf_with_replay(M):
    s = _snf_impl(M)
    return s.U, s.Uinv, s.V, s.Vinv


@pytest.mark.parametrize("shape, ring, density", SMITH_FORMS,
                         ids=[label(*case) for case in SMITH_FORMS])
def test_snf_with_replay(benchmark, shape, ring, density):
    m, n = shape
    entries = range(-9, 10) if density == 1.0 else (1, -1, 1, -1, 2, 3)
    benchmark(snf_with_replay, matrix(3, m, n, ring, density, entries))
