"""Micro-benchmarks of the chain layer, from cold caches.

Homology in every degree, read two ways: `homology`, off the Smith
diagonals of d_n and d_{n+1} with no transform replayed, against the group
of `homology_data`, which builds the cycle lattice and a presentation on
it.  On two spaces of the benchmark's `cells` workload in its changed
basis, over Z and F_2: the torus grid k = 4 (96 cells) and the boundary of
the 6-simplex (126 cells).

The diagonals themselves, read two ways: `smith_diagonal`, which logs no
operation, against `snf(M).diag`, the logged elimination, on every
differential of every complex of the `cells` workload (both bases).

    PYTHONPATH=src python -m pytest tests/bench_chain.py --benchmark-only

It needs pytest-benchmark.  Its name does not match `test_*.py`, so the
default test run does not collect it.
"""

import pytest

import prochain
from conftest import cells_spaces
from prochain.chain import homology, homology_data
from prochain.exactalg.matrices import smith_diagonal, snf

pytest.importorskip("pytest_benchmark")

SPACES = ["torus4-changed", "sphere6-changed"]


def from_the_subquotient(X, n):
    return homology_data(X, n).group


def homology_of(read, X):
    return [read(X, n) for n in X.degrees]


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("p", [0, 2], ids=["Z", "F2"])
@pytest.mark.parametrize("read", [homology, from_the_subquotient],
                         ids=["diagonals", "subquotient"])
def test_homology(benchmark, read, p, space):
    X = dict(cells_spaces(p))[space]
    groups = benchmark.pedantic(homology_of, args=(read, X),
                                setup=prochain.cache_clear, rounds=20)
    want = homology_of(from_the_subquotient, X)
    assert [g.orders for g in groups] == [g.orders for g in want]


def logged_diagonal(M):
    return snf(M).diag


def diagonals_of(read, matrices):
    return [read(M) for M in matrices]


@pytest.mark.parametrize("p", [0, 2], ids=["Z", "F2"])
@pytest.mark.parametrize("read", [smith_diagonal, logged_diagonal],
                         ids=["smith_diagonal", "snf"])
def test_smith_diagonal(benchmark, read, p):
    matrices = [X.diff(n) for _, X in cells_spaces(p) for n in range(X.lo + 1, X.hi + 1)]
    got = benchmark.pedantic(diagonals_of, args=(read, matrices),
                             setup=prochain.cache_clear, rounds=20)
    assert got == diagonals_of(logged_diagonal, matrices)
