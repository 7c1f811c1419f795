"""Micro-benchmarks of the chain layer, from cold caches.

Homology in every degree, read two ways: `homology`, off the Smith
diagonals of d_n and d_{n+1} with no transform replayed, against the group
of `homology_data`, which builds the cycle lattice and a presentation on
it.  On two spaces of the benchmark's `cells` workload in its changed
basis, over Z and F_2: the torus grid k = 4 (96 cells) and the boundary of
the 6-simplex (126 cells).

    PYTHONPATH=src python -m pytest tests/bench_chain.py --benchmark-only

It needs pytest-benchmark.  Its name does not match `test_*.py`, so the
default test run does not collect it.
"""

import pytest

import prochain
from conftest import cells_spaces
from prochain.chain import homology, homology_data

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
