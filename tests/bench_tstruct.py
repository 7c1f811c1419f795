"""Micro-benchmarks of the t-structure layer, from cold caches.

Cohomology with coefficients: [X, K(A)]_{-p} through the minimal model of X
against the unreduced Hom(X, K(A)), on two spaces of the benchmark's
`cells` workload in its changed basis over Z: the torus grid k = 4 (96
cells) and the boundary of the 6-simplex (126 cells).

Classification: `classify_map` and the `is_n_equivalence` and
`is_co_n_equivalence` sweep over n = -3, ..., 3, as the `classify` items of
the benchmark's `maps` workload run them, on their 64 triples at seed 5.

Lifting: `find_lift` in the factorization squares (i, p, i, p) of the 30
`factor_lift` items of the `maps` workload at seed 5; the factorizations
are built once, outside the timing.

    PYTHONPATH=src python -m pytest tests/bench_tstruct.py --benchmark-only

It needs pytest-benchmark.  Its name does not match `test_*.py`, so the
default test run does not collect it.
"""

import pytest

import prochain
from conftest import cells_spaces, maps_classify_maps, maps_factor_squares
from prochain.chain import derived_hom
from prochain.exactalg.groups import group_from_orders
from prochain.tstruct import (classify_map, classify_map_by_homology,
                              coefficient_complex, cohomology_with_coefficients,
                              factor_n, find_lift, is_co_n_equivalence,
                              is_n_equivalence)

pytest.importorskip("pytest_benchmark")

SPACES = ["torus4-changed", "sphere6-changed"]
COEFFICIENTS = [group_from_orders([2]), group_from_orders([3])]


def unreduced(X, A, p):
    return derived_hom(X, coefficient_complex(A), -p)


def cohomology_of(cohomology, X):
    return [cohomology(X, A, p) for A in COEFFICIENTS for p in X.degrees]


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("cohomology", [cohomology_with_coefficients, unreduced],
                         ids=["model", "unreduced"])
def test_cohomology(benchmark, cohomology, space):
    X = dict(cells_spaces(0))[space]
    groups = benchmark.pedantic(cohomology_of, args=(cohomology, X),
                                setup=prochain.cache_clear, rounds=10)
    want = cohomology_of(unreduced, X)
    assert [g.orders for g in groups] == [g.orders for g in want]


N_RANGE = range(-3, 4)


def classify_all(triples):
    out = []
    for maps in triples:
        for f in maps:
            c = classify_map(f)
            out.append((c, [is_n_equivalence(f, n) for n in N_RANGE],
                        [is_co_n_equivalence(f, n) for n in N_RANGE]))
    return out


def test_classify(benchmark):
    triples = maps_classify_maps(5)
    assert len(triples) == 64
    out = benchmark.pedantic(classify_all, args=(triples,),
                             setup=prochain.cache_clear, rounds=10)
    assert [c for c, _, _ in out] == [classify_map_by_homology(f)
                                      for maps in triples for f in maps]


def lift_all(squares):
    return [find_lift(i, p, i, p, n) for i, p, n in squares]


def test_lift(benchmark):
    squares = [(*factor_n(f, n), n) for f, n in maps_factor_squares(5)]
    assert len(squares) == 30
    lifts = benchmark.pedantic(lift_all, args=(squares,),
                               setup=prochain.cache_clear, rounds=10)
    for (i, p, _), h in zip(squares, lifts):
        assert h.compose(i).equal(i) and p.compose(h).equal(p)
