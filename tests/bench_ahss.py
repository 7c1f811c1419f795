"""Micro-benchmarks of the `ahss` layer: E^2 alone (`SpectralSequence(X, Y)`),
the abutment filtration against its truncation-by-truncation oracle, the
graded abutment (`SpectralSequence.graded`) on a built E^2, the colimit
condition on the quotient model of T_{<= k} Y against the cone
model, and the convergence check as a whole, on the minimal models
(`convergence_check`) against the pair itself, on fixed pairs of total rank
3 to 8 over Z and F_2, from cold caches; and `pro_ahss` on one fixed tower.

    PYTHONPATH=src python -m pytest tests/bench_ahss.py --benchmark-only

It needs pytest-benchmark.  Its name does not match `test_*.py`, so the
default test run does not collect it.
"""

import itertools

import pytest

import prochain
from oracles import abutment_filtration_by_truncations, cone_below
from prochain import ahss
from prochain.ahss import (SpectralSequence, _window, abutment_filtration,
                           convergence_check)
from prochain.chain import multiplication_map, random_complex
from prochain.exactalg.ring import GF, ZZ
from prochain.pro import repeat_tower
from prochain.tstruct import truncate_below

pytest.importorskip("pytest_benchmark")

CASES = [(rank, ring) for ring in (ZZ, GF(2)) for rank in (3, 5, 8)]
IDS = [f"rank{rank}-{ring}" for rank, ring in CASES]


def of_rank(ring, rank, start):
    """The first random_complex in degrees -1..1 from seed `start` on with
    the given total rank."""
    for seed in itertools.count(start):
        X = random_complex(seed, ring, -1, 1, 3)
        if X.total_rank() == rank:
            return X


def pair(rank, ring):
    X = of_rank(ring, rank, 0)
    return X, of_rank(ring, rank, 1000)


def filtration_along_the_window(filtration, X, Y):
    w = _window(X, Y)
    return [filtration(X, Y, n) for n in range(w.n_lo, w.n_hi + 1)]


@pytest.mark.parametrize("rank, ring", CASES, ids=IDS)
def test_e2(benchmark, rank, ring):
    X, Y = pair(rank, ring)
    benchmark.pedantic(SpectralSequence, args=(X, Y), setup=prochain.cache_clear,
                       rounds=20)


def test_pro_ahss(benchmark):
    # X --x2--> X repeated, with X and Y the rank-5 pair over Z
    X, Y = pair(5, ZZ)
    report = benchmark.pedantic(ahss.pro_ahss, args=(repeat_tower(multiplication_map(X, 2)), Y),
                                setup=prochain.cache_clear, rounds=20)
    assert report.levelwise_all_iso


@pytest.mark.parametrize("rank, ring", CASES, ids=IDS)
@pytest.mark.parametrize("filtration", [abutment_filtration,
                                        abutment_filtration_by_truncations],
                         ids=["hom-cycles", "truncations"])
def test_abutment_filtration(benchmark, filtration, rank, ring):
    # abutment_filtration returns lattices, the oracle Subgroups on them
    X, Y = pair(rank, ring)
    got = benchmark.pedantic(filtration_along_the_window, args=(filtration, X, Y),
                             setup=prochain.cache_clear, rounds=20)
    want = filtration_along_the_window(abutment_filtration, X, Y)
    for (_, filt), (_, lattices) in zip(got, want):
        for (_, F), (_, L) in zip(filt, lattices):
            F = getattr(F, "lattice", F)
            assert F.coords(L.basis) is not None and L.coords(F.basis) is not None


def graded_along_the_window(ss):
    w = ss.window
    return [ss.graded(n) for n in range(w.n_lo, w.n_hi + 1)]


@pytest.mark.parametrize("rank, ring", CASES, ids=IDS)
def test_graded(benchmark, rank, ring):
    # E^2 is built in the setup; it reads no hom complex the graded pieces read
    X, Y = pair(rank, ring)

    def cold_sequence():
        prochain.cache_clear()
        return (SpectralSequence(X, Y),), {}

    benchmark.pedantic(graded_along_the_window, setup=cold_sequence, rounds=20)


@pytest.mark.parametrize("rank, ring", CASES, ids=IDS)
@pytest.mark.parametrize("model", [truncate_below, lambda Y, k: cone_below(Y, k)[0]],
                         ids=["quotient", "cone"])
def test_colimit_condition(benchmark, monkeypatch, model, rank, ring):
    X, Y = pair(rank, ring)
    monkeypatch.setattr(ahss, "truncate_below", model)
    ok = benchmark.pedantic(ahss._colimit_condition, args=(X, Y, _window(X, Y)),
                            setup=prochain.cache_clear, rounds=20)
    assert ok


def convergence_on_the_pair(X, Y):
    return SpectralSequence(X, Y).convergence()


@pytest.mark.parametrize("rank, ring", CASES, ids=IDS)
@pytest.mark.parametrize("check", [convergence_check, convergence_on_the_pair],
                         ids=["models", "pair"])
def test_convergence_check(benchmark, check, rank, ring):
    X, Y = pair(rank, ring)
    report = benchmark.pedantic(check, args=(X, Y),
                                setup=prochain.cache_clear, rounds=20)
    assert report.all_iso
