"""Micro-benchmarks of the pro layer, from cold caches.

The pro-isomorphism decision: the nilpotency of the tail maps on the kernel
and the cokernel (`is_pro_isomorphism`) against one filler solve per level
(`oracles.pro_iso_by_fillers`), on the homology pro-maps of the towers of
the benchmark's `maps` workload at seed 5.  The true cases are the homology
maps of the canonical maps into the Postnikov replacements; the false ones
are those of levelwise multiplication by 2 that are not pro-isomorphisms.

`lim_lim1` and `colim` on the tails of the first 100 block towers of
`oracles.block_tower`, Mittag-Leffler or not, with finitely generated
colimits or not.

The `postnikov` items of the benchmark's `maps` workload at seed 5:
`postnikov_replacement` of each of their towers, then
`is_hstar_weak_equivalence` of its canonical map, which is a weak
equivalence every time.

    PYTHONPATH=src python -m pytest tests/bench_pro.py --benchmark-only

It needs pytest-benchmark.  Its name does not match `test_*.py`, so the
default test run does not collect it.
"""

from functools import lru_cache

import pytest

import prochain
from conftest import maps_postnikov_towers
from oracles import block_tower, pro_iso_by_fillers
from prochain.chain import multiplication_map
from prochain.pro import (DirectSystem, TailPolicy, colim, is_pro_isomorphism,
                          level_map, lim_lim1, repeat_tower)
from prochain.prohomotopy import (induced_homology_pro_map,
                                  is_hstar_weak_equivalence,
                                  postnikov_replacement, tower_homology_support)

pytest.importorskip("pytest_benchmark")


@lru_cache(maxsize=1)
def homology_pro_maps():
    """{verdict: the homology pro-maps with that verdict}."""
    out = {"true": [], "false": []}
    for Y in maps_postnikov_towers():
        _, canon = postnikov_replacement(Y)
        double = level_map(Y, Y, tuple(multiplication_map(Y.entry(s), 2)
                                       for s in range(Y.tail.start + 1)))
        lo, hi = tower_homology_support(Y)
        for n in range(lo, hi + 1):
            for f in (induced_homology_pro_map(canon, n),
                      induced_homology_pro_map(double, n)):
                out[pro_iso_by_fillers(f).kind].append(f)
    return out


def kinds(decide, maps):
    return [decide(f).kind for f in maps]


@pytest.mark.parametrize("verdict", ["true", "false"])
@pytest.mark.parametrize("decide", [is_pro_isomorphism, pro_iso_by_fillers],
                         ids=["nilpotency", "fillers"])
def test_pro_isomorphism(benchmark, decide, verdict):
    maps = homology_pro_maps()[verdict]
    got = benchmark.pedantic(kinds, args=(decide, maps),
                             setup=prochain.cache_clear, rounds=10)
    assert maps and got == [verdict] * len(maps)


@lru_cache(maxsize=1)
def block_endos():
    return [block_tower(seed)[0] for seed in range(100)]


def lims(endos):
    return [lim_lim1(repeat_tower(e)) for e in endos]


def colims(endos):
    return [colim(DirectSystem((e.source,), (), TailPolicy.repeat_from(0, e)))
            for e in endos]


@pytest.mark.parametrize("compute", [lims, colims], ids=["lim_lim1", "colim"])
def test_block_towers(benchmark, compute):
    endos = block_endos()
    got = benchmark.pedantic(compute, args=(endos,), setup=prochain.cache_clear,
                             rounds=10)
    assert len(got) == len(endos)


def postnikov_verdicts(towers):
    return [is_hstar_weak_equivalence(postnikov_replacement(Y)[1]).verdict
            for Y in towers]


def test_postnikov(benchmark):
    towers = maps_postnikov_towers(5)
    got = benchmark.pedantic(postnikov_verdicts, args=(towers,),
                             setup=prochain.cache_clear, rounds=10)
    assert towers and got == ["weak_equivalence"] * len(towers)
