"""Micro-benchmarks of the value classes the inner loops build, compare and
hash: construction, `==` and `hash`, each timed over LOOP calls.

    PYTHONPATH=src python -m pytest tests/bench_values.py --benchmark-only

The two operands of `==` are distinct instances over the same field
objects, so a row times the class's own comparison and not that of its
fields.  `ChainComplex` and `ChainMap` keep their hash once computed, so
their `hash` rows time the cached path.  It needs pytest-benchmark.  Its
name does not match `test_*.py`, so the default test run does not collect
it.
"""

import operator

import pytest

from prochain.chain import ChainComplex, ChainMap
from prochain.exactalg.groups import FgAbGroup, GroupHom, SubquotientData
from prochain.exactalg.matrices import IntMatrix, Lattice
from prochain.exactalg.ring import ZZ, RingTag

pytest.importorskip("pytest_benchmark")

LOOP = 1000

ONE = IntMatrix(1, 1, (1,), ZZ)
ID2 = IntMatrix(2, 2, (1, 0, 0, 1), ZZ)
COMPLEX = (ZZ, 0, 1, (1, 1), (IntMatrix(1, 1, (2,), ZZ),))
M2 = ChainComplex(*COMPLEX)
GROUP = (ZZ, (2, 0), ID2, ID2)
Z2_Z = FgAbGroup(*GROUP)
LATTICE = (ID2, ID2, (1, 1))

# class -> the fields of one instance, in constructor order
FIELDS = {
    RingTag: (3,),
    IntMatrix: (3, 3, tuple(range(-4, 5)), ZZ),
    ChainComplex: COMPLEX,
    ChainMap: (M2, M2, (ONE, ONE)),
    FgAbGroup: GROUP,
    GroupHom: (Z2_Z, Z2_Z, ID2),
    Lattice: LATTICE,
    SubquotientData: (Z2_Z, Z2_Z, Lattice(*LATTICE)),
}
CLASSES = list(FIELDS)
IDS = [cls.__name__ for cls in CLASSES]


def build(cls, fields):
    for _ in range(LOOP):
        cls(*fields)


def compare(a, b):
    eq = operator.eq
    for _ in range(LOOP):
        eq(a, b)


def hash_loop(a):
    for _ in range(LOOP):
        hash(a)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_construct(benchmark, cls):
    benchmark(build, cls, FIELDS[cls])


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equal(benchmark, cls):
    a, b = cls(*FIELDS[cls]), cls(*FIELDS[cls])
    assert a is not b and a == b
    benchmark(compare, a, b)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_hash(benchmark, cls):
    a = cls(*FIELDS[cls])
    assert hash(a) == hash(cls(*FIELDS[cls]))
    benchmark(hash_loop, a)
