"""Shared generators for the test suite: a zoo of chain maps with varied
classification behavior, composable pairs, and towers with tail policies."""

import importlib
import json
import os
import random
import subprocess
import sys

import pytest

from prochain.chain import (ChainComplex, ChainMap, chain_map, direct_sum_complex,
                            identity_map, multiplication_map, random_complex,
                            random_null_homotopic, zero_complex, zero_map)
from prochain.exactalg.ring import ZZ, RingTag
from prochain.pro import TailPolicy, Tower, constant_tower, level_map
from prochain.tstruct import truncate_above, truncate_below_free


SRC = os.path.join(os.path.dirname(__file__), "..", "src")
BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")


def cells_spaces(p: int, seed: int = 5, spaces=None):
    """The spaces of the benchmark's `cells` workload over Z (p = 0) or F_p,
    or the (name, size) `spaces` given, built by bench/gen.py in the
    standard basis and in a changed basis drawn as the workload draws it: a
    list of (label, complex).  The bench modules import each other by plain
    name, so bench/ goes on the path."""
    if BENCH not in sys.path:
        sys.path.append(BENCH)
    gen, workloads = importlib.import_module("gen"), importlib.import_module("workloads")
    rng = gen.Draw("cells", seed).values
    out = []
    for name, size in spaces or workloads.SPACES:
        ranks, diffs, _ = gen.space(name, size)
        P = gen.Plain(p, ranks, diffs)
        Q = gen.conjugate(P, gen.basis_change(rng, P, workloads.CHANGED_BASIS_SHEARS))
        out += [(f"{name}{size}", gen.to_complex(P)),
                (f"{name}{size}-changed", gen.to_complex(Q))]
    return out


def _maps_item_arguments(label: str, seed: int):
    """The default arguments of the run of each item with that label in the
    benchmark's `maps` workload, in the order the workload builds them."""
    if BENCH not in sys.path:
        sys.path.append(BENCH)
    workloads = importlib.import_module("workloads")
    return [item.run.__defaults__ for item in workloads.maps_items(seed)
            if item.label == label]


def maps_postnikov_towers(seed: int = 5):
    """The towers of the `postnikov` items of the benchmark's `maps`
    workload (each item's run takes its tower as its default argument)."""
    return [args[0] for args in _maps_item_arguments("postnikov", seed)]


def maps_classify_maps(seed: int = 5):
    """The (f, g, gf) triples of the `classify` items of the benchmark's
    `maps` workload (each item's run takes its triple as its default
    argument)."""
    return [args[0] for args in _maps_item_arguments("classify", seed)]


def maps_factor_squares(seed: int = 5):
    """The (f, n) of the `factor_lift` items of the benchmark's `maps`
    workload, which factor f at n and lift in the factorization square
    (each item's run takes f and n as its default arguments)."""
    return _maps_item_arguments("factor_lift", seed)


def package_module_names() -> list:
    """The dotted names of the package's modules, its __init__ files left out."""
    paths = [os.path.relpath(os.path.join(d, f), SRC)
             for d, _, files in os.walk(os.path.join(SRC, "prochain")) for f in files
             if f.endswith(".py") and f != "__init__.py"]
    return sorted(p[:-3].replace(os.sep, ".") for p in paths)


def run_python(*args, cwd=None):
    """A fresh interpreter with the package on its path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


def loaded_modules(code: str) -> set:
    """The modules a fresh interpreter holds after running code."""
    p = run_python("-c", f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))")
    if p.returncode:
        raise AssertionError(p.stderr)
    return set(json.loads(p.stdout.splitlines()[-1]))


def perturb(rng: random.Random, f: ChainMap) -> ChainMap:
    """Add a null-homotopic map; classification is unchanged but the
    matrices stop being block-shaped."""
    return f + random_null_homotopic(rng, f.source, f.target)


def big_complex(rng: random.Random, ring, lo: int, hi: int, min_rank: int = 12):
    """A random complex of total rank at least min_rank, past the sizes the
    examples check by hand."""
    X = random_complex(rng.randrange(2 ** 30), ring, lo, hi, 4)
    while X.total_rank() < min_rank:
        W = random_complex(rng.randrange(2 ** 30), ring, lo, hi, 4)
        X = direct_sum_complex(X, W)[0]
    return X


def random_map_into(rng: random.Random, B: ChainComplex):
    """A map f: A -> B with varied connectivity."""
    kind = rng.randrange(4)
    if kind == 0:
        f = multiplication_map(B, rng.choice([0, 1, 2, 3, 6]))
    elif kind == 1:
        k = rng.randint(B.lo - 1, B.hi + 1)
        _, f = truncate_above(B, k)
    elif kind == 2:
        W = random_complex(rng.randrange(2 ** 30), B.ring, B.lo, B.hi, 2)
        S, ia, ib, pa, pb = direct_sum_complex(B, W)
        f = pa
    else:
        f = zero_map(random_complex(rng.randrange(2 ** 30), B.ring,
                                    B.lo, B.hi, 1), B)
    if rng.random() < 0.5:
        f = perturb(rng, f)
    return f


def random_map_out(rng: random.Random, B: ChainComplex):
    """A map g: B -> C with varied coconnectivity."""
    kind = rng.randrange(4)
    if kind == 0:
        g = multiplication_map(B, rng.choice([0, 1, 2, 3, 6]))
    elif kind == 1:
        k = rng.randint(B.lo - 1, B.hi + 1)
        _, g = truncate_below_free(B, k)
    elif kind == 2:
        W = random_complex(rng.randrange(2 ** 30), B.ring, B.lo, B.hi, 2)
        S, ia, ib, pa, pb = direct_sum_complex(B, W)
        g = ia
    else:
        g = zero_map(B, random_complex(rng.randrange(2 ** 30), B.ring,
                                       B.lo, B.hi, 1))
    if rng.random() < 0.5:
        g = perturb(rng, g)
    return g


def random_composable_pair(rng: random.Random, ring: RingTag = ZZ,
                           lo: int = -2, hi: int = 2, max_rank: int = 2):
    """(f: A -> B, g: B -> C) through a shared random middle complex."""
    B = random_complex(rng.randrange(2 ** 30), ring, lo, hi, max_rank)
    return random_map_into(rng, B), random_map_out(rng, B)


def random_chain_tower(rng: random.Random, ring: RingTag = ZZ,
                       lo: int = -2, hi: int = 2, max_rank: int = 2) -> Tower:
    """A ConstantFrom tower of complexes with a random head."""
    X = random_complex(rng.randrange(2 ** 30), ring, lo, hi, max_rank)
    depth = rng.randint(0, 2)
    entries = [X]
    structure = []
    for _ in range(depth):
        kind = rng.randrange(3)
        if kind == 0:
            m = multiplication_map(X, rng.choice([0, 1, 2, 3]))
        elif kind == 1:
            m = random_null_homotopic(rng, X, X)
        else:
            m = identity_map(X)
        structure.append(m)
        entries.append(X)
    return Tower(tuple(entries), tuple(structure),
                 TailPolicy.constant_from(depth))
