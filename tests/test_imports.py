"""Source hygiene: every import in the package is read, no
`assert` statement comes back into a module that is free of them, no module
but `exactalg.matrices` and the self-test reads a Smith transform, every
cache is bounded and emptied by `prochain.cache_clear()`, and the names the
benchmark (`bench/`) reads from the package still resolve.

The package re-exports names from its `__init__.py` files, so those are
exempt from the import check.  A name imported at module level counts as
read when it appears as a name anywhere in the module, quoted annotations
included; a name a function imports, when that function reads it.
Invariants are
enforced by typed errors, which `python -O` keeps; the assert-free list
only grows.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

import pytest

from conftest import loaded_modules
import prochain
from prochain.exactalg.groups import free_group, group_from_orders, hom_group

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prochain"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_checker_finds_an_unused_import():
    source = "import os\nfrom typing import List, Optional\n\nx: 'Optional[int]' = None\n"
    assert unused_imports(source) == [(1, "os"), (2, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def unused_local_imports(source: str) -> list:
    """(line, name) of each name a function imports and never reads."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(func) if isinstance(n, ast.Name)}
        out += [(node.lineno, name) for node in ast.walk(func)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                if name not in read]
    return sorted(out)


def test_checker_finds_an_unused_local_import():
    source = "def f():\n    import os, sys\n    return sys.argv\n"
    assert unused_local_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_function_level_import(path):
    assert unused_local_imports(path.read_text()) == []


# modules whose checks all raise typed errors; add a module once its last
# assert is gone
ASSERT_FREE = ("__init__.py", "ahss.py", "chain.py", "cli.py", "errors.py",
               "exactalg/__init__.py", "exactalg/groups.py", "exactalg/matrices.py",
               "exactalg/poly.py", "exactalg/ring.py", "pro.py", "prohomotopy.py",
               "selftest.py", "tstruct.py", "value.py", "workspace.py")


def assert_lines(source: str) -> list:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_checker_finds_an_assert():
    assert assert_lines("x = 1\nif x:\n    assert x, 'x'\n") == [3]


@pytest.mark.parametrize("name", ASSERT_FREE)
def test_no_assert_in_assert_free_module(name):
    assert assert_lines((PACKAGE / name).read_text()) == []


def test_assert_free_list_is_complete():
    free = {str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py")
            if not assert_lines(p.read_text())}
    assert free == set(ASSERT_FREE)


# the modules that read the Smith transforms U, V, U^-1 and V^-1 themselves;
# every other module reads the named blocks of `SnfResult`
TRANSFORM_READERS = {
    "exactalg/matrices.py": "the blocks are read off the transforms here",
    "selftest.py": "it checks U M V = S, the contract of `snf` itself",
}


def transform_reads(source: str) -> list:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in ("U", "V", "Uinv", "Vinv")]


def test_checker_finds_a_transform_read():
    source = "s = snf(M)\nk = s.V.take_columns(range(s.rank))\ns.kernel\n"
    assert transform_reads(source) == [2]


def test_no_transform_read_outside_matrices():
    reads = {name: transform_reads(p.read_text()) for p in PACKAGE.rglob("*.py")
             if (name := str(p.relative_to(PACKAGE))) not in TRANSFORM_READERS}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def package_caches() -> dict:
    """Every lru_cache table of the loaded package, once each, by the
    qualified name of the function it caches."""
    return {f"{val.__module__}.{val.__qualname__}": val
            for name, mod in sorted(sys.modules.items())
            if name.startswith("prochain") and mod is not None
            for val in vars(mod).values()
            if hasattr(val, "cache_info") and hasattr(val, "cache_clear")}


def test_every_cache_is_bounded_and_cleared():
    # the package loads its modules on first use: load all of them first
    for path in MODULES:
        importlib.import_module(".".join(("prochain",) + path.relative_to(PACKAGE)
                                         .with_suffix("").parts))
    caches = package_caches()
    assert caches
    unbounded = [k for k, c in caches.items() if c.cache_parameters()["maxsize"] is None]
    assert unbounded == []
    # from empty tables, so that the calls below must reach every one
    prochain.cache_clear()
    Y = prochain.moore_complex(2)
    prochain.convergence_check(Y, Y)
    prochain.cohomology_with_coefficients(Y, group_from_orders([2]), 0)
    prochain.classify_map(prochain.chain.multiplication_map(Y, 2))
    prochain.induced_homology_map(prochain.chain.multiplication_map(Y, 2), 0)
    hom_group(free_group(1), group_from_orders([4]))
    assert [k for k, c in caches.items() if not c.cache_info().currsize] == []
    prochain.cache_clear()
    assert {k: c.cache_info().currsize for k, c in caches.items()
            if c.cache_info().currsize} == {}


def test_cache_clear_loads_nothing():
    # only loaded modules hold cache entries; clearing loads none
    loaded = loaded_modules("import prochain\nprochain.cache_clear()")
    assert {m for m in loaded if m.startswith("prochain.")} == set()


def test_benchmark_hooks_resolve():
    # bench/spans.py wraps these methods by name, and the convergence check
    # of bench/workloads.py reads the window through states[0].couple
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, cls, method in spans.METHODS.values():
        assert callable(getattr(getattr(importlib.import_module(module), cls), method))
    from prochain.ahss import SpectralSequence
    Y = prochain.moore_complex(2)
    couple = SpectralSequence(Y, Y).states[0].couple
    assert list(couple.slots())
    assert all(isinstance(getattr(couple, k), int) for k in ("q_lo", "q_hi", "n_lo", "n_hi"))
