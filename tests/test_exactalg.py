"""Exact linear algebra and group arithmetic."""

import functools
import hashlib
import importlib
import pickle
import random
from itertools import accumulate, chain
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from prochain.exactalg.groups import (GroupHom, cokernel,
                                      cokernel_projection, direct_sum,
                                      exact_at, free_group, group_from_orders,
                                      group_from_presentation, hom, hom_functor,
                                      hom_group,
                                      identity_hom, image, is_isomorphism,
                                      kernel, multiplication_hom,
                                      solve_hom_constraints,
                                      subgroup_from_columns, subquotient,
                                      full_subgroup, zero_subgroup)
from prochain.exactalg.matrices import (IntMatrix, block_matrix, hcat,
                                        kernel_basis, kernel_lattice, kron,
                                        smith_diagonal, snf, solve, span_lattice)
from prochain.exactalg import matrices
from prochain.exactalg.ring import GF, RingTag, ZZ
from prochain.value import Value
from prochain.errors import (ContainmentViolation, PreconditionViolated,
                             RingMismatch, SizeBudgetExceeded, ValidationError)

from conftest import package_module_names, run_python
from oracles import pair_order, scalar_matmul

Z = free_group(1)
Z2 = group_from_orders([2])
Z4 = group_from_orders([4])


def random_group(rng, ring):
    orders = [0 if ring.p else rng.choice([0, 2, 3, 4, 6, 8])
              for _ in range(rng.randint(0, 3))]
    return group_from_orders(orders, ring)


def random_hom(rng, A, B):
    """A random homomorphism: each entry is drawn from the values v with
    a v = 0 in Z/b, for a generator of order a going to one of order b."""
    def entry(a, b):
        if A.ring.p or not a:
            return rng.randint(-8, 8)
        return rng.choice([v for v in range(-8, 9) if (b and a * v % b == 0) or v == 0])
    return hom(A, B, IntMatrix.from_rows([[entry(a, b) for a in A.orders]
                                          for b in B.orders], A.ring, cols=A.ngens))


def as_matrix(column, A, B):
    """The B.ngens x A.ngens matrix of a homomorphism written as a column."""
    return IntMatrix(B.ngens, A.ngens, column.entries, A.ring)


def pinned_matrices():
    """300 seeded inputs: dense over Z up to 10 x 10, dense over F_2 and F_3
    up to 30 x 30, and sparse over Z up to 20 x 20 with mostly unit entries."""
    rng = random.Random(20051102)
    out = []
    for _ in range(100):
        m, n = rng.randint(0, 10), rng.randint(0, 10)
        out.append(IntMatrix(m, n, tuple(rng.randint(-9, 9) for _ in range(m * n))))
    for p in (2, 3):
        for _ in range(50):
            m, n = rng.randint(0, 30), rng.randint(0, 30)
            out.append(IntMatrix(m, n, tuple(rng.randrange(p) for _ in range(m * n)),
                                 GF(p)))
    for _ in range(100):
        m, n = rng.randint(1, 20), rng.randint(1, 20)
        out.append(IntMatrix(m, n, tuple(
            rng.choice((1, -1, 1, -1, 2, 3)) if rng.random() < 0.15 else 0
            for _ in range(m * n))))
    return out


SNF_PINNED_DIGEST = "9dc3a658e7dba2a81eb6c4d1839c7a62c69ef71c90cbdc90abcef13799589a7b"


matrix_entries = st.lists(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=4),
    min_size=1, max_size=4).filter(lambda rs: len({len(r) for r in rs}) == 1)


class TestSnf:
    def test_zero_matrix(self):
        s = snf(IntMatrix.from_rows([[0]]))
        assert s.S.entries == (0,)
        assert s.invariant_factors == ()

    def test_example_2x2(self):
        s = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
        # gcd of entries is 2, |det| = 8, so the chain is (2, 4)
        assert s.invariant_factors == (2, 4)

    def test_identity(self):
        assert snf(IntMatrix.identity(3)).invariant_factors == (1, 1, 1)

    @given(matrix_entries)
    @settings(max_examples=60, deadline=None)
    def test_transforms_and_chain(self, rows):
        M = IntMatrix.from_rows(rows)
        s = snf(M)
        assert (s.U @ M @ s.V).entries == s.S.entries
        assert (s.U @ s.Uinv).entries == IntMatrix.identity(M.rows).entries
        assert (s.Vinv @ s.V).entries == IntMatrix.identity(M.cols).entries
        d = s.diag
        # every pivot is normalized to a positive entry over Z, so the
        # factors equal to 1 are those the `cokernel` block drops
        assert all(x >= 0 for x in d)
        for a, b in zip(d, d[1:]):
            if a == 0:
                assert b == 0
            elif b != 0:
                assert b % a == 0

    @given(matrix_entries, st.sampled_from([2, 3, 5]))
    @settings(max_examples=30, deadline=None)
    def test_prime_field(self, rows, p):
        M = IntMatrix.from_rows(rows, GF(p), cols=len(rows[0]))
        s = snf(M)
        assert (s.U @ M @ s.V).entries == s.S.entries
        assert all(d == 1 for d in s.invariant_factors)

    @given(st.integers(min_value=0, max_value=2 ** 30), st.sampled_from([2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_prime_field_up_to_30(self, seed, p):
        rng = random.Random(seed)
        m, n = rng.randint(1, 30), rng.randint(1, 30)
        density = rng.random()
        M = IntMatrix(m, n, tuple(rng.randrange(p) if rng.random() < density else 0
                                  for _ in range(m * n)), GF(p))
        s = snf(M)
        assert (s.U @ M @ s.V).entries == s.S.entries
        assert (s.U @ s.Uinv).entries == IntMatrix.identity(m, GF(p)).entries
        assert (s.Vinv @ s.V).entries == IntMatrix.identity(n, GF(p)).entries
        r = s.rank
        assert s.diag == (1,) * r + (0,) * (min(m, n) - r)

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60),
           st.floats(min_value=0, max_value=1),
           st.sampled_from([(1,), (1, -1, -3, 5, 2, -4)]))
    @settings(max_examples=100, deadline=None)
    def test_packed_f2_path_is_the_list_path(self, seed, m, n, density, values):
        # over F_2 the elimination and the replay run on rows packed into
        # ints; the list path on the same matrix must log the same
        # operations and give the same diagonal and transforms.  The raw
        # constructor leaves entries unreduced, even ones among them, and
        # about one row and one column in four are zero
        rng = random.Random(seed)
        zero_rows = {i for i in range(m) if rng.random() < 0.25}
        zero_cols = {j for j in range(n) if rng.random() < 0.25}
        M = IntMatrix(m, n, tuple(
            rng.choice(values) if i not in zero_rows and j not in zero_cols
            and rng.random() < density else 0
            for i in range(m) for j in range(n)), GF(2))
        diag, row_ops, col_ops = matrices._eliminate(M)
        assert matrices._eliminate_f2(M) == (diag, row_ops, col_ops)

        def replayed(ops, size, inverse, transposed):
            rows = matrices._replay(ops, size, 2, inverse)
            return tuple(chain.from_iterable(zip(*rows) if transposed else rows))
        s = matrices._snf_impl(M)
        assert s.diag == diag
        assert s.U.entries == replayed(row_ops, m, False, False)
        assert s.Uinv.entries == replayed(row_ops, m, True, True)
        assert s.V.entries == replayed(col_ops, n, False, True)
        assert s.Vinv.entries == replayed(col_ops, n, True, False)

    def test_snf_output_pinned(self):
        # every transform and the diagonal, byte for byte, on a fixed list
        # of inputs; a change to the elimination order changes the digest
        h = hashlib.sha256()
        for M in pinned_matrices():
            s = snf(M)
            h.update(repr((s.U.entries, s.Uinv.entries, s.S.entries, s.V.entries,
                           s.Vinv.entries, s.diag)).encode())
        assert h.hexdigest() == SNF_PINNED_DIGEST

    @given(st.integers(min_value=0, max_value=2 ** 30), st.sampled_from([0, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_read_order_does_not_matter(self, seed, p):
        # the transforms are replayed from the elimination's log on first
        # read; two cold computations read in opposite orders must agree
        rng = random.Random(seed)
        top = 30 if p else 12
        m, n = rng.randint(1, top), rng.randint(1, top)
        density = rng.random()
        M = IntMatrix(m, n, tuple((rng.randrange(p) if p else rng.randint(-3, 3))
                                  if rng.random() < density else 0
                                  for _ in range(m * n)), GF(p) if p else ZZ)
        names = ("Vinv", "V", "Uinv", "U")
        reads = []
        for order in (names, names[::-1]):
            snf.cache_clear()
            s = snf(M)
            reads.append({k: getattr(s, k).entries for k in order})
        assert reads[0] == reads[1]
        assert (s.U @ M @ s.V).entries == s.S.entries
        assert (s.U @ s.Uinv).entries == IntMatrix.identity(m, M.ring).entries
        assert (s.Vinv @ s.V).entries == IntMatrix.identity(n, M.ring).entries

    def test_unread_sides_stay_unbuilt(self):
        # a caller that reads one side, or only the diagonal, builds no more
        rng = random.Random(11)
        A = IntMatrix(6, 8, tuple(rng.randint(-4, 4) for _ in range(48)))
        snf.cache_clear()
        assert snf(A).rank == 6
        assert not {"U", "Uinv", "V", "Vinv"} & set(vars(snf(A)))
        kernel_lattice(A)
        assert {"U", "Uinv", "V", "Vinv"} & set(vars(snf(A))) == {"V", "Vinv"}
        # each block of the Smith form builds the two transforms it reads
        for block, built in (("kernel", {"V", "Vinv"}), ("coimage", {"V", "Vinv"}),
                             ("image", {"U", "Uinv"}), ("cokernel", {"U", "Uinv"}),
                             ("inverse", {"U", "V"})):
            snf.cache_clear()
            getattr(snf(A), block)
            assert {"U", "Uinv", "V", "Vinv"} & set(vars(snf(A))) == built, block

    def test_checks_hold_under_optimize(self):
        # python -O strips assert statements; shape and entry checks stay
        p = run_python("-O", "-c", (
            "from prochain.exactalg.matrices import IntMatrix\n"
            "from prochain.errors import PreconditionViolated, ValidationError\n"
            "try:\n"
            "    IntMatrix.identity(2) @ IntMatrix.identity(3)\n"
            "except PreconditionViolated:\n"
            "    print('matmul refused')\n"
            "try:\n"
            "    IntMatrix(2, 2, (1,))\n"
            "except ValidationError:\n"
            "    print('entries refused')\n"))
        assert p.returncode == 0, p.stderr
        assert p.stdout == "matmul refused\nentries refused\n"

    def test_determinism(self):
        M = IntMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        assert snf(M) is snf(M)  # cached
        again = IntMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        assert snf(again).S.entries == snf(M).S.entries

    def test_kernel_and_solve(self):
        rng = random.Random(7)
        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)]
                                     for _ in range(m)])
            K = kernel_basis(M)
            assert (M @ K).is_zero
            x = IntMatrix.from_rows([[rng.randint(-3, 3)] for _ in range(n)],
                                    cols=1)
            b = M @ x
            sol = solve(M, b)
            assert sol is not None and (M @ sol).entries == b.entries

    def test_block_matrix(self):
        A = IntMatrix.from_rows([[1, 2]])
        B = IntMatrix.from_rows([[3], [4]])
        M = block_matrix((1, 2), (2, 1), {(0, 0): A, (1, 1): B}, ZZ)
        assert M.to_lists() == [[1, 2, 0], [0, 0, 3], [0, 0, 4]]
        # labelled blocks, in the order of the sizes mapping
        L = block_matrix({"x": 2, "y": 1}, {"u": 1}, {("x", "u"): B}, ZZ)
        assert L.to_lists() == [[3], [4], [0]]
        with pytest.raises(PreconditionViolated):
            block_matrix((1,), (1,), {(0, 0): A}, ZZ)

    def test_kron(self):
        # kron(b, a^T) applied to f row by row is b o f o a written row by row
        rng = random.Random(3)
        for _ in range(20):
            p, q, r, s = (rng.randint(0, 3) for _ in range(4))
            a, f, b = (IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(c)]
                                            for _ in range(rows)], cols=c)
                       for rows, c in ((q, p), (r, q), (s, r)))
            vec = IntMatrix(r * q, 1, f.entries)
            assert (kron(b, a.transpose()) @ vec).entries == (b @ f @ a).entries


class TestSmithDiagonal:
    """`smith_diagonal` against the diagonal of the logged elimination."""

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]),
           st.sampled_from(["sparse", "sparse with 2 and 3", "dense", "zero"]))
    @settings(max_examples=150, deadline=None)
    def test_is_the_snf_diagonal(self, seed, ring, kind):
        # sparse matrices keep to one entry in ten or fewer: denser ones send
        # the oracle's dense elimination over Z into coefficient growth.
        # Entries 2 and 3 leave a block with no unit for `_eliminate`
        rng = random.Random(seed)
        if kind == "dense":
            m, n = rng.randint(0, 8), rng.randint(0, 8)
            values, density = range(-9, 10), 1
        else:
            m, n = rng.randint(0, 40), rng.randint(0, 40)
            values = (1, -1) if kind == "sparse" else (1, -1, 2, 3)
            density = rng.uniform(0, 0.1) if kind != "zero" else 0
        M = IntMatrix(m, n, tuple(rng.choice(values) if rng.random() < density else 0
                                  for _ in range(m * n)), ring)
        matrices.smith_diagonal.cache_clear()
        assert smith_diagonal(M) == snf(M).diag

    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)])
    @pytest.mark.parametrize("m, n", [(0, 0), (0, 5), (5, 0), (3, 4)])
    def test_zero_and_empty_shapes(self, ring, m, n):
        M = IntMatrix.zeros(m, n, ring)
        assert smith_diagonal(M) == snf(M).diag == (0,) * min(m, n)

    def test_the_block_with_no_unit(self):
        # one unit pivot, then diag(2, 3) is left to `_eliminate`: 2 and 3
        # are coprime, so the factors are 1 and 6
        M = IntMatrix.from_rows([[1, 1, 0], [0, 2, 0], [0, 0, 3]])
        assert smith_diagonal(M) == snf(M).diag == (1, 1, 6)
        # no unit at all over Z; over F_3 every entry is one, and the
        # determinant -12 vanishes
        assert smith_diagonal(IntMatrix.from_rows([[2, 4], [4, 2]])) == (2, 6)
        assert smith_diagonal(IntMatrix.from_rows([[2, 4], [4, 2]], GF(3))) == (1, 0)


def check_blocks(M: IntMatrix) -> None:
    """The five blocks of snf(M) split M as `SnfResult` says: the kernel,
    the coimage's complement and projection, the image, the cokernel's
    projection and section, and the inverse."""
    s = snf(M)
    ring, r = M.ring, s.rank

    def is_identity(A, k):
        return A.entries == IntMatrix.identity(k, ring).entries

    K = s.kernel
    assert (M @ K.basis).is_zero
    assert is_identity(K.C @ K.basis, M.cols - r)
    basis, proj = s.coimage
    assert is_identity(proj @ basis, r)
    assert (proj @ K.basis).is_zero
    assert s.image.coords(M) is not None
    orders, proj, section = s.cokernel
    assert is_identity(proj @ section, len(orders))
    PM = proj @ M
    for i, d in enumerate(orders):
        assert not any(x % d for x in PM.row(i)) if d else not any(PM.row(i))
    if all(d == 1 for d in s.invariant_factors):
        assert (M @ s.inverse @ M).entries == M.entries


class TestBlocks:
    """The named blocks of `SnfResult` on the draws of `TestSmithDiagonal`."""

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]),
           st.sampled_from(["sparse", "sparse with 2 and 3", "dense", "zero"]))
    @settings(max_examples=100, deadline=None)
    def test_blocks_split_the_matrix(self, seed, ring, kind):
        rng = random.Random(seed)
        if kind == "dense":
            m, n = rng.randint(0, 8), rng.randint(0, 8)
            values, density = range(-9, 10), 1
        else:
            m, n = rng.randint(0, 40), rng.randint(0, 40)
            values = (1, -1) if kind == "sparse" else (1, -1, 2, 3)
            density = rng.uniform(0, 0.1) if kind != "zero" else 0
        check_blocks(IntMatrix(m, n, tuple(
            ring.reduce(rng.choice(values)) if rng.random() < density else 0
            for _ in range(m * n)), ring))

    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)])
    @pytest.mark.parametrize("m, n", [(0, 0), (0, 5), (5, 0), (3, 4)])
    def test_zero_and_empty_shapes(self, ring, m, n):
        check_blocks(IntMatrix.zeros(m, n, ring))

    def test_torsion_and_split_maps(self):
        # a cokernel Z/2 + Z/6 + Z, where `inverse` is no generalized
        # inverse, and a split mono and a split epi, where it is a
        # retraction and a section
        M = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 6], [0, 0, 0]])
        check_blocks(M)
        assert snf(M).cokernel[0] == (2, 6, 0)
        mono = IntMatrix.from_rows([[1, 2], [3, 7], [5, 1]])
        assert (snf(mono).inverse @ mono).entries == IntMatrix.identity(2).entries
        epi = mono.transpose()
        assert (epi @ snf(epi).inverse).entries == IntMatrix.identity(2).entries


# every frozen value class of the package, with each of its fields
FROZEN_FIELDS = [(v, name) for mod in map(importlib.import_module, package_module_names())
                 for v in vars(mod).values()
                 if isinstance(v, type) and issubclass(v, Value) and v is not Value
                 and v.__module__ == mod.__name__ for name in v._fields]


@functools.lru_cache(maxsize=1)
def frozen_values() -> dict:
    """One instance of every frozen value class, by class."""
    from prochain import ahss, chain, pro, prohomotopy, tstruct
    M2 = chain.moore_complex(2)
    g = identity_hom(Z2)
    T = pro.constant_tower(Z2)
    D = pro.constant_system(Z2)
    f = pro.level_map(T, T, [g])
    examples = [ZZ, IntMatrix.identity(2), kernel_lattice(IntMatrix.zeros(1, 2)), Z2, g,
                chain.homology_data(M2, 0), image(g), M2, chain.identity_map(M2),
                chain.hom_complex(M2, M2), pro.UnknownValue("a reason"), T.tail,
                pro._TailedSequence(T.entries, T.structure, T.tail), T,
                pro.IndexShift((0, 2), 2), f, pro.is_pro_isomorphism(f), pro.lim_lim1(T),
                D, tstruct.truncation_tower(M2),
                tstruct.classify_map(chain.identity_map(M2)),
                prohomotopy.HStarVerdict("not", "a reason", 0),
                prohomotopy.hom_from_constant(M2, pro.constant_tower(M2), 0),
                ahss.Window(0, 1, 0, 1), ahss.build_exact_couple(M2, M2)]
    return {type(v): v for v in examples}


def sparse_matrix(rng, m, n, ring, density):
    """Entries beyond 2^70 over Z, residues over F_p, each nonzero with
    probability `density`; about one row and one column in four are zero."""
    zero_rows = {i for i in range(m) if rng.random() < 0.25}
    zero_cols = {j for j in range(n) if rng.random() < 0.25}
    big = 2 ** 80

    def draw(i, j):
        if i in zero_rows or j in zero_cols or rng.random() >= density:
            return 0
        return rng.randrange(ring.p) if ring.p else rng.randint(-big, big)
    return IntMatrix(m, n, tuple(draw(i, j) for i in range(m) for j in range(n)), ring)


class TestProduct:
    """The row kernel that skips zeros, against the scalar triple loop."""

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]),
           st.tuples(*[st.integers(min_value=0, max_value=9)] * 3),
           st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    @settings(max_examples=300, deadline=None)
    def test_product_matches_the_scalar_loop(self, seed, ring, shape, da, db):
        rng = random.Random(seed)
        m, k, n = shape
        A, B = sparse_matrix(rng, m, k, ring, da), sparse_matrix(rng, k, n, ring, db)
        want = scalar_matmul(A, B)
        assert A @ B == want
        for j in range(n):
            assert A.apply(B.column(j)) == want.column(j)

    @pytest.mark.parametrize("cls, name", FROZEN_FIELDS,
                             ids=[f"{c.__name__}.{n}" for c, n in FROZEN_FIELDS])
    def test_fields_are_frozen(self, cls, name):
        v = frozen_values()[cls]
        before = getattr(v, name)
        with pytest.raises(AttributeError):
            setattr(v, name, 0)
        with pytest.raises(AttributeError):
            delattr(v, name)
        assert getattr(v, name) is before
        # pickle and copy rebuild through the constructor
        assert pickle.loads(pickle.dumps(v)) == v

    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)])
    def test_kron_reads_the_ring_once(self, ring, monkeypatch):
        # no reduction entry by entry; over F_p the entries come out reduced
        A = IntMatrix(2, 3, (1, -2, 3, 4, 0, -5), ring)
        B = IntMatrix(2, 2, (7, -1, 0, 2), ring)
        calls = []
        reduce = RingTag.reduce
        monkeypatch.setattr(RingTag, "reduce", lambda self, a: calls.append(a) or reduce(self, a))
        K = kron(A, B)
        assert calls == []
        p = ring.p
        assert K.entries == tuple(A[i, j] * B[k, l] % p if p else A[i, j] * B[k, l]
                                  for i in range(2) for k in range(2)
                                  for j in range(3) for l in range(2))

    def test_dense_results_past_the_budget_are_refused(self, monkeypatch):
        # the check reads the shapes only, so a refused result is never built
        monkeypatch.setattr(matrices, "MAX_DENSE_ENTRIES", 6)
        assert kron(IntMatrix.zeros(2, 1), IntMatrix.zeros(1, 3)).shape == (2, 3)
        assert block_matrix((2,), (1, 2), {}, ZZ).shape == (2, 3)
        with pytest.raises(SizeBudgetExceeded,
                           match="Kronecker product of shape 4x4 would have 16 entries"):
            kron(IntMatrix.identity(2), IntMatrix.identity(2))
        with pytest.raises(SizeBudgetExceeded, match="block matrix of shape 7x1 "):
            block_matrix((3, 4), (1,), {}, ZZ)
        with pytest.raises(SizeBudgetExceeded, match="identity matrix of shape 3x3 "):
            IntMatrix.identity(3)
        s = snf.__wrapped__(IntMatrix.zeros(1, 3))  # past the table, so V is unread
        with pytest.raises(SizeBudgetExceeded, match="Smith transform of shape 3x3 "):
            s.V
        assert s.U.shape == (1, 1)


class TestFromRows:
    """Rows read as ints and reduced once, against reduction entry by entry."""

    @given(st.sampled_from([GF(2), GF(3)]), st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_prime_field_entries_are_reduced(self, ring, m, n, data):
        big = st.integers(min_value=-2 ** 80, max_value=2 ** 80)
        rows = [data.draw(st.lists(big, min_size=n, max_size=n)) for _ in range(m)]
        M = IntMatrix.from_rows(rows, ring, cols=n)
        assert M.shape == (m, n)
        assert M.entries == tuple(ring.reduce(x) for r in rows for x in r)
        assert all(0 <= x < ring.p for x in M.entries)

    def test_examples(self):
        assert IntMatrix.from_rows([[-1, 5, 2 ** 70 + 1]], GF(2)).entries == (1, 1, 1)
        assert IntMatrix.from_rows([[-1, -3], [4, -2 ** 65]], GF(3)).entries == (2, 0, 1, 1)
        # bools and other int-like entries are read as ints
        assert IntMatrix.from_rows([[True, False]], GF(3)).entries == (1, 0)

    def test_integer_entries_stay_exact(self):
        rows = [[2 ** 200 + 1, -(3 ** 90)], [-1, 0]]
        M = IntMatrix.from_rows(rows)
        assert M.entries == (2 ** 200 + 1, -(3 ** 90), -1, 0)
        assert all(type(x) is int for x in M.entries)

    @pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3)])
    def test_ragged_rows_are_refused(self, ring):
        for rows in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]]):
            with pytest.raises(ValidationError, match="rows have varying lengths"):
                IntMatrix.from_rows(rows, ring)


class TestGroups:
    def test_presentations(self):
        assert group_from_presentation(IntMatrix.from_rows([[2]])).invariant_factors == (2,)
        assert group_from_presentation(IntMatrix.zeros(2, 0)).free_rank == 2
        # diag(2,3) merges to Z/6 under the divisibility normalization
        g = group_from_presentation(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert g.invariant_factors == (6,)

    @given(st.sampled_from([ZZ, GF(2), GF(3)]), st.booleans(),
           st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, -2]), max_size=6),
           st.sampled_from([2, 3, 4]), st.lists(st.sampled_from([1, 2, 3]), max_size=4),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_orders_are_their_diagonal_presentation(self, ring, canonical, raw,
                                                    first, steps, zeros):
        # canonical orders (a divisor chain >= 2, then zeros; over F_p only
        # zeros) skip the Smith form, and any others do not: either way the
        # group is the one the diagonal relations present, transforms included
        if canonical:
            torsion = () if ring.p else tuple(accumulate(steps, mul, initial=first))
            orders = torsion + (0,) * zeros
        else:
            orders = tuple(raw)
        n = len(orders)
        rel = IntMatrix.from_columns([[ring.reduce(d) * (i == j) for i in range(n)]
                                      for j, d in enumerate(orders) if ring.reduce(d)],
                                     n, ring)
        assert group_from_orders(orders, ring) == group_from_presentation(rel)

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            hom_group(free_group(1, ZZ), free_group(1, GF(2)))

    def test_prime_check(self):
        with pytest.raises(ValidationError):
            GF(6)

    def test_kernel_image_cokernel(self):
        t2 = multiplication_hom(Z, 2)
        assert kernel(t2).group.is_trivial
        assert cokernel(t2).group.invariant_factors == (2,)
        f = multiplication_hom(Z4, 2)
        assert image(f).group.invariant_factors == (2,)

    def test_kernel_composes_to_zero(self):
        rng = random.Random(3)
        for _ in range(30):
            A = group_from_orders([rng.choice([0, 2, 4, 6])
                                   for _ in range(rng.randint(1, 3))])
            B = group_from_orders([rng.choice([0, 2, 3])
                                   for _ in range(rng.randint(1, 3))])
            m = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(A.ngens)]
                                     for _ in range(B.ngens)], cols=A.ngens)
            try:
                f = hom(A, B, m)
            except Exception:
                continue
            ker = kernel(f)
            assert f.compose(ker.inclusion).is_zero
            proj = cokernel(f).encode_hom(identity_hom(B))
            assert proj.compose(f).is_zero
            assert exact_at(f, proj)

    def test_subquotient_examples(self):
        A = free_group(2)
        S = subgroup_from_columns(A, IntMatrix.from_columns([(1, 0), (0, 2)], 2))
        T = subgroup_from_columns(A, IntMatrix.from_columns([(2, 0)], 2))
        sq = subquotient(A, S, T)
        assert sq.group.invariant_factors == (2,) and sq.group.free_rank == 1
        full = full_subgroup(A)
        assert subquotient(A, full, full).group.is_trivial
        with pytest.raises(ContainmentViolation):
            subquotient(A, T, S)

    @given(st.sampled_from([ZZ, GF(2), GF(3)]),
           st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                    max_size=4),
           st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_trivial_subgroups_are_built_as_spans_build_them(self, ring, cols, rows):
        # zero_subgroup and full_subgroup write down the relation lattice and
        # the whole lattice; subgroup_from_columns finds them by Smith form
        g = group_from_presentation(IntMatrix.from_columns(
            [c[:rows] for c in cols], rows, ring))
        assert zero_subgroup(g) == subgroup_from_columns(
            g, IntMatrix.zeros(g.ngens, 0, ring))
        assert full_subgroup(g) == subgroup_from_columns(
            g, IntMatrix.identity(g.ngens, ring))

    def test_trivial_subgroups_examples(self):
        # the trivial group, and a group presented off its canonical basis
        g = group_from_presentation(IntMatrix.from_rows([[2, 0], [2, 3]]))
        assert g.to_canonical.entries != IntMatrix.identity(g.ngens).entries
        for G in (free_group(0), g, group_from_orders([2, 6, 0, 0])):
            zero, full = zero_subgroup(G), full_subgroup(G)
            assert zero == subgroup_from_columns(G, IntMatrix.zeros(G.ngens, 0))
            assert full == subgroup_from_columns(G, IntMatrix.identity(G.ngens))
            assert zero.group.is_trivial and full.group.orders == G.orders

    def test_encode_rejects_non_members(self):
        A = free_group(2)
        S = subgroup_from_columns(A, IntMatrix.from_columns([(1, 0), (0, 2)], 2))
        T = subgroup_from_columns(A, IntMatrix.from_columns([(2, 0)], 2))
        outside = IntMatrix.from_columns([(1, 0), (0, 1)], 2)
        for sq in (S, subquotient(A, S, T), subquotient(A, S, zero_subgroup(A))):
            with pytest.raises(ContainmentViolation):
                sq.encode_matrix(outside)
            # every generator's representative encodes back to itself
            back = sq.encode_matrix(sq.decode_matrix())
            assert back.entries == IntMatrix.identity(sq.group.ngens).entries

    def test_hom_group_values(self):
        assert hom_group(Z, Z4).group.isomorphic(Z4)
        assert hom_group(Z2, Z).group.is_trivial
        assert hom_group(Z2, Z4).group.invariant_factors == (2,)

    def test_hom_group_roundtrip(self):
        hg = hom_group(Z2, Z4)
        elements = IntMatrix.from_columns(list(hg.group.elements()), hg.group.ngens)
        back = hg.encode_matrix(hg.decode_matrix() @ elements)
        assert back.entries == elements.entries

    def test_encode_rejects_non_homomorphisms(self):
        # Z/2 -> Z/4 must send the generator to 0 or 2
        with pytest.raises(ContainmentViolation):
            hom_group(Z2, Z4).encode_matrix(IntMatrix.from_rows([[1]]))
        with pytest.raises(ContainmentViolation):
            hom_group(Z2, Z).encode_matrix(IntMatrix.from_rows([[1]]))
        assert hom_group(Z2, Z4).encode_matrix(IntMatrix.from_rows([[6]])).entries == (1,)

    @given(st.integers(min_value=0, max_value=2 ** 30), st.sampled_from([ZZ, GF(3)]))
    @settings(max_examples=60, deadline=None)
    def test_hom_group_against_the_closed_form(self, seed, ring):
        # Hom(A, B) is the sum of the Hom(Z/a_i, Z/b_j); coordinates round
        # trip; and a column that is not a homomorphism is refused
        rng = random.Random(seed)
        A, B = (group_from_orders([0 if ring.p else rng.choice([0, 2, 3, 4, 6, 8, 9])
                                   for _ in range(rng.randint(0, 4))], ring)
                for _ in range(2))
        hg = hom_group(A, B)
        pairs = {j * A.ngens + i: pair_order(a, b, ring)
                 for j, b in enumerate(B.orders) for i, a in enumerate(A.orders)}
        assert hg.group.isomorphic(group_from_orders([c for c, _ in pairs.values()], ring))
        c = hg.group.reduce_matrix(IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(3)] for _ in range(hg.group.ngens)],
            ring, cols=3))
        assert hg.encode_matrix(hg.decode_matrix() @ c).entries == c.entries
        for slot, (_, mult) in pairs.items():
            if mult != 1:
                unit = [[int(k == slot)] for k in range(A.ngens * B.ngens)]
                with pytest.raises(ContainmentViolation):
                    hg.encode_matrix(IntMatrix.from_rows(unit, ring))

    @given(st.integers(min_value=0, max_value=2 ** 30), st.sampled_from([ZZ, GF(3)]))
    @settings(max_examples=40, deadline=None)
    def test_hom_functor_on_generators(self, seed, ring):
        # Hom(pre, post) sends each generator g of Hom(A, B) to post o g o pre
        rng = random.Random(seed)
        A, B, P, Q = (random_group(rng, ring) for _ in range(4))
        pre, post = random_hom(rng, P, A), random_hom(rng, B, Q)
        hg, hq = hom_group(A, B), hom_group(P, Q)
        phi = hom_functor(pre, post)
        gens = hg.decode_matrix()
        images = hq.decode_matrix() @ phi.matrix
        for k in range(hg.group.ngens):
            g = hom(A, B, as_matrix(gens.take_columns([k]), A, B))
            want = post.compose(g).compose(pre)
            got = hom(P, Q, as_matrix(images.take_columns([k]), P, Q))
            assert got.equal(want)

    @given(st.integers(min_value=0, max_value=2 ** 30), st.sampled_from([ZZ, GF(3)]))
    @settings(max_examples=40, deadline=None)
    def test_solve_hom_constraints_meets_every_constraint(self, seed, ring):
        # systems built around a known solution g0 are solvable, and the
        # answer need not be g0 but must meet every constraint
        rng = random.Random(seed)
        A, B = random_group(rng, ring), random_group(rng, ring)
        g0 = random_hom(rng, A, B)
        constraints = []
        for _ in range(rng.randint(1, 3)):
            P, Q = random_group(rng, ring), random_group(rng, ring)
            pre, post = random_hom(rng, P, A), random_hom(rng, B, Q)
            constraints.append((pre, post, post.compose(g0).compose(pre)))
        g = solve_hom_constraints(A, B, constraints)
        assert g is not None
        for pre, post, rhs in constraints:
            assert post.compose(g).compose(pre).equal(rhs)

    @given(st.integers(min_value=0, max_value=3),
           st.lists(st.sampled_from([0, 2, 3, 4, 8]), max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_hom_from_free_powers(self, n, orders):
        B = group_from_orders(orders)
        hg = hom_group(free_group(n), B)
        assert hg.group.isomorphic(direct_sum([B] * n, ZZ))

    def test_solve_hom_constraints(self):
        none = solve_hom_constraints(
            Z, Z, [(multiplication_hom(Z, 2), identity_hom(Z), identity_hom(Z))])
        assert none is None
        assert solve_hom_constraints(Z, Z, []).is_zero
        got = solve_hom_constraints(
            Z2, Z2, [(identity_hom(Z2), identity_hom(Z2), identity_hom(Z2))])
        assert got is not None and got.equal(identity_hom(Z2))

    def test_is_isomorphism_examples(self):
        assert is_isomorphism(identity_hom(Z4))
        assert not is_isomorphism(multiplication_hom(Z, 2))
        assert is_isomorphism(multiplication_hom(Z4, 3))

    def test_iso_matches_enumeration(self):
        rng = random.Random(11)
        checked = 0
        while checked < 60:
            orders = [rng.choice([2, 3, 4, 8]) for _ in range(rng.randint(1, 3))]
            g = group_from_orders(orders)
            if g.order() > 64:
                continue
            m = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(g.ngens)]
                                     for _ in range(g.ngens)], cols=g.ngens)
            try:
                f = hom(g, g, m)
            except Exception:
                continue
            images = {f.apply(x) for x in g.elements()}
            assert is_isomorphism(f) == (len(images) == g.order())
            checked += 1

    def test_preimage(self):
        # a preimage of y under f solves [f | relations of the target] x = y
        proj = cokernel_projection(multiplication_hom(Z, 2))
        y = IntMatrix.from_rows([[1]])
        x = solve(hcat(proj.matrix, proj.target.relation_matrix()), y)
        assert x is not None and proj.apply(x.take_rows([0]).column(0)) == (1,)
        assert solve(multiplication_hom(Z, 2).matrix, y) is None

    def test_determinism_bit_identical(self):
        rng = random.Random(5)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(3)]
                                 for _ in range(3)])
        g1 = group_from_presentation(m)
        g2 = group_from_presentation(IntMatrix.from_rows(m.to_lists()))
        assert g1.orders == g2.orders
        assert g1.to_canonical.entries == g2.to_canonical.entries

    def test_field_groups(self):
        F2 = GF(2)
        v = free_group(3, F2)
        assert v.free_rank == 3 and v.invariant_factors == ()
        f = hom(v, v, IntMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]], F2))
        assert is_isomorphism(f)
        assert hom_group(v, v).group.free_rank == 9


def random_matrix(rng, ring):
    """Dense over F_p up to 30 x 30 at a random density; over Z either dense
    up to 8 x 8 or sparse up to 20 x 20 with mostly unit entries."""
    if ring.p:
        m, n = rng.randint(0, 30), rng.randint(0, 30)
        density = rng.random()
        draw = lambda: rng.randrange(ring.p) if rng.random() < density else 0
    elif rng.random() < 0.5:
        m, n = rng.randint(0, 8), rng.randint(0, 8)
        draw = lambda: rng.randint(-9, 9)
    else:
        m, n = rng.randint(0, 20), rng.randint(0, 20)
        draw = lambda: rng.choice((1, -1, 1, -1, 2, 3)) if rng.random() < 0.15 else 0
    return IntMatrix(m, n, tuple(draw() for _ in range(m * n)), ring)


class TestCertificate:
    """A Lattice carries C with C @ basis = diag(divisors) from the Smith form
    that built it, and coords(B) is (C @ B) / divisors checked by one product."""

    @given(st.integers(min_value=0, max_value=2 ** 30),
           st.sampled_from([ZZ, GF(2), GF(3)]), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_lattice_coords_equal_solve(self, seed, ring, span):
        rng = random.Random(seed)
        A = random_matrix(rng, ring)
        lattice = span_lattice(A) if span else kernel_lattice(A)
        basis = lattice.basis
        r = basis.cols
        assert lattice.C @ basis == IntMatrix.diagonal(lattice.divisors, r, r, ring)
        if span:
            # the basis and A span the same lattice
            assert solve(A, basis) is not None and solve(basis, A) is not None
            gens = A
        else:
            assert basis == kernel_basis(A) and (A @ basis).is_zero
            assert lattice.divisors == (1,) * r
            gens = basis
        k = rng.randint(0, 4)
        inside = gens @ IntMatrix(gens.cols, k, tuple(rng.randint(-3, 3)
                                                      for _ in range(gens.cols * k)), ring)
        kind = rng.randrange(3)
        if kind == 0:
            B = inside
        elif kind == 1 and inside.entries:
            # one entry off a member of the lattice
            i = rng.randrange(len(inside.entries))
            e = list(inside.entries)
            e[i] += 1
            B = IntMatrix(inside.rows, k, tuple(e), ring)
        else:
            B = IntMatrix(basis.rows, k, tuple(rng.randint(-3, 3)
                                               for _ in range(basis.rows * k)), ring)
        if ring.p:
            # unreduced representatives of the same residues
            B = IntMatrix(B.rows, k, tuple(x + ring.p * rng.randint(-2, 2)
                                           for x in B.entries), ring)
        X = lattice.coords(B)
        assert X == solve(basis, B)
        if kind == 0:
            assert X is not None

    def test_torsion_subquotient_containment(self):
        # G = Z/4 + Z, N = <(2, 0), (0, 2)>; the lattices hold the relation (4, 0)
        G = group_from_orders([4, 0])
        assert G.orders == (4, 0)

        def sub(*cols):
            return subgroup_from_columns(G, IntMatrix.from_columns(cols, 2))

        N = sub((2, 0), (0, 2))
        assert subquotient(G, N, sub((0, 4))).group.invariant_factors == (2, 2)
        assert subquotient(G, N, sub((6, 2))).group.invariant_factors == (2,)
        for outside in ((1, 0), (0, 1), (2, 1), (3, 2)):
            with pytest.raises(ContainmentViolation):
                subquotient(G, N, sub(outside))
            with pytest.raises(ContainmentViolation):
                N.encode_matrix(IntMatrix.from_columns([outside], 2))

        def member(col):
            return N.contains_hom(GroupHom(Z, G, IntMatrix.from_columns([col], 2)))

        assert all(member(c) for c in ((2, 0), (0, 2), (6, 2), (4, -2), (0, 0)))
        assert not any(member(c) for c in ((1, 0), (0, 1), (2, 1), (5, 2), (3, 0)))

    def test_group_checks_hold_under_optimize(self):
        # python -O strips assert statements; group arithmetic raises typed errors
        p = run_python("-O", "-c", (
            "from prochain.exactalg.groups import free_group, identity_hom\n"
            "from prochain.errors import PreconditionViolated\n"
            "f, g = identity_hom(free_group(1)), identity_hom(free_group(2))\n"
            "for bad in (lambda: f.compose(g), lambda: f + g,\n"
            "            lambda: free_group(2).reduce((1,))):\n"
            "    try:\n"
            "        bad()\n"
            "    except PreconditionViolated:\n"
            "        print('refused')\n"))
        assert p.returncode == 0, p.stderr
        assert p.stdout == "refused\n" * 3
