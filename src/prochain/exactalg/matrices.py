"""Exact dense matrices over Z or F_p and their Smith normal form.

Entries are arbitrary-precision Python ints stored row-major in a tuple, so
matrices are immutable and hashable; every expensive decomposition is cached
on that hash.  The SNF routine carries all four transform matrices (U, U^-1,
V, V^-1) so that group normalization downstream never has to invert anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from ..errors import PreconditionViolated
from .ring import RingTag, ZZ, check_same_ring


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple  # row-major, length rows*cols
    ring: RingTag = ZZ

    def __post_init__(self):
        assert len(self.entries) == self.rows * self.cols

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], ring: RingTag = ZZ,
                  cols: Optional[int] = None) -> "IntMatrix":
        m = len(rows)
        n = len(rows[0]) if m else (cols if cols is not None else 0)
        flat = []
        for r in rows:
            assert len(r) == n, "rows have varying lengths"
            flat.extend(ring.reduce(int(x)) for x in r)
        return IntMatrix(m, n, tuple(flat), ring)

    @staticmethod
    def zeros(m: int, n: int, ring: RingTag = ZZ) -> "IntMatrix":
        return IntMatrix(m, n, (0,) * (m * n), ring)

    @staticmethod
    def identity(n: int, ring: RingTag = ZZ) -> "IntMatrix":
        e = [0] * (n * n)
        for i in range(n):
            e[i * n + i] = ring.reduce(1)
        return IntMatrix(n, n, tuple(e), ring)

    @staticmethod
    def diagonal(diag: Sequence[int], m: int, n: int, ring: RingTag = ZZ) -> "IntMatrix":
        e = [0] * (m * n)
        for i, d in enumerate(diag):
            e[i * n + i] = ring.reduce(d)
        return IntMatrix(m, n, tuple(e), ring)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], nrows: int,
                     ring: RingTag = ZZ) -> "IntMatrix":
        n = len(columns)
        e = [0] * (nrows * n)
        for j, col in enumerate(columns):
            assert len(col) == nrows
            for i, x in enumerate(col):
                e[i * n + j] = ring.reduce(int(x))
        return IntMatrix(nrows, n, tuple(e), ring)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_zero(self) -> bool:
        return all(self.ring.reduce(x) == 0 for x in self.entries)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        check_same_ring(self, other)
        assert (self.rows, self.cols) == (other.rows, other.cols)
        red = self.ring.reduce
        return IntMatrix(self.rows, self.cols,
                         tuple(red(a + b) for a, b in zip(self.entries, other.entries)),
                         self.ring)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        red = self.ring.reduce
        return IntMatrix(self.rows, self.cols,
                         tuple(red(-a) for a in self.entries), self.ring)

    def scale(self, c: int) -> "IntMatrix":
        red = self.ring.reduce
        return IntMatrix(self.rows, self.cols,
                         tuple(red(c * a) for a in self.entries), self.ring)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        check_same_ring(self, other)
        assert self.cols == other.rows, f"shape mismatch {self.shape}x{other.shape}"
        m, k, n = self.rows, self.cols, other.cols
        red = self.ring.reduce
        a, b = self.entries, other.entries
        out = [0] * (m * n)
        for i in range(m):
            arow = a[i * k:(i + 1) * k]
            for t in range(k):
                c = arow[t]
                if c == 0:
                    continue
                boff = t * n
                ooff = i * n
                for j in range(n):
                    out[ooff + j] += c * b[boff + j]
        return IntMatrix(m, n, tuple(red(x) for x in out), self.ring)

    def apply(self, vec: Sequence[int]) -> tuple:
        assert len(vec) == self.cols
        red = self.ring.reduce
        out = []
        for i in range(self.rows):
            off = i * self.cols
            out.append(red(sum(self.entries[off + j] * vec[j] for j in range(self.cols))))
        return tuple(out)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(self.entries[i * self.cols + j]
                               for j in range(self.cols) for i in range(self.rows)),
                         self.ring)

    def take_rows(self, idx: Iterable[int]) -> "IntMatrix":
        idx = list(idx)
        e = tuple(x for i in idx for x in self.row(i))
        return IntMatrix(len(idx), self.cols, e, self.ring)

    def take_columns(self, idx: Iterable[int]) -> "IntMatrix":
        idx = list(idx)
        e = tuple(self.entries[i * self.cols + j] for i in range(self.rows) for j in idx)
        return IntMatrix(self.rows, len(idx), e, self.ring)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i))
                               for i in range(self.rows)) + "]"


def _offsets(sizes):
    """(label -> (first index, size) of each block, total size); a sequence
    of sizes labels its blocks by position."""
    if not isinstance(sizes, dict):
        sizes = dict(enumerate(sizes))
    out = {}
    off = 0
    for label, size in sizes.items():
        out[label] = (off, size)
        off += size
    return out, off


def block_matrix(row_sizes, col_sizes, blocks: dict, ring: RingTag) -> IntMatrix:
    """The matrix with block (i, j) equal to blocks[i, j] and zero elsewhere.

    row_sizes and col_sizes give the block sizes in order, either as a
    sequence (blocks keyed by position) or as a dict (blocks keyed by its
    labels)."""
    rows, m = _offsets(row_sizes)
    cols, n = _offsets(col_sizes)
    out = [0] * (m * n)
    for (i, j), b in blocks.items():
        (ro, r), (co, c) = rows[i], cols[j]
        if b.rows != r or b.cols != c or b.ring != ring:
            raise PreconditionViolated(
                f"block {(i, j)} is {b.shape} over {b.ring}, expected {(r, c)} over {ring}")
        e = b.entries
        for k in range(r):
            start = (ro + k) * n + co
            out[start:start + c] = e[k * c:(k + 1) * c]
    return IntMatrix(m, n, tuple(out), ring)


def kron(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """The Kronecker product: entry (i*B.rows + k, j*B.cols + l) is A[i,j] B[k,l]."""
    check_same_ring(A, B)
    red = A.ring.reduce
    brows = [B.row(k) for k in range(B.rows)]
    entries = tuple(red(a * b) for i in range(A.rows) for brow in brows
                    for a in A.row(i) for b in brow)
    return IntMatrix(A.rows * B.rows, A.cols * B.cols, entries, A.ring)


@dataclass(frozen=True)
class SnfResult:
    """U @ M @ V == S with U, V invertible over the ring and S diagonal.

    The diagonal satisfies d_1 | d_2 | ... ; invariant_factors lists the
    nonzero diagonal entries and zero_count the number of zero columns of S
    beyond them.
    """

    U: IntMatrix
    Uinv: IntMatrix
    S: IntMatrix
    V: IntMatrix
    Vinv: IntMatrix
    diag: tuple

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)

    @property
    def invariant_factors(self) -> tuple:
        return tuple(d for d in self.diag if d != 0)

    @property
    def zero_count(self) -> int:
        return sum(1 for d in self.diag if d == 0)


class _Eliminator:
    """Mutable state for the SNF computation, tracking all four transforms."""

    def __init__(self, M: IntMatrix):
        self.ring = M.ring
        self.m, self.n = M.rows, M.cols
        self.A = M.to_lists()
        self.U = IntMatrix.identity(self.m, self.ring).to_lists()
        self.Ui = IntMatrix.identity(self.m, self.ring).to_lists()
        self.V = IntMatrix.identity(self.n, self.ring).to_lists()
        self.Vi = IntMatrix.identity(self.n, self.ring).to_lists()

    # row ops act on the left: A <- E A, U <- E U, Ui <- Ui E^-1
    def row_add(self, i, j, c):
        red = self.ring.reduce
        if c == 0 or i == j:
            return
        self.A[i] = [red(a + c * b) for a, b in zip(self.A[i], self.A[j])]
        self.U[i] = [red(a + c * b) for a, b in zip(self.U[i], self.U[j])]
        for r in self.Ui:
            r[j] = red(r[j] - c * r[i])

    def row_swap(self, i, j):
        if i == j:
            return
        self.A[i], self.A[j] = self.A[j], self.A[i]
        self.U[i], self.U[j] = self.U[j], self.U[i]
        for r in self.Ui:
            r[i], r[j] = r[j], r[i]

    def row_scale_unit(self, i, u):
        red = self.ring.reduce
        if red(u) == red(1):
            return
        uinv = self.ring.unit_to_normalize(u) if self.ring.p else u  # u = -1 over Z
        self.A[i] = [red(u * a) for a in self.A[i]]
        self.U[i] = [red(u * a) for a in self.U[i]]
        for r in self.Ui:
            r[i] = red(uinv * r[i])

    # column ops act on the right: A <- A E, V <- V E, Vi <- E^-1 Vi
    def col_add(self, i, j, c):
        red = self.ring.reduce
        if c == 0 or i == j:
            return
        for r in self.A:
            r[i] = red(r[i] + c * r[j])
        for r in self.V:
            r[i] = red(r[i] + c * r[j])
        self.Vi[j] = [red(a - c * b) for a, b in zip(self.Vi[j], self.Vi[i])]

    def col_swap(self, i, j):
        if i == j:
            return
        for r in self.A:
            r[i], r[j] = r[j], r[i]
        for r in self.V:
            r[i], r[j] = r[j], r[i]
        self.Vi[i], self.Vi[j] = self.Vi[j], self.Vi[i]


def _snf_impl(M: IntMatrix) -> SnfResult:
    ring = M.ring
    e = _Eliminator(M)
    A = e.A
    m, n = e.m, e.n
    t = 0
    limit = min(m, n)
    while t < limit:
        # deterministic pivot: first entry of minimal ring norm in A[t:, t:]
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = ring.reduce(A[i][j])
                if v != 0:
                    w = ring.norm(v)
                    if best is None or w < best[0]:
                        best = (w, i, j)
        if best is None:
            break
        _, bi, bj = best
        e.row_swap(t, bi)
        e.col_swap(t, bj)

        while True:
            # clear column t, re-pivoting on any smaller remainder
            dirty = False
            for i in range(m):
                if i == t:
                    continue
                a = ring.reduce(A[i][t])
                if a == 0:
                    continue
                q = ring.quot(a, A[t][t])
                e.row_add(i, t, -q)
                if ring.reduce(A[i][t]) != 0:
                    e.row_swap(t, i)
                    dirty = True
            if dirty:
                continue
            for j in range(n):
                if j == t:
                    continue
                a = ring.reduce(A[t][j])
                if a == 0:
                    continue
                q = ring.quot(a, A[t][t])
                e.col_add(j, t, -q)
                if ring.reduce(A[t][j]) != 0:
                    e.col_swap(t, j)
                    dirty = True
            if dirty:
                continue
            # pivot must divide the remaining submatrix for the chain to hold
            offender = None
            if not ring.is_field:
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if A[i][j] % A[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
            if offender is None:
                break
            e.row_add(t, offender, 1)

        e.row_scale_unit(t, ring.unit_to_normalize(A[t][t]))
        t += 1

    diag = tuple(ring.reduce(A[i][i]) for i in range(limit))
    as_matrix = IntMatrix.from_rows(A, ring, cols=n) if m else IntMatrix.zeros(0, n, ring)
    return SnfResult(
        U=IntMatrix.from_rows(e.U, ring, cols=m) if m else IntMatrix.zeros(0, 0, ring),
        Uinv=IntMatrix.from_rows(e.Ui, ring, cols=m) if m else IntMatrix.zeros(0, 0, ring),
        S=as_matrix,
        V=IntMatrix.from_rows(e.V, ring, cols=n) if n else IntMatrix.zeros(0, 0, ring),
        Vinv=IntMatrix.from_rows(e.Vi, ring, cols=n) if n else IntMatrix.zeros(0, 0, ring),
        diag=diag,
    )


@lru_cache(maxsize=None)
def snf(M: IntMatrix) -> SnfResult:
    return _snf_impl(M)


def solve(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """Exact solve A @ X = B; returns None when no solution exists."""
    check_same_ring(A, B)
    assert A.rows == B.rows
    ring = A.ring
    s = snf(A)
    UB = s.U @ B
    k = B.cols
    d = s.diag
    Y = [[0] * k for _ in range(A.cols)]
    for i in range(A.rows):
        for j in range(k):
            v = ring.reduce(UB[i, j])
            di = d[i] if i < len(d) else 0
            if di == 0:
                if v != 0:
                    return None
            else:
                if ring.is_field:
                    Y[i][j] = ring.reduce(v * pow(di, -1, ring.p))
                else:
                    if v % di != 0:
                        return None
                    Y[i][j] = v // di
    Ym = IntMatrix.from_rows(Y, ring, cols=k) if A.cols else IntMatrix.zeros(0, k, ring)
    return s.V @ Ym


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Columns form a lattice basis of {x : A x = 0} (a subspace basis over F_p)."""
    s = snf(A)
    d = s.diag
    free = [j for j in range(A.cols) if j >= len(d) or d[j] == 0]
    return s.V.take_columns(free)


def column_lattice_basis(G: IntMatrix) -> IntMatrix:
    """A basis (independent columns) for the column span of G over the ring."""
    s = snf(G)
    cols = []
    for i, d in enumerate(s.diag):
        if d != 0:
            cols.append(tuple(d * s.Uinv[r, i] for r in range(G.rows)))
    return IntMatrix.from_columns(cols, G.rows, G.ring)


def in_column_span(G: IntMatrix, B: IntMatrix) -> bool:
    """True iff every column of B lies in the column lattice of G."""
    return solve(G, B) is not None
