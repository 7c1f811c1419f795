"""Exact matrices over Z or F_p and their Smith normal form.

Entries are arbitrary-precision Python ints stored row-major in a tuple, so
matrices are immutable and hashable; every expensive decomposition is cached
on that hash.  The SNF routine eliminates the matrix alone and logs its row
and column operations; each of the four transforms (U, U^-1, V, V^-1) is
replayed from a log when a caller first reads it, so group normalization
downstream never has to invert anything, and a caller that reads one side,
or only the diagonal, never builds the other.

A caller that reads nothing but the diagonal calls `smith_diagonal`
instead: `chain.homology`, which reads H_n off the diagonals of d_n and
d_{n+1}.  It keeps no log, since only the transforms read one, and it
eliminates sparsely, unit pivots first, so a sparse matrix written in a
changed basis stays sparse, where the logged elimination fills it and its
entries grow.  `snf` stays the source of every transform and of the
`SnfResult` blocks read off them; outside this module and the self-test,
callers read the blocks and never slice U, V or their inverses by rank.

Storage is dense, but the arithmetic is not: products, and the SNF
elimination and its replay over Z and odd p, run through one row kernel,
`_axpy`, which adds c times a row into another in place and visits only the
nonzero entries of the row it adds.  Over F_2 the elimination and its
replay hold each row as one int instead, column j at bit n-1-j, so that a
row addition is one xor; they log the same operations as the list path, so
the diagonal and the transforms are the same.  Products stay on lists over
every ring, since most of them are 1x1 or 2x2, where packing costs more
than it saves.  A product with an empty dimension or a zero left factor is
zero at once.  Products and `kron` read the ring once: over Z entries are
exact and never reduced, over F_p every entry is taken mod p.  The other
constructors and operations reduce entry by entry through the ring tag.
The SNF kernel and its replay likewise take the modulus from the ring once
per call: over Z entries are exact, over F_p the input is reduced once and
every combination is taken mod p.

A subgroup of ring^m is a `Lattice`, as the `kernel` and `image` blocks
are: a basis with a matrix C from the same Smith form, C @ basis diagonal.
Its `coords` answers every membership and coordinate question by products,
checked by one more, instead of a second Smith form.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, compress
from operator import floordiv, itemgetter, mod, neg
from typing import Iterable, Optional, Sequence

from ..errors import PreconditionViolated, SizeBudgetExceeded, ValidationError
from ..value import Value, store
from .ring import RingTag, ZZ, check_same_ring


class IntMatrix(Value):
    # entries is row-major, of length rows * cols
    __slots__ = _fields = ("rows", "cols", "entries", "ring")

    def __init__(self, rows: int, cols: int, entries: tuple, ring: RingTag = ZZ):
        if len(entries) != rows * cols:
            raise ValidationError(f"{len(entries)} entries for a {rows}x{cols} matrix")
        # the instance is frozen: write the slots through their descriptors
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_entries(self, entries)
        _set_ring(self, ring)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rows, self.cols, self.entries, self.ring)
                == (other.rows, other.cols, other.entries, other.ring))

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries, self.ring))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], ring: RingTag = ZZ,
                  cols: Optional[int] = None) -> "IntMatrix":
        m = len(rows)
        n = len(rows[0]) if m else (cols if cols is not None else 0)
        flat = []
        for r in rows:
            if len(r) != n:
                raise ValidationError("rows have varying lengths")
            flat.extend(map(int, r))
        return IntMatrix(m, n, _mod(flat, ring.p), ring)

    @staticmethod
    def zeros(m: int, n: int, ring: RingTag = ZZ) -> "IntMatrix":
        return IntMatrix(m, n, (0,) * (m * n), ring)

    @staticmethod
    def identity(n: int, ring: RingTag = ZZ) -> "IntMatrix":
        _check_size("identity matrix", n, n)
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
            if len(col) != nrows:
                raise ValidationError(f"column {j} has {len(col)} entries, expected {nrows}")
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
        p = self.ring.p
        return all(x % p == 0 for x in self.entries) if p else not any(self.entries)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        check_same_ring(self, other)
        if self.shape != other.shape:
            raise PreconditionViolated(f"shape mismatch {self.shape}+{other.shape}")
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
        if self.cols != other.rows:
            raise PreconditionViolated(f"shape mismatch {self.shape}x{other.shape}")
        m, k, n = self.rows, self.cols, other.cols
        a = self.entries
        if not (n and any(a)):  # also when m or k is 0
            return IntMatrix(m, n, (0,) * (m * n), self.ring)
        b = other.entries
        brows = [b[t * n:(t + 1) * n] for t in range(k)]
        out = []
        for i in range(0, m * k, k):
            row = [0] * n
            for t in compress(range(k), a[i:i + k]):
                _axpy(row, brows[t], a[i + t], 0)
            out += row
        return IntMatrix(m, n, _mod(out, self.ring.p), self.ring)

    def apply(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.cols:
            raise PreconditionViolated(f"vector of length {len(vec)} for {self.cols} columns")
        return (self @ IntMatrix(self.cols, 1, tuple(vec), self.ring)).entries

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
        e, n = self.entries, self.cols
        return IntMatrix(len(idx), n, tuple(chain.from_iterable(
            [e[i * n:(i + 1) * n] for i in idx])), self.ring)

    def take_columns(self, idx: Iterable[int]) -> "IntMatrix":
        idx = list(idx)
        e, n = self.entries, self.cols
        if len(idx) == 1:
            out = e[idx[0]::n]
        elif idx:
            pick = itemgetter(*idx)
            out = tuple(chain.from_iterable(
                [pick(e[i:i + n]) for i in range(0, len(e), n)]))
        else:
            out = ()
        return IntMatrix(self.rows, len(idx), out, self.ring)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i))
                               for i in range(self.rows)) + "]"


_set_rows, _set_cols, _set_entries, _set_ring = (
    IntMatrix.__dict__[name].__set__ for name in ("rows", "cols", "entries", "ring"))


def _mod(entries, p: int) -> tuple:
    """The entries as a tuple, over F_p (p > 0) taken mod p."""
    return tuple(map(p.__rmod__, entries)) if p else tuple(entries)


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


# the most entries of a dense matrix that kron, block_matrix, identity and a
# Smith transform build: a square with MAX_GENERATORS (workspace.py) rows and
# columns, so any matrix between the modules of a workspace complex fits
MAX_DENSE_ENTRIES = 4096 * 4096


def _check_size(what: str, m: int, n: int) -> None:
    """Refuse an m x n result past MAX_DENSE_ENTRIES, before it is allocated."""
    if m * n > MAX_DENSE_ENTRIES:
        raise SizeBudgetExceeded(f"{what} of shape {m}x{n} would have {m * n} entries, "
                                 f"more than the {MAX_DENSE_ENTRIES} allowed")


def block_matrix(row_sizes, col_sizes, blocks: dict, ring: RingTag) -> IntMatrix:
    """The matrix with block (i, j) equal to blocks[i, j] and zero elsewhere.

    row_sizes and col_sizes give the block sizes in order, either as a
    sequence (blocks keyed by position) or as a dict (blocks keyed by its
    labels)."""
    rows, m = _offsets(row_sizes)
    cols, n = _offsets(col_sizes)
    _check_size("block matrix", m, n)
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
    _check_size("Kronecker product", A.rows * B.rows, A.cols * B.cols)
    brows = [B.row(k) for k in range(B.rows)]
    entries = [a * b for i in range(A.rows) for brow in brows
               for a in A.row(i) for b in brow]
    return IntMatrix(A.rows * B.rows, A.cols * B.cols, _mod(entries, A.ring.p), A.ring)


# The kinds of the operations a Smith form logs, 4 ints each (kind, a, b, c):
# swap rows or columns a and b; add c times row or column b to a; multiply
# row a by the unit b, whose inverse is c.
_SWAP, _ADD, _SCALE = 0, 1, 2


def _axpy(x: list, y: Sequence[int], c: int, p: int) -> None:
    """x += c*y in place over Z (p == 0) or F_p, visiting only the nonzero
    entries of y; over F_p the entries it writes are taken mod p."""
    if p:
        for j in compress(range(len(y)), y):
            x[j] = (x[j] + c * y[j]) % p
    else:
        for j in compress(range(len(y)), y):
            x[j] += c * y[j]


def _scale(x: list, c: int, p: int) -> list:
    """The row c*x for a unit c; over Z the only unit besides 1 is -1."""
    return [c * a % p for a in x] if p else list(map(neg, x))


def _replay(ops: list, size: int, p: int, inverse: bool) -> list:
    """The rows of X, the logged operations applied in order as row
    operations to the identity, or with `inverse` the rows of (X^-1)^T,
    built by applying the inverse transpose of each operation instead, so
    that X Y^T stays the identity after every step.  The row log gives U
    and (U^-1)^T, the column log V^T and V^-1.

    Rows are lists here, over Z and F_p; `SnfResult` replays an F_2 log
    with `_replay_f2` instead, on rows packed as `_pack` packs them."""
    X = [[0] * size for _ in range(size)]
    for i in range(size):
        X[i][i] = 1
    it = iter(ops)
    for kind, a, b, c in zip(it, it, it, it):
        if kind == _SWAP:
            X[a], X[b] = X[b], X[a]
        elif kind == _ADD:
            if inverse:
                _axpy(X[b], X[a], -c, p)
            else:
                _axpy(X[a], X[b], c, p)
        else:
            X[a] = _scale(X[a], c if inverse else b, p)
    return X


# ASCII digits to and from the bytes 0 and 1, so that F_2 rows are packed
# and unpacked by int(..., 2) and format at C speed
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _pack(entries: Sequence[int], m: int, n: int) -> list:
    """The rows of an m x n matrix over F_2 as ints, column j at bit
    n-1-j; entries are read mod 2, since the constructor leaves them as
    given."""
    if not n:
        return [0] * m
    digits = bytes(map((1).__and__, entries)).translate(_TO_DIGITS)
    return [int(digits[i:i + n], 2) for i in range(0, m * n, n)]


def _replay_f2(ops: list, size: int, inverse: bool) -> list:
    """`_replay` over F_2 on packed rows: an addition is one xor, or
    nothing when c is even, and the only unit to scale by is 1."""
    X = [1 << i for i in range(size - 1, -1, -1)]
    it = iter(ops)
    for kind, a, b, c in zip(it, it, it, it):
        if kind == _SWAP:
            X[a], X[b] = X[b], X[a]
        elif kind == _ADD and c & 1:
            if inverse:
                X[b] ^= X[a]
            else:
                X[a] ^= X[b]
    return X


class SnfResult:
    """U @ M @ V == S with U, V invertible over the ring and S diagonal.

    The diagonal satisfies d_1 | d_2 | ... ; invariant_factors lists the
    nonzero diagonal entries, each pivot normalized (positive over Z, 1 over
    F_p), so the factors equal to 1 come first.  The elimination logs its
    row and column operations; each transform is replayed from its log when
    first read, and a log is dropped once both transforms of its side are
    built.

    The splits of M are read off the transforms with r = rank, each block
    cached (so the spans of one matrix are one object) and built from the
    two transforms it names:
    - `kernel`: ker M as a `Lattice`, V at columns r.. with V^-1 at rows r..;
    - `coimage`: (V at columns ..r, V^-1 at rows ..r), a complement of the
      kernel and the projection onto it;
    - `image`: im M as a `Lattice`, U^-1 D at columns ..r with U at rows ..r;
    - `cokernel`: (orders, projection, section) of ring^m / im M, U at the
      rows whose factor is not 1 and U^-1 at those columns;
    - `inverse`: V at columns ..r times U at rows ..r, a retraction of a
      split mono and a section of a split epi.
    """

    def __init__(self, diag: tuple, m: int, n: int, ring: RingTag,
                 row_ops: list, col_ops: list):
        self.diag = diag
        self.m, self.n, self.ring = m, n, ring
        self._ops = {"U": row_ops, "V": col_ops}

    def _transform(self, side: str, inverse: bool) -> IntMatrix:
        """U or V, or with `inverse` its inverse, replayed from the side's
        log; the log is dropped once the other transform of the side is
        built too."""
        size = self.m if side == "U" else self.n
        _check_size("Smith transform", size, size)
        ops, p = self._ops[side], self.ring.p
        if (side if inverse else side + "inv") in self.__dict__:
            self._ops[side] = None
        transposed = inverse != (side == "V")  # the replay gives (U^-1)^T and V^T
        if p == 2:
            bits = f"0{size}b"
            e = "".join([format(r, bits) for r in _replay_f2(ops, size, inverse)]
                        ).encode().translate(_FROM_DIGITS)
            if transposed:
                e = b"".join([e[j::size] for j in range(size)])
        else:
            rows = _replay(ops, size, p, inverse)
            e = chain.from_iterable(zip(*rows) if transposed else rows)
        return IntMatrix(size, size, tuple(e), self.ring)

    @cached_property
    def U(self) -> IntMatrix:
        return self._transform("U", False)

    @cached_property
    def Uinv(self) -> IntMatrix:
        return self._transform("U", True)

    @cached_property
    def V(self) -> IntMatrix:
        return self._transform("V", False)

    @cached_property
    def Vinv(self) -> IntMatrix:
        return self._transform("V", True)

    @property
    def S(self) -> IntMatrix:
        return IntMatrix.diagonal(self.diag, self.m, self.n, self.ring)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diag if d != 0)

    @property
    def invariant_factors(self) -> tuple:
        return tuple(d for d in self.diag if d != 0)

    @cached_property
    def kernel(self) -> "Lattice":
        free = range(self.rank, self.n)
        return Lattice(self.V.take_columns(free), self.Vinv.take_rows(free),
                       (1,) * len(free))

    @cached_property
    def coimage(self) -> tuple:
        r = range(self.rank)
        return self.V.take_columns(r), self.Vinv.take_rows(r)

    @cached_property
    def image(self) -> "Lattice":
        d, r = self.invariant_factors, range(self.rank)
        basis = self.Uinv.take_columns(r) @ IntMatrix.diagonal(d, len(d), len(d), self.ring)
        return Lattice(basis, self.U.take_rows(r), d)

    @cached_property
    def cokernel(self) -> tuple:
        kept = range(self.diag.count(1), self.m)
        orders = tuple(self.diag[i] if i < len(self.diag) else 0 for i in kept)
        return orders, self.U.take_rows(kept), self.Uinv.take_columns(kept)

    @cached_property
    def inverse(self) -> IntMatrix:
        r = range(self.rank)
        return self.V.take_columns(r) @ self.U.take_rows(r)


def _snf_impl(M: IntMatrix) -> SnfResult:
    """Smith form by pivoting on the first entry of least norm in row-major
    order (|a| over Z, the residue over F_p), clearing its column by row
    operations and then its row by column operations, re-pivoting on any
    nonzero remainder, and over Z adding in a row the pivot does not divide.

    Only A itself is eliminated here.  Every row operation is appended to
    one flat int list and every column operation to another, 4 ints each
    (see `_SWAP`), and `SnfResult` replays a list into U, U^-1, V or V^-1
    when a caller first reads it.  Over Z and odd p the rows of A are lists
    (`_eliminate`); over F_2 each row is one int, column j at bit n-1-j
    (`_eliminate_f2`), which logs exactly the operations the list path
    logs, so the diagonal and every transform are the same.
    """
    eliminate = _eliminate_f2 if M.ring.p == 2 else _eliminate
    diag, row_ops, col_ops = eliminate(M)
    return SnfResult(diag, M.rows, M.cols, M.ring, row_ops, col_ops)


def _eliminate(M: IntMatrix) -> tuple:
    """(diagonal, row log, column log) of `_snf_impl`, on rows held as
    lists.  Every row addition, here and in the replay, is one in-place
    `_axpy`, which skips the zero entries of the row it adds.  Rows and
    columns before the pivot t are zero apart from their pivots, so the
    pivot search and the clearing passes visit A[t:, t:] only; while column
    t is zero off the pivot, a column operation on A changes row t alone.
    """
    p = M.ring.p
    m, n = M.rows, M.cols
    e = _mod(M.entries, p)
    A = [list(e[i * n:(i + 1) * n]) for i in range(m)]
    row_ops, col_ops = [], []

    # the quotient that shrinks a against the pivot b, and the least nonzero
    # norm in a row segment and the first place it occurs
    if p:
        def quot(a, b):
            return a * pow(b, -1, p) % p

        def least(seg):
            return min(filter(None, seg), default=0)

        def first(seg, w):
            return seg.index(w)
    else:
        def quot(a, b):
            # round to nearest keeps entries small; the floor remainder
            # has the sign of b, so q + 1 recenters it
            q, r = divmod(a, b)
            return q + 1 if 2 * abs(r) > abs(b) else q

        def least(seg):
            return min(map(abs, filter(None, seg)), default=0)

        def first(seg, w):
            return min(seg.index(x) for x in (w, -w) if x in seg)

    # swaps of row or column t, the current pivot, with row i or column j
    def row_swap(i):
        A[t], A[i] = A[i], A[t]
        row_ops.extend((_SWAP, t, i, 0))

    def col_swap(j):
        for r in A[t:]:
            r[t], r[j] = r[j], r[t]
        col_ops.extend((_SWAP, t, j, 0))

    t = 0
    limit = min(m, n)
    while t < limit:
        # the first entry of least norm in A[t:, t:]; norm 1 is least
        best = None
        for i in range(t, m):
            seg = A[i][t:]
            w = least(seg)
            if w and (best is None or w < best[0]):
                best = (w, i, t + first(seg, w))
                if w == 1:
                    break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(bi)
        if bj != t:
            col_swap(bj)

        while True:
            # clear column t, re-pivoting on any smaller remainder
            dirty = False
            for i in [i for i in range(t + 1, m) if A[i][t]]:
                q = quot(A[i][t], A[t][t])
                if q:
                    _axpy(A[i], A[t], -q, p)
                    row_ops.extend((_ADD, i, t, -q))
                if A[i][t]:
                    row_swap(i)
                    dirty = True
            if dirty:
                continue
            # clear row t; column t is zero off the pivot until a swap
            clean = True
            row = A[t]
            for j in [j for j in range(t + 1, n) if row[j]]:
                q = quot(row[j], row[t])
                if q:
                    for r in (row,) if clean else A[t:]:
                        if r[t]:
                            r[j] = (r[j] - q * r[t]) % p if p else r[j] - q * r[t]
                    col_ops.extend((_ADD, j, t, -q))
                if row[j]:
                    col_swap(j)
                    dirty = True
                    clean = False
            if dirty:
                continue
            # over Z the pivot must divide the rest for the chain to hold
            piv = A[t][t]
            if p or piv in (1, -1):
                break
            offender = next((i for i in range(t + 1, m)
                             if any(x % piv for x in A[i][t + 1:])), None)
            if offender is None:
                break
            _axpy(A[t], A[offender], 1, p)
            row_ops.extend((_ADD, t, offender, 1))

        # normalize the pivot, to a positive entry over Z and to 1 over F_p;
        # the inverse unit is the pivot itself over F_p
        piv = A[t][t]
        u = pow(piv, -1, p) if p else (-1 if piv < 0 else 1)
        if u != 1:
            A[t] = _scale(A[t], u, p)
            row_ops.extend((_SCALE, t, u, piv if p else u))
        t += 1

    return tuple(A[i][i] for i in range(limit)), row_ops, col_ops


def _eliminate_f2(M: IntMatrix) -> tuple:
    """`_eliminate` over F_2, on rows packed by `_pack`.  Rows from t on are
    zero before column t, so the pivot is the highest bit of the first
    nonzero row; a row addition is one xor, clearing row t walks its bits
    below the pivot in column order, and no pivot needs scaling."""
    m, n = M.rows, M.cols
    A = _pack(M.entries, m, n)
    row_ops, col_ops = [], []
    t = 0
    limit = min(m, n)
    while t < limit:
        bi = next((i for i in range(t, m) if A[i]), None)
        if bi is None:
            break
        bj = n - A[bi].bit_length()
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
            row_ops += (_SWAP, t, bi, 0)
        s = n - 1 - t  # the bit of column t
        if bj != t:
            sj = n - 1 - bj
            both = 1 << s | 1 << sj
            for i in range(t, m):
                if (A[i] >> s ^ A[i] >> sj) & 1:
                    A[i] ^= both
            col_ops += (_SWAP, t, bj, 0)
        piv = A[t]
        for i in range(t + 1, m):
            if A[i] >> s & 1:
                A[i] ^= piv
                row_ops += (_ADD, i, t, -1)
        rest = piv ^ (1 << s)
        while rest:
            b = rest.bit_length()
            col_ops += (_ADD, n - b, t, -1)
            rest ^= 1 << (b - 1)
        t += 1
    return (1,) * t + (0,) * (limit - t), row_ops, col_ops


# A benchmark round factors up to about 800 distinct matrices (`maps`);
# the bound keeps the table from growing for the life of the process.
SNF_CACHE_SIZE = 4096


@lru_cache(maxsize=SNF_CACHE_SIZE)
def snf(M: IntMatrix) -> SnfResult:
    return _snf_impl(M)


# `smith_diagonal` keeps a table of its own, bounded like the Smith forms':
# a seed-5 benchmark round reads the diagonals of 125 distinct matrices in
# `cells`, 532 in `maps` and 144 in `spectral`.
@lru_cache(maxsize=SNF_CACHE_SIZE)
def smith_diagonal(M: IntMatrix) -> tuple:
    """`snf(M).diag`, from an elimination that logs no operation and builds
    no transform (Dumas, Heckenbach, Saunders & Welker 2003).

    Over F_2 it is the rank of the rows packed by `_pack`, reduced against
    one pivot row per top bit.  Over Z and odd p the rows are dicts of their
    nonzero entries, and each step takes a unit pivot (+-1 over Z, any
    nonzero entry over F_p) in the sparsest column, from the shortest row
    there, and subtracts its multiples from the other rows of that column.
    Over Z the block left when no unit remains goes to `_eliminate`, and so
    does a matrix with no unit at all, such as the differential of K(A).  A
    unit pivot splits off an invariant factor 1, and Smith invariants are
    unique, so the result is the diagonal `snf` computes."""
    m, n = M.rows, M.cols
    if M.ring.p == 2:
        pivots = {}
        for r in _pack(M.entries, m, n):
            while r:
                b = r.bit_length()
                if b not in pivots:
                    pivots[b] = r
                    break
                r ^= pivots[b]
        units, rest = len(pivots), ()
    elif M.ring.p or 1 in M.entries or -1 in M.entries:
        units, rest = _unit_pivots(M)
    else:
        units, rest = 0, tuple(filter(None, _eliminate(M)[0]))
    return (1,) * units + rest + (0,) * (min(m, n) - units - len(rest))


def _unit_pivots(M: IntMatrix) -> tuple:
    """(number of unit pivots, nonzero Smith factors of what they leave) of
    `smith_diagonal` over Z or odd p."""
    p, n = M.ring.p, M.cols
    e = _mod(M.entries, p)
    rows, cols = {}, {}  # row -> {column: entry}, column -> rows with an entry
    for i in range(M.rows):
        row = {j: x for j, x in enumerate(e[i * n:(i + 1) * n]) if x}
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    units = 0
    while cols:
        for j in sorted(cols, key=lambda j: len(cols[j])):
            found = [i for i in cols[j] if p or rows[i][j] in (1, -1)]
            if found:
                break
        else:
            break
        i = min(found, key=lambda i: len(rows[i]))
        units += 1
        pivot = rows.pop(i)
        inv = pow(pivot.pop(j), -1, p) if p else pivot.pop(j)  # over Z, v = 1/v
        for r in cols.pop(j):
            if r == i:
                continue
            row = rows[r]
            f = row.pop(j) * inv
            for k, x in pivot.items():
                y = row.get(k, 0) - f * x
                if p:
                    y %= p
                if y:
                    if k not in row:
                        cols[k].add(r)
                    row[k] = y
                else:
                    del row[k]
                    cols[k].discard(r)
            if not row:
                del rows[r]
        for k in pivot:
            col = cols[k]
            col.discard(i)
            if not col:
                del cols[k]
    if not cols:
        return units, ()
    # over Z: the block no unit reaches, on the rows and columns left
    order = sorted(cols)
    R = IntMatrix(len(rows), len(order), tuple(
        row.get(k, 0) for row in rows.values() for k in order), ZZ)
    return units, tuple(filter(None, _eliminate(R)[0]))


def solve(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """Exact solve A @ X = B; returns None when no solution exists."""
    check_same_ring(A, B)
    if A.rows != B.rows:
        raise PreconditionViolated(f"solve: A has {A.rows} rows, B has {B.rows}")
    p = A.ring.p
    s = snf(A)
    k = B.cols
    UB = (s.U @ B).entries  # reduced already
    d = s.diag
    Y = [0] * (A.cols * k)
    for i in range(A.rows):
        row = UB[i * k:(i + 1) * k]
        di = d[i] if i < len(d) else 0
        if di == 0:
            if any(row):
                return None
        elif p:
            inv = pow(di, -1, p)
            Y[i * k:(i + 1) * k] = [v * inv % p for v in row]
        elif any(v % di for v in row):
            return None
        else:
            Y[i * k:(i + 1) * k] = [v // di for v in row]
    return s.V @ IntMatrix(A.cols, k, tuple(Y), A.ring)


class Lattice(Value):
    """A sublattice (a subspace over F_p) of ring^m with a certificate.

    The columns of `basis` (m x r) are independent, and C (r x m) @ basis is
    the diagonal matrix of the r nonzero `divisors`.  So the coordinates of
    a member B are (C @ B) / divisors, and `coords` accepts them only when
    basis @ c == B.
    """

    _fields = ("basis", "C", "divisors")

    def __init__(self, basis: IntMatrix, C: IntMatrix, divisors: tuple):
        store(self, "basis", basis)
        store(self, "C", C)
        store(self, "divisors", divisors)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.basis, self.C, self.divisors)
                == (other.basis, other.C, other.divisors))

    def __hash__(self):
        return hash((self.basis, self.C, self.divisors))

    def coords(self, B: IntMatrix) -> Optional[IntMatrix]:
        """The X with basis @ X == B, compared in reduced form, or None when
        some column of B is not in the lattice."""
        if not B.cols:
            return IntMatrix.zeros(len(self.divisors), 0, B.ring)
        if not self.divisors:
            return IntMatrix.zeros(0, B.cols, B.ring) if B.is_zero else None
        X = self.C @ B  # reduced already
        if any(d != 1 for d in self.divisors):
            ds = [d for d in self.divisors for _ in range(B.cols)]
            if any(map(mod, X.entries, ds)):
                return None
            X = IntMatrix(X.rows, X.cols, tuple(map(floordiv, X.entries, ds)), X.ring)
        return X if (self.basis @ X).entries == _mod(B.entries, B.ring.p) else None


def kernel_lattice(A: IntMatrix) -> Lattice:
    """{x : A x = 0}, the `kernel` of A's Smith form."""
    return snf(A).kernel


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Columns form a lattice basis of {x : A x = 0} (a subspace basis over F_p)."""
    return kernel_lattice(A).basis


def span_lattice(G: IntMatrix) -> Lattice:
    """The column span of G, the `image` of G's Smith form."""
    return snf(G).image


def hcat(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """[A | B]; A itself when B has no columns."""
    if not B.cols:
        return A
    return block_matrix((A.rows,), (A.cols, B.cols), {(0, 0): A, (0, 1): B}, A.ring)
