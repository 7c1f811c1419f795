"""Integer characteristic polynomials and the factorization of monic
polynomials over Z.

A polynomial is a list of ints, lowest degree first, with no trailing
zeros; the zero polynomial is [].  `factor` follows Berlekamp, "Factoring
polynomials over finite fields" (1967), and Zassenhaus, "On Hensel
factorization I" (1969): the squarefree part is split modulo the smallest
prime that keeps it squarefree, the factors are Hensel-lifted past twice
the Mignotte bound, and the true factors are recombined by trial division.
"""

from __future__ import annotations

from itertools import combinations, count, islice
from math import gcd, isqrt
from typing import List, Tuple

from ..errors import PostconditionViolated
from .matrices import IntMatrix, kernel_basis
from .ring import GF, _is_prime

Poly = List[int]


def charpoly(A: IntMatrix) -> Poly:
    """det(x I - A) for a square integer matrix, by Faddeev-LeVerrier:
    M_k = A M_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(A M_k) / k, where
    every division is exact."""
    n = A.rows
    c = [0] * n + [1]
    I = IntMatrix.identity(n, A.ring)
    AM = IntMatrix.zeros(n, n, A.ring)
    for k in range(1, n + 1):
        AM = A @ (AM + I.scale(c[n - k + 1]))
        c[n - k] = -sum(AM[i, i] for i in range(n)) // k
    return c


def factor(f: Poly) -> List[Tuple[Poly, int]]:
    """The monic irreducible factors of a monic f over Z with their
    multiplicities, sorted by degree and then by coefficients."""
    df = _derivative(f)
    g = _divmod(f, _gcd_z(f, _primitive(df)))[0]  # the squarefree part
    out = []
    for q in _factor_squarefree(g):
        m, rest = 0, f
        for _ in range(len(df) // (len(q) - 1)):  # at most deg f / deg q times
            rest, rem = _divmod(rest, q)
            if rem:
                break
            m += 1
        out.append((q, m))
    return sorted(out, key=lambda qm: (len(qm[0]), qm[0]))


def _factor_squarefree(g: Poly) -> List[Poly]:
    n = len(g) - 1
    if n < 2:
        return [g] if n == 1 else []
    p = _good_prime(g)
    local = _berlekamp(g, p)
    if len(local) == 1:
        return [g]
    # Mignotte: no coefficient of a factor of g exceeds 2^n |g|_2
    bound = 2 * 2 ** n * (isqrt(sum(c * c for c in g)) + 1)
    k = 1
    while p ** k <= bound:
        k += 1
    return _recombine(g, _hensel(g, local, p, k), p ** k)


def _good_prime(g: Poly) -> int:
    """The smallest prime not dividing the discriminant of the squarefree
    monic g, so that g stays squarefree mod p.  The discriminant is below
    n^n |g|_2^(2n-1) (Hadamard on the Sylvester matrix of g and g'), so
    fewer than `limit` primes divide it."""
    n = len(g) - 1
    limit = (2 * n - 1) * (sum(c * c for c in g).bit_length() + n.bit_length())
    for p in islice((q for q in count(2) if _is_prime(q)), limit + 1):
        if len(_xgcd(_mod(g, p), _mod(_derivative(g), p), p)[0]) == 1:
            return p
    raise PostconditionViolated("no prime keeps the polynomial squarefree")


def _berlekamp(g: Poly, p: int) -> List[Poly]:
    """The monic irreducible factors mod p of g, squarefree mod p.  The h
    with h^p = h mod g are the null space of Q - I, row i of Q being
    x^(p i) mod g; its dimension is the number of factors, and gcds with
    h - s for the basis vectors h and s in F_p separate any two."""
    n = len(g) - 1
    xp, row, Q = [1], [1], []
    for _ in range(p):
        xp = _divmod([0] + xp, g, p)[1]
    for _ in range(n):
        Q.append(row + [0] * (n - len(row)))
        row = _divmod(_mul(row, xp), g, p)[1]
    null = IntMatrix.from_rows([[Q[j][i] - (i == j) for j in range(n)]
                                for i in range(n)], GF(p))
    basis = [_mod(h, p) for h in kernel_basis(null).columns()]
    factors = [_mod(g, p)]
    for h in basis:
        for s in range(p):
            if len(factors) == len(basis):
                return factors
            split = []
            for f in factors:
                d = _xgcd(f, _sub(h, [s], p), p)[0]
                split += [d, _divmod(f, d, p)[0]] if 1 < len(d) < len(f) else [f]
            factors = split
    raise PostconditionViolated(f"{len(factors)} factors mod {p}, not {len(basis)}")


def _hensel(g: Poly, local: List[Poly], p: int, k: int) -> List[Poly]:
    """Monic factors mod p^k congruent to the factors `local` of g mod p.
    Each factor a is split from the product b of those after it, and the
    pair is lifted in k - 1 linear steps, from mod p^j to mod p^(j+1)."""
    lifted, target = [], g
    for i, a in enumerate(local[:-1]):
        b = _product(local[i + 1:], p)
        t = _xgcd(a, b, p)[1]  # t b = 1 mod a
        for j in range(1, k):
            pj = p ** j
            e = _mod([x // pj for x in _sub(target, _mul(a, b))], p)
            # alpha b + beta a = e mod p, with deg alpha < deg a
            alpha = _divmod(_mul(t, e, p), a, p)[1]
            beta = _divmod(_sub(e, _mul(alpha, b), p), a, p)[0]
            a = _add(a, [pj * x for x in alpha])
            b = _add(b, [pj * x for x in beta])
        lifted.append(a)
        target = b
    return lifted + [target]


def _recombine(g: Poly, lifted: List[Poly], pk: int) -> List[Poly]:
    """The irreducible factors over Z of g from its monic factors mod pk,
    pk above twice every coefficient of a factor.  Each true factor is the
    product of a set of lifted ones, and the smallest set holding the first
    lifted factor left whose product divides g gives an irreducible one.
    All sets but the whole are tried, at most 2^(r-1) - 1 in all for r
    lifted factors."""
    factors = []
    for _ in range(len(lifted) - 1):  # a pass that finds a factor drops a lifted one
        sets = [(0,) + rest for size in range(len(lifted) - 1)
                for rest in combinations(range(1, len(lifted)), size)]
        for S in sets:
            h = [x - pk if 2 * x > pk else x
                 for x in _product([lifted[i] for i in S], pk)]
            q, r = _divmod(g, h)
            if not r:
                factors.append(h)
                g = q
                lifted = [f for i, f in enumerate(lifted) if i not in S]
                break
        else:
            break
    return factors + [g]


# -- arithmetic in Z[x] and (Z/m)[x]; m = 0 means over Z -----------------

def _mod(a: Poly, m: int = 0) -> Poly:
    a = [x % m for x in a] if m else list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _add(a: Poly, b: Poly, m: int = 0) -> Poly:
    s = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        s[i] += x
    return _mod(s, m)


def _sub(a: Poly, b: Poly, m: int = 0) -> Poly:
    return _add(a, [-x for x in b], m)


def _mul(a: Poly, b: Poly, m: int = 0) -> Poly:
    s = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            s[i + j] += x * y
    return _mod(s, m)


def _product(polys: List[Poly], m: int) -> Poly:
    out = [1]
    for a in polys:
        out = _mul(out, a, m)
    return out


def _divmod(a: Poly, b: Poly, m: int = 0) -> Tuple[Poly, Poly]:
    """Quotient and remainder of a by b: over Z for a monic b when m is 0,
    else mod m with the lead of b a unit mod m."""
    inv = pow(b[-1], -1, m) if m else 1
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(q))):
        q[i] = r[i + len(b) - 1] * inv % m if m else r[i + len(b) - 1]
        for j, y in enumerate(b):
            r[i + j] -= q[i] * y
    return _mod(q), _mod(r[:len(b) - 1], m)


def _derivative(a: Poly) -> Poly:
    return [i * x for i, x in enumerate(a)][1:]


def _primitive(a: Poly) -> Poly:
    """a over the gcd of its coefficients, with a positive lead."""
    c = gcd(*a) if a and a[-1] > 0 else -gcd(*a)
    return [x // c for x in a]


def _gcd_z(a: Poly, b: Poly) -> Poly:
    """The gcd over Z of primitive a and b with positive leads, a nonzero,
    by primitive pseudo-remainders."""
    while b:  # the degree of b falls every pass
        while len(a) >= len(b):  # pseudo-division: the degree of a falls
            shift = [0] * (len(a) - len(b)) + [a[-1] * y for y in b]
            a = _sub([x * b[-1] for x in a], shift)
        a, b = b, _primitive(a)
    return a


def _xgcd(a: Poly, b: Poly, p: int) -> Tuple[Poly, Poly]:
    """The monic gcd d of a and b over F_p, and t with t b = d modulo a:
    extended Euclid, keeping r_i = t_i b mod a."""
    r0, r1, t0, t1 = a, b, [], [1]
    while r1:  # the degree of r1 falls every pass
        q, r = _divmod(r0, r1, p)
        r0, r1, t0, t1 = r1, r, t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return _mod([x * inv for x in r0], p), _mod([x * inv for x in t0], p)
