"""Coefficient rings: the integers and prime fields F_p.

Every matrix and group in the package carries one of these tags.  The two
rings share a single elimination code path: the only ring-specific pieces
are entry reduction, the quotient used to shrink a remainder against a
pivot, and unit normalization of pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RingMismatch, ValidationError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class RingTag:
    """Either the integers (p == 0) or the prime field F_p (p >= 2)."""

    p: int = 0

    def __post_init__(self):
        if self.p != 0 and not _is_prime(self.p):
            raise ValidationError(f"modulus {self.p} is not prime")

    @property
    def is_field(self) -> bool:
        return self.p != 0

    def reduce(self, a: int) -> int:
        return a % self.p if self.p else a

    def norm(self, a: int) -> int:
        """Pivot-selection weight; smaller is better among nonzero entries."""
        return a % self.p if self.p else abs(a)

    def quot(self, a: int, b: int) -> int:
        """Quotient q so that a - q*b is small (zero over a field)."""
        if self.p:
            return (a * pow(b, -1, self.p)) % self.p
        # round-to-nearest keeps intermediate entries small during SNF;
        # the floor remainder has the sign of b, so q += 1 recenters it
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q += 1
        return q

    def unit_to_normalize(self, a: int) -> int:
        """Unit u with u*a the canonical pivot (positive over Z, 1 over F_p)."""
        if self.p:
            return pow(a % self.p, -1, self.p)
        return -1 if a < 0 else 1

    def __str__(self):
        return f"F{self.p}" if self.p else "Z"


ZZ = RingTag(0)


def GF(p: int) -> RingTag:
    return RingTag(p)


def check_same_ring(*tagged):
    rings = {obj.ring for obj in tagged}
    if len(rings) > 1:
        raise RingMismatch(f"mixed rings: {sorted(str(r) for r in rings)}")
    return next(iter(rings))
