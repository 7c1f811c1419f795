"""Coefficient rings: the integers and prime fields F_p.

Every matrix and group in the package carries one of these tags.  Group
arithmetic and most matrix constructors reduce entries through `reduce`.
Matrix products, `kron`, `IntMatrix.is_zero`, the Smith-form elimination
and its replay in `matrices`, and `chain.make_complex` and `chain.chain_map`
read the tag once per call instead: over Z entries are exact and never
reduced, over F_p they are residues, taken mod p once per product and after
every row or column combination of the shared row kernel.
"""

from __future__ import annotations

from ..errors import RingMismatch, ValidationError
from ..value import Value, store


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class RingTag(Value):
    """Either the integers (p == 0) or the prime field F_p (p >= 2)."""

    _fields = ("p",)

    def __init__(self, p: int = 0):
        if p != 0 and not _is_prime(p):
            raise ValidationError(f"modulus {p} is not prime")
        store(self, "p", p)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p,))

    @property
    def is_field(self) -> bool:
        return self.p != 0

    def reduce(self, a: int) -> int:
        return a % self.p if self.p else a

    def __str__(self):
        return f"F{self.p}" if self.p else "Z"


ZZ = RingTag(0)


def GF(p: int) -> RingTag:
    return RingTag(p)


def check_same_ring(*tagged):
    """The common ring of the operands; raises RingMismatch if they differ."""
    first = tagged[0].ring
    for obj in tagged:
        if obj.ring is not first and obj.ring != first:
            rings = {obj.ring for obj in tagged}
            raise RingMismatch(f"mixed rings: {sorted(str(r) for r in rings)}")
    return first
