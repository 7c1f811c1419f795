"""The two base classes of the package's value types.

A value class lists its fields once, in `_fields`, in the order of its
constructor, and writes its own `__init__`.  `Record` gives it equality
(the same class and equal fields, so a subclass never equals its base) and
a repr of its fields.  `Value` makes it frozen as well: hashed on its
fields, and a write or delete of any attribute raises AttributeError, so
its `__init__` stores each field with `store`.

The generic `__eq__` and `__hash__` read the fields through getattr, about
twice the cost of the attribute loads of code written in the class.  So
the eight classes the inner loops build most (`RingTag`, `IntMatrix`,
`Lattice`, `FgAbGroup`, `GroupHom`, `SubquotientData`, `ChainComplex`,
`ChainMap`; `tests/bench_values.py` times them) write both out over the
same fields.
"""

# sets a field of a frozen instance from its __init__, past __setattr__
store = object.__setattr__


# Not stdlib dataclasses: on Python 3.11 `@dataclass` writes the source of
# each class's methods and runs `exec` on it, about 0.9 ms per class at
# every import, which byte-code caching cannot save; and `dataclasses`
# imports `inspect`, `ast`, `dis` and `tokenize`.  Every command is a fresh
# interpreter, so each paid both at cold start.
class Record:
    """A mutable value: equality and repr over `_fields`; not hashable."""

    __slots__ = ()
    _fields: tuple = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class Value(Record):
    """A frozen value: hashed on its fields, and no attribute can be set or
    deleted after `__init__`."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which a slotted class
        # needs: they would restore its slots through __setattr__
        return self.__class__, self._values()
