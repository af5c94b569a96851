"""The base of the package's immutable value types.

A plain class with hand-written methods, so that defining a value type costs
no more at import than any other class.
"""

from __future__ import annotations


class Value:
    """Immutable record whose fields are named by ``__match_args__``.

    A subclass writes its own ``__init__``, which sets each field with
    ``object.__setattr__``. Equality holds only between instances of the same
    class with equal field tuples, the hash is that of the field tuple, and
    the repr is ``QualName(field=value, ...)``. Other attributes, such as
    derived state, take no part in any of these. Instances keep their
    ``__dict__``, so they pickle and copy as usual.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
