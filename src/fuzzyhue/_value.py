"""The base of the package's immutable value types, and its number rule.

A plain class with hand-written methods, so that defining a value type costs
no more at import than any other class.
"""

from __future__ import annotations


def _shown(value) -> str:
    """``repr(value)``, or the digit count of an int too long to convert."""
    try:
        return repr(value)
    except ValueError:
        # Python refuses to convert an int of more than 4,300 digits.
        if not isinstance(value, int):
            raise
        n = abs(value)
        digits = max(0, int((n.bit_length() - 1) * 0.30102999566398120) - 1)
        while 10**digits <= n:
            digits += 1
        return f"an int of {digits} digits"


def _number(
    name: str, value, low: float, high: float | None = None, *,
    open_low: bool = False, open_high: bool = False, integral: bool = False,
):
    """``value`` unchanged if it is a number in the interval, else ValueError.

    A number is an ``int`` or, unless ``integral``, a ``float``: subclasses
    included, ``bool`` never. Each end is closed unless opened, and ``high``
    None is no upper bound, infinity excluded. NaN fails every comparison.
    """
    if high is None:
        high, open_high = float("inf"), True
    if (
        isinstance(value, int if integral else (int, float))
        and not isinstance(value, bool)
        and (low < value if open_low else low <= value)
        and (value < high if open_high else value <= high)
    ):
        return value
    rule = "must be an integer in" if integral else "must be in"
    interval = f"{'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
    raise ValueError(f"{name} {rule} {interval}, got {_shown(value)}")


class Value:
    """Immutable record whose fields are named by ``__match_args__``.

    A subclass writes its own ``__init__``, which sets each field in the
    instance dict, ``fields = self.__dict__; fields["name"] = ...``, as
    ``__setattr__`` refuses. Equality holds only between instances of the same
    class with equal field tuples, the hash is that of the field tuple, and
    the repr is ``QualName(field=value, ...)``. Other attributes, such as
    derived state, take no part in any of these. A pickle or copy holds the
    fields alone, by name. Loading passes them to ``__init__``, which takes
    them positionally in ``__match_args__`` order: it rebuilds the derived
    state, and refuses a field out of its domain as it would from a caller.
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

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__match_args__}

    def __setstate__(self, state: dict) -> None:
        # A pickle of the whole instance dict, as older versions made,
        # holds the fields too and loads the same way.
        self.__init__(*(state[name] for name in self.__match_args__))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
