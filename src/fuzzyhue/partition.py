"""Linguistic hue partitions reconstructed from crossing positions and widths.

A partition is an ordered ring of named categories, each backed by a
:class:`~fuzzyhue.fuzzyset.CircularTrapezoid`. The builtin nine-category
model ships the COLIBRI hue constants: the half-membership crossing between
every adjacent pair of categories and the total width of each transition
zone. Those two numbers per boundary are enough to reconstruct the full
membership functions, because each transition zone is centered on its
crossing with complementary linear shoulders (so adjacent memberships sum
to one across the zone, and every crossing sits exactly at 0.5/0.5).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache
from typing import Iterable

from ._value import Value, _number
from .circle import PERIOD, wrap
from .fuzzyset import CircularTrapezoid

#: Ring order of the builtin categories.
RING = (
    "red",
    "orange",
    "yellow",
    "green",
    "cyan",
    "lightblue",
    "blue",
    "violet",
    "magenta",
)

# Builtin boundary constants: (crossing position, transition width), entry k
# separating RING[k] from RING[k+1], the last wrapping back to red. Stored
# exactly as published, one decimal place.
_COLIBRI_BOUNDARIES = (
    (12.5, 15.0),  # red | orange
    (40.0, 12.0),  # orange | yellow
    (55.5, 19.0),  # yellow | green
    (151.5, 47.0),  # green | cyan
    (180.5, 11.0),  # cyan | lightblue
    (199.5, 27.0),  # lightblue | blue
    (255.0, 30.0),  # blue | violet
    (300.5, 45.0),  # violet | magenta
    (340.5, 21.0),  # magenta | red
)

_CORE_TOL = 1e-9

# The (ring index, set) pairs of the categories that can be nonzero on one
# segment of the knot table.
_Active = tuple[tuple[int, CircularTrapezoid], ...]


class PartitionError(ValueError):
    """Boundary data cannot produce a valid partition."""


class BoundaryOrderError(PartitionError):
    """Boundary positions do not ascend around the circle, or two coincide."""


class InconsistentCoreError(PartitionError):
    """A category's transition zones overlap, leaving it a negative core."""

    def __init__(self, category: str, deficit: float):
        self.category = category
        self.deficit = deficit
        super().__init__(
            f"boundary widths around category {category!r} overlap by "
            f"{deficit:.6g} degrees (core would be negative)"
        )


class BoundarySpec(Value):
    """A half-membership crossing between two adjacent categories.

    ``position`` is the hue where the two membership curves cross at 0.5;
    ``width`` is the total extent of the transition zone around it (equal to
    the overlap of the two supports).
    """

    __match_args__ = ("position", "width")

    def __init__(self, position: float, width: float) -> None:
        object.__setattr__(self, "position", wrap(position))
        _number("transition width", width, 0, 360, open_low=True, open_high=True)
        object.__setattr__(self, "width", width)


class HuePartition(Value):
    """Ordered ring of named categories, built from its boundary list.

    ``boundaries[k]`` separates ``names[k]`` from its ring successor, the last
    wrapping back to the first. Positions ascend around the circle from any
    start: of the steps from each position to the next, the last to the first
    included, exactly one descends. Construction validates both fields once
    and derives ``sets``: the category between boundaries L and R gets the
    :class:`CircularTrapezoid` with knots ``L.position -/+ L.width/2`` and
    ``R.position -/+ R.width/2``. Immutable; every query is a pure function.
    Lookups evaluate only the categories active around a hue, found in a
    segment table derived from the knots on first use.
    """

    __match_args__ = ("names", "boundaries")

    def __init__(self, names: Iterable[str], boundaries: Iterable[BoundarySpec]) -> None:
        # Tuples keep the partition hashable and equal to one built from lists.
        names, boundaries = tuple(names), tuple(boundaries)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "boundaries", boundaries)
        n = len(boundaries)
        if n < 2:
            raise PartitionError("a partition needs at least 2 categories")
        if len(names) != n:
            raise PartitionError(
                f"got {len(names)} category names but {n} boundaries; counts must match"
            )
        if len(set(names)) != n:
            raise PartitionError("category names must be unique")
        descents = 0
        for k in range(n):
            prev, cur = boundaries[k - 1].position, boundaries[k].position
            descents += cur < prev
            if cur == prev or descents > 1:
                raise BoundaryOrderError(
                    f"boundaries[{k}].position must be strictly ascending around "
                    f"the circle, got {cur} after {prev}"
                )

        sets = []
        for i, name in enumerate(names):
            left, right = boundaries[i - 1], boundaries[i]
            gap = (right.position - left.position) % PERIOD
            core = gap - (left.width + right.width) / 2.0
            if core < -_CORE_TOL:
                raise InconsistentCoreError(name, -core)
            span = gap + (left.width + right.width) / 2.0
            if span >= PERIOD:
                raise PartitionError(
                    f"support of category {name!r} would cover the whole circle "
                    f"({span:.6g} degrees)"
                )
            a = left.position - left.width / 2.0
            b = left.position + left.width / 2.0
            c = b if core < 0.0 else right.position - right.width / 2.0
            d = right.position + right.width / 2.0
            try:
                sets.append(CircularTrapezoid(a, b, c, d))
            except ValueError as exc:
                # A zone narrower than the spacing of floats near its crossing
                # collapses a shoulder to zero width.
                raise PartitionError(f"category {name!r}: {exc}") from None
        object.__setattr__(self, "sets", tuple(sets))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown category {name!r}") from None

    def fuzzy_set(self, name: str) -> CircularTrapezoid:
        return self.sets[self.index(name)]

    def successor(self, name: str) -> str:
        return self.names[(self.index(name) + 1) % len(self.names)]

    @cached_property
    def _segments(self) -> tuple[tuple[float, ...], tuple[_Active, ...]]:
        """``(knots, active)``: the sorted unique knots of ``sets`` and, for the
        segment from ``knots[j]`` to the next knot (the last one wrapping
        through 0), the ``(index, set)`` pairs in ring order of every category
        that can be nonzero on it.

        Category i covers the segments from its ``a`` knot up to its ``d``
        knot. Each segment also takes the categories of the segment before
        it: a support computed in floats can end a few ulps past its ``d``
        knot, and a hue exactly on a knot belongs to both segments it
        separates. The ``a`` end needs no margin: for a hue short of ``a``,
        the offset from ``a`` comes out at or past the span end, or exactly 0.
        """
        knots = sorted({k for t in self.sets for k in (t.a, t.b, t.c, t.d)})
        count = len(knots)
        position = {knot: j for j, knot in enumerate(knots)}
        covered: list[set[int]] = [set() for _ in knots]
        for i, t in enumerate(self.sets):
            j, end = position[t.a], position[t.d]
            while True:
                covered[j].add(i)
                j = (j + 1) % count
                if j == end:
                    break
        active = tuple(
            tuple((i, self.sets[i]) for i in sorted(covered[j - 1] | covered[j]))
            for j in range(count)
        )
        return tuple(knots), active

    def _active(self, hue: float) -> tuple[float, _Active]:
        """``hue`` wrapped into [0, 360] and the categories active there.

        Lookups evaluate at the wrapped hue: for a hue far outside the
        circle, such as 1e20, ``hue - a`` rounds the knot ``a`` away, while
        ``hue % 360`` is exact.
        """
        wrapped = hue % PERIOD
        # NaN and both infinities leave NaN here.
        if wrapped != wrapped:
            raise ValueError(f"hue must be finite, got {hue!r}")
        knots, active = self._segments
        return wrapped, active[bisect_right(knots, wrapped) - 1]

    def memberships(self, hue: float) -> dict[str, float]:
        """All category memberships at ``hue``, in ring order.

        At most two entries are nonzero and the values sum to one. A hue
        outside [0, 360) is evaluated at its position on the circle, ``hue %
        360``; one that is NaN or infinite raises ValueError.
        """
        names = self.names
        values = dict.fromkeys(names, 0.0)
        hue, active = self._active(hue)
        for i, t in active:
            values[names[i]] = t.membership(hue)
        return values

    def category_of(self, hue: float) -> str:
        """Crisp winner at ``hue``; exact ties go to the earlier ring entry.

        Like :meth:`memberships`, it evaluates at ``hue % 360``, and a hue
        that is NaN or infinite raises ValueError.
        """
        best, winner = 0.0, 0
        hue, active = self._active(hue)
        for i, t in active:
            m = t.membership(hue)
            if m > best:
                best, winner = m, i
        return self.names[winner]

    def rotated(self, delta: float) -> HuePartition:
        """The same partition with every hue shifted by ``delta`` degrees."""
        shifted = (BoundarySpec(b.position + delta, b.width) for b in self.boundaries)
        return from_boundaries(shifted, self.names)


def from_boundaries(boundaries: Iterable[BoundarySpec], names: Iterable[str]) -> HuePartition:
    """Reconstruct a partition from its crossing positions and zone widths.

    Boundary k separates category k from k+1, the last wrapping back to the
    first; see :class:`HuePartition` for the order rule and the knots.
    """
    return HuePartition(tuple(names), tuple(boundaries))


@lru_cache(maxsize=1)
def builtin_colibri() -> HuePartition:
    """The nine-category COLIBRI hue partition with its published constants.

    Deterministic and identical across runs; the returned instance is
    immutable and shared.
    """
    specs = tuple(BoundarySpec(pos, width) for pos, width in _COLIBRI_BOUNDARIES)
    return from_boundaries(specs, RING)
