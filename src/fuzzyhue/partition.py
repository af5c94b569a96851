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
from functools import lru_cache
from typing import Iterable

from ._value import Value, _number
from .circle import PERIOD, TOL, gap, wrap
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
        fields = self.__dict__
        fields["position"] = wrap(position)
        fields["width"] = _number("transition width", width, 0, 360, open_low=True, open_high=True)


class HuePartition(Value):
    """Ordered ring of named categories, built from its boundary list.

    ``boundaries[k]`` separates ``names[k]`` from its ring successor, the last
    wrapping back to the first. Positions ascend around the circle from any
    start: of the steps from each position to the next, the last to the first
    included, exactly one descends. Construction validates both fields once
    and derives ``sets``: the category between boundaries L and R gets the
    :class:`CircularTrapezoid` with knots ``L.position -/+ L.width/2`` and
    ``R.position -/+ R.width/2``; a zone that would start less than
    ``TOL / 2`` before the previous one ends starts where it ends instead.
    Immutable; every query is a pure function.
    The trapezoids are the reference for :func:`~fuzzyhue.metrics.check` and
    the metrics. Lookups read a zone table, built with them from the same
    knots: inside boundary k's zone the membership moves linearly from
    category k to k+1, and outside every zone one category has membership 1.
    The table also holds the piece that wraps through 0 first, with its
    start one turn down, so no lookup tests for the seam. A pickle holds the
    two fields alone, and loading one rebuilds the rest.
    """

    __match_args__ = ("names", "boundaries")

    def __init__(self, names: Iterable[str], boundaries: Iterable[BoundarySpec]) -> None:
        # Tuples keep the partition hashable and equal to one built from lists.
        names, boundaries = tuple(names), tuple(boundaries)
        fields = self.__dict__
        fields["names"] = names
        fields["boundaries"] = boundaries
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

        # Zone k runs from cs[k] to ds[k], around boundaries[k], and the core
        # of category k is the arc from ds[k - 1] to cs[k]. The zone table
        # cuts the circle into those cores and zones. On the piece
        # (k, j, lo, w), category k has 1 - t and its successor j has
        # t = gap(lo, hue) / w, bitwise the rise of j's trapezoid; a core has
        # w == 0 and t 0.
        ds = [wrap(b.position + b.width / 2.0) for b in boundaries]
        cs = []
        pieces = []
        for i, name in enumerate(names):
            left, right = boundaries[i - 1], boundaries[i]
            spacing = gap(left.position, right.position)
            core = spacing - (left.width + right.width) / 2.0
            # Half the tolerance: the overlap is cut off the later zone below,
            # and check() must still find that zone's width within TOL.
            if core < -TOL / 2.0:
                raise InconsistentCoreError(name, -core)
            span = spacing + (left.width + right.width) / 2.0
            if span >= PERIOD:
                raise PartitionError(
                    f"support of category {name!r} would cover the whole circle "
                    f"({span:.6g} degrees)"
                )
            # Where the zones around the core touch or overlap within the
            # tolerance, the rounded c can land just before b, whatever the
            # sign of the core formula, and the arc then differs from it by
            # nearly a turn: there is no core, and the earlier zone keeps the
            # overlap, so the later one starts at b.
            b, c = ds[i - 1], wrap(right.position - right.width / 2.0)
            j = (i + 1) % n
            if c != b and abs(gap(b, c) - core) < PERIOD / 2.0:
                pieces.append((b, (i, j, 0.0, 0.0)))
            else:
                c = b
            cs.append(c)
            pieces.append((c, (i, j, c, gap(c, ds[i]))))
        sets = []
        for i, name in enumerate(names):
            try:
                sets.append(CircularTrapezoid(cs[i - 1], ds[i - 1], cs[i], ds[i]))
            except ValueError as exc:
                # A zone narrower than the spacing of floats near its crossing
                # collapses a shoulder to zero width, and one narrower than the
                # overlap cut off its start ends before it starts.
                raise PartitionError(f"category {name!r}: {exc}") from None
        fields["sets"] = tuple(sets)
        # Every piece is nonempty and the pieces go once round the circle,
        # so the starts are distinct. zones[i] starts at starts[i - 1], and
        # zones[0], for a hue below every start, is the last piece, which
        # wraps through 0, with its start one turn down.
        starts, zones = zip(*sorted(pieces))
        k, j, lo, w = zones[-1]
        fields["_zones"] = (starts, ((k, j, lo - PERIOD, w),) + zones)
        # Membership 0.0 for every name: a template that lookups copy and
        # never hand out.
        fields["_zeros"] = dict.fromkeys(names, 0.0)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown category {name!r}") from None

    def fuzzy_set(self, name: str) -> CircularTrapezoid:
        return self.sets[self.index(name)]

    def _split(self, hue: float) -> tuple[int, int, float]:
        """``(k, j, t)`` at ``hue``: category k has membership ``1 - t``, its
        ring successor j has ``t``, and every other category has 0.

        Lookups evaluate at ``wrap(hue)``: for a hue far outside the circle,
        such as 1e20, ``hue - lo`` rounds ``lo`` away, while the wrapped hue
        is exact. ``t`` is ``(wrapped - lo) / w``, bitwise
        ``gap(lo, wrapped) / w``: the piece read never starts past the hue, as
        the one that wraps through 0 is also held with ``lo`` one turn down,
        and ``wrapped - (lo - 360)`` rounds as ``wrapped + (360 - lo)``.
        """
        wrapped = wrap(hue)
        starts, zones = self._zones
        k, j, lo, w = zones[bisect_right(starts, wrapped)]
        return k, j, (wrapped - lo) / w if w else 0.0

    def memberships(self, hue: float) -> dict[str, float]:
        """All category memberships at ``hue``, in ring order.

        At most two entries are nonzero and the values sum to exactly one:
        in binary64, ``t + (1 - t) == 1`` for every ``t`` in [0, 1]. A hue
        outside [0, 360) is evaluated at its position on the circle,
        ``wrap(hue)``; one that is NaN or infinite raises ValueError.
        """
        names = self.names
        k, j, t = self._split(hue)
        values = self._zeros.copy()
        values[names[j]] = t
        values[names[k]] = 1.0 - t
        return values

    def category_of(self, hue: float) -> str:
        """Crisp winner at ``hue``; an exact tie goes to the lower ring index.

        On the zone that wraps from the last category to the first, that is
        the first. Like :meth:`memberships`, it evaluates at ``wrap(hue)``,
        and a hue that is NaN or infinite raises ValueError.
        """
        k, j, t = self._split(hue)
        # t > 0.5 exactly when t > 1 - t.
        return self.names[j if t > 0.5 or (t == 0.5 and j < k) else k]

    def rotated(self, delta: float) -> HuePartition:
        """The same partition with every hue shifted by ``delta`` degrees."""
        # An int too large for a float is refused here, not by the sums.
        wrap(delta)
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
