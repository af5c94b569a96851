"""Category-extent and transition-zone metrics for hue partitions.

Two measurements per category: *wideness*, the measure of its alpha-cut
(default alpha 0.5, where the cut endpoints are the category boundaries),
and the *boundary width* shared with each ring neighbor, the measure of the
overlap of their supports. Wideness has both a closed-form evaluator and an
indicator-integral one; the integral form needs no special casing for
categories split by the 0/360 seam, which is exactly why it exists.

:func:`check` verifies the partition invariants these measurements rest on.
It lives here rather than in ``partition`` because the round-trip check
compares :func:`metrics_table` against the boundaries, and this module
already imports ``partition``.
"""

from __future__ import annotations

from operator import itemgetter

from ._value import Value, _number
from .circle import PERIOD, Arc, wrap
from .partition import HuePartition

# Absolute tolerance of the invariant checks.
_CHECK_TOL = 1e-9


class AdjacencyError(ValueError):
    """The two categories are not neighbors on the ring."""


class CategoryMetrics(Value):
    """One category's row: its cut arc, extent, and neighbor overlaps."""

    __match_args__ = (
        "name", "wideness_range", "wideness", "left_boundary_width", "right_boundary_width"
    )

    def __init__(
        self,
        name: str,
        wideness_range: Arc,
        wideness: float,
        left_boundary_width: float,
        right_boundary_width: float,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "wideness_range", wideness_range)
        object.__setattr__(self, "wideness", wideness)
        object.__setattr__(self, "left_boundary_width", left_boundary_width)
        object.__setattr__(self, "right_boundary_width", right_boundary_width)


class AsymmetryReport(Value):
    """Extremes of category extent across a partition."""

    __match_args__ = ("widest", "narrowest", "ratio", "per_category")

    def __init__(
        self, widest: str, narrowest: str, ratio: float, per_category: tuple[CategoryMetrics, ...]
    ) -> None:
        object.__setattr__(self, "widest", widest)
        object.__setattr__(self, "narrowest", narrowest)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "per_category", per_category)


def wideness(partition: HuePartition, name: str, alpha: float = 0.5) -> float:
    """Measure in degrees of the category's alpha-cut (closed form)."""
    return partition.fuzzy_set(name).alpha_cut(alpha).measure


def wideness_numeric(
    partition: HuePartition, name: str, alpha: float = 0.5, step: float = 0.01
) -> float:
    """Indicator-integral form of wideness: a midpoint Riemann sum.

    The grid always covers the full circle, so wrap-around cuts need no
    special handling. Accurate to within one grid cell of the closed form.
    """
    _number("step", step, 0.01, 1)
    _number("alpha", alpha, 0, 1, open_low=True)
    t = partition.fuzzy_set(name)
    n = int(round(PERIOD / step))
    cell = PERIOD / n
    hits = sum(1 for i in range(n) if t.membership((i + 0.5) * cell) >= alpha)
    return hits * cell


def boundary_width(partition: HuePartition, name_a: str, name_b: str) -> float:
    """Total measure of the overlap of two adjacent categories' supports.

    Symmetric in its arguments. For a 2-category ring the pair shares both
    boundaries and the value covers both zones.
    """
    i = partition.index(name_a)
    j = partition.index(name_b)
    n = len(partition)
    if n == 2:
        if i == j:
            raise AdjacencyError(f"{name_a!r} is not adjacent to itself")
        first, second = min(i, j), max(i, j)
    elif (j - i) % n == 1:
        first, second = i, j
    elif (i - j) % n == 1:
        first, second = j, i
    else:
        raise AdjacencyError(f"categories {name_a!r} and {name_b!r} are not adjacent")
    pieces = partition.sets[first].support().intersect(partition.sets[second].support())
    return sum(piece.measure for piece in pieces)


def _zone_measure(partition: HuePartition, k: int) -> float:
    """Overlap of supports of ring neighbors k and k+1 at boundary k."""
    n = len(partition)
    pieces = partition.sets[k].support().intersect(partition.sets[(k + 1) % n].support())
    if len(pieces) == 1:
        return pieces[0].measure
    # 2-category ring: both zones come back; keep the one at this boundary.
    position = partition.boundaries[k].position
    for piece in pieces:
        if piece.contains(position):
            return piece.measure
    return 0.0


def metrics_table(partition: HuePartition, alpha: float = 0.5) -> list[CategoryMetrics]:
    """One row per category in ring order.

    The left boundary width of each category equals the right boundary
    width of its predecessor, by construction.
    """
    zones = [_zone_measure(partition, k) for k in range(len(partition))]
    rows = []
    for k, name in enumerate(partition.names):
        cut = partition.sets[k].alpha_cut(alpha)
        rows.append(
            CategoryMetrics(
                name=name,
                wideness_range=cut,
                wideness=cut.measure,
                left_boundary_width=zones[k - 1],
                right_boundary_width=zones[k],
            )
        )
    return rows


def asymmetry_report(partition: HuePartition) -> AsymmetryReport:
    """Widest and narrowest categories by wideness, and their ratio.

    The ratio is rounded to four significant digits. Ties resolve to the
    earlier ring entry.
    """
    rows = metrics_table(partition)
    widest = max(rows, key=lambda r: r.wideness)
    narrowest = min(rows, key=lambda r: r.wideness)
    ratio = float(f"{widest.wideness / narrowest.wideness:.4g}")
    return AsymmetryReport(
        widest=widest.name,
        narrowest=narrowest.name,
        ratio=ratio,
        per_category=tuple(rows),
    )


class Check(Value):
    """Outcome of one partition invariant check.

    ``worst`` is the checked quantity at its worst point and ``hue`` is
    where that point lies, or None when the quantity is a whole-ring total.
    """

    __match_args__ = ("name", "ok", "worst", "hue")

    def __init__(self, name: str, ok: bool, worst: float, hue: float | None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "worst", worst)
        object.__setattr__(self, "hue", hue)


def _circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % PERIOD
    return min(d, PERIOD - d)


def check(partition: HuePartition) -> list[Check]:
    """Exact checks of the partition invariants, in this order:

    - ``memberships-sum-to-one``: worst ``|sum - 1|`` of all memberships;
    - ``at-most-two-nonzero``: most memberships nonzero at one hue, where
      values within the tolerance of zero count as zero (where zones touch,
      rounding can leave a third membership of about 1e-16);
    - ``half-cuts-tile-circle``: sum of the alpha = 0.5 widenesses, which
      must be 360 (no hue);
    - ``boundaries-round-trip``: worst disagreement of :func:`metrics_table`
      with the boundaries (cut endpoints against positions, zone measure
      against width), at the boundary position concerned.

    Every membership is linear between adjacent knots of the union of all
    trapezoid knots. So the sum is one everywhere if and only if it is one
    at every knot, and the count of nonzero memberships is constant on each
    open interval between knots. Evaluating at the knots plus one midpoint
    per interval (the last one wrapping through 0) settles both exactly.
    When several hues share the worst value, the first in knot order is
    reported.
    """
    knots = sorted({knot for t in partition.sets for knot in (t.a, t.b, t.c, t.d)})
    hues = []
    for lo, hi in zip(knots, knots[1:] + knots[:1]):
        hues.append(lo)
        hues.append(wrap(lo + ((hi - lo) % PERIOD) / 2.0))
    profile = [(hue, [t.membership(hue) for t in partition.sets]) for hue in hues]
    sum_hue, deviation = max(
        ((hue, abs(sum(values) - 1.0)) for hue, values in profile), key=itemgetter(1)
    )
    count_hue, nonzero = max(
        ((hue, sum(1 for v in values if v > _CHECK_TOL)) for hue, values in profile),
        key=itemgetter(1),
    )

    rows = metrics_table(partition)
    total = sum(row.wideness for row in rows)
    errors = []
    for k, row in enumerate(rows):
        left, right = partition.boundaries[k - 1], partition.boundaries[k]
        errors += [
            (left.position, _circular_distance(row.wideness_range.start, left.position)),
            (right.position, _circular_distance(row.wideness_range.end, right.position)),
            (right.position, abs(row.right_boundary_width - right.width)),
        ]
    trip_hue, trip_error = max(errors, key=itemgetter(1))

    return [
        Check("memberships-sum-to-one", deviation < _CHECK_TOL, deviation, sum_hue),
        Check("at-most-two-nonzero", nonzero <= 2, nonzero, count_hue),
        Check("half-cuts-tile-circle", abs(total - PERIOD) < _CHECK_TOL, total, None),
        Check("boundaries-round-trip", trip_error < _CHECK_TOL, trip_error, trip_hue),
    ]
