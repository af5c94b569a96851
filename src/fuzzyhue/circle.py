"""Circular arithmetic on the 360-degree hue wheel.

Hues are plain floats normalized to [0, 360); arcs are directed circular
intervals that may wrap through 0. Everything here is a pure function of
immutable values, so the types are safe to share freely.
"""

from __future__ import annotations

import math

from ._value import Value, _shown

PERIOD = 360.0

# Absolute tolerance for angle comparisons, in degrees. Knots and cut ends
# carry rounding: a core less than half this below zero is a pair of touching
# zones, and a cut longer than its support by more than this has wrapped past a
# triangle's apex. The one other tolerance, metrics._CHECK_TOL, lets checked
# sums of rounded values miss.
TOL = 1e-9


def wrap(angle: float) -> float:
    """The angle's position on the circle, in [0, 360).

    This is ``angle % 360``, which is exact for any finite float, except that
    a tiny negative angle, which rounds up to exactly 360, gives 0. A NaN,
    an infinity or an int too large for a float raises ValueError.
    """
    try:
        h = angle % PERIOD
    except OverflowError:
        # An int too large for a float.
        h = math.nan
    # NaN and both infinities leave NaN here.
    if h != h:
        raise ValueError(f"angle must be finite, got {_shown(angle)}")
    return 0.0 if h >= PERIOD else h


def gap(lo: float, hi: float) -> float:
    """Degrees from ``lo`` ascending to ``hi``, two hues in [0, 360); at most 360.

    The one rule for a circular difference. ``(hi - lo) % 360`` rounds the
    difference at the scale of 360 before the modulo, so a gap of 1e-8
    through 0 would lose about 1e-5 of itself. Here a wrapping gap adds
    ``360 - lo``, which is exact for ``lo`` of 180 or more, so the result is
    rounded once, at its own scale.
    """
    return hi - lo if hi >= lo else hi + (PERIOD - lo)


class Arc(Value):
    """Directed circular interval from ``start`` ascending to ``end``.

    The arc runs in ascending degrees and wraps through 0 when ``end`` is
    numerically below ``start``. Both endpoints are included. ``start ==
    end`` denotes the empty arc by convention, so an arc never covers the
    full circle.
    """

    __match_args__ = ("start", "end")

    def __init__(self, start: float, end: float) -> None:
        fields = self.__dict__
        fields["start"] = wrap(start)
        fields["end"] = wrap(end)

    @property
    def measure(self) -> float:
        """Arc length in degrees, in [0, 360]."""
        return gap(self.start, self.end)

    def intersect(self, other: Arc) -> list[Arc]:
        """Set intersection with another arc, as 0, 1, or 2 arcs.

        Two arcs come back only when both inputs wrap such that the overlap
        is disconnected. Arcs that merely touch at a point share measure
        zero and yield nothing, matching the empty-arc convention.
        """
        m1 = self.measure
        m2 = other.measure
        if m1 == 0.0 or m2 == 0.0:
            return []
        # Unroll relative to self.start: self covers [0, m1] and the other
        # arc covers [t, t + m2] on one or both of two adjacent branches.
        t = gap(self.start, other.start)
        pieces = []
        for branch in (t - PERIOD, t):
            lo = max(0.0, branch)
            hi = min(m1, branch + m2)
            if hi - lo > 0.0:
                pieces.append(Arc(self.start + lo, self.start + hi))
        return pieces

    def midpoint(self) -> float:
        """Hue halfway along the arc from start to end."""
        return wrap(self.start + self.measure / 2.0)
