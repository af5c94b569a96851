"""Convex piecewise-linear fuzzy sets on the hue circle."""

from __future__ import annotations

from ._value import Value, _number
from .circle import PERIOD, TOL, Arc, gap, wrap


class CircularTrapezoid(Value):
    """Trapezoidal membership function wrapped onto the hue circle.

    The four knots run in ascending circular order ``a -> b -> c -> d``: the
    support is the arc (a, d), the core is [b, c] (a single point when
    ``b == c``, which makes the shape a triangle), membership rises linearly
    0 to 1 on (a, b) and falls linearly 1 to 0 on (c, d). It is the
    reference of the partition checks and metrics. The rise is measured from
    ``a`` and the fall from ``d``, so membership is exactly 0 at ``a`` and
    ``d`` and exactly 1 at ``b`` and ``c``.

    Evaluation takes the hue's offsets after ``a`` and before ``d`` by
    :func:`~fuzzyhue.circle.gap`, and alpha-cuts unroll the knots onto the
    real line from ``a`` (total span under a full turn), so neither branches
    on the 0/360 seam.
    """

    __match_args__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        fields = self.__dict__
        for name, knot in zip(self.__match_args__, (a, b, c, d)):
            fields[name] = wrap(knot)
        rise = gap(self.a, self.b)
        plateau = gap(self.b, self.c)
        fall = gap(self.c, self.d)
        span = rise + plateau + fall
        if rise <= 0.0:
            raise ValueError("rising shoulder must have positive width (a < b)")
        if fall <= 0.0:
            raise ValueError("falling shoulder must have positive width (c < d)")
        if span >= PERIOD:
            raise ValueError(
                f"support of {span:.6g} degrees covers the whole circle; "
                "knots must run in ascending circular order with total span < 360"
            )
        fields["_rise"] = rise
        fields["_fall"] = fall
        fields["_core_end"] = rise + plateau
        fields["_span"] = span

    def membership(self, hue: float) -> float:
        """Membership degree at ``wrap(hue)``, in [0, 1]; NaN or infinite raises ValueError."""
        h = wrap(hue)
        up = gap(self.a, h)
        if up < self._rise:
            return up / self._rise
        down = gap(h, self.d)
        if down < self._fall:
            return down / self._fall
        # On the core the offsets add up to the span; off the support, a turn more.
        return 1.0 if up + down < PERIOD else 0.0

    def alpha_cut(self, alpha: float) -> Arc:
        """Closed arc where membership is at least ``alpha``.

        Endpoints come from inverting the linear shoulders, so the cut at
        0.5 lands exactly on the half-crossing hues and the cut at 1 is the
        core. A triangle's cut at 1 is its apex alone, which comes back as
        the empty arc ``Arc(b, b)`` with measure 0.
        """
        _number("alpha", alpha, 0, 1, open_low=True)
        left = self.a + alpha * self._rise
        cut = Arc(left, self.a + self._span - alpha * (self._span - self._core_end))
        # Near a triangle's apex, rounding can end the cut just before it
        # starts, which would read as nearly the whole circle.
        return Arc(left, left) if cut.measure > self._span + TOL else cut

    def core(self) -> Arc:
        """The arc [b, c]; a triangle's single-point core is the empty ``Arc(b, b)``."""
        return Arc(self.b, self.c)
