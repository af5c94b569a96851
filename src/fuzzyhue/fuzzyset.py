"""Convex piecewise-linear fuzzy sets on the hue circle."""

from __future__ import annotations

from ._value import Value, _number
from .circle import PERIOD, Arc, wrap

# Segment offsets this close to a full turn are knots that coincide up to
# rounding (e.g. a core computed as b - c = -1e-16); treat them as zero.
_SNAP = 1e-6


class CircularTrapezoid(Value):
    """Trapezoidal membership function wrapped onto the hue circle.

    The four knots run in ascending circular order ``a -> b -> c -> d``: the
    support is the arc (a, d), the core is [b, c] (a single point when
    ``b == c``, which makes the shape a triangle), membership rises linearly
    0 to 1 on (a, b) and falls linearly 1 to 0 on (c, d). Membership is
    exactly 0 at and outside the support endpoints and exactly 1 on the core.

    Internally the knots are unrolled onto the real line (offsets from ``a``
    along the ascending direction, total span under a full turn), so
    evaluation and alpha-cuts never branch on the 0/360 seam.
    """

    __match_args__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        for name, knot in zip(self.__match_args__, (a, b, c, d)):
            object.__setattr__(self, name, wrap(knot))
        rise = self._segment(self.a, self.b)
        plateau = self._segment(self.b, self.c)
        fall = self._segment(self.c, self.d)
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
        object.__setattr__(self, "_rise", rise)
        object.__setattr__(self, "_core_end", rise + plateau)
        object.__setattr__(self, "_span", span)

    @staticmethod
    def _segment(lo: float, hi: float) -> float:
        m = (hi - lo) % PERIOD
        return 0.0 if m > PERIOD - _SNAP else m

    @property
    def is_triangle(self) -> bool:
        return self._core_end == self._rise

    def membership(self, hue: float) -> float:
        """Membership degree of ``hue``, in [0, 1]; NaN or infinite raises ValueError."""
        rel = (hue - self.a) % PERIOD
        if rel <= 0.0 or rel >= self._span:
            return 0.0
        if rel < self._rise:
            return rel / self._rise
        if rel <= self._core_end:
            return 1.0
        if rel < self._span:
            return (self._span - rel) / (self._span - self._core_end)
        # Only NaN, left by a NaN or infinite hue, fails every test above.
        raise ValueError(f"hue must be finite, got {hue!r}")

    __call__ = membership

    def alpha_cut(self, alpha: float) -> Arc:
        """Closed arc where membership is at least ``alpha``.

        Endpoints come from inverting the linear shoulders, so the cut at
        0.5 lands exactly on the half-crossing hues and the cut at 1 is the
        core. A triangle's cut at 1 is its apex alone, which comes back as
        the empty arc ``Arc(b, b)`` with measure 0.
        """
        _number("alpha", alpha, 0, 1, open_low=True)
        left = self.a + alpha * self._rise
        right = self.a + self._span - alpha * (self._span - self._core_end)
        return Arc(left, right)

    def support(self) -> Arc:
        return Arc(self.a, self.d)

    def core(self) -> Arc:
        """The arc [b, c]; a triangle's single-point core is the empty ``Arc(b, b)``."""
        return Arc(self.b, self.c)

    def rotated(self, delta: float) -> CircularTrapezoid:
        return CircularTrapezoid(self.a + delta, self.b + delta, self.c + delta, self.d + delta)
