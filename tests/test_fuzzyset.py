import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhue import Arc, CircularTrapezoid, wrap

YELLOW = CircularTrapezoid(34.0, 46.0, 46.0, 65.0)

GRID_1K = np.arange(360_000) / 1000.0  # 0.001-degree grid


def brute_membership(t: CircularTrapezoid, hues) -> np.ndarray:
    """Independent oracle: the standard min/max trapezoid formula.

    Knots are unrolled onto the real line and each query is tried on two
    adjacent branches, taking the larger value.
    """
    a = t.a
    b1 = a + (t.b - a) % 360.0
    c1 = b1 + (t.c - t.b) % 360.0
    d1 = c1 + (t.d - t.c) % 360.0
    hues = np.asarray(hues, dtype=float)
    best = np.zeros_like(hues)
    for x in (hues, hues + 360.0):
        up = (x - a) / (b1 - a)
        down = (d1 - x) / (d1 - c1)
        val = np.minimum(np.minimum(up, 1.0), down)
        best = np.maximum(best, np.clip(val, 0.0, 1.0))
    return best


def positive_run(flags: np.ndarray, grid: np.ndarray) -> tuple[float, float]:
    """First and last grid point of the single circular run of True flags."""
    starts = np.nonzero(flags & ~np.roll(flags, 1))[0]
    ends = np.nonzero(flags & ~np.roll(flags, -1))[0]
    assert len(starts) == 1 and len(ends) == 1
    return grid[starts[0]], grid[ends[0]]


@st.composite
def trapezoids(draw):
    start = draw(st.floats(min_value=0.0, max_value=360.0, exclude_max=True))
    rise = draw(st.floats(min_value=0.5, max_value=80.0))
    plateau = draw(st.floats(min_value=0.0, max_value=80.0))
    fall = draw(st.floats(min_value=0.5, max_value=80.0))
    return CircularTrapezoid(
        wrap(start),
        wrap(start + rise),
        wrap(start + rise + plateau),
        wrap(start + rise + plateau + fall),
    )


class TestConstruction:
    def test_triangle_is_first_class(self):
        assert YELLOW.is_triangle
        assert YELLOW.core().measure == 0.0

    def test_wrapping_knots(self):
        red = CircularTrapezoid(330.0, 351.0, 5.0, 20.0)
        assert red.support() == Arc(330.0, 20.0)
        assert red.core() == Arc(351.0, 5.0)

    def test_zero_width_shoulders_rejected(self):
        with pytest.raises(ValueError, match="shoulder"):
            CircularTrapezoid(10.0, 10.0, 20.0, 30.0)
        with pytest.raises(ValueError, match="shoulder"):
            CircularTrapezoid(10.0, 20.0, 30.0, 30.0)

    def test_full_circle_support_rejected(self):
        with pytest.raises(ValueError, match="circle"):
            CircularTrapezoid(0.0, 120.0, 240.0, 0.0)


class TestMembership:
    def test_yellow_examples(self):
        assert YELLOW.membership(46.0) == 1.0
        assert YELLOW.membership(55.5) == 0.5
        assert YELLOW.membership(200.0) == 0.0

    def test_zero_exactly_at_support_endpoints(self):
        assert YELLOW.membership(34.0) == 0.0
        assert YELLOW.membership(65.0) == 0.0

    def test_callable(self):
        assert YELLOW(46.0) == 1.0

    def test_matches_brute_formula_on_grid(self, colibri):
        grid = np.arange(0.0, 360.0, 0.05)
        for t in colibri.sets:
            mine = np.array([t.membership(h) for h in grid])
            assert np.max(np.abs(mine - brute_membership(t, grid))) < 1e-12

    @given(trapezoids(), st.floats(min_value=-720, max_value=720))
    def test_wrap_equivariance(self, t, delta):
        rotated = t.rotated(delta)
        for offset in (0.1, 0.37, 0.5, 0.81):
            h = wrap(t.a + offset * ((t.d - t.a) % 360.0))
            assert rotated.membership(wrap(h + delta)) == pytest.approx(
                t.membership(h), abs=1e-12
            )

    @given(trapezoids(), st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
    def test_shoulder_linearity(self, t, u):
        rise = (t.b - t.a) % 360.0
        fall = (t.d - t.c) % 360.0
        up = wrap(t.a + u * rise)
        down = wrap(t.c + u * fall)
        assert t.membership(up) == pytest.approx(u, abs=1e-12)
        assert t.membership(down) == pytest.approx(1.0 - u, abs=1e-12)


class TestAlphaCut:
    def test_yellow_half_cut_is_published_range(self):
        assert YELLOW.alpha_cut(0.5) == Arc(40.0, 55.5)

    def test_green_half_cut(self):
        green = CircularTrapezoid(46.0, 65.0, 128.0, 175.0)
        assert green.alpha_cut(0.5) == Arc(55.5, 151.5)

    def test_triangle_cut_at_one_is_the_empty_arc(self):
        t = CircularTrapezoid(0.0, 1.0, 1.0, 2.0)
        cut = t.alpha_cut(1.0)
        assert cut == Arc(1.0, 1.0) == t.core()
        assert cut.measure == 0.0
        assert not cut.contains(1.0)

    def test_cut_at_one_is_core(self):
        green = CircularTrapezoid(46.0, 65.0, 128.0, 175.0)
        assert green.alpha_cut(1.0) == green.core()
        assert YELLOW.alpha_cut(1.0) == YELLOW.core()

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0001, 2.0])
    def test_domain_errors(self, alpha):
        with pytest.raises(ValueError):
            YELLOW.alpha_cut(alpha)

    @given(
        trapezoids(),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_monotone_cuts(self, t, alpha1, alpha2):
        lo, hi = sorted((alpha1, alpha2))
        outer = t.alpha_cut(lo)
        inner = t.alpha_cut(hi)
        assert inner.measure <= outer.measure + 1e-9
        if outer.measure == 0.0:
            # Only a triangle's cut at 1 is empty, so the inner cut is too.
            assert inner.measure == 0.0
        else:
            assert outer.contains(inner.start)
            assert outer.contains(inner.end)

    @settings(max_examples=25, deadline=None)
    @given(trapezoids(), st.floats(min_value=0.05, max_value=1.0))
    def test_cut_measure_formula_and_grid_sum(self, t, alpha):
        rise = (t.b - t.a) % 360.0
        fall = (t.d - t.c) % 360.0
        expected = t.core().measure + (1.0 - alpha) * (rise + fall)
        measured = t.alpha_cut(alpha).measure
        assert measured == pytest.approx(expected, abs=1e-9)
        grid = np.arange(36_000) / 100.0
        indicator = brute_membership(t, grid) >= alpha
        assert abs(indicator.sum() * 0.01 - measured) < 0.02


class TestSupportAndCore:
    def test_supports_match_grid_oracle(self, colibri):
        expected = {
            "yellow": Arc(34.0, 65.0),
            "red": Arc(330.0, 20.0),
            "green": Arc(46.0, 175.0),
        }
        for name, frozen in expected.items():
            t = colibri.fuzzy_set(name)
            lo, hi = positive_run(brute_membership(t, GRID_1K) > 0.0, GRID_1K)
            # Support endpoints themselves have membership 0, so the first
            # positive grid point sits one cell inside each end.
            assert Arc(lo, hi).measure == pytest.approx(
                t.support().measure - 0.002, abs=1e-6
            )
            assert (lo - t.support().start) % 360.0 == pytest.approx(0.001, abs=1e-6)
            assert t.support() == frozen

    def test_cores_match_grid_oracle(self, colibri):
        expected = {
            "green": Arc(65.0, 128.0),
            "yellow": Arc(46.0, 46.0),
            "blue": Arc(213.0, 240.0),
        }
        for name, frozen in expected.items():
            t = colibri.fuzzy_set(name)
            lo, hi = positive_run(brute_membership(t, GRID_1K) >= 1.0 - 1e-12, GRID_1K)
            assert (lo - t.core().start) % 360.0 == pytest.approx(0.0, abs=1e-6)
            assert (t.core().end - hi) % 360.0 == pytest.approx(0.0, abs=1e-6)
            assert t.core() == frozen
        assert colibri.fuzzy_set("yellow").core().measure == 0.0
