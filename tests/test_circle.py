import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyhue import Arc, builtin_colibri, wrap
from fuzzyhue.circle import gap

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestWrap:
    def test_examples(self):
        assert wrap(370.0) == 10.0
        assert wrap(-19.5) == 340.5
        assert wrap(340.5) == 340.5

    def test_upper_bound_is_exclusive(self):
        assert wrap(360.0) == 0.0
        assert wrap(-360.0) == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            wrap(bad)

    @given(finite_angles)
    def test_range_and_congruence(self, angle):
        h = wrap(angle)
        assert 0.0 <= h < 360.0
        assert abs((h - angle) % 360.0) % 360.0 < 1e-9

    @given(finite_angles)
    def test_period_identity(self, angle):
        assert wrap(angle + 360.0) == pytest.approx(wrap(angle), abs=1e-9)


class TestArcMeasure:
    def test_examples(self):
        assert Arc(40.0, 55.5).measure == 15.5
        assert Arc(340.5, 12.5).measure == 32.0
        assert Arc(100, 100).measure == 0.0

    def test_wrapping_measure_formula(self):
        a = Arc(350.0, 30.0)
        assert a.measure == pytest.approx((360.0 - 350.0) + 30.0, abs=1e-9)

    @given(
        st.floats(min_value=0, max_value=360, exclude_max=True),
        st.floats(min_value=1e-6, max_value=359.999999),
        st.floats(min_value=-720, max_value=720),
    )
    def test_rotation_invariance(self, start, measure, delta):
        # Endpoints stay resolvable; start == end is empty by convention, so
        # arcs within an ulp of empty/full are representational edge cases.
        arc = Arc(start, wrap(start + measure))
        rotated = Arc(arc.start + delta, arc.end + delta)
        assert rotated.measure == pytest.approx(arc.measure, abs=1e-9)

    @given(
        st.floats(min_value=0, max_value=360, exclude_max=True),
        st.floats(min_value=1e-6, max_value=359.999),
        st.floats(min_value=1e-9, max_value=1.0, exclude_max=True),
    )
    def test_measure_additivity_at_interior_split(self, start, measure, fraction):
        arc = Arc(start, wrap(start + measure))
        split = wrap(start + fraction * arc.measure)
        first = Arc(arc.start, split).measure
        second = Arc(split, arc.end).measure
        assert first + second == pytest.approx(arc.measure, abs=1e-9)


def on_arc(arc, hue):
    """True when ``hue`` is on the closed arc: no further along it than its end."""
    return gap(arc.start, hue) <= arc.measure


class TestGap:
    def test_examples(self):
        assert gap(40.0, 55.5) == 15.5
        assert gap(340.5, 12.5) == 32.0
        assert gap(12.5, 340.5) == 328.0
        assert gap(100.0, 100.0) == 0.0
        # Across the seam, unlike (hi - lo) % 360, which rounds at the scale
        # of 360 before the modulo.
        lo = 360.0 - 1e-8
        assert gap(lo, 1e-8) == float(Fraction(1e-8) + 360 - Fraction(lo)) != (1e-8 - lo) % 360.0

    def test_on_arc_examples(self):
        assert on_arc(Arc(340.5, 12.5), 0.0)
        assert not on_arc(Arc(340.5, 12.5), 100.0)
        assert on_arc(Arc(40.0, 55.5), 40.0)

    def test_closed_arc_endpoints(self):
        arc = Arc(10.0, 20.0)
        assert on_arc(arc, 10.0) and on_arc(arc, 20.0)
        assert not on_arc(arc, 9.999)
        assert not on_arc(arc, 20.001)

    @given(
        st.floats(min_value=0, max_value=360, exclude_max=True),
        st.floats(min_value=0, max_value=360, exclude_max=True),
    )
    def test_range_and_congruence(self, lo, hi):
        d = gap(lo, hi)
        assert 0.0 <= d <= 360.0
        assert math.remainder(lo + d - hi, 360.0) == pytest.approx(0.0, abs=1e-9)
        assert (d == 0.0) == (lo == hi)

    @given(
        st.floats(min_value=180, max_value=360, exclude_max=True),
        st.floats(min_value=0, max_value=360, exclude_max=True),
    )
    def test_rounded_once_for_lo_from_180(self, lo, hi):
        # 360 - lo is exact (Sterbenz), so the gap is the exact difference
        # rounded once.
        exact = Fraction(hi) - Fraction(lo) + (0 if hi >= lo else 360)
        assert gap(lo, hi) == float(exact)


class TestArcIntersect:
    def test_disjoint(self):
        assert Arc(0, 90).intersect(Arc(100, 200)) == []

    def test_idempotent(self):
        assert Arc(0, 90).intersect(Arc(0, 90)) == [Arc(0, 90)]

    def test_red_magenta_supports_from_builtin(self):
        # Reconstructed supports of the two wrap-adjacent builtin categories.
        p = builtin_colibri()
        red = Arc(p.fuzzy_set("red").a, p.fuzzy_set("red").d)
        magenta = Arc(p.fuzzy_set("magenta").a, p.fuzzy_set("magenta").d)
        assert red == Arc(330.0, 20.0)

        # Oracle: dense grid scan for hues where both memberships are
        # positive; the intersection arcs must cover exactly those hues.
        grid = np.arange(0.0, 360.0, 0.01)
        red_mu = np.array([p.fuzzy_set("red").membership(h) for h in grid])
        magenta_mu = np.array([p.fuzzy_set("magenta").membership(h) for h in grid])
        both = (red_mu > 0) & (magenta_mu > 0)

        pieces = red.intersect(magenta)
        covered = np.zeros(len(grid), dtype=bool)
        for piece in pieces:
            covered |= np.array([on_arc(piece, h) for h in grid])
        # Supports are open at their endpoints while arcs are closed, so the
        # covered set may exceed the positive set only at the measure-zero
        # piece endpoints.
        assert not np.any(both & ~covered)
        endpoints = {e for piece in pieces for e in (piece.start, piece.end)}
        for h in grid[covered & ~both]:
            assert any(abs(h - e) < 1e-9 for e in endpoints)

        assert pieces == [Arc(330.0, 351.0)]
        assert pieces[0].measure == pytest.approx(21.0, abs=1e-9)

    def test_wrapping_versus_plain(self):
        assert Arc(330, 20).intersect(Arc(311, 351)) == [Arc(330, 351)]

    def test_two_piece_intersection(self):
        # Both arcs wrap; overlap is disconnected.
        a = Arc(350.0, 340.0)  # everything but (340, 350)
        b = Arc(300.0, 100.0)
        pieces = a.intersect(b)
        assert len(pieces) == 2
        total = sum(piece.measure for piece in pieces)
        assert total == pytest.approx(min(a.measure, b.measure) - 10.0, abs=1e-9)

    def test_touching_endpoints_yield_nothing(self):
        assert Arc(0, 90).intersect(Arc(90, 180)) == []

    def test_measure_bounded_by_inputs(self):
        rng = random.Random(7)
        for _ in range(500):
            a = Arc(rng.uniform(0, 360), rng.uniform(0, 360))
            b = Arc(rng.uniform(0, 360), rng.uniform(0, 360))
            total = sum(p.measure for p in a.intersect(b))
            assert total <= min(a.measure, b.measure) + 1e-9

    def test_grid_oracle_equivalence_10k(self):
        # Brute-force membership on a 0.05-degree grid versus the interval
        # arithmetic, over 10,000 random arc pairs.
        rng = random.Random(20260810)
        grid = np.arange(7200) * 0.05

        def on_arc(start, measure):
            return (grid - start) % 360.0 <= measure

        for _ in range(10_000):
            a = Arc(rng.uniform(0, 360), rng.uniform(0, 360))
            b = Arc(rng.uniform(0, 360), rng.uniform(0, 360))
            expected = on_arc(a.start, a.measure) & on_arc(b.start, b.measure)
            covered = np.zeros(len(grid), dtype=bool)
            for piece in a.intersect(b):
                covered |= on_arc(piece.start, piece.measure)
            assert np.array_equal(expected, covered)
