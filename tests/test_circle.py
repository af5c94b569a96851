import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyhue import Arc, builtin_colibri, wrap

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
        assert arc.rotated(delta).measure == pytest.approx(arc.measure, abs=1e-9)

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


class TestArcContains:
    def test_examples(self):
        assert Arc(340.5, 12.5).contains(0.0)
        assert not Arc(340.5, 12.5).contains(100.0)
        assert Arc(40.0, 55.5).contains(40.0)

    def test_closed_endpoints(self):
        arc = Arc(10.0, 20.0)
        assert arc.contains(10.0) and arc.contains(20.0)
        assert not arc.contains(9.999)
        assert not arc.contains(20.001)

    def test_empty_arc_contains_nothing(self):
        assert not Arc(100, 100).contains(100.0)


class TestArcIntersect:
    def test_disjoint(self):
        assert Arc(0, 90).intersect(Arc(100, 200)) == []

    def test_idempotent(self):
        assert Arc(0, 90).intersect(Arc(0, 90)) == [Arc(0, 90)]

    def test_red_magenta_supports_from_builtin(self):
        # Reconstructed supports of the two wrap-adjacent builtin categories.
        p = builtin_colibri()
        red = p.fuzzy_set("red").support()
        magenta = p.fuzzy_set("magenta").support()
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
            covered |= np.array([piece.contains(h) for h in grid])
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
