import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhue import (
    RING,
    AdjacencyError,
    Arc,
    BoundarySpec,
    CircularTrapezoid,
    asymmetry_report,
    boundary_width,
    builtin_colibri,
    check,
    from_boundaries,
    metrics_table,
    wideness,
    wideness_numeric,
)
from fuzzyhue.circle import gap
from fuzzyhue.metrics import _zone_measure
from conftest import random_boundary_specs, ulp_ring

GOLDEN_WIDENESS = {
    "red": 32.0,
    "orange": 27.5,
    "yellow": 15.5,
    "green": 96.0,
    "cyan": 29.0,
    "lightblue": 19.0,
    "blue": 55.5,
    "violet": 45.5,
    "magenta": 40.0,
}

GOLDEN_BOUNDARY_WIDTHS = {
    ("red", "orange"): 15.0,
    ("orange", "yellow"): 12.0,
    ("yellow", "green"): 19.0,
    ("green", "cyan"): 47.0,
    ("cyan", "lightblue"): 11.0,
    ("lightblue", "blue"): 27.0,
    ("blue", "violet"): 30.0,
    ("violet", "magenta"): 45.0,
    ("magenta", "red"): 21.0,
}


def uniform_partition(n=9, width=8.0):
    specs = [BoundarySpec((i + 0.5) * 360.0 / n, width) for i in range(n)]
    return from_boundaries(specs, tuple(f"cat{i}" for i in range(n)))


class TestWideness:
    def test_published_values_exact(self, colibri):
        for name, expected in GOLDEN_WIDENESS.items():
            assert wideness(colibri, name) == pytest.approx(expected, abs=1e-9)

    def test_red_wraps(self, colibri):
        cut = colibri.fuzzy_set("red").alpha_cut(0.5)
        assert (cut.start, cut.end) == (340.5, 12.5)
        assert wideness(colibri, "red") == pytest.approx(32.0, abs=1e-9)

    def test_monotone_in_alpha(self, colibri):
        for name in RING:
            values = [wideness(colibri, name, alpha) for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_unknown_category(self, colibri):
        with pytest.raises(KeyError):
            wideness(colibri, "mauve")


class TestWidenessNumeric:
    def test_red_cross_check(self, colibri):
        assert wideness_numeric(colibri, "red", 0.5, 0.01) == pytest.approx(32.0, abs=0.02)

    def test_green_core_measure(self, colibri):
        # At alpha 1 the cut is the core; reconstruction gives green the
        # core (65, 128), measure 63.
        assert colibri.fuzzy_set("green").core().measure == 63.0
        assert wideness_numeric(colibri, "green", 1.0, 0.01) == pytest.approx(63.0, abs=0.02)

    def test_alpha_near_zero_tends_to_support(self, colibri):
        for name in ("red", "green", "yellow"):
            t = colibri.fuzzy_set(name)
            support = Arc(t.a, t.d).measure
            assert wideness_numeric(colibri, name, 1e-6, 0.01) == pytest.approx(
                support, abs=0.02
            )

    @pytest.mark.parametrize("step", [0.0, -0.01, 1.5])
    def test_step_domain(self, colibri, step):
        with pytest.raises(ValueError):
            wideness_numeric(colibri, "red", 0.5, step)

    def test_agrees_with_analytic_for_all_alphas(self, colibri):
        for name in RING:
            for alpha in (0.25, 0.5, 0.75, 1.0):
                analytic = wideness(colibri, name, alpha)
                numeric = wideness_numeric(colibri, name, alpha, 0.01)
                assert abs(analytic - numeric) < 0.02


class TestBoundaryWidth:
    def test_published_values_exact(self, colibri):
        for (a, b), expected in GOLDEN_BOUNDARY_WIDTHS.items():
            assert boundary_width(colibri, a, b) == pytest.approx(expected, abs=1e-9)

    def test_symmetry_exact(self, colibri):
        for a, b in GOLDEN_BOUNDARY_WIDTHS:
            assert boundary_width(colibri, a, b) == boundary_width(colibri, b, a)

    def test_non_adjacent_rejected(self, colibri):
        with pytest.raises(AdjacencyError):
            boundary_width(colibri, "red", "green")
        with pytest.raises(AdjacencyError):
            boundary_width(colibri, "red", "red")

    def test_is_the_metrics_table_zone(self):
        # Category c's core is -3e-10, within half the tolerance of zero. The
        # overlap is cut off the later zone, which starts at 105, so the
        # supports of a and b meet in the zone at 10 alone, with no sliver at
        # 105, and the width of c's later zone is short by the overlap.
        specs = [BoundarySpec(10.0, 4.0), BoundarySpec(100.0, 10.0),
                 BoundarySpec(109.9999999997, 10.0)]
        p = from_boundaries(specs, ("a", "b", "c"))
        rows = metrics_table(p)
        a, b = p.sets[0], p.sets[1]
        assert Arc(a.a, a.d).intersect(Arc(b.a, b.d)) == [Arc(8.0, 12.0)]
        for k, (name, after) in enumerate(zip(p.names, p.names[1:] + p.names[:1])):
            assert boundary_width(p, name, after) == rows[k].right_boundary_width
        assert boundary_width(p, "a", "b") == 4.0
        assert boundary_width(p, "c", "a") == pytest.approx(10.0 - 3e-10, abs=1e-13)
        assert all(r.ok for r in check(p))

    def test_two_category_ring_covers_both_zones(self):
        specs = [BoundarySpec(90.0, 10.0), BoundarySpec(270.0, 20.0)]
        p = from_boundaries(specs, ("warm", "cool"))
        assert boundary_width(p, "warm", "cool") == pytest.approx(30.0, abs=1e-9)
        assert boundary_width(p, "cool", "warm") == boundary_width(p, "warm", "cool")
        rows = metrics_table(p)
        assert boundary_width(p, "warm", "cool") == sum(r.right_boundary_width for r in rows)


class TestMetricsTable:
    def test_yellow_row(self, colibri):
        row = {r.name: r for r in metrics_table(colibri)}["yellow"]
        assert (row.wideness_range.start, row.wideness_range.end) == (40.0, 55.5)
        assert row.wideness == pytest.approx(15.5, abs=1e-9)
        assert row.left_boundary_width == pytest.approx(12.0, abs=1e-9)
        assert row.right_boundary_width == pytest.approx(19.0, abs=1e-9)

    def test_violet_row(self, colibri):
        row = {r.name: r for r in metrics_table(colibri)}["violet"]
        assert (row.wideness_range.start, row.wideness_range.end) == (255.0, 300.5)
        assert row.wideness == pytest.approx(45.5, abs=1e-9)
        assert row.left_boundary_width == pytest.approx(30.0, abs=1e-9)
        assert row.right_boundary_width == pytest.approx(45.0, abs=1e-9)

    def test_wideness_column_sums_to_circle(self, colibri):
        rows = metrics_table(colibri)
        assert sum(r.wideness for r in rows) == pytest.approx(360.0, abs=1e-9)

    def test_left_width_chains_to_previous_right(self, colibri):
        rows = metrics_table(colibri)
        for prev, cur in zip(rows, rows[1:] + rows[:1]):
            assert cur.left_boundary_width == prev.right_boundary_width

    def test_rows_in_ring_order(self, colibri):
        assert [r.name for r in metrics_table(colibri)] == list(RING)

    def test_two_category_table_keeps_per_boundary_widths(self):
        specs = [BoundarySpec(90.0, 10.0), BoundarySpec(270.0, 20.0)]
        p = from_boundaries(specs, ("warm", "cool"))
        rows = {r.name: r for r in metrics_table(p)}
        assert rows["warm"].right_boundary_width == pytest.approx(10.0, abs=1e-9)
        assert rows["warm"].left_boundary_width == pytest.approx(20.0, abs=1e-9)
        assert rows["cool"].right_boundary_width == pytest.approx(20.0, abs=1e-9)

    def test_two_category_ulp_wide_zone_reads_its_knot_span(self):
        # The zone at 8.607 is 5 ulps of its position wide. The supports'
        # overlap once lost it to rounding and read 0.0; the zone rule reads
        # the span between its knots, 6 ulps.
        specs = [BoundarySpec(8.60744456874241, 8.881784197001252e-15),
                 BoundarySpec(116.08431337406991, 24.99763220342407)]
        a, b = metrics_table(from_boundaries(specs, ("a", "b")))
        assert a.right_boundary_width == b.left_boundary_width == 1.0658141036401503e-14
        assert a.left_boundary_width == b.right_boundary_width == pytest.approx(24.99763220342407)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(2, 16),
        ulps=st.lists(st.sampled_from([0, 2, 3, 8, 64]), min_size=16, max_size=16),
        delta=st.floats(0.0, 360.0, exclude_max=True),
    )
    def test_zone_is_the_knot_span_at_its_boundary(self, seed, count, ulps, delta):
        # The ring turns by ``delta``; a nonzero entry of ``ulps`` then makes
        # that zone so many ulps of its position wide.
        specs = []
        for spec, k in zip(random_boundary_specs(random.Random(seed), count), ulps):
            position = (spec.position + delta) % 360.0
            specs.append(BoundarySpec(position, k * math.ulp(max(position, 1.0)) if k else spec.width))
        partition = from_boundaries(specs, tuple(f"c{i}" for i in range(count)))
        rows = metrics_table(partition)
        for k, boundary in enumerate(partition.boundaries):
            this, after = partition.sets[k], partition.sets[(k + 1) % count]
            expected = gap(after.a, this.d)
            assert rows[k].right_boundary_width == expected
            assert rows[(k + 1) % count].left_boundary_width == expected
            assert expected == pytest.approx(boundary.width, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 16))
    def test_ulp_wide_zones_are_exact_at_every_knot(self, seed, count):
        partition = ulp_ring(random.Random(seed), count)
        for t in partition.sets:
            knots = (t.a, t.b, t.c, t.d)
            assert tuple(t.membership(knot) for knot in knots) == (0.0, 1.0, 1.0, 0.0), t
        assert all(r.ok for r in check(partition))
        _, zones = partition._zones
        widths = {k: w for k, _, _, w in zones if w}
        assert [_zone_measure(partition, k) for k in range(count)] == [
            widths[k] for k in range(count)
        ]


class TestAsymmetryReport:
    def test_builtin(self, colibri):
        report = asymmetry_report(colibri)
        assert report.widest == "green"
        assert report.narrowest == "yellow"
        assert report.ratio == pytest.approx(6.194, abs=1e-3)
        assert len(report.per_category) == 9

    def test_rotation_leaves_report_unchanged(self, colibri):
        rotated = colibri.rotated(77.25)
        original = asymmetry_report(colibri)
        moved = asymmetry_report(rotated)
        assert (moved.widest, moved.narrowest, moved.ratio) == (
            original.widest,
            original.narrowest,
            original.ratio,
        )

    def test_uniform_partition_has_unit_ratio(self):
        report = asymmetry_report(uniform_partition())
        assert report.ratio == 1.0
        assert report.widest == report.narrowest


def grid_profile(partition, step=0.01):
    """Worst |sum - 1| and nonzero count over a uniform hue grid."""
    worst_sum, worst_count = 0.0, 0
    for i in range(int(round(360.0 / step))):
        values = [t.membership(i * step) for t in partition.sets]
        worst_sum = max(worst_sum, abs(sum(values) - 1.0))
        worst_count = max(worst_count, sum(1 for v in values if v > 0.0))
    return worst_sum, worst_count


@dataclass(frozen=True)
class Unchecked:
    """Partition stand-in whose sets need not follow from its boundaries.

    ``HuePartition`` derives its sets, so a broken partition for
    :func:`check` to catch has to be handed over in this shape instead.
    """

    names: tuple
    sets: tuple
    boundaries: tuple

    def __len__(self):
        return len(self.names)


def narrow_defect(kind):
    """A ring with a defect 0.005 degrees wide inside (100.002, 100.007).

    ``hole``: a falls to 0 at 100.003, b rises only from 100.006. ``spike``:
    the zone is sound but a third, triangular set peaks at 100.004. No
    0.01-degree grid point lies inside the defect.
    """
    names = ("a", "b")
    bounds = (BoundarySpec(100.0045, 0.005), BoundarySpec(0.0, 20.0))
    if kind == "hole":
        sets = (
            CircularTrapezoid(350.0, 10.0, 100.002, 100.003),
            CircularTrapezoid(100.006, 100.007, 350.0, 10.0),
        )
    else:
        sets = (
            CircularTrapezoid(350.0, 10.0, 100.002, 100.007),
            CircularTrapezoid(100.002, 100.007, 350.0, 10.0),
            CircularTrapezoid(100.003, 100.004, 100.004, 100.005),
        )
        names += ("spike",)
        bounds += (BoundarySpec(100.004, 0.002),)
    return Unchecked(names, sets, bounds), (100.002, 100.007)


class TestCheck:
    def test_builtin_passes_in_validate_order(self, colibri):
        results = check(colibri)
        assert [r.name for r in results] == [
            "memberships-sum-to-one",
            "at-most-two-nonzero",
            "half-cuts-tile-circle",
            "boundaries-round-trip",
        ]
        assert all(r.ok for r in results)

    def test_builtin_max_nonzero_is_two(self, colibri):
        nonzero = check(colibri)[1]
        assert nonzero.worst == 2
        assert sum(v > 0.0 for v in colibri.memberships(nonzero.hue).values()) == 2

    def test_tiling_reports_the_total(self, colibri):
        tiling = check(colibri)[2]
        assert tiling.worst == 360.0 and tiling.hue is None

    @pytest.mark.parametrize("kind", ["hole", "spike"])
    def test_defect_between_grid_points(self, kind):
        partition, (low, high) = narrow_defect(kind)
        grid_sum, grid_count = grid_profile(partition)
        assert grid_sum < 1e-9 and grid_count <= 2  # the grid sees nothing
        sum_check, count_check = check(partition)[:2]
        assert not sum_check.ok
        assert low < sum_check.hue < high
        assert sum_check.worst == pytest.approx(1.0)
        if kind == "spike":
            assert not count_check.ok and count_check.worst == 3
            assert low < count_check.hue < high
        else:
            assert count_check.ok

    def test_round_trip_names_the_boundary(self, colibri):
        moved = colibri.boundaries[3]
        tampered = Unchecked(
            colibri.names,
            colibri.sets,
            colibri.boundaries[:3]
            + (BoundarySpec(moved.position, moved.width + 1.0),)
            + colibri.boundaries[4:],
        )
        trip = check(tampered)[3]
        assert not trip.ok
        assert trip.worst == pytest.approx(1.0)
        assert trip.hue == moved.position

    def test_touching_zones_pass(self):
        # b's core is the single hue 14.665, and a's fall ends an ulp past it,
        # so a keeps a membership near 1e-16 next to b's 1 there: two
        # memberships above 0, counted strictly, and no third.
        specs = [BoundarySpec(4.4, 20.53), BoundarySpec(24.93, 20.53), BoundarySpec(200.0, 10.0)]
        results = check(from_boundaries(specs, ("a", "b", "c")))
        assert all(r.ok for r in results), results
        assert results[1].worst == 2

    def test_near_full_core_keeps_its_core(self):
        # a's core is 359.9999999 degrees. A rounding snap once made a a
        # triangle: a's wideness read 1e-8 and the tiling and round-trip
        # checks failed. The trapezoids of the zone that straddles 0 once
        # rounded there by about 4e-7, which failed sum-to-one.
        p = from_boundaries([BoundarySpec(0.0, 1e-8), BoundarySpec(1e-7, 1e-8)], ("a", "b"))
        a = p.fuzzy_set("a")
        knots = (a.a, a.b, a.c, a.d)
        assert a.membership(180.0) == 1.0
        assert tuple(a.membership(knot) for knot in knots) == (0.0, 1.0, 1.0, 0.0)
        results = check(p)
        assert all(r.ok for r in results), results
        assert results[0].worst == 0.0
        assert wideness(p, "a") == pytest.approx(359.9999999, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 16))
    def test_random_rings_pass(self, seed, count):
        specs = random_boundary_specs(random.Random(seed), count)
        partition = from_boundaries(specs, tuple(f"c{i}" for i in range(count)))
        results = check(partition)
        assert all(r.ok for r in results), results
        assert results[1].worst == 2
