import inspect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhue import (
    RING,
    Arc,
    BoundaryOrderError,
    BoundarySpec,
    CircularTrapezoid,
    HuePartition,
    InconsistentCoreError,
    PartitionError,
    builtin_colibri,
    check,
    from_boundaries,
    metrics_table,
    wideness,
    wrap,
)
from fuzzyhue.circle import TOL, gap
from fuzzyhue.metrics import _zone_measure
from conftest import fall_tolerance, random_boundary_specs, ulp_ring, zone_rule

GOLDEN_METRICS = {
    # name: (alpha=0.5 range start, range end, wideness, left width, right width)
    "red": (340.5, 12.5, 32.0, 21.0, 15.0),
    "orange": (12.5, 40.0, 27.5, 15.0, 12.0),
    "yellow": (40.0, 55.5, 15.5, 12.0, 19.0),
    "green": (55.5, 151.5, 96.0, 19.0, 47.0),
    "cyan": (151.5, 180.5, 29.0, 47.0, 11.0),
    "lightblue": (180.5, 199.5, 19.0, 11.0, 27.0),
    "blue": (199.5, 255.0, 55.5, 27.0, 30.0),
    "violet": (255.0, 300.5, 45.5, 30.0, 45.0),
    "magenta": (300.5, 340.5, 40.0, 45.0, 21.0),
}


def golden_specs():
    positions = sorted((row[1], name) for name, row in GOLDEN_METRICS.items())
    # Boundary k carries the right width of the category it closes.
    return [BoundarySpec(pos, GOLDEN_METRICS[name][4]) for pos, name in positions]


class TestFromBoundaries:
    def test_yellow_knots_collapse_to_triangle(self):
        p = from_boundaries(golden_specs(), RING)
        t = p.fuzzy_set("yellow")
        assert (t.a, t.b, t.c, t.d) == (34.0, 46.0, 46.0, 65.0)
        assert t.b == t.c

    def test_green_knots(self):
        p = from_boundaries(golden_specs(), RING)
        t = p.fuzzy_set("green")
        assert (t.a, t.b, t.c, t.d) == (46.0, 65.0, 128.0, 175.0)

    def test_red_knots_wrap(self):
        p = from_boundaries(golden_specs(), RING)
        t = p.fuzzy_set("red")
        assert (t.a, t.b, t.c, t.d) == (330.0, 351.0, 5.0, 20.0)

    def test_negative_core_names_category(self):
        specs = [BoundarySpec(10.0, 15.0), BoundarySpec(20.0, 15.0), BoundarySpec(200.0, 5.0)]
        with pytest.raises(InconsistentCoreError, match="'b'") as err:
            from_boundaries(specs, ("a", "b", "c"))
        assert err.value.category == "b"

    def test_non_ascending_positions(self):
        specs = [BoundarySpec(10.0, 2.0), BoundarySpec(5.0, 2.0), BoundarySpec(200.0, 2.0)]
        with pytest.raises(BoundaryOrderError):
            from_boundaries(specs, ("a", "b", "c"))

    def test_count_mismatch_and_duplicates(self):
        specs = [BoundarySpec(10.0, 2.0), BoundarySpec(50.0, 2.0)]
        with pytest.raises(PartitionError):
            from_boundaries(specs, ("a", "b", "c"))
        with pytest.raises(PartitionError):
            from_boundaries(specs, ("a", "a"))
        with pytest.raises(PartitionError):
            from_boundaries(specs[:1], ("a",))

    def test_duplicate_positions(self):
        with pytest.raises(BoundaryOrderError, match="got 10.0 after 10.0"):
            from_boundaries([BoundarySpec(10.0, 2.0)] * 2, ("a", "b"))
        specs = [BoundarySpec(10.0, 2.0), BoundarySpec(10.0, 2.0), BoundarySpec(200.0, 2.0)]
        with pytest.raises(BoundaryOrderError, match="ascending"):
            from_boundaries(specs, ("a", "b", "c"))

    def test_positions_may_start_anywhere(self, colibri):
        for start in range(len(RING)):
            names = RING[start:] + RING[:start]
            p = from_boundaries(colibri.boundaries[start:] + colibri.boundaries[:start], names)
            for name in RING:
                assert p.fuzzy_set(name) == colibri.fuzzy_set(name)

    def test_exactly_touching_zones_yield_triangle(self):
        # Two boundaries 10 degrees apart with widths adding to exactly 20.
        specs = [BoundarySpec(30.0, 8.0), BoundarySpec(40.0, 12.0), BoundarySpec(300.0, 10.0)]
        p = from_boundaries(specs, ("a", "b", "c"))
        t = p.fuzzy_set("b")
        assert t.b == t.c


class TestBuiltin:
    def test_cached_instance(self):
        assert builtin_colibri() is builtin_colibri()

    def test_ring_order(self, colibri):
        assert colibri.names == RING

    def test_spot_wideness_values(self, colibri):
        assert wideness(colibri, "yellow") == pytest.approx(15.5, abs=1e-9)
        assert wideness(colibri, "green") == pytest.approx(96.0, abs=1e-9)

    def test_equals_reconstruction_from_table(self, colibri):
        p = from_boundaries(golden_specs(), RING)
        assert p == colibri


class TestMemberships:
    def test_half_crossing_at_published_boundary(self, colibri):
        v = colibri.memberships(40.0)
        assert v["orange"] == 0.5 and v["yellow"] == 0.5
        assert sum(v.values()) == pytest.approx(1.0, abs=1e-12)

    def test_core_point(self, colibri):
        v = colibri.memberships(100.0)
        assert v["green"] == 1.0
        assert all(value == 0.0 for name, value in v.items() if name != "green")

    def test_shoulder_split(self, colibri):
        v = colibri.memberships(50.0)
        assert v["yellow"] == pytest.approx(15.0 / 19.0, abs=1e-12)
        assert v["green"] == pytest.approx(4.0 / 19.0, abs=1e-12)
        assert sum(v.values()) == pytest.approx(1.0, abs=1e-12)

    def test_vector_is_ring_ordered(self, colibri):
        assert tuple(colibri.memberships(0.0)) == RING


class TestCategoryOf:
    def test_examples(self, colibri):
        assert colibri.category_of(100.0) == "green"
        assert colibri.category_of(0.0) == "red"

    def test_tie_breaks_to_earlier_ring_entry(self, colibri):
        assert colibri.category_of(40.0) == "orange"  # orange/yellow 0.5 tie
        assert colibri.category_of(12.5) == "red"  # red/orange 0.5 tie
        assert colibri.category_of(340.5) == "red"  # magenta/red wrap tie


class TestPartitionInvariants:
    def test_ruspini_and_support_count_on_grid(self, colibri):
        worst = 0.0
        for i in range(36_000):
            hue = i * 0.01
            values = [t.membership(hue) for t in colibri.sets]
            worst = max(worst, abs(sum(values) - 1.0))
            assert sum(1 for v in values if v > 0.0) <= 2
        assert worst < 1e-9

    def test_half_cuts_tile_circle(self, colibri):
        assert sum(wideness(colibri, name) for name in RING) == pytest.approx(
            360.0, abs=1e-9
        )

    def test_adjacent_supports_overlap_in_published_width(self, colibri):
        for k, name in enumerate(RING):
            succ = RING[(k + 1) % len(RING)]
            this, after = colibri.fuzzy_set(name), colibri.fuzzy_set(succ)
            pieces = Arc(this.a, this.d).intersect(Arc(after.a, after.d))
            assert len(pieces) == 1
            assert pieces[0].measure == pytest.approx(
                colibri.boundaries[k].width, abs=1e-9
            )

    def test_round_trip_reproduces_specs(self, colibri):
        rows = metrics_table(colibri)
        for k, row in enumerate(rows):
            assert row.wideness_range.end == pytest.approx(
                colibri.boundaries[k].position, abs=1e-9
            )
            assert row.right_boundary_width == pytest.approx(
                colibri.boundaries[k].width, abs=1e-9
            )

    def test_random_round_trip(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(3, 12)
            specs = random_boundary_specs(rng, n)
            names = tuple(f"cat{i}" for i in range(n))
            p = from_boundaries(specs, names)
            rows = metrics_table(p)
            for k, row in enumerate(rows):
                assert _circ_err(row.wideness_range.start, specs[k - 1].position) < 1e-9
                assert _circ_err(row.wideness_range.end, specs[k].position) < 1e-9
                assert abs(row.right_boundary_width - specs[k].width) < 1e-9

    def test_rotation_equivariance(self, colibri):
        for delta in (17.0, 123.456, 359.0, -45.5):
            rotated = colibri.rotated(delta)
            for name in RING:
                t = colibri.fuzzy_set(name)
                r = rotated.fuzzy_set(name)
                assert _circ_err(r.a, wrap(t.a + delta)) < 1e-9
                assert wideness(rotated, name) == pytest.approx(
                    wideness(colibri, name), abs=1e-9
                )
            for original, moved in zip(colibri.boundaries, rotated.boundaries):
                assert moved.width == original.width
                assert _circ_err(moved.position, wrap(original.position + delta)) < 1e-9


def scan_memberships(partition, hue):
    """Every set of the partition evaluated at ``hue``, in ring order."""
    return [t.membership(hue) for t in partition.sets]


def probe_hues(partition, rng):
    """Random hues, every knot and up to 4 ulps either side, and all of them
    shifted by whole turns."""
    knots = {k for t in partition.sets for k in (t.a, t.b, t.c, t.d)}
    hues = [rng.uniform(0.0, 360.0) for _ in range(100)]
    for knot in knots:
        hues.append(knot)
        for direction in (-math.inf, math.inf):
            hue = knot
            for _ in range(4):
                hue = math.nextafter(hue, direction)
                hues.append(hue)
    shifted = [hue + turns * 360.0 for hue in hues for turns in (-2, -1, 1, 2)]
    return hues + shifted + [-0.0, -5e-324, -1e-300, 360.0, 720.0]


def assert_matches_scan(partition, hues, fall_tol):
    """Lookups follow the zone rule at ``wrap(hue)`` and stay close to the
    full trapezoid scan.

    The values are bitwise :func:`zone_rule`'s; they sum to exactly 1 with at
    most two nonzero, and the crisp winner is the first of the largest. The
    rising category's value is bitwise its trapezoid's. Every other value is
    within ``fall_tol`` of its trapezoid's: the falling trapezoid measures
    from its own ``d`` knot and the zone rule from the zone's start, so their
    rounding differs.
    """
    for hue in hues:
        values = partition.memberships(hue)
        assert tuple(values) == partition.names
        got = list(values.values())
        expected, rising = zone_rule(partition, hue)
        assert [v.hex() for v in got] == [v.hex() for v in expected], hue
        assert sum(got) == 1.0 and sum(1 for v in got if v) <= 2, hue
        assert partition.category_of(hue) == partition.names[got.index(max(got))], hue
        scan = scan_memberships(partition, hue % 360.0)
        for i, (value, reference) in enumerate(zip(got, scan)):
            if i == rising:
                assert value.hex() == reference.hex(), hue
            else:
                assert abs(value - reference) <= fall_tol, (hue, i)


class TestSegmentTable:
    def test_builtin_matches_scan(self, colibri):
        assert_matches_scan(colibri, probe_hues(colibri, random.Random(3)), 2 * math.ulp(1.0))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 16))
    def test_random_rings_match_scan(self, seed, count):
        rng = random.Random(seed)
        p = from_boundaries(random_boundary_specs(rng, count), [f"c{i}" for i in range(count)])
        assert_matches_scan(p, probe_hues(p, rng), fall_tolerance(p))

    @pytest.mark.parametrize(
        "hue, pair", [(12.5, ("red", "orange")), (40.0, ("orange", "yellow")),
                      (340.5, ("magenta", "red"))]
    )
    def test_exact_ties(self, colibri, hue, pair):
        values = colibri.memberships(hue)
        assert (values[pair[0]], values[pair[1]]) == (0.5, 0.5)
        assert_matches_scan(colibri, [hue], 2 * math.ulp(1.0))
        assert colibri.category_of(hue) == min(pair, key=colibri.index)

    def test_built_at_construction_without_evaluations(self, monkeypatch):
        def refuse(self, hue):
            raise AssertionError("the table must not evaluate memberships")

        monkeypatch.setattr(CircularTrapezoid, "membership", refuse)
        p = from_boundaries(golden_specs(), RING)
        assert "_zones" in vars(p)
        starts, zones = p._zones
        # Nine zones and a core for each of the six categories that have one.
        assert len(starts) == len(zones) == 15
        assert list(starts) == sorted(set(starts))

    @pytest.mark.parametrize("hue", [math.nan, math.inf, -math.inf])
    def test_non_finite_hue_refused(self, colibri, hue):
        with pytest.raises(ValueError, match="finite"):
            colibri.memberships(hue)
        with pytest.raises(ValueError, match="finite"):
            colibri.category_of(hue)

    def test_large_hue_keeps_its_position(self, colibri):
        # 1e20 % 360 is exactly 280, inside violet; evaluating at the
        # unwrapped hue gave nine zeros and the crisp label red.
        assert colibri.memberships(1e20) == colibri.memberships(280.0)
        assert colibri.category_of(1e20) == "violet"

    @settings(max_examples=300, deadline=None)
    @given(hue=st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))
    def test_finite_hues_sum_to_one(self, hue):
        colibri = builtin_colibri()
        values = colibri.memberships(hue)
        assert sum(values.values()) == math.fsum(values.values()) == 1.0
        assert values == colibri.memberships(hue % 360.0)
        assert colibri.category_of(hue) == colibri.category_of(hue % 360.0)


def touching_ring(rng, count):
    """A random ring in which some categories have a core of 0 or within the
    tolerance of 0, either side: their zones touch or overlap by a sliver."""
    specs = random_boundary_specs(rng, count)
    names = [f"c{i}" for i in range(count)]
    for i in rng.sample(range(count), rng.randint(1, count)):
        left, right = specs[i - 1], specs[i]
        gap = (right.position - left.position) % 360.0
        core = rng.choice([0.0, 1e-10, -1e-10, -9e-10, -1e-15])
        width = 2.0 * (gap - core) - left.width
        try:
            trial = specs[:i] + [BoundarySpec(right.position, width)] + specs[i + 1:]
            from_boundaries(trial, names)
        except (PartitionError, ValueError):
            continue
        specs = trial
    return from_boundaries(specs, names)


def zone_knots(partition):
    """Every zone's start and end, and the midpoint between them."""
    hues = []
    for b in partition.boundaries:
        lo, hi = wrap(b.position - b.width / 2.0), wrap(b.position + b.width / 2.0)
        hues += [lo, hi, wrap(lo + ((hi - lo) % 360.0) / 2.0)]
    return hues


def assert_sums_to_one(partition, hue):
    values = list(partition.memberships(hue).values())
    assert sum(values) == 1.0 and math.fsum(values) == 1.0, hue
    assert sum(1 for v in values if v) <= 2, hue
    assert all(0.0 <= v <= 1.0 for v in values), hue
    return values


class TestZoneRule:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 16))
    def test_ulp_wide_zones_sum_to_one_and_are_exact_at_the_knots(self, seed, count):
        p = ulp_ring(random.Random(seed), count)
        hues = zone_knots(p)
        for index, hue in enumerate(hues):
            values = assert_sums_to_one(p, hue)
            if index % 3 != 2:
                assert set(values) <= {0.0, 1.0}, hue

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 16))
    def test_touching_and_overlapping_zones_sum_to_one(self, seed, count):
        rng = random.Random(seed)
        p = touching_ring(rng, count)
        starts, _ = p._zones
        assert list(starts) == sorted(set(starts))
        for hue in probe_hues(p, rng) + zone_knots(p):
            assert_sums_to_one(p, hue)

    def test_near_full_core(self):
        # Category a's core is 359.9999999 degrees, which a rounding snap of
        # the trapezoid once took for zero: its memberships were all 0 at 180.
        p = from_boundaries([BoundarySpec(0.0, 1e-8), BoundarySpec(1e-7, 1e-8)], ("a", "b"))
        assert p.memberships(180.0) == {"a": 1.0, "b": 0.0}
        assert p.category_of(180.0) == "a"
        for hue in zone_knots(p):
            assert_sums_to_one(p, hue)

    def test_ulp_wide_zone(self):
        # A zone of 5 ulps: both memberships were 0.0 at its start.
        p = from_boundaries(
            [BoundarySpec(8.60744456874241, 8.881784197001252e-15),
             BoundarySpec(116.08431337406991, 24.99763220342407)],
            ("a", "b"),
        )
        assert p.memberships(8.607444568742405) == {"a": 1.0, "b": 0.0}
        for index, hue in enumerate(zone_knots(p)):
            values = assert_sums_to_one(p, hue)
            if index % 3 != 2:
                assert set(values) <= {0.0, 1.0}, hue

    def test_overlap_within_tolerance_belongs_to_the_earlier_zone(self):
        # b's core is -3e-10: zone 1 would start at 11.9999999997, before zone
        # 0 ends at 12. Zone 0 keeps the sliver, and zone 1 starts at 12 in
        # c's trapezoid as in the lookups.
        specs = [BoundarySpec(10.0, 4.0), BoundarySpec(14.9999999997, 6.0),
                 BoundarySpec(200.0, 10.0)]
        p = from_boundaries(specs, ("a", "b", "c"))
        b, c = p.fuzzy_set("b"), p.fuzzy_set("c")
        assert b.c == b.b == c.a == 12.0
        for hue in (11.9999999997, 11.99999999985, math.nextafter(12.0, 0.0)):
            values = p.memberships(hue)
            assert values["c"] == 0.0 and values["a"] > 0.0
            assert_sums_to_one(p, hue)
        assert p.memberships(12.0) == {"a": 0.0, "b": 1.0, "c": 0.0}
        assert all(r.ok for r in check(p))


def seam_ring(rng, count):
    """A random ring (positive cores) whose boundaries all lie within 1e-7 to
    1e-2 degrees of 0, either side: one category holds nearly the whole
    circle, and narrow zones straddle the seam."""
    scale = 10.0 ** rng.uniform(-7.0, -2.0)
    while True:
        positions = sorted(rng.uniform(-scale, scale) for _ in range(count))
        gaps = [hi - lo for lo, hi in zip(positions, positions[1:])]
        gaps.append(360.0 - (positions[-1] - positions[0]))
        if min(gaps) > 1e-3 * scale:
            break
    widths = [rng.uniform(0.05, 0.9) * min(gaps[k - 1], gaps[k]) for k in range(count)]
    specs = [BoundarySpec(p, w) for p, w in zip(positions, widths)]
    return from_boundaries(specs, [f"c{i}" for i in range(count)])


class TestSeamRings:
    # Every circular difference goes through circle.gap. As (hi - lo) % 360,
    # it rounded at the scale of 360, so the trapezoids of these rings
    # missed sum-to-one by up to about 4e-7.
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 16))
    def test_check_passes_and_lookups_match_the_trapezoids(self, seed, count):
        rng = random.Random(seed)
        p = seam_ring(rng, count)
        results = check(p)
        assert all(r.ok for r in results), results
        assert_matches_scan(p, probe_hues(p, rng) + zone_knots(p), 2 * math.ulp(1.0))


def sub_tol_ring(rng, count):
    """A random ring in which some categories have a core between -TOL and
    0 between zones 1e-10 to 1e-7 degrees wide: the zones around them
    overlap by a sliver within the tolerance that can be most of a zone.
    from_boundaries may refuse it."""
    specs = random_boundary_specs(rng, count)
    chosen = rng.sample(range(1, count), rng.randint(1, count - 1))
    for k in {k for i in chosen for k in (i - 1, i)}:
        specs[k] = BoundarySpec(specs[k].position, 10.0 ** rng.uniform(-10.0, -7.0))
    for i in sorted(chosen):
        left, right = specs[i - 1], specs[i]
        most = min(TOL, (left.width + right.width) / 2.0)
        overlap = most * rng.choice([rng.random(), rng.random() / 2.0, 0.5, 0.5 - 1e-9, 1.0])
        position = left.position + (left.width + right.width) / 2.0 - overlap
        specs[i] = BoundarySpec(position, right.width)
    return from_boundaries(specs, [f"c{i}" for i in range(count)])


def decimal_rotation(rng, count):
    """The builtin ring turned by a delta of four decimals (count unused):
    rounding can make the zones around its triangles, yellow and lightblue,
    overlap."""
    return builtin_colibri().rotated(rng.randrange(-3600000, 3600000) / 10000)


def random_ring(rng, count):
    """A consistent random ring (positive cores)."""
    return from_boundaries(random_boundary_specs(rng, count), [f"c{i}" for i in range(count)])


# Its b has a core of -7.3e-10, so two zones a few 1e-9 wide overlap by most
# of one: check() found 3 nonzero memberships and missed sum-to-one by 0.0805.
FOUND_RING = [(0.002683402666735757, 4.681106152712866e-09),
              (0.0026834087973144523, 9.034864852162525e-09), (180.0, 10.0)]


def zone_table_from_trapezoids(partition):
    """The zone table read back from the trapezoids' knots: a core piece at
    b where c != b, and a zone piece at c from the next trapezoid's a over
    its gap to d."""
    sets = partition.sets
    pieces = []
    for k, t in enumerate(sets):
        j = (k + 1) % len(sets)
        if t.c != t.b:
            pieces.append((t.b, (k, j, 0.0, 0.0)))
        lo = sets[j].a
        pieces.append((t.c, (k, j, lo, gap(lo, t.d))))
    return tuple(zip(*sorted(pieces)))


class TestAcceptedRingsPassCheck:
    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(2, 16),
        family=st.sampled_from(
            [random_ring, ulp_ring, touching_ring, seam_ring, sub_tol_ring, decimal_rotation]
        ),
    )
    def test_every_accepted_ring_passes_check(self, seed, count, family):
        try:
            p = family(random.Random(seed), count)
        except PartitionError:
            return
        results = check(p)
        assert all(r.ok for r in results), results
        # The table built with the trapezoids is the one their knots give,
        # and each zone's width is its successor's rise and its measure.
        _, zones = p._zones
        assert p._zones == zone_table_from_trapezoids(p) and all(
            w == p.sets[j]._rise == _zone_measure(p, k) for k, j, _, w in zones if w
        )

    def test_builtin_turned_by_a_decimal_passes_check(self):
        # Turned by -185.6763, the rounded zones around lightblue overlap by
        # 2.9e-14 near 0.3237, where check() once found 3 nonzero memberships.
        results = check(builtin_colibri().rotated(-185.6763))
        assert all(r.ok for r in results), results

    # The found ring (b's core -7.3e-10), and b's core at -5.0000004e-10,
    # just past half the tolerance.
    @pytest.mark.parametrize(
        "ring", [FOUND_RING, [(10.0, 4.0), (14.9999999995, 6.0), (200.0, 10.0)]]
    )
    def test_overlap_of_half_the_tolerance_or_more_is_refused(self, ring):
        specs = [BoundarySpec(*spec) for spec in ring]
        with pytest.raises(InconsistentCoreError, match="'b'"):
            from_boundaries(specs, ("a", "b", "c"))

    def test_overlap_under_half_the_tolerance_is_cut_off_the_later_zone(self):
        # The found ring with b's core at -3e-10: the zone after b starts where
        # the zone before it ends, in c's trapezoid and in the lookups alike.
        (p0, w0), (_, w1), last = FOUND_RING
        specs = [BoundarySpec(p0, w0), BoundarySpec(p0 + (w0 + w1) / 2.0 - 3e-10, w1),
                 BoundarySpec(*last)]
        p = from_boundaries(specs, ("a", "b", "c"))
        a, b, c = p.sets
        assert a.d == b.b == b.c == c.a
        results = check(p)
        assert all(r.ok for r in results), results
        for hue in zone_knots(p):
            values = assert_sums_to_one(p, hue)
            assert values == pytest.approx([t.membership(hue) for t in p.sets], abs=1e-15)


def _circ_err(a, b):
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


class TestHuePartition:
    def test_init_fields_are_the_boundary_list(self):
        assert list(inspect.signature(HuePartition).parameters) == ["names", "boundaries"]

    def test_sets_are_derived_not_compared(self, colibri):
        p = HuePartition(colibri.names, colibri.boundaries)
        assert p.sets == colibri.sets
        assert p == colibri and hash(p) == hash(colibri)
        assert "sets" not in repr(p)

    def test_lookups_copy_the_zero_template(self, colibri):
        p = HuePartition(colibri.names, colibri.boundaries)
        for hue in (100.0, 50.0, 300.0, 100.0):
            values = p.memberships(hue)
            assert values == colibri.memberships(hue) and list(values) == list(RING), hue
            for name in values:
                values[name] = 0.5
            values["extra"] = 1.0
        assert "_zeros" in vars(p)
        assert p == colibri and hash(p) == hash(colibri)
        assert repr(p) == repr(colibri) and "_zeros" not in repr(p)

    def test_list_fields_are_stored_as_tuples(self, colibri):
        p = HuePartition(list(colibri.names), list(colibri.boundaries))
        assert (type(p.names), type(p.boundaries)) == (tuple, tuple)
        assert p == colibri and hash(p) == hash(colibri)

    def test_reversed_boundaries_refused(self, colibri):
        backwards = tuple(reversed(colibri.boundaries))
        with pytest.raises(BoundaryOrderError, match=r"boundaries\[2\]"):
            HuePartition(colibri.names, backwards)
        with pytest.raises(BoundaryOrderError):
            from_boundaries(backwards, colibri.names)

    def test_count_mismatch(self, colibri):
        with pytest.raises(PartitionError, match="counts must match"):
            HuePartition(colibri.names[:-1], colibri.boundaries)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(2, 16),
        delta=st.floats(-720.0, 720.0, allow_nan=False),
    )
    def test_rotated_random_rings_pass_check(self, seed, count, delta):
        specs = random_boundary_specs(random.Random(seed), count)
        p = from_boundaries(specs, tuple(f"c{i}" for i in range(count)))
        rotated = p.rotated(delta)
        assert all(r.ok for r in check(rotated))
        for t, r in zip(p.sets, rotated.sets):
            moved = CircularTrapezoid(t.a + delta, t.b + delta, t.c + delta, t.d + delta)
            for knot, expected in zip((r.a, r.b, r.c, r.d), (moved.a, moved.b, moved.c, moved.d)):
                assert _circ_err(knot, expected) < 1e-9


class TestBoundarySpec:
    def test_position_wraps(self):
        assert BoundarySpec(370.0, 5.0).position == 10.0

    @pytest.mark.parametrize("width", [0.0, -3.0, 360.0])
    def test_width_domain(self, width):
        with pytest.raises(ValueError):
            BoundarySpec(10.0, width)


class TestLookupErrors:
    def test_unknown_category(self, colibri):
        with pytest.raises(KeyError):
            colibri.fuzzy_set("teal")
        with pytest.raises(KeyError):
            wideness(colibri, "teal")
