import math
import random

import pytest

from fuzzyhue import BoundarySpec, builtin_colibri, from_boundaries, wrap
from fuzzyhue.circle import gap


@pytest.fixture(scope="session")
def colibri():
    return builtin_colibri()


def make_p6(width, height, pixels, comment=None):
    """Binary PPM bytes for a row-major list of (r, g, b) tuples."""
    assert len(pixels) == width * height
    header = f"P6\n{'# ' + comment + chr(10) if comment else ''}{width} {height}\n255\n"
    return header.encode("ascii") + bytes(v for px in pixels for v in px)


def random_boundary_specs(rng: random.Random, count: int) -> list[BoundarySpec]:
    """A consistent random ring of boundary specs (positive cores).

    Positions are strictly ascending with a minimum gap; each width stays
    below the smaller neighboring gap so transition zones never collide.
    """
    while True:
        positions = sorted(rng.uniform(0.0, 360.0) for _ in range(count))
        gaps = [
            (positions[(i + 1) % count] - positions[i]) % 360.0 for i in range(count)
        ]
        if min(gaps) > 1.0:
            break
    widths = [
        rng.uniform(0.05, 0.90) * min(gaps[i - 1], gaps[i]) for i in range(count)
    ]
    return [BoundarySpec(p, w) for p, w in zip(positions, widths)]


def ulp_ring(rng, count):
    """A random ring (positive cores) in which about a third of the zones,
    and at least one, are a few ulps of their position wide."""
    specs = random_boundary_specs(rng, count)
    narrow = [k for k in range(count) if rng.random() < 1 / 3] or [rng.randrange(count)]
    for k in narrow:
        position = specs[k].position
        specs[k] = BoundarySpec(position, rng.randint(2, 8) * math.ulp(max(position, 1.0)))
    return from_boundaries(specs, [f"c{i}" for i in range(count)])


def zone_rule(partition, hue):
    """``(values, rising)``: the memberships at ``wrap(hue)`` by the zone
    rule, from the boundary list alone, and the index of the category whose
    value is a zone's ``t`` (None on a core).

    Inside boundary k's zone, from ``lo = position - width/2`` over ``w``
    degrees, category k+1 has ``t = gap(lo, hue) / w`` and category k has
    ``1 - t``. Outside every zone, the category whose core holds the
    hue has 1. For rings whose zones do not overlap.
    """
    n = len(partition.boundaries)
    hue = wrap(hue)
    zones = []
    for b in partition.boundaries:
        lo, hi = wrap(b.position - b.width / 2.0), wrap(b.position + b.width / 2.0)
        zones.append((lo, hi, gap(lo, hi)))
    values = [0.0] * n
    for k, (lo, _, w) in enumerate(zones):
        rel = gap(lo, hue)
        # At its end, or a hue that rounds onto it, t = 1 gives k+1 its core
        # value.
        if rel <= w:
            values[k], values[(k + 1) % n] = 1.0 - rel / w, rel / w
            return values, (k + 1) % n
    # The core of category k runs from the end of zone k-1 to the start of
    # zone k; a hue just short of that start can round onto it.
    for k, (lo, _, _) in enumerate(zones):
        end = zones[k - 1][1]
        if gap(end, hue) <= gap(end, lo):
            values[k] = 1.0
            return values, None
    raise AssertionError(f"hue {hue!r} is in no zone and no core")


def fall_tolerance(partition):
    """How far a falling trapezoid, or one rounded just past its support, can
    be from the zone rule: four ulps of 360 per degree of the narrowest zone.

    Both divide by the same zone width, but the trapezoid takes its falling
    offset from the zone's end and the zone rule from its start. Each
    rounds that offset by up to half an ulp of 360, and the zone rule
    rounds ``1 - t`` too: up to about one ulp in all, which random rings
    nearly reach. The tolerance is four times that.
    """
    return 4 * math.ulp(360.0) / min(b.width for b in partition.boundaries)
