"""Seeded input generators for the four benchmark workloads.

Everything here is a pure function of the seed, uses only the standard
library and never imports fuzzyhue: the program under test sees only the
files these functions write.
"""

from __future__ import annotations

import colorsys
import json
import random
from pathlib import Path

#: Published COLIBRI hue boundaries, (crossing position, zone width), entry k
#: separating RING[k] from RING[k+1]; the last wraps back to red.
COLIBRI_BOUNDARIES = (
    (12.5, 15.0),
    (40.0, 12.0),
    (55.5, 19.0),
    (151.5, 47.0),
    (180.5, 11.0),
    (199.5, 27.0),
    (255.0, 30.0),
    (300.5, 45.0),
    (340.5, 21.0),
)
RING = ("red", "orange", "yellow", "green", "cyan", "lightblue", "blue", "violet", "magenta")

NOISE_SIDE = 512
FLAT_SIDE = 1024
# Of the FLAT_BANDS horizontal bands of a flat image, FLAT_GRAY_BANDS sit
# under the achromatic gate (low saturation or low value); fixing the count
# keeps the gated share at 6/16 = 37.5% of pixels for every seed.
FLAT_BANDS = 16
FLAT_GRAY_BANDS = 6
FLAT_HUE_STEPS = 240
STREAM_COLOURS = 100_000
# Model-tools configs cycle through every ring size from 3 to 16, so the
# time per cycle does not depend on which sizes a seed happens to draw;
# every BAD_EVERY-th config has overlapping zones and must be refused.
RING_SIZES = tuple(range(3, 17))
BAD_EVERY = 8


def _rng(seed: int, stream: str, index: int = 0) -> random.Random:
    return random.Random(f"{seed}:{stream}:{index}")


def ppm_bytes(width: int, height: int, raster: bytes) -> bytes:
    return f"P6\n{width} {height}\n255\n".encode("ascii") + raster


def noise_raster(seed: int, index: int) -> bytes:
    """Uniform random 8-bit RGB, NOISE_SIDE x NOISE_SIDE."""
    return _rng(seed, "noise", index).randbytes(3 * NOISE_SIDE * NOISE_SIDE)


def flat_raster(seed: int, index: int) -> bytes:
    """Posterized hue ramps across saturation/value bands, FLAT_SIDE square.

    Each band is a left-to-right hue ramp quantized to FLAT_HUE_STEPS levels
    with a seeded phase; the seed also picks which bands are gray and every
    band's saturation and value.
    """
    rng = _rng(seed, "flat", index)
    gray = set(rng.sample(range(FLAT_BANDS), FLAT_GRAY_BANDS))
    phase = rng.uniform(0.0, 360.0)
    rows = []
    for band in range(FLAT_BANDS):
        if band in gray:
            if rng.random() < 0.5:
                s, v = rng.uniform(0.0, 0.1), rng.uniform(0.2, 1.0)
            else:
                s, v = rng.uniform(0.3, 1.0), rng.uniform(0.0, 0.07)
        else:
            s, v = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
        row = bytearray()
        for x in range(FLAT_SIDE):
            step = x * FLAT_HUE_STEPS // FLAT_SIDE
            hue = (phase + step * 360.0 / FLAT_HUE_STEPS) % 360.0
            r, g, b = colorsys.hsv_to_rgb(hue / 360.0, s, v)
            row += bytes((round(r * 255), round(g * 255), round(b * 255)))
        rows.append(bytes(row) * (FLAT_SIDE // FLAT_BANDS))
    return b"".join(rows)


def stream_colours(seed: int) -> bytes:
    """STREAM_COLOURS uniform random RGB triples, packed as bytes."""
    return _rng(seed, "stream").randbytes(3 * STREAM_COLOURS)


def random_ring(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """A consistent random ring of (position, width) boundaries.

    Positions are strictly ascending with a minimum gap; each width stays
    below the smaller neighbouring gap, so transition zones never collide.
    """
    while True:
        positions = sorted(rng.uniform(0.0, 360.0) for _ in range(count))
        gaps = [(positions[(i + 1) % count] - positions[i]) % 360.0 for i in range(count)]
        if min(gaps) > 1.0:
            break
    widths = [rng.uniform(0.05, 0.90) * min(gaps[i - 1], gaps[i]) for i in range(count)]
    return list(zip(positions, widths))


def overlapping_ring(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """A ring whose widest zone overruns a neighbour's: reconstruction must fail."""
    ring = random_ring(rng, count)
    gaps = [(ring[(i + 1) % count][0] - ring[i][0]) % 360.0 for i in range(count)]
    k = min(range(count), key=lambda i: gaps[i])
    position, _ = ring[k]
    # Category k+1 sits between boundaries k and k+1; a zone of 2.5 gaps at
    # boundary k alone leaves it a negative core.
    ring[k] = (position, min(2.5 * gaps[k], 300.0))
    return ring


def model_configs(seed: int, count: int) -> list[dict]:
    """Model-tools configs: the builtin model first, then seeded rings.

    Each entry has ``names``, ``boundaries`` [(position, width)], ``hue``
    (the probe for ``classify --hue``) and ``bad`` (zones overlap).
    """
    configs = [
        {
            "names": list(RING),
            "boundaries": [list(b) for b in COLIBRI_BOUNDARIES],
            "hue": _rng(seed, "hue", 0).uniform(0.0, 360.0),
            "bad": False,
        }
    ]
    for i in range(1, count):
        rng = _rng(seed, "ring", i)
        size = RING_SIZES[i % len(RING_SIZES)]
        bad = i % BAD_EVERY == BAD_EVERY - 1
        ring = overlapping_ring(rng, size) if bad else random_ring(rng, size)
        configs.append(
            {
                "names": [f"c{k}" for k in range(size)],
                "boundaries": [list(b) for b in ring],
                "hue": rng.uniform(-360.0, 720.0),
                "bad": bad,
            }
        )
    return configs


def config_json(config: dict) -> str:
    doc = {
        "period": 360,
        "categories": [{"name": name} for name in config["names"]],
        "boundaries": [{"position": p, "width": w} for p, w in config["boundaries"]],
    }
    return json.dumps(doc, indent=2) + "\n"


def write(path: Path, data: bytes | str) -> Path:
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return path
