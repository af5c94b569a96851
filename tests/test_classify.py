import colorsys
import math
import random
import tracemalloc
from collections import Counter
from enum import IntEnum
from itertools import permutations, product
from math import fsum
from struct import Struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyhue import (
    ACHROMATIC,
    AchromaticGate,
    BoundarySpec,
    PixelGrid,
    builtin_colibri,
    classify_color,
    dominant_labels,
    from_boundaries,
    hsv_to_rgb,
    image_descriptor,
    rgb_to_hsv,
    wrap,
)
from fuzzyhue import classify
from fuzzyhue.classify import DEFAULT_GATE, FuzzyColorDescriptor, _colour_counts
from conftest import fall_tolerance, random_boundary_specs, ulp_ring, zone_rule

# 8-bit colors whose exact hexcone hue is an integer degree value.
GREEN_100 = (85, 255, 0)  # hue 100 (within float rounding), inside green core
YELLOW_46 = (240, 184, 0)  # hue exactly 46.0, the yellow peak
HUE_50 = (240, 200, 0)  # hue exactly 50.0
GRAY = (128, 128, 128)


def grid_of(pixels, width=None):
    width = width or len(pixels)
    return PixelGrid(width, len(pixels) // width, tuple(pixels))


def reference_descriptor(partition, grid, gate):
    """One fsum pass over every distinct color per category, plus one for gray."""
    n = len(grid.pixels)
    weighted = [
        (classify_color(partition, rgb, gate), count) for rgb, count in Counter(grid.pixels).items()
    ]
    masses = {
        name: fsum(d.category_mass[name] * count for d, count in weighted) / n
        for name in partition.names
    }
    achromatic = fsum(d.achromatic_mass * count for d, count in weighted) / n
    return FuzzyColorDescriptor(masses, achromatic)


def zone_values(partition, hue):
    return zone_rule(partition, hue)[0]


def trapezoid_values(partition, hue):
    return [t.membership(hue) for t in partition.sets]


def scan_descriptor(partition, grid, gate, values=zone_values):
    """colorsys, the gate and ``values(partition, hue)``, per distinct color."""
    n = len(grid.pixels)
    terms = {name: [] for name in partition.names}
    gray = []
    for (r, g, b), count in Counter(grid.pixels).items():
        h, s, v = colorsys.rgb_to_hsv(r / 255.0, g / 255.0, b / 255.0)
        if s == 0.0 or s < gate.s_min or v < gate.v_min or v > gate.v_max:
            gray.append(1.0 * count)
            continue
        for name, mass in zip(partition.names, values(partition, h * 360.0)):
            terms[name].append(mass * count)
    masses = {name: fsum(values) / n for name, values in terms.items()}
    return FuzzyColorDescriptor(masses, fsum(gray) / n)


def bits(descriptor):
    return [(label, mass.hex()) for label, mass in descriptor.labeled_masses()]


class TestRgbToHsv:
    def test_primaries(self):
        red = rgb_to_hsv((255, 0, 0))
        assert (red.hue, red.saturation, red.value) == (0.0, 1.0, 1.0)
        cyan = rgb_to_hsv((0, 255, 255))
        assert (cyan.hue, cyan.saturation, cyan.value) == (180.0, 1.0, 1.0)

    def test_gray_axis_has_undefined_hue(self):
        gray = rgb_to_hsv(GRAY)
        assert gray.hue is None
        assert gray.saturation == 0.0
        assert gray.value == pytest.approx(0.502, abs=1e-3)

    def test_exact_integer_hues(self):
        assert rgb_to_hsv(YELLOW_46).hue == 46.0
        assert rgb_to_hsv(HUE_50).hue == 50.0
        assert rgb_to_hsv(GREEN_100).hue == pytest.approx(100.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [(-1, 0, 0), (0, 256, 0), (0, 0, 2.5), ("a", 0, 0)])
    def test_channel_validation(self, bad):
        with pytest.raises(ValueError):
            rgb_to_hsv(bad)

    @pytest.mark.parametrize("bad", [(True, 0, 0), (1.0, 0, 0), (1, 2), (1, 2, 3, 4)])
    def test_bool_float_and_wrong_arity_refused(self, bad):
        with pytest.raises(ValueError):
            rgb_to_hsv(bad)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: classify_color(builtin_colibri(), 5),
            lambda: rgb_to_hsv(None),
            lambda: PixelGrid(1, 1, [1, 2, 3]),
        ],
        ids=["classify_color-int", "rgb_to_hsv-None", "PixelGrid-ints"],
    )
    def test_value_that_cannot_be_unpacked_is_value_error(self, call):
        # These used to raise a bare "TypeError: cannot unpack non-iterable".
        with pytest.raises(ValueError, match=r"^RGB must be three channels, got (5|None|1)$"):
            call()

    def test_int_enum_channel_accepted(self):
        class Level(IntEnum):
            LOW = 10
            HIGH = 200

        assert rgb_to_hsv((Level.HIGH, Level.LOW, 0)) == rgb_to_hsv((200, 10, 0))

    def test_round_trip_with_inverse(self):
        for rgb in [(255, 0, 0), (12, 200, 99), YELLOW_46, (1, 2, 3)]:
            hsv = rgb_to_hsv(rgb)
            assert hsv_to_rgb(hsv.hue or 0.0, hsv.saturation, hsv.value) == rgb


class TestClassifyColor:
    def test_pure_green_core_hue(self, colibri):
        d = classify_color(colibri, GREEN_100)
        assert d.category_mass["green"] == 1.0
        assert d.achromatic_mass == 0.0

    def test_dark_pixel_is_achromatic(self, colibri):
        d = classify_color(colibri, (30, 30, 30))
        assert d.achromatic_mass == 1.0
        assert all(v == 0.0 for v in d.category_mass.values())

    def test_low_saturation_is_achromatic(self, colibri):
        # s = 1 - 230/255 ~ 0.098, under the default 0.15 floor.
        d = classify_color(colibri, (255, 230, 230))
        assert d.achromatic_mass == 1.0

    def test_hue_50_shoulder_split(self, colibri):
        d = classify_color(colibri, HUE_50)
        assert d.category_mass["yellow"] == pytest.approx(15.0 / 19.0, abs=1e-12)
        assert d.category_mass["green"] == pytest.approx(4.0 / 19.0, abs=1e-12)
        assert d.total() == pytest.approx(1.0, abs=1e-12)

    def test_white_gate_opt_in(self, colibri):
        strict = AchromaticGate(v_max=0.99)
        assert classify_color(colibri, (255, 0, 0), strict).achromatic_mass == 1.0
        assert classify_color(colibri, (255, 0, 0)).achromatic_mass == 0.0

    def test_gray_descriptor_is_a_fresh_dict(self):
        ring = from_boundaries(builtin_colibri().boundaries, builtin_colibri().names)
        zeros = dict.fromkeys(ring.names, 0.0)
        for rgb in (GRAY, (30, 30, 30), GRAY):
            masses = classify_color(ring, rgb).category_mass
            assert masses == zeros and list(masses) == list(ring.names), rgb
            masses["red"] = 1.0
            masses["extra"] = 2.0
        assert ring.memberships(100.0) == {**zeros, "green": 1.0}

    def test_bitwise_equal_to_hsv_color_path(self, colibri):
        """Equal to gating and looking up the ``rgb_to_hsv`` result, on 100k
        seeded colours under two gates."""
        gates = (AchromaticGate(), AchromaticGate(0.3, 0.2, 0.9))
        rng = random.Random(1018)
        for i in range(100_000):
            gate = gates[i % 2]
            rgb = (rng.randrange(256), rng.randrange(256), rng.randrange(256))
            hsv = rgb_to_hsv(rgb)
            if (
                hsv.saturation == 0.0
                or hsv.saturation < gate.s_min
                or not gate.v_min <= hsv.value <= gate.v_max
            ):
                expected = FuzzyColorDescriptor(dict.fromkeys(colibri.names, 0.0), 1.0)
            else:
                expected = FuzzyColorDescriptor(colibri.memberships(hsv.hue), 0.0)
            assert bits(classify_color(colibri, rgb, gate)) == bits(expected), rgb


# The max and min channel of every 8-bit colour: 32,896 pairs.
MAX_MIN_PAIRS = [(hi, lo) for hi in range(256) for lo in range(hi + 1)]


def hexcone_saturation(hi, lo):
    return colorsys.rgb_to_hsv(hi / 255.0, lo / 255.0, lo / 255.0)[1]


# Every saturation an 8-bit colour has, and every value.
EXACT_SATURATIONS = sorted({hexcone_saturation(hi, lo) for hi, lo in MAX_MIN_PAIRS})
EXACT_VALUES = [x / 255.0 for x in range(256)]
THRESHOLDS = st.one_of(
    st.floats(0.0, 1.0), st.sampled_from(EXACT_SATURATIONS), st.sampled_from(EXACT_VALUES)
)
TABLE_GATES = {
    "default": AchromaticGate(),
    "s_min=0": AchromaticGate(s_min=0.0),
    "v_min=0": AchromaticGate(v_min=0.0),
    "v_max=1": AchromaticGate(0.4, 0.3, 1.0),
    "open": AchromaticGate(0.0, 0.0, 1.0),
    "s_min=1": AchromaticGate(1.0, 0.0, 1.0),
    "v_min=v_max": AchromaticGate(0.2, 0.5, 0.5),
    "v_min=v_max=a value": AchromaticGate(0.15, 128 / 255.0, 128 / 255.0),
    "v_min=v_max=1": AchromaticGate(0.15, 1.0, 1.0),
    "s_min=a saturation": AchromaticGate(hexcone_saturation(200, 37), 0.0, 1.0),
    "s_min=the least saturation": AchromaticGate(EXACT_SATURATIONS[1], 0.1, 200 / 255.0),
    "v_min=a value": AchromaticGate(0.15, 37 / 255.0, 1.0),
    "v_max=a value": AchromaticGate(0.15, 0.1, 254 / 255.0),
}


class TestAchromaticGate:
    @pytest.mark.parametrize(
        "fields",
        [
            {"s_min": float("nan")},
            {"v_min": float("nan")},
            {"v_max": float("nan")},
            {"s_min": -0.1},
            {"v_min": float("inf")},
            {"v_max": 1.5},
        ],
    )
    def test_out_of_range_or_nan_refused(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            AchromaticGate(**fields)

    def test_inverted_value_thresholds_refused(self):
        with pytest.raises(ValueError, match="exceeds"):
            AchromaticGate(v_min=0.8, v_max=0.2)

    def test_closed_unit_interval_accepted(self):
        gate = AchromaticGate(s_min=0.0, v_min=1.0, v_max=1.0)
        assert (gate.s_min, gate.v_min, gate.v_max) == (0.0, 1.0, 1.0)

    @staticmethod
    def check_table(ring, gate):
        """``lo >= gate._gray_from[hi]`` is ``classify_color``'s gray verdict
        on a colour with max channel ``hi`` and min ``lo``, for every pair."""
        gray_from = gate._gray_from
        assert len(gray_from) == 256
        for hi, lo in MAX_MIN_PAIRS:
            gray = classify_color(ring, (lo, (lo + hi) // 2, hi), gate).achromatic_mass == 1.0
            assert (lo >= gray_from[hi]) == gray, (hi, lo, gate)

    @pytest.mark.parametrize("gate", TABLE_GATES.values(), ids=TABLE_GATES.keys())
    def test_table_is_the_float_rule(self, colibri, gate):
        self.check_table(colibri, gate)

    @settings(max_examples=25, deadline=None)
    @given(s_min=THRESHOLDS, v=st.lists(THRESHOLDS, min_size=2, max_size=2).map(sorted))
    def test_table_is_the_float_rule_on_random_gates(self, colibri, s_min, v):
        self.check_table(colibri, AchromaticGate(s_min, *v))

    def test_equal_gates_share_a_table_that_is_not_a_field(self):
        gate = AchromaticGate(0.2, 0.3, 0.9)
        table = gate._gray_from
        fresh = AchromaticGate(0.2, 0.3, 0.9)
        assert fresh._gray_from is table
        assert gate == fresh and hash(gate) == hash(fresh)
        assert repr(gate) == "AchromaticGate(s_min=0.2, v_min=0.3, v_max=0.9)"


RGB = st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))


@st.composite
def repeated_row_grids(draw):
    """Grids whose rows are drawn, with repetition, from a tiny row palette.

    The rows' pixels come from a palette of at most four colours, so tiles
    repeat and one colour often sits in tiles seen different numbers of times.
    """
    width = draw(st.integers(1, 24))
    colours = draw(st.lists(RGB, min_size=1, max_size=4))
    pixel = st.sampled_from(colours)
    row = st.lists(pixel, min_size=width, max_size=width)
    palette = draw(st.lists(row, min_size=1, max_size=4))
    height = draw(st.integers(1, 60))
    picks = draw(st.lists(st.integers(0, len(palette) - 1), min_size=height, max_size=height))
    return PixelGrid(width, height, tuple(rgb for i in picks for rgb in palette[i]))


def rows_grid(*rows):
    return PixelGrid(len(rows[0]), len(rows), tuple(rgb for row in rows for rgb in row))


ROW_GATES = [DEFAULT_GATE, AchromaticGate(0.0, 0.0, 1.0), AchromaticGate(0.4, 0.3, 0.9)]


def pixel_counts(samples):
    """Pixels of each colour, counted one by one, keyed like _colour_counts."""
    return Counter(int.from_bytes(samples[i : i + 3], "big") for i in range(0, len(samples), 3))


def colour_count_cases():
    rng = random.Random(18)
    a, b, c = (rng.randbytes(3) for _ in range(3))
    distinct = [rng.randbytes(6) for _ in range(4096)]
    return {
        "one pixel": a,
        "runs": (a * 4 + b * 4) * 300,
        "runs and an odd pixel": (a * 4 + b * 4) * 300 + c,
        "three colours in every pair order": b"".join(rng.choice((a, b, c)) for _ in range(4001)),
        "noise": rng.randbytes(3 * 4096),
        # Of each 16 neighbouring pairs, the first 8 are the pair a + b and the
        # last 8 are new: every other 16-pixel tile is the same tile and the
        # rest are new, so the count turns to pixels after the first block.
        "new pairs from slice 8": b"".join(
            a + b if i % 16 < 8 else distinct[i] for i in range(4096)
        ),
    }


COLOUR_COUNT_CASES = colour_count_cases()


def ramp_row(width, steps, value):
    """A hue ramp posterized to ``steps`` hues across ``width`` pixels, packed."""
    return b"".join(
        bytes(round(c * 255) for c in colorsys.hsv_to_rgb(x * steps // width / steps, 0.8, value))
        for x in range(width)
    )


def shifted_rows(width, height, steps):
    """Ramps whose row y is rotated left by y pixels, with a new value every
    ``width`` rows, so no two rows are equal."""
    bands = -(-height // width)
    ramps = [ramp_row(width, steps, (v + 1) / (bands + 1)) for v in range(bands)]
    rows = []
    for y in range(height):
        ramp, shift = ramps[y // width], 3 * (y % width)
        rows.append(ramp[shift:] + ramp[:shift])
    return b"".join(rows)


def tile_cases():
    """(width, height, samples, pixels counted past the tile-counted blocks).

    A 40x256 image has 640 tiles of 16 pixels, counted in 16 blocks of 40
    tiles (16 rows); 40 is no multiple of 16, so every fifth tile runs on
    into the next row.
    """
    rng = random.Random(21)
    width, height, block = 40, 256, 640
    n = width * height
    flat = ramp_row(width, 8, 0.7) * height
    noise = rng.randbytes(len(flat))
    half = len(flat) // 2
    sprinkled = bytearray(flat)
    for i in range(0, len(sprinkled), 3 * 151):
        sprinkled[i : i + 3] = rng.randbytes(3)
    return {
        # Five distinct tiles, each seen 128 times: no block switches.
        "flat ramp, tiles straddling rows": (width, height, flat, 0),
        # Every tile new: block 0 is counted by tiles, the rest by pixels.
        "noise": (width, height, noise, n - block),
        # Blocks 0-7 are flat; block 8, the first of noise, switches.
        "flat above noise": (width, height, flat[:half] + noise[half:], n - 9 * block),
        "noise above flat": (width, height, noise[:half] + flat[half:], n - block),
        # Every start of a 16-pixel window recurs within a block, though no
        # row repeats.
        "row-shifted ramp": (150, 360, shifted_rows(150, 360, 4), 0),
        # One pixel in 151 is noise: its tile is seen once, among tiles seen
        # many times.
        "tiles seen once and several times": (width, height, bytes(sprinkled), 0),
    }


TILE_CASES = tile_cases()


def traced_counts(monkeypatch, samples):
    """_colour_counts of samples, and the pixels of each buffer it turns into
    words: first those past its tile-counted blocks, then the tiles seen once,
    then each group of tiles seen equally often."""
    sizes = []
    words = classify._words

    def spy(buffer):
        sizes.append(len(buffer) // 3)
        return words(buffer)

    monkeypatch.setattr(classify, "_words", spy)
    counts = _colour_counts(samples)
    monkeypatch.undo()
    return counts, sizes


def chunk_cases():
    """(width, height, samples, pixels counted past the tile-counted blocks,
    tiles cut by each unpack).

    A block of b tiles is cut in b // 56 whole chunks of _CHUNK = 56 tiles,
    then one shorter chunk of b % 56 tiles, if any. An image of n pixels has
    blocks of ceil(ceil(n / 16) / 16) tiles, and the last block holds the
    rest of its n // 16 tiles. The flat images are posterized ramps, counted
    by tiles throughout.
    """
    rng = random.Random(28)

    def flat(width, height, steps=8):
        return ramp_row(width, steps, 0.7) * height

    def noise(width, height):
        return rng.randbytes(3 * width * height)

    # 160x95: 950 tiles in 15 blocks of 60 and a last block of 50.
    switching = flat(160, 95)[: 4 * 60 * 48] + noise(160, 95)[4 * 60 * 48 :]
    return {
        # 80x128: 640 tiles, 16 blocks of 40.
        "blocks shorter than a chunk": (80, 128, flat(80, 128), 0, [40] * 16),
        # 112x128: 896 tiles, 16 blocks of 56.
        "blocks of one chunk": (112, 128, flat(112, 128), 0, [56] * 16),
        # 240x160: 2,400 tiles, 16 blocks of 150.
        "blocks of two chunks and a shorter one": (
            240, 160, flat(240, 160), 0, [56, 56, 38] * 16
        ),
        # 129x113: 911 tiles and a pixel, in 15 blocks of 57 and a last
        # block of one chunk. Tiles start at every place in a row, so the
        # ramp has two hues, for 32 distinct tiles.
        "a last block of one chunk, the others a tile longer": (
            129, 113, flat(129, 113, 2), 1, [56, 1] * 15 + [56]
        ),
        "a last block shorter than a chunk": (160, 95, flat(160, 95), 0, [56, 4] * 15 + [50]),
        # Blocks 0-3 are flat; block 4, the first of noise, switches to
        # pixels after its shorter last chunk.
        "a switch after a shorter last chunk": (
            160, 95, switching, 160 * 95 - 5 * 60 * 16, [56, 4] * 5
        ),
        "noise, switching after the first block's shorter chunk": (
            160, 95, noise(160, 95), 160 * 95 - 60 * 16, [56, 4]
        ),
    }


CHUNK_CASES = chunk_cases()


def traced_cuts(monkeypatch, samples):
    """Tiles cut by each unpack of _colour_counts of samples, in order."""
    cuts = []

    class Spy:
        def __init__(self, format):
            self.unpack = Struct(format).unpack_from

        def unpack_from(self, buffer, offset):
            tiles = self.unpack(buffer, offset)
            cuts.append(len(tiles))
            return tiles

    monkeypatch.setattr(classify, "Struct", Spy)
    _colour_counts(samples)
    monkeypatch.undo()
    return cuts


@st.composite
def palette_grids(draw):
    """Grids of random size whose pixels repeat a motif over a small palette,
    with a drawn share of pixels redrawn at random: tiles repeat in some
    images and blocks and not in others."""
    width = draw(st.integers(1, 80))
    height = draw(st.integers(1, 80))
    colours = draw(st.lists(RGB, min_size=1, max_size=5))
    motif = draw(st.lists(st.integers(0, len(colours) - 1), min_size=1, max_size=48))
    share = draw(st.sampled_from((0.0, 0.01, 0.1, 0.5, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    picks = [
        rng.randrange(len(colours)) if rng.random() < share else motif[i % len(motif)]
        for i in range(width * height)
    ]
    return PixelGrid(width, height, bytes(c for i in picks for c in colours[i]))


class TestImageDescriptor:
    def test_constant_image(self, colibri):
        d = image_descriptor(colibri, grid_of([GREEN_100] * 100, width=10))
        assert d.category_mass["green"] == 1.0

    def test_half_green_half_yellow(self, colibri):
        d = image_descriptor(colibri, grid_of([GREEN_100] * 50 + [YELLOW_46] * 50, width=10))
        assert d.category_mass["green"] == pytest.approx(0.5, abs=1e-9)
        assert d.category_mass["yellow"] == pytest.approx(0.5, abs=1e-9)

    def test_half_gray_half_green(self, colibri):
        d = image_descriptor(colibri, grid_of([GRAY] * 50 + [GREEN_100] * 50, width=10))
        assert d.achromatic_mass == pytest.approx(0.5, abs=1e-9)
        assert d.category_mass["green"] == pytest.approx(0.5, abs=1e-9)

    def test_empty_image_rejected(self, colibri):
        # PixelGrid itself refuses empty rasters, so stub the duck type.
        class EmptyGrid:
            samples = b""

        with pytest.raises(ValueError):
            image_descriptor(colibri, EmptyGrid())

    def test_mass_conservation_on_random_images(self, colibri):
        rng = random.Random(5)
        for _ in range(20):
            pixels = [
                (rng.randrange(256), rng.randrange(256), rng.randrange(256))
                for _ in range(64)
            ]
            d = image_descriptor(colibri, grid_of(pixels, width=8))
            assert d.total() == pytest.approx(1.0, abs=1e-6)

    def test_permutation_invariance(self, colibri):
        rng = random.Random(6)
        pixels = [
            (rng.randrange(256), rng.randrange(256), rng.randrange(256))
            for _ in range(90)
        ]
        before = image_descriptor(colibri, grid_of(pixels, width=9))
        rng.shuffle(pixels)
        after = image_descriptor(colibri, grid_of(pixels, width=9))
        for name in colibri.names:
            assert abs(before.category_mass[name] - after.category_mass[name]) < 1e-9
        assert abs(before.achromatic_mass - after.achromatic_mass) < 1e-9

    def test_gate_monotonicity(self, colibri):
        rng = random.Random(7)
        pixels = [
            (rng.randrange(256), rng.randrange(256), rng.randrange(256))
            for _ in range(120)
        ]
        grid = grid_of(pixels, width=12)
        tight = image_descriptor(colibri, grid, AchromaticGate(s_min=0.35))
        loose = image_descriptor(colibri, grid, AchromaticGate(s_min=0.05))
        assert loose.achromatic_mass <= tight.achromatic_mass + 1e-12
        for name in colibri.names:
            assert loose.category_mass[name] >= tight.category_mass[name] - 1e-12

    def test_linear_mixing(self, colibri):
        rng = random.Random(8)
        half_a = [(rng.randrange(256),) * 3 for _ in range(40)]
        half_b = [
            (rng.randrange(256), rng.randrange(256), rng.randrange(256))
            for _ in range(40)
        ]
        da = image_descriptor(colibri, grid_of(half_a, width=8))
        db = image_descriptor(colibri, grid_of(half_b, width=8))
        dab = image_descriptor(colibri, grid_of(half_a + half_b, width=8))
        for name in colibri.names:
            mixed = (da.category_mass[name] + db.category_mass[name]) / 2.0
            assert abs(dab.category_mass[name] - mixed) < 1e-9
        assert abs(dab.achromatic_mass - (da.achromatic_mass + db.achromatic_mass) / 2.0) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_bitwise_equal_to_reference_reduction(self, colibri, seed):
        rng = random.Random(seed)
        if seed % 2:
            count = rng.randint(2, 16)
            partition = from_boundaries(
                random_boundary_specs(rng, count), [f"c{i}" for i in range(count)]
            )
        else:
            partition = colibri
        pixels = [(rng.randrange(256), rng.randrange(256), rng.randrange(256)) for _ in range(2000)]
        pixels += [(v, v, v) for v in rng.choices(range(256), k=200)]
        pixels += rng.choices(pixels, k=400)
        grid = grid_of(pixels, width=20)
        gate = AchromaticGate(s_min=rng.uniform(0.0, 0.5), v_min=rng.uniform(0.0, 0.3))
        assert bits(image_descriptor(partition, grid, gate)) == bits(
            reference_descriptor(partition, grid, gate)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_bitwise_equal_to_full_scan(self, colibri, seed):
        rng = random.Random(100 + seed)
        if seed % 2:
            count = rng.randint(2, 16)
            partition = from_boundaries(
                random_boundary_specs(rng, count), [f"c{i}" for i in range(count)]
            )
        else:
            partition = colibri
        pixels = [(rng.randrange(256), rng.randrange(256), rng.randrange(256)) for _ in range(3000)]
        pixels += [(v, v, v) for v in rng.choices(range(256), k=100)]
        grid = grid_of(pixels, width=31)
        gate = AchromaticGate(
            s_min=rng.uniform(0.0, 0.5), v_min=rng.uniform(0.0, 0.3), v_max=rng.uniform(0.7, 1.0)
        )
        got = image_descriptor(partition, grid, gate)
        assert bits(got) == bits(scan_descriptor(partition, grid, gate))
        # Against every trapezoid, the falling side rounds differently.
        scan = scan_descriptor(partition, grid, gate, trapezoid_values)
        assert got.achromatic_mass == scan.achromatic_mass
        for name in partition.names:
            assert abs(got.category_mass[name] - scan.category_mass[name]) <= fall_tolerance(
                partition
            )

    @settings(max_examples=200, deadline=None)
    @given(grid=repeated_row_grids(), gate=st.sampled_from(ROW_GATES))
    # Width 1 with non-adjacent repeats; height 1 with an odd pixel; rows
    # repeating 3, 2 and 1 times that share YELLOW_46 and GRAY; and 300 rows
    # of three, so tiles repeat in three phases, each holding GREEN_100 at
    # several places.
    @example(
        grid=rows_grid([GREEN_100], [GRAY], [GREEN_100], [GREEN_100], [GRAY]), gate=DEFAULT_GATE
    )
    @example(grid=rows_grid([HUE_50, GRAY, HUE_50]), gate=DEFAULT_GATE)
    @example(
        grid=rows_grid(
            [GREEN_100, YELLOW_46], [YELLOW_46, GRAY], [GREEN_100, YELLOW_46],
            [GRAY, HUE_50], [GREEN_100, YELLOW_46], [YELLOW_46, GRAY],
        ),
        gate=DEFAULT_GATE,
    )
    @example(grid=rows_grid(*[[GREEN_100, YELLOW_46, GREEN_100]] * 300), gate=DEFAULT_GATE)
    def test_repeated_rows_bitwise_equal_to_per_pixel_counts(self, colibri, grid, gate):
        # reference_descriptor counts every pixel in one Counter, with no
        # tiles, and reduces classify_color's masses times each count.
        assert bits(image_descriptor(colibri, grid, gate)) == bits(
            reference_descriptor(colibri, grid, gate)
        )

    @pytest.mark.parametrize("case", list(COLOUR_COUNT_CASES))
    def test_colour_counts_are_per_pixel_counts(self, case):
        samples = COLOUR_COUNT_CASES[case]
        assert _colour_counts(samples) == pixel_counts(samples)

    @pytest.mark.parametrize("case", list(TILE_CASES))
    def test_tile_counts_are_per_pixel_counts(self, colibri, monkeypatch, case):
        width, height, samples, past_tiles = TILE_CASES[case]
        counts, sizes = traced_counts(monkeypatch, samples)
        assert counts == pixel_counts(samples)
        assert sizes[0] == past_tiles
        grid = PixelGrid(width, height, samples)
        assert bits(image_descriptor(colibri, grid)) == bits(
            scan_descriptor(colibri, grid, DEFAULT_GATE)
        )

    def test_tiles_seen_once_and_several_times(self, monkeypatch):
        _, sizes = traced_counts(monkeypatch, TILE_CASES["tiles seen once and several times"][2])
        past_tiles, seen_once, *seen_several = sizes
        assert past_tiles == 0 and seen_once and seen_several

    def test_no_two_rows_of_the_shifted_ramp_are_equal(self):
        width, height, samples, _ = TILE_CASES["row-shifted ramp"]
        rows = {samples[y * 3 * width : (y + 1) * 3 * width] for y in range(height)}
        assert len(rows) == height and width % 16

    @pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 7), (3, 5), (15, 1)])
    def test_fewer_than_a_tile_of_pixels(self, colibri, monkeypatch, size):
        width, height = size
        samples = random.Random(width * height).randbytes(3 * width * height)
        counts, sizes = traced_counts(monkeypatch, samples)
        assert counts == pixel_counts(samples)
        assert sizes[0] == width * height
        grid = PixelGrid(width, height, samples)
        assert bits(image_descriptor(colibri, grid)) == bits(
            scan_descriptor(colibri, grid, DEFAULT_GATE)
        )

    @pytest.mark.parametrize("tail", range(1, 16))
    def test_a_tail_past_the_last_tile(self, colibri, monkeypatch, tail):
        # 64 copies of one tile, then `tail` pixels, the first a new colour
        # and the rest the tile's colours.
        a, b = GREEN_100, YELLOW_46
        pixels = [a, a, a, a, b, b, b, b] * 128 + [GRAY] + [a, b] * 7
        grid = grid_of(pixels[: 1024 + tail])
        counts, sizes = traced_counts(monkeypatch, grid.samples)
        assert counts == pixel_counts(grid.samples)
        assert sizes[0] == tail
        assert bits(image_descriptor(colibri, grid)) == bits(
            scan_descriptor(colibri, grid, DEFAULT_GATE)
        )

    @pytest.mark.parametrize("case", list(CHUNK_CASES))
    def test_chunk_edges_count_and_describe_per_pixel(self, colibri, monkeypatch, case):
        width, height, samples, past_tiles, cuts = CHUNK_CASES[case]
        assert traced_cuts(monkeypatch, samples) == cuts
        counts, sizes = traced_counts(monkeypatch, samples)
        assert sizes[0] == past_tiles
        assert counts == pixel_counts(samples)
        grid = PixelGrid(width, height, samples)
        assert bits(image_descriptor(colibri, grid)) == bits(
            scan_descriptor(colibri, grid, DEFAULT_GATE)
        )

    def test_one_chunk_of_tiles_is_alive_at_a_time(self):
        # 1024x1024 pixels of one 16-pixel tile: 16 blocks of 4,096 tiles,
        # each cut in 73 chunks of 56 and one of 8. A chunk's tiles take
        # about 5 KB; a whole block's, about 370 KB.
        a, b = bytes(GREEN_100), bytes(YELLOW_46)
        samples = (a * 8 + b * 8) * (1024 * 1024 // 16)
        tracemalloc.start()
        try:
            counts = _colour_counts(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts == {int.from_bytes(a, "big"): 1 << 19, int.from_bytes(b, "big"): 1 << 19}
        assert peak < 50_000

    @settings(max_examples=100, deadline=None)
    @given(grid=palette_grids())
    def test_palette_images_count_and_describe_per_pixel(self, colibri, grid):
        assert _colour_counts(grid.samples) == pixel_counts(grid.samples)
        assert bits(image_descriptor(colibri, grid)) == bits(
            scan_descriptor(colibri, grid, DEFAULT_GATE)
        )

    @pytest.mark.parametrize(
        "bad", [(True, 0, 0), (1.0, 0, 0), (0, 256, 0), (0, 0, -1), (1, 2), (1, 2, 3, 4)]
    )
    def test_malformed_color_refused(self, colibri, bad):
        with pytest.raises(ValueError):
            image_descriptor(colibri, PixelGrid(2, 1, ((10, 20, 30), bad)))

    def test_int_enum_channel_accepted(self, colibri):
        class Level(IntEnum):
            LOW = 10
            HIGH = 200

        enum_grid = PixelGrid(1, 1, ((Level.HIGH, Level.LOW, 0),))
        int_grid = PixelGrid(1, 1, ((200, 10, 0),))
        assert bits(image_descriptor(colibri, enum_grid)) == bits(
            image_descriptor(colibri, int_grid)
        )

    def test_category_named_achromatic_keeps_its_own_mass(self):
        specs = [BoundarySpec(60.0, 10.0), BoundarySpec(180.0, 10.0), BoundarySpec(300.0, 10.0)]
        ring = from_boundaries(specs, ("warm", ACHROMATIC, "cool"))
        d = image_descriptor(ring, grid_of([(0, 255, 0), GRAY]))
        assert d.category_mass == {"warm": 0.0, ACHROMATIC: 0.5, "cool": 0.0}
        assert d.achromatic_mass == 0.5


# Rings whose knots are not round numbers, so that an ulp change in a hue
# moves a shoulder value: the builtin ring rotated, and two categories whose
# shoulders cover all but 0.02 degrees of the circle.
EXACTNESS_RINGS = {
    "builtin": builtin_colibri(),
    "rotated": builtin_colibri().rotated(77.7777),
    "rotated-back": builtin_colibri().rotated(-123.456789),
    "wide-shoulders": from_boundaries(
        [BoundarySpec(90.0, 179.99), BoundarySpec(270.0, 179.99)], ("a", "b")
    ),
}
OPEN_GATE = AchromaticGate(0.0, 0.0, 1.0)
# Channel values at both ends and between, so their triples take every
# channel ordering, with ties at the max, at the min and at both.
LEVELS = (0, 1, 2, 37, 127, 128, 200, 254, 255)


def hsv_bits(hue, saturation, value):
    return (None if hue is None else hue.hex(), saturation.hex(), value.hex())


class TestHexconeIsColorsys:
    """``rgb_to_hsv`` is bit for bit ``colorsys.rgb_to_hsv`` of ``x / 255.0``,
    with the hue times 360 and None where the saturation is 0. CI checks
    every 8-bit colour."""

    @staticmethod
    def check(rgb):
        h, s, v = colorsys.rgb_to_hsv(*(c / 255.0 for c in rgb))
        expected = hsv_bits(None if s == 0.0 else h * 360.0, s, v)
        assert hsv_bits(*rgb_to_hsv(rgb)._fields()) == expected, rgb

    def test_every_gray(self):
        for v in range(256):
            self.check((v, v, v))

    def test_every_ordering_and_tie(self):
        for rgb in product(LEVELS, repeat=3):
            self.check(rgb)

    def test_seeded_sample(self):
        rng = random.Random(20)
        for _ in range(5000):
            self.check((rng.randrange(256), rng.randrange(256), rng.randrange(256)))


@pytest.mark.parametrize("ring", EXACTNESS_RINGS.values(), ids=EXACTNESS_RINGS.keys())
class TestPerColourExactness:
    """``image_descriptor`` of a one-pixel image is bit for bit the
    ``classify_color`` descriptor of that colour. Both compute the hexcone
    with ``colorsys``' operations, the kernel inline and ``classify_color``
    through ``_hsv``, which :class:`TestHexconeIsColorsys` pins to
    ``colorsys``."""

    @staticmethod
    def check(ring, rgb, gate):
        one_pixel = PixelGrid(1, 1, bytes(rgb))
        assert bits(image_descriptor(ring, one_pixel, gate)) == bits(
            classify_color(ring, rgb, gate)
        ), (rgb, gate)

    def test_every_gray(self, ring):
        for v in range(256):
            for gate in (DEFAULT_GATE, OPEN_GATE):
                self.check(ring, (v, v, v), gate)

    def test_every_ordering_and_tie(self, ring):
        for rgb in product(LEVELS, repeat=3):
            for gate in (DEFAULT_GATE, OPEN_GATE):
                self.check(ring, rgb, gate)

    def test_thresholds_equal_to_a_colours_own_s_or_v(self, ring):
        rng = random.Random(1515)
        for rgb in [*product(LEVELS, repeat=3), *(
            (rng.randrange(256), rng.randrange(256), rng.randrange(256)) for _ in range(200)
        )]:
            _, s, v = colorsys.rgb_to_hsv(*(c / 255.0 for c in rgb))
            assert v == max(rgb) / 255.0
            for gate in (
                AchromaticGate(s_min=s, v_min=0.0),
                AchromaticGate(s_min=0.0, v_min=v),
                AchromaticGate(s_min=0.0, v_min=0.0, v_max=v),
            ):
                self.check(ring, rgb, gate)

    def test_seeded_sample(self, ring):
        rng = random.Random(15)
        for _ in range(5000):
            rgb = (rng.randrange(256), rng.randrange(256), rng.randrange(256))
            self.check(ring, rgb, OPEN_GATE)


def weak_order(rgb):
    """Which channel ordering ``rgb`` takes, ties included: one of 13."""
    r, g, b = rgb
    return (r > g) - (r < g), (g > b) - (g < b), (r > b) - (r < b)


def ordering_pixels(rng):
    """Colours of every channel ordering: each strict ordering and each tie
    pattern (r == g > b, r == b > g, g == b > r, r > g == b, g > r == b,
    b > r == g and their kin), on the LEVELS and on seeded channel values."""
    pixels = list(product(LEVELS, repeat=3))
    for _ in range(40):
        x, y, z = sorted(rng.sample(range(256), 3), reverse=True)
        pixels += permutations((x, y, z))
        for p, q in ((x, y), (x, z), (y, z)):
            pixels += [(p, p, q), (p, q, p), (q, p, p), (p, q, q), (q, p, q), (q, q, p)]
        pixels.append((x, x, x))
    return pixels


ORDERING_RINGS = {
    "builtin": builtin_colibri(),
    **{
        f"random-{count}": from_boundaries(
            random_boundary_specs(random.Random(count), count), [f"c{i}" for i in range(count)]
        )
        for count in (2, 7, 16)
    },
    **{f"ulp-{count}": ulp_ring(random.Random(count), count) for count in (2, 7, 16)},
}


class TestKernelOrderings:
    """The kernel's six branches, one per channel ordering, and their ties
    give ``colorsys``' hue: bitwise the per-pixel scan."""

    def test_the_image_holds_every_ordering(self):
        assert len({weak_order(rgb) for rgb in ordering_pixels(random.Random(23))}) == 13

    @pytest.mark.parametrize("ring", ORDERING_RINGS.values(), ids=ORDERING_RINGS.keys())
    @pytest.mark.parametrize("gate", [DEFAULT_GATE, OPEN_GATE], ids=["default", "open"])
    def test_bitwise_equal_to_full_scan(self, ring, gate):
        pixels = ordering_pixels(random.Random(23))
        # Colours seen once and colours seen more often: a count of 1 skips
        # the multiply.
        pixels += pixels[::2] + pixels[::3]
        grid = grid_of(pixels)
        assert bits(image_descriptor(ring, grid, gate)) == bits(scan_descriptor(ring, grid, gate))


def hue_of(rgb):
    """The hue ``classify_color`` looks up for ``rgb``."""
    return colorsys.rgb_to_hsv(*(c / 255.0 for c in rgb))[0] * 360.0


def colour_ring(rng, count):
    """``(ring, knots)``: a random ring whose zones start, and where they
    can, end at the hues of 8-bit colours, and ``knots``, those colours.

    A zone whose ends do not come out exactly at both hues is made a few
    ulps wide instead, starting at the first; so is about a third of the
    zones anyway.
    """
    colours = {}
    while len(colours) < 2 * count:
        rgb = (rng.randrange(256), rng.randrange(256), rng.randrange(256))
        if len(set(rgb)) > 1:
            colours.setdefault(hue_of(rgb), rgb)
    hues = sorted(colours)
    specs, knots = [], []
    for k in range(count):
        lo, hi = hues[2 * k], hues[2 * k + 1]
        position, width = (lo + hi) / 2.0, hi - lo
        ends = wrap(position - width / 2.0), wrap(position + width / 2.0)
        if ends == (lo, hi) and rng.random() < 2 / 3:
            knots += [colours[lo], colours[hi]]
        else:
            position, width = lo + math.ulp(lo), 2.0 * math.ulp(lo)
            knots.append(colours[lo])
        specs.append(BoundarySpec(position, width))
    return from_boundaries(specs, [f"c{i}" for i in range(count)]), knots


class TestKernelZoneRule:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 16))
    def test_sums_to_one_and_is_exact_at_the_knots(self, seed, count):
        rng = random.Random(seed)
        ring, knots = colour_ring(rng, count)
        inside = [(rng.randrange(256), rng.randrange(256), rng.randrange(256)) for _ in range(200)]
        for rgb in knots + inside:
            masses = list(image_descriptor(ring, PixelGrid(1, 1, bytes(rgb)), OPEN_GATE)
                          .category_mass.values())
            if len(set(rgb)) == 1:
                assert masses == [0.0] * count
                continue
            assert sum(masses) == 1.0 and sum(1 for m in masses if m) <= 2, rgb
            assert masses == list(ring.memberships(hue_of(rgb)).values()), rgb
            if rgb in knots:
                assert set(masses) <= {0.0, 1.0}, rgb


class TestDominantLabels:
    def test_tie_breaks_by_ring_order(self, colibri):
        d = FuzzyColorDescriptor(
            {name: (0.5 if name in ("green", "yellow") else 0.0) for name in colibri.names},
            0.0,
        )
        assert dominant_labels(d, 1) == [("yellow", 0.5)]

    def test_zero_mass_omitted(self, colibri):
        d = FuzzyColorDescriptor(
            {name: (1.0 if name == "green" else 0.0) for name in colibri.names}, 0.0
        )
        assert dominant_labels(d, 3) == [("green", 1.0)]

    def test_achromatic_listed(self, colibri):
        d = FuzzyColorDescriptor(
            {name: (0.4 if name == "blue" else 0.0) for name in colibri.names}, 0.6
        )
        assert dominant_labels(d, 2) == [(ACHROMATIC, 0.6), ("blue", 0.4)]

    def test_achromatic_sorts_after_categories_on_tie(self, colibri):
        d = FuzzyColorDescriptor(
            {name: (0.5 if name == "blue" else 0.0) for name in colibri.names}, 0.5
        )
        assert dominant_labels(d, 2) == [("blue", 0.5), (ACHROMATIC, 0.5)]

    @pytest.mark.parametrize("k", [0, -1, 11])
    def test_k_domain(self, colibri, k):
        d = FuzzyColorDescriptor({name: 0.0 for name in colibri.names}, 1.0)
        with pytest.raises(ValueError):
            dominant_labels(d, k)
