"""Fuzzy color descriptors for single colors and whole images."""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from math import fsum
from struct import Struct
from typing import TYPE_CHECKING, Mapping

from ._value import Value, _number, _shown
from .circle import wrap
from .partition import HuePartition

if TYPE_CHECKING:
    from .formats import PixelGrid

#: Label used for colors below the chromatic thresholds.
ACHROMATIC = "achromatic"

# Byte positions of R, G and B inside a native 4-byte unsigned int whose
# value is 0x00RRGGBB.
_RGB_WORD_OFFSETS = (2, 1, 0) if sys.byteorder == "little" else (1, 2, 3)

# The float colorsys sees for each 8-bit channel value, x / 255.0.
_UNIT = tuple(x / 255.0 for x in range(256))

# Pixels in a tile, about how many blocks the tiles are counted in, and
# tiles cut by one unpack (2,688 bytes of samples); see _colour_counts. A
# chunk's tuple, 488 bytes with its GC header, stays within the 512 bytes
# that Python's small-object allocator serves, so no chunk calls malloc.
_TILE = 16
_BLOCKS = 16
_CHUNK = 56


class HsvColor(Value):
    """Hexcone HSV triple; ``hue`` is None exactly when saturation is 0."""

    __match_args__ = ("hue", "saturation", "value")

    def __init__(self, hue: float | None, saturation: float, value: float) -> None:
        fields = self.__dict__
        fields["hue"] = hue
        fields["saturation"] = saturation
        fields["value"] = value


class AchromaticGate(Value):
    """Saturation/value thresholds outside which a color reads as gray.

    Colors with saturation below ``s_min``, value below ``v_min``, or value
    above ``v_max`` get all their mass on the achromatic label. The default
    ``v_max`` of 1.0 leaves white ungated. Every threshold lies in [0, 1]
    and ``v_min <= v_max``; anything else (NaN included) raises ValueError.

    For 8-bit colours the gate is also tabulated, as derived state that
    takes no part in equality, hash or repr: see ``_gray_from``.
    """

    __match_args__ = ("s_min", "v_min", "v_max")

    def __init__(self, s_min: float = 0.15, v_min: float = 0.10, v_max: float = 1.0) -> None:
        fields = self.__dict__
        for name, value in zip(self.__match_args__, (s_min, v_min, v_max)):
            fields[name] = _number(name, value, 0, 1)
        if v_min > v_max:
            raise ValueError(f"v_min {v_min!r} exceeds v_max {v_max!r}")

    @property
    def _gray_from(self) -> tuple[int, ...]:
        """For each 8-bit max channel ``hi``, the least min channel from
        which the colour is gray: a colour whose channels have max ``hi``
        and min ``lo`` is gray exactly when ``lo >= _gray_from[hi]``.

        Equal gates share one table, since ``label`` makes a gate per image.
        """
        return _gray_table(self.s_min, self.v_min, self.v_max)


@lru_cache(maxsize=16)
def _gray_table(s_min: float, v_min: float, v_max: float) -> tuple[int, ...]:
    """``AchromaticGate._gray_from`` of the gate with these thresholds.

    Each entry comes from ``classify_color``'s float rule on the hexcone's
    ``v = unit[hi]`` and ``s = (v - unit[lo]) / v``. For one ``hi``, ``s``
    can only fall as ``lo`` rises, since every rounded step is monotone, so
    a bisection finds where the rule turns gray; ``lo == hi`` (saturation
    0) always is.
    """
    unit = _UNIT

    def gray_from(hi: int) -> int:
        v = unit[hi]
        if v < v_min or v > v_max:
            return 0
        return bisect_left(range(hi), True, key=lambda lo: (v - unit[lo]) / v < s_min)

    return tuple(gray_from(hi) for hi in range(256))


DEFAULT_GATE = AchromaticGate()


def _check_rgb(rgb: tuple[int, int, int]) -> tuple[int, int, int]:
    """The three channels of an RGB triple, each an int (not bool) in [0, 255].

    Anything but exactly three values raises ValueError, like a bad channel.
    """
    try:
        r, g, b = rgb
    except TypeError:
        # Not iterable; a wrong count of values is a ValueError already.
        raise ValueError(f"RGB must be three channels, got {_shown(rgb)}") from None
    # Exact ints in range are the common case; subclasses (IntEnum, bool)
    # and everything else go through the full check.
    if (
        type(r) is int and type(g) is int and type(b) is int
        and 0 <= r <= 255 and 0 <= g <= 255 and 0 <= b <= 255
    ):
        return r, g, b
    return tuple(_number("RGB channel", c, 0, 255, integral=True) for c in (r, g, b))


def _hsv(r: int, g: int, b: int) -> tuple[float | None, float, float]:
    """``(hue, saturation, value)`` of checked 8-bit channels, hue in degrees
    or None when saturation is 0.

    ``colorsys.rgb_to_hsv``'s operations in its order on ``x / 255.0``, ties
    going to r, then g, so every result is bitwise ``colorsys``' (hue × 360).
    Three comparisons pick one of the six channel orderings, so each branch
    knows its max, mid and min channel. ``colorsys`` divides the max's
    distance from each channel by ``rangec``; for the min channel that is
    ``rangec / rangec``, exactly 1.0, so each branch writes 1.0 for it and
    divides once. Only where r is the max and g the min can the sum be
    negative, so only that branch takes ``% 1.0``.
    """
    unit = _UNIT
    if r >= g:
        if g >= b:
            # r >= g >= b; the only ordering with a tie of all three.
            maxc = unit[r]
            if r == b:
                return None, 0.0, maxc
            rangec = maxc - unit[b]
            hue = (1.0 - (maxc - unit[g]) / rangec) / 6.0 * 360.0
        elif r >= b:
            # r >= b > g
            maxc = unit[r]
            rangec = maxc - unit[g]
            hue = ((maxc - unit[b]) / rangec - 1.0) / 6.0 % 1.0 * 360.0
        else:
            # b > r >= g
            maxc = unit[b]
            rangec = maxc - unit[g]
            hue = (5.0 - (maxc - unit[r]) / rangec) / 6.0 * 360.0
    elif r >= b:
        # g > r >= b
        maxc = unit[g]
        rangec = maxc - unit[b]
        hue = (2.0 + (maxc - unit[r]) / rangec - 1.0) / 6.0 * 360.0
    elif g >= b:
        # g >= b > r
        maxc = unit[g]
        rangec = maxc - unit[r]
        hue = (3.0 - (maxc - unit[b]) / rangec) / 6.0 * 360.0
    else:
        # b > g > r
        maxc = unit[b]
        rangec = maxc - unit[r]
        hue = (4.0 + (maxc - unit[g]) / rangec - 1.0) / 6.0 * 360.0
    return hue, rangec / maxc, maxc


def rgb_to_hsv(rgb: tuple[int, int, int]) -> HsvColor:
    """Standard hexcone conversion; hue in degrees [0, 360) or None for grays."""
    return HsvColor(*_hsv(*_check_rgb(rgb)))


def hsv_to_rgb(hue: float, saturation: float = 1.0, value: float = 1.0) -> tuple[int, int, int]:
    """Inverse hexcone of a finite hue to 8-bit RGB; ``saturation`` and ``value`` in [0, 1]."""
    _number("saturation", saturation, 0, 1)
    _number("value", value, 0, 1)
    # Loaded on first use: the forward conversion is _hsv.
    import colorsys

    r, g, b = colorsys.hsv_to_rgb(wrap(hue) / 360.0, saturation, value)
    return round(r * 255), round(g * 255), round(b * 255)


class FuzzyColorDescriptor(Value):
    """Normalized per-category mass for a color or image, plus gray mass."""

    __match_args__ = ("category_mass", "achromatic_mass")

    def __init__(self, category_mass: Mapping[str, float], achromatic_mass: float) -> None:
        fields = self.__dict__
        fields["category_mass"] = category_mass
        fields["achromatic_mass"] = achromatic_mass

    def labeled_masses(self) -> list[tuple[str, float]]:
        """All (label, mass) pairs in ring order, achromatic last."""
        pairs = list(self.category_mass.items())
        pairs.append((ACHROMATIC, self.achromatic_mass))
        return pairs

    def total(self) -> float:
        return fsum(self.category_mass.values()) + self.achromatic_mass


def classify_color(
    partition: HuePartition,
    rgb: tuple[int, int, int],
    gate: AchromaticGate = DEFAULT_GATE,
) -> FuzzyColorDescriptor:
    """Fuzzy descriptor of one color: memberships of its hue, or all gray."""
    hue, s, v = _hsv(*_check_rgb(rgb))
    # The image kernel's order: the gray axis (saturation 0, where the hue
    # is undefined), then value, then saturation.
    if hue is None or v < gate.v_min or v > gate.v_max or s < gate.s_min:
        return FuzzyColorDescriptor(partition._zeros.copy(), 1.0)
    return FuzzyColorDescriptor(partition.memberships(hue), 0.0)


def _words(samples: bytes) -> memoryview:
    """One native word 0x00RRGGBB per pixel of packed RGB samples.

    Three strided copies spread the channels, so no tuple is built per pixel.
    """
    words = bytearray(len(samples) // 3 * 4)
    for channel, offset in enumerate(_RGB_WORD_OFFSETS):
        words[offset::4] = samples[channel::3]
    return memoryview(words)


def _colour_counts(samples: bytes) -> Counter:
    """Pixels of each colour in packed RGB samples, keyed by word 0x00RRGGBB.

    The samples are cut into tiles of _TILE neighbouring pixels (a tile may
    run on into the next row), and the tiles are counted first, block by
    block, in about _BLOCKS contiguous blocks. Where tiles repeat (flat
    fills, posterized ramps, repeated or shifted rows) this counts a
    sixteenth as many items. Once more than one tile in 3 of a block was not
    seen before, as in photos and noise, every later block is counted pixel
    by pixel: where each distinct tile recurs only three times, counting the
    tiles and then their pixels costs about what counting the pixels does.
    Counts add up, so the blocks already counted by tiles keep their counts.
    The tail of fewer than _TILE pixels is counted pixel by pixel too.
    Tiles seen equally often are counted together by their pixels, and each
    pixel's count is multiplied by how often its tile was seen.

    A block's tiles are cut by one struct unpack per chunk of _CHUNK tiles
    and each chunk is counted as it is cut, so one chunk of tile objects is
    alive at a time. A block's last, shorter chunk is cut by a Struct of its
    own length.
    """
    tile_bytes = 3 * _TILE
    chunk_bytes = _CHUNK * tile_bytes
    cut_chunk = Struct(f"{tile_bytes}s" * _CHUNK).unpack_from
    n = len(samples) // 3
    end = n // _TILE * tile_bytes
    step = -(-n // _TILE // _BLOCKS) * tile_bytes
    tiles = Counter()
    start = 0
    while start < end:
        stop = min(start + step, end)
        last = stop - (stop - start) % chunk_bytes
        known = len(tiles)
        # chain drops each chunk's tuple of tiles before map cuts the next.
        offsets = range(start, last, chunk_bytes)
        tiles.update(chain.from_iterable(map(cut_chunk, repeat(samples), offsets)))
        if last < stop:
            cut_last = Struct(f"{tile_bytes}s" * ((stop - last) // tile_bytes)).unpack_from
            tiles.update(cut_last(samples, last))
        size = (stop - start) // tile_bytes
        start = stop
        if 3 * (len(tiles) - known) > size:
            break
    colours = Counter(_words(samples[start:]).cast("I"))
    # The group of tiles seen once is always there and first, and it is added
    # by Counter.update's C loop, with no multiply.
    groups = {1: []}
    for tile, m in tiles.items():
        groups.setdefault(m, []).append(tile)
    for m, group in groups.items():
        pixels = _words(b"".join(group)).cast("I")
        if m == 1:
            colours.update(pixels)
        else:
            for key, count in Counter(pixels).items():
                colours[key] += count * m
    return colours


def image_descriptor(
    partition: HuePartition,
    grid: "PixelGrid",
    gate: AchromaticGate = DEFAULT_GATE,
) -> FuzzyColorDescriptor:
    """Equal-weight average of the per-pixel descriptors of an image.

    Colors are counted by tiles of 16 neighbouring pixels, block by block,
    while tiles repeat, and pixel by pixel after the first block in which
    they do not (see _colour_counts). Each distinct color is then
    classified once and its counted masses reduced with exact (compensated)
    summation, so the result is identical for any pixel ordering.

    Per colour, three comparisons pick one of the six channel orderings
    (ties as in ``colorsys``: r, then g). The branch tests the gate's
    integer table (``AchromaticGate._gray_from``) on its max and min
    channel, and only a chromatic colour gets a hue, by ``_hsv``'s
    arithmetic for that ordering, one division. The result is bitwise the
    per-colour ``classify_color`` descriptors, weighted and summed.
    """
    samples = grid.samples
    n = len(samples) // 3
    if not n:
        raise ValueError("cannot describe an empty image")
    # Loaded on first use: only images need it.
    from array import array

    starts, zones = partition._zones
    # One float array of masses per category, for an exactly rounded sum,
    # without a float object per mass. Gray pixels are counted apart: a
    # category may be named like the achromatic label.
    terms = [array("d") for _ in partition.names]
    # The zone table's pieces, each with its two categories' appends and
    # shifted by one place: zones[i - 1] is pieces[i], so bisect_right's
    # index needs no - 1, and a hue below the first start (index 0) reads
    # the last piece.
    pieces = [(terms[k].append, terms[j].append, lo, w) for k, j, lo, w in zones[-1:] + zones]
    gray = 0
    unit = _UNIT
    gray_from = gate._gray_from
    for key, count in _colour_counts(samples).items():
        r, g, b = key >> 16, key >> 8 & 255, key & 255
        # _hsv inline, branch by branch, with classify_color's gate looked up
        # on the branch's max and min channel before any float division; a
        # call per colour would slow this loop. Every gray reason (gray axis,
        # value, saturation) is a function of that max and min, so a gray
        # branch can tell it again where it is wanted.
        if r >= g:
            if g >= b:
                if b >= gray_from[r]:
                    gray += count
                    continue
                maxc = unit[r]
                rangec = maxc - unit[b]
                hue = (1.0 - (maxc - unit[g]) / rangec) / 6.0 * 360.0
            elif r >= b:
                if g >= gray_from[r]:
                    gray += count
                    continue
                maxc = unit[r]
                rangec = maxc - unit[g]
                hue = ((maxc - unit[b]) / rangec - 1.0) / 6.0 % 1.0 * 360.0
            else:
                if g >= gray_from[b]:
                    gray += count
                    continue
                maxc = unit[b]
                rangec = maxc - unit[g]
                hue = (5.0 - (maxc - unit[r]) / rangec) / 6.0 * 360.0
        elif r >= b:
            if b >= gray_from[g]:
                gray += count
                continue
            maxc = unit[g]
            rangec = maxc - unit[b]
            hue = (2.0 + (maxc - unit[r]) / rangec - 1.0) / 6.0 * 360.0
        elif g >= b:
            if r >= gray_from[g]:
                gray += count
                continue
            maxc = unit[g]
            rangec = maxc - unit[r]
            hue = (3.0 - (maxc - unit[b]) / rangec) / 6.0 * 360.0
        else:
            if r >= gray_from[b]:
                gray += count
                continue
            maxc = unit[b]
            rangec = maxc - unit[r]
            hue = (4.0 + (maxc - unit[g]) / rangec - 1.0) / 6.0 * 360.0
        # HuePartition._split inline, circle.gap(base, hue) too: k gets 1 - t
        # and j gets t, or 1 on a core. A count of 1 skips the multiply,
        # which is exact anyway.
        k_append, j_append, base, w = pieces[bisect_right(starts, hue)]
        if w:
            t = (hue - base if hue >= base else hue + (360.0 - base)) / w
            if count == 1:
                j_append(t)
                k_append(1.0 - t)
            else:
                j_append(t * count)
                k_append((1.0 - t) * count)
        else:
            k_append(count)
    return FuzzyColorDescriptor(
        {name: fsum(masses) / n for name, masses in zip(partition.names, terms)}, gray / n
    )


def dominant_labels(descriptor: FuzzyColorDescriptor, k: int = 3) -> list[tuple[str, float]]:
    """Top-k labels by mass, descending; zero-mass labels are omitted.

    Ties keep ring order (achromatic last), so output is deterministic.
    """
    _number("k", k, 1, 10, integral=True)
    entries = [(label, mass) for label, mass in descriptor.labeled_masses() if mass > 0.0]
    entries.sort(key=lambda entry: -entry[1])
    return entries[:k]
