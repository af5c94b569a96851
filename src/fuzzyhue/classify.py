"""Fuzzy color descriptors for single colors and whole images."""

from __future__ import annotations

import colorsys
import sys
from bisect import bisect_right
from collections import Counter
from math import fsum
from typing import TYPE_CHECKING, Mapping

from ._value import Value, _number
from .partition import HuePartition

if TYPE_CHECKING:
    from .formats import PixelGrid

#: Label used for colors below the chromatic thresholds.
ACHROMATIC = "achromatic"

# Byte positions of R, G and B inside a native 4-byte unsigned int whose
# value is 0x00RRGGBB.
_RGB_WORD_OFFSETS = (2, 1, 0) if sys.byteorder == "little" else (1, 2, 3)


class HsvColor(Value):
    """Hexcone HSV triple; ``hue`` is None exactly when saturation is 0."""

    __match_args__ = ("hue", "saturation", "value")

    def __init__(self, hue: float | None, saturation: float, value: float) -> None:
        object.__setattr__(self, "hue", hue)
        object.__setattr__(self, "saturation", saturation)
        object.__setattr__(self, "value", value)


class AchromaticGate(Value):
    """Saturation/value thresholds outside which a color reads as gray.

    Colors with saturation below ``s_min``, value below ``v_min``, or value
    above ``v_max`` get all their mass on the achromatic label. The default
    ``v_max`` of 1.0 leaves white ungated. Every threshold lies in [0, 1]
    and ``v_min <= v_max``; anything else (NaN included) raises ValueError.
    """

    __match_args__ = ("s_min", "v_min", "v_max")

    def __init__(self, s_min: float = 0.15, v_min: float = 0.10, v_max: float = 1.0) -> None:
        for name, value in zip(self.__match_args__, (s_min, v_min, v_max)):
            object.__setattr__(self, name, _number(name, value, 0, 1))
        if v_min > v_max:
            raise ValueError(f"v_min {v_min!r} exceeds v_max {v_max!r}")


DEFAULT_GATE = AchromaticGate()


def _check_rgb(rgb: tuple[int, int, int]) -> tuple[int, int, int]:
    """The three channels of an RGB triple, each an int (not bool) in [0, 255].

    Anything but exactly three values raises ValueError, like a bad channel.
    """
    r, g, b = rgb
    # Exact ints in range are the common case; subclasses (IntEnum, bool)
    # and everything else go through the full check.
    if (
        type(r) is int and type(g) is int and type(b) is int
        and 0 <= r <= 255 and 0 <= g <= 255 and 0 <= b <= 255
    ):
        return r, g, b
    return tuple(_number("RGB channel", c, 0, 255, integral=True) for c in (r, g, b))


def rgb_to_hsv(rgb: tuple[int, int, int]) -> HsvColor:
    """Standard hexcone conversion; hue in degrees [0, 360) or None for grays."""
    r, g, b = _check_rgb(rgb)
    h, s, v = colorsys.rgb_to_hsv(r / 255.0, g / 255.0, b / 255.0)
    return HsvColor(None if s == 0.0 else h * 360.0, s, v)


def hsv_to_rgb(hue: float, saturation: float = 1.0, value: float = 1.0) -> tuple[int, int, int]:
    """Inverse hexcone conversion to 8-bit RGB; ``saturation`` and ``value`` in [0, 1]."""
    _number("saturation", saturation, 0, 1)
    _number("value", value, 0, 1)
    r, g, b = colorsys.hsv_to_rgb((hue % 360.0) / 360.0, saturation, value)
    return round(r * 255), round(g * 255), round(b * 255)


class FuzzyColorDescriptor(Value):
    """Normalized per-category mass for a color or image, plus gray mass."""

    __match_args__ = ("category_mass", "achromatic_mass")

    def __init__(self, category_mass: Mapping[str, float], achromatic_mass: float) -> None:
        object.__setattr__(self, "category_mass", category_mass)
        object.__setattr__(self, "achromatic_mass", achromatic_mass)

    def labeled_masses(self) -> list[tuple[str, float]]:
        """All (label, mass) pairs in ring order, achromatic last."""
        pairs = list(self.category_mass.items())
        pairs.append((ACHROMATIC, self.achromatic_mass))
        return pairs

    def total(self) -> float:
        return fsum(self.category_mass.values()) + self.achromatic_mass


def _is_gray(saturation: float, value: float, gate: AchromaticGate) -> bool:
    # Saturation 0 is the gray axis, where the hue is undefined.
    return (
        saturation == 0.0
        or saturation < gate.s_min
        or value < gate.v_min
        or value > gate.v_max
    )


def classify_color(
    partition: HuePartition,
    rgb: tuple[int, int, int],
    gate: AchromaticGate = DEFAULT_GATE,
) -> FuzzyColorDescriptor:
    """Fuzzy descriptor of one color: memberships of its hue, or all gray."""
    r, g, b = _check_rgb(rgb)
    h, s, v = colorsys.rgb_to_hsv(r / 255.0, g / 255.0, b / 255.0)
    if _is_gray(s, v, gate):
        return FuzzyColorDescriptor({name: 0.0 for name in partition.names}, 1.0)
    return FuzzyColorDescriptor(partition.memberships(h * 360.0), 0.0)


def image_descriptor(
    partition: HuePartition,
    grid: "PixelGrid",
    gate: AchromaticGate = DEFAULT_GATE,
) -> FuzzyColorDescriptor:
    """Equal-weight average of the per-pixel descriptors of an image.

    Distinct colors are classified once and their counted masses reduced
    with exact (compensated) summation, so the result is identical for any
    pixel ordering.
    """
    samples = grid.samples
    n = len(samples) // 3
    if not n:
        raise ValueError("cannot describe an empty image")
    # One native word 0x00RRGGBB per pixel, spread by three strided copies,
    # so the colours are counted without building a tuple per pixel.
    words = bytearray(4 * n)
    for channel, offset in enumerate(_RGB_WORD_OFFSETS):
        words[offset::4] = samples[channel::3]
    knots, active = partition._segments
    # Zero terms add nothing to an exactly rounded sum, so only nonzero
    # masses are kept, in one list per category. Gray pixels are counted
    # apart: a category may be named like the achromatic label.
    terms = [[] for _ in partition.names]
    gray = 0
    for key, count in Counter(memoryview(words).cast("I")).items():
        h, s, v = colorsys.rgb_to_hsv(
            (key >> 16) / 255.0, (key >> 8 & 255) / 255.0, (key & 255) / 255.0
        )
        if _is_gray(s, v, gate):
            gray += count
            continue
        hue = h * 360.0
        for i, t in active[bisect_right(knots, hue) - 1]:
            mass = t.membership(hue)
            if mass:
                terms[i].append(mass * count)
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
