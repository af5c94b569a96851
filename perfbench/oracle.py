"""Independent correctness oracle for the benchmark's outputs.

Built from the published boundaries alone: each boundary (position p,
width w) is a transition zone [p - w/2, p + w/2] in which membership passes
linearly from the category before it to the one after; between two zones a
category has membership 1. Colours are converted with stdlib ``colorsys``.
This module never imports fuzzyhue, so a defect shared with the program
cannot hide here.
"""

from __future__ import annotations

import colorsys
import csv
import io
import xml.etree.ElementTree as ET
from bisect import bisect_right
from collections import Counter
from math import fsum

# Gate defaults of the `label` and `classify` commands.
S_MIN = 0.15
V_MIN = 0.10
V_MAX = 1.0
MASS_TOL = 1e-9
VALIDATE_CHECKS = (
    "memberships-sum-to-one",
    "at-most-two-nonzero",
    "half-cuts-tile-circle",
    "boundaries-round-trip",
)


class Ring:
    """Piecewise-linear memberships of a ring, as a sorted knot table."""

    def __init__(self, names, boundaries):
        self.names = tuple(names)
        self.boundaries = tuple((float(p), float(w)) for p, w in boundaries)
        n = len(self.names)
        # Segments on one unrolled turn starting at the first zone's start:
        # (start, end, left category, right category); a core has left ==
        # right, a zone k runs from category k to k+1.
        origin = self.boundaries[0][0] - self.boundaries[0][1] / 2.0
        segments = []
        for k, (p, w) in enumerate(self.boundaries):
            start = (p - w / 2.0 - origin) % 360.0
            segments.append((start, start + w, k, (k + 1) % n))
            p2, w2 = self.boundaries[(k + 1) % n]
            core_end = (p2 - w2 / 2.0 - origin) % 360.0
            if k == n - 1:
                core_end = 360.0
            segments.append((start + w, core_end, (k + 1) % n, (k + 1) % n))
        self.origin = origin
        self.segments = segments
        self.starts = [s[0] for s in segments]

    def memberships(self, hue: float) -> list[float]:
        rel = (hue - self.origin) % 360.0
        start, end, left, right = self.segments[bisect_right(self.starts, rel) - 1]
        values = [0.0] * len(self.names)
        if left == right:
            values[left] = 1.0
        else:
            t = (rel - start) / (end - start)
            values[left] = 1.0 - t
            values[right] = t
        return values

    def crisp(self, hue: float) -> set[str]:
        """Labels acceptable as the crisp winner (both on a near-tie)."""
        values = self.memberships(hue)
        best = max(values)
        return {name for name, v in zip(self.names, values) if v >= best - MASS_TOL}

    def widths(self) -> list[float]:
        """Wideness of each category: the arc between its two crossings."""
        n = len(self.names)
        return [(self.boundaries[k][0] - self.boundaries[k - 1][0]) % 360.0 for k in range(n)]

    def is_valid(self) -> bool:
        """Every category keeps a core of at least zero degrees."""
        n = len(self.names)
        for k in range(n):
            (pl, wl), (pr, wr) = self.boundaries[k - 1], self.boundaries[k]
            if (pr - pl) % 360.0 - (wl + wr) / 2.0 < -1e-9:
                return False
        return True


def hsv(rgb: tuple[int, int, int]) -> tuple[float | None, float, float]:
    h, s, v = colorsys.rgb_to_hsv(rgb[0] / 255.0, rgb[1] / 255.0, rgb[2] / 255.0)
    return (None if s == 0.0 else h * 360.0), s, v


def gated(s: float, v: float, hue: float | None) -> bool:
    return hue is None or s < S_MIN or v < V_MIN or v > V_MAX


def colour_masses(ring: Ring, rgb) -> tuple[list[float], float, set[str]]:
    """(category masses, achromatic mass, acceptable crisp labels)."""
    hue, s, v = hsv(rgb)
    if gated(s, v, hue):
        return [0.0] * len(ring.names), 1.0, {"achromatic"}
    return ring.memberships(hue), 0.0, ring.crisp(hue)


def pixel_counts(raster: bytes) -> Counter:
    return Counter(zip(raster[0::3], raster[1::3], raster[2::3]))


def image_masses(ring: Ring, counts: Counter) -> dict:
    """Exact image descriptor plus the input properties the run reports."""
    n = sum(counts.values())
    sums = [[] for _ in ring.names]
    gray = 0
    for rgb, count in counts.items():
        masses, achromatic, _ = colour_masses(ring, rgb)
        if achromatic:
            gray += count
            continue
        for k, m in enumerate(masses):
            if m:
                sums[k].append(m * count)
    masses = {name: fsum(parts) / n for name, parts in zip(ring.names, sums)}
    masses["achromatic"] = gray / n
    return {"masses": masses, "pixels": n, "distinct": len(counts), "achromatic_pixels": gray}


def check_label(expected: dict, stdout: str, top_k: int = 3) -> str | None:
    """None when the printed top-k matches the oracle, else the reason."""
    masses = expected["masses"]
    lines = [line.split() for line in stdout.splitlines()]
    nonzero = sorted((m for m in masses.values() if m > 0.0), reverse=True)
    if len(lines) != min(top_k, len(nonzero)):
        return f"expected {min(top_k, len(nonzero))} labels, got {len(lines)}"
    previous = float("inf")
    for parts in lines:
        if len(parts) != 2 or parts[0] not in masses:
            return f"malformed line {' '.join(parts)!r}"
        label, printed = parts[0], float(parts[1])
        if abs(printed - masses[label]) > 6e-7:
            return f"{label} printed {printed}, oracle {masses[label]!r}"
        if masses[label] > previous + MASS_TOL:
            return "labels out of order"
        previous = masses[label]
    if len(nonzero) > len(lines) and nonzero[len(lines)] > previous + MASS_TOL:
        return "a heavier label was left out"
    return None


def check_colour(ring: Ring, rgb, record) -> str | None:
    """``record`` is (masses in ring order..., achromatic, crisp label)."""
    masses, achromatic, crisp = colour_masses(ring, rgb)
    got = record[: len(masses)]
    if any(abs(a - b) > MASS_TOL for a, b in zip(got, masses)) or len(got) != len(masses):
        return f"{rgb}: masses {got} != {masses}"
    if abs(record[len(masses)] - achromatic) > MASS_TOL:
        return f"{rgb}: achromatic {record[len(masses)]} != {achromatic}"
    if record[-1] not in crisp:
        return f"{rgb}: crisp {record[-1]!r} not in {sorted(crisp)}"
    return None


# -- model tools ----------------------------------------------------------


def _close_on_circle(a: float, b: float) -> bool:
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d) <= 1e-9


def _check_validate(ring, out, code):
    lines = out.splitlines()
    if code != 0 or len(lines) != 4:
        return f"validate exit {code}, {len(lines)} lines"
    for line, name in zip(lines, VALIDATE_CHECKS):
        if not line.startswith(f"PASS {name} "):
            return f"validate line {line!r}"
    return None


def _check_csv(ring, out, code):
    if code != 0:
        return f"metrics exit {code}"
    rows = list(csv.reader(io.StringIO(out)))
    header, rows = rows[0], rows[1:]
    if header[0] != "category" or [r[0] for r in rows] != list(ring.names):
        return "metrics rows do not follow the ring"
    widths = ring.widths()
    for k, row in enumerate(rows):
        start, end, wide, left, right = (float(v) for v in row[1:])
        if not (
            _close_on_circle(start, ring.boundaries[k - 1][0])
            and _close_on_circle(end, ring.boundaries[k][0])
            and abs(wide - widths[k]) <= 1e-9
            and abs(left - ring.boundaries[k - 1][1]) <= 1e-9
            and abs(right - ring.boundaries[k][1]) <= 1e-9
        ):
            return f"metrics row {row}"
    if abs(fsum(float(r[3]) for r in rows) - 360.0) > 1e-9:
        return "widenesses do not sum to 360"
    return None


def _check_report(ring, out, code):
    if code != 0:
        return f"report exit {code}"
    widths = ring.widths()
    lines = out.splitlines()
    widest = lines[0].split()[1]
    narrowest = lines[1].split()[1]
    top, low = max(widths), min(widths)
    if widths[ring.names.index(widest)] < top - 1e-9:
        return f"widest {widest}"
    if widths[ring.names.index(narrowest)] > low + 1e-9:
        return f"narrowest {narrowest}"
    ratio = float(lines[2].rsplit(" ", 1)[1])
    if abs(ratio - top / low) > 1e-3 * top / low:
        return f"ratio {ratio} vs {top / low}"
    per = [line.split() for line in lines[4:]]
    if [p[0] for p in per] != list(ring.names) or any(
        abs(float(p[1]) - w) > 1e-9 for p, w in zip(per, widths)
    ):
        return "per-category wideness"
    return None


def _check_classify(ring, out, code, hue):
    if code != 0:
        return f"classify exit {code}"
    lines = out.splitlines()
    values = ring.memberships(hue % 360.0)
    printed = dict(line.split() for line in lines[:-1])
    if set(printed) - set(ring.names) or any(
        abs(float(printed.get(n, 0.0)) - v) > 6e-4 for n, v in zip(ring.names, values)
    ):
        return f"classify --hue {hue}: printed {printed}, oracle {values}"
    crisp = lines[-1].removeprefix("crisp label: ")
    if crisp not in ring.crisp(hue % 360.0):
        return f"classify --hue {hue}: crisp {crisp}"
    return None


def _check_memberships_svg(ring, svg):
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    lines = [e for e in root.iter(f"{ns}line") if e.get("class") == "axis"]
    polylines = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "membership"]
    if [p.get("data-category") for p in polylines] != list(ring.names):
        return f"memberships SVG has {len(polylines)} polylines for {len(ring.names)} categories"
    # The axes give the plot frame: the x axis spans 0..360 degrees, the y
    # axis runs from membership 0 up to 1.
    x1 = float(lines[0].get("x2"))
    y0, y1 = float(lines[1].get("y1")), float(lines[1].get("y2"))
    curves = [
        [tuple(float(v) for v in pt.split(",")) for pt in p.get("points").split()]
        for p in polylines
    ]
    if len(set(map(len, curves))) != 1 or abs(curves[0][-1][0] - x1) > 1e-3:
        return "memberships SVG curves do not span the axis"
    # Curves sample the axis evenly from 0 to 360 degrees inclusive.
    for i, points in enumerate(zip(*curves)):
        hue = i * 360.0 / (len(curves[0]) - 1)
        expected = ring.memberships(hue % 360.0)
        for (_, y), mu in zip(points, expected):
            if abs((y0 - y) / (y0 - y1) - mu) > 1e-4:
                return f"memberships SVG curve off at hue {hue:.3f}"
    return None


def _check_spectrum_svg(ring, svg):
    root = ET.fromstring(svg)
    markers = [
        e for e in root.iter("{http://www.w3.org/2000/svg}line")
        if e.get("class") == "boundary-marker"
    ]
    if len(markers) != len(ring.names):
        return f"spectrum SVG has {len(markers)} markers for {len(ring.names)} boundaries"
    return None


def check_cycle(config: dict, outputs: list) -> list[str]:
    """Check one model-tools cycle; ``outputs`` is [(command, exit, stdout, svg)]."""
    ring = Ring(config["names"], config["boundaries"])
    if config["bad"] or not ring.is_valid():
        return [
            f"{cmd} on an overlapping config exited {code}"
            for cmd, code, out, _ in outputs
            if code != 2 or out
        ]
    problems = []
    for cmd, code, out, svg in outputs:
        if cmd == "validate":
            problem = _check_validate(ring, out, code)
        elif cmd == "metrics":
            problem = _check_csv(ring, out, code)
        elif cmd == "report":
            problem = _check_report(ring, out, code)
        elif cmd == "classify":
            problem = _check_classify(ring, out, code, config["hue"])
        elif code != 0:
            problem = f"plot {cmd} exit {code}"
        elif cmd == "memberships":
            problem = _check_memberships_svg(ring, svg)
        else:
            problem = _check_spectrum_svg(ring, svg)
        if problem:
            problems.append(problem)
    return problems
