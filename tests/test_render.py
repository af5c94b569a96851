import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzyhue
from conftest import random_boundary_specs
from fuzzyhue import (
    RING,
    BoundarySpec,
    CircularTrapezoid,
    HuePartition,
    PlotConfig,
    builtin_colibri,
    from_boundaries,
    hsv_to_rgb,
    render_memberships,
    render_spectrum,
)
from fuzzyhue.render import _hex_color

# Layout constants pinned by the renderer.
MEMBERS_LEFT, MEMBERS_RIGHT = 45.0, 15.0
MEMBERS_TOP, MEMBERS_BOTTOM = 15.0, 35.0
SPECTRUM_LEFT, SPECTRUM_RIGHT = 15.0, 15.0
GOLDEN_POSITIONS = (12.5, 40.0, 55.5, 151.5, 180.5, 199.5, 255.0, 300.5, 340.5)
WIDE_CONFIG = PlotConfig(
    width_px=1200, height_px=400, alpha_line=0.3, sample_step=1.0, show_labels=False
)


def by_class(svg_text, cls):
    root = ET.fromstring(svg_text)
    return [el for el in root.iter() if el.get("class") == cls]


def two_category_partition():
    specs = [BoundarySpec(90.0, 10.0), BoundarySpec(270.0, 20.0)]
    return from_boundaries(specs, ("warm", "cool"))


def rotated_builtin():
    return builtin_colibri().rotated(30)


def decimal_rotated_builtin():
    # Rounded, lightblue's core is -2.8e-14 here, so the zone after it
    # starts where the zone before it ends.
    return builtin_colibri().rotated(-185.6763)


# Sixteen boundaries, each written out; the first zone straddles 0.
SIXTEEN_BOUNDARIES = (
    (1.5, 8.0), (22.0, 3.0), (44.25, 12.5), (66.0, 5.0),
    (90.5, 9.0), (111.0, 2.5), (135.75, 14.0), (158.0, 6.0),
    (180.0, 10.0), (203.5, 4.0), (225.0, 11.0), (248.25, 7.5),
    (270.0, 3.5), (292.5, 13.0), (315.0, 5.5), (337.75, 9.5),
)


def sixteen_category_partition():
    specs = [BoundarySpec(position, width) for position, width in SIXTEEN_BOUNDARIES]
    return from_boundaries(specs, [f"c{i}" for i in range(16)])


class TestPlotConfig:
    def test_defaults_valid(self):
        cfg = PlotConfig()
        assert cfg.width_px >= 200 and cfg.height_px >= 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width_px": 100},
            {"height_px": 50},
            {"width_px": float("nan")},
            {"height_px": float("nan")},
            {"sample_step": 0.0},
            {"sample_step": 6.0},
            {"alpha_line": 0.0},
            {"alpha_line": 1.5},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            PlotConfig(**kwargs)


def checked_hex_color(hue):
    return "#%02x%02x%02x" % hsv_to_rgb(hue, 1.0, 1.0)


# The sector edges, their neighbours, the least positive hue and the last
# hue below 360.
EDGE_HUES = [
    0.0,
    5e-324,
    *(
        h
        for edge in (60.0, 120.0, 180.0, 240.0, 300.0)
        for h in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 360.0))
    ),
    math.nextafter(360.0, 0.0),
]


class TestHexColor:
    @settings(max_examples=2000, deadline=None)
    @given(st.floats(0.0, 360.0, exclude_max=True))
    def test_is_the_checked_conversion(self, hue):
        assert _hex_color(hue) == checked_hex_color(hue)

    @pytest.mark.parametrize("hue", EDGE_HUES, ids=repr)
    def test_sector_edges(self, hue):
        assert _hex_color(hue) == checked_hex_color(hue)


def test_figures_do_not_load_colorsys():
    code = (
        "import sys; from fuzzyhue import builtin_colibri, render_memberships, render_spectrum;"
        " render_spectrum(builtin_colibri()); render_memberships(builtin_colibri());"
        " print('colorsys' in sys.modules)"
    )
    src = str(Path(fuzzyhue.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"


class TestRenderMemberships:
    def test_structural_counts(self, colibri):
        svg = render_memberships(colibri)
        assert len(by_class(svg, "membership")) == 9
        assert len(by_class(svg, "alpha-line")) == 1

    def test_polylines_in_ring_order(self, colibri):
        svg = render_memberships(colibri)
        names = [el.get("data-category") for el in by_class(svg, "membership")]
        assert names == list(RING)

    def test_yellow_peak_at_46_degrees(self, colibri):
        cfg = PlotConfig()
        svg = render_memberships(colibri, cfg)
        yellow = next(
            el for el in by_class(svg, "membership") if el.get("data-category") == "yellow"
        )
        points = [tuple(map(float, pt.split(","))) for pt in yellow.get("points").split()]
        x_peak, y_peak = min(points, key=lambda p: p[1])
        plot_w = cfg.width_px - MEMBERS_LEFT - MEMBERS_RIGHT
        plot_h = cfg.height_px - 15.0 - 35.0
        membership = 1.0 - (y_peak - 15.0) / plot_h
        assert membership == pytest.approx(1.0, abs=1e-3)
        degrees = (x_peak - MEMBERS_LEFT) / plot_w * 360.0
        assert degrees == pytest.approx(46.0, abs=0.01)

    def test_alpha_line_height_tracks_config(self, colibri):
        low = by_class(render_memberships(colibri, PlotConfig(alpha_line=0.25)), "alpha-line")[0]
        high = by_class(render_memberships(colibri, PlotConfig(alpha_line=0.75)), "alpha-line")[0]
        assert float(low.get("y1")) > float(high.get("y1"))

    def test_rotation_is_structurally_identical(self, colibri):
        plain = render_memberships(colibri)
        moved = render_memberships(colibri.rotated(40.0))
        assert plain != moved
        for cls in ("membership", "alpha-line", "category-label"):
            assert len(by_class(plain, cls)) == len(by_class(moved, cls))
        assert [el.get("data-category") for el in by_class(moved, "membership")] == list(RING)

    def test_byte_determinism(self, colibri):
        assert render_memberships(colibri) == render_memberships(colibri)

    def test_labels_toggle(self, colibri):
        with_labels = render_memberships(colibri, PlotConfig(show_labels=True))
        without = render_memberships(colibri, PlotConfig(show_labels=False))
        assert len(by_class(with_labels, "category-label")) == 9
        assert len(by_class(without, "category-label")) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(2, 16),
        rotate=st.booleans(),
        sample_step=st.sampled_from([0.5, 0.7, 1.0, 2.3, 3.7, 5.0]),
    )
    def test_polylines_match_every_category_at_every_sample(
        self, seed, count, rotate, sample_step
    ):
        rng = random.Random(seed)
        specs = random_boundary_specs(rng, count)
        partition = from_boundaries(specs, [f"c{i}" for i in range(count)])
        if rotate:
            # Move one transition zone so that it straddles 0.
            spec = rng.choice(specs)
            partition = partition.rotated(rng.uniform(-0.5, 0.5) * spec.width - spec.position)
        cfg = PlotConfig(sample_step=sample_step)
        svg = render_memberships(partition, cfg)
        got = [el.get("points") for el in by_class(svg, "membership")]
        assert got == reference_points(partition, cfg)

    def test_evaluates_only_active_categories(self, colibri, monkeypatch):
        # One zone table lookup per sample, and no trapezoid is evaluated.
        calls = 0
        split = HuePartition._split

        def counting(self, hue):
            nonlocal calls
            calls += 1
            return split(self, hue)

        cfg = PlotConfig()
        monkeypatch.setattr(HuePartition, "_split", counting)
        monkeypatch.setattr(CircularTrapezoid, "membership", None)
        render_memberships(colibri, cfg)
        assert calls == round(360.0 / cfg.sample_step) + 1

    def test_samples_are_freed_before_the_document_is_joined(self, colibri):
        # Joining the parts into the document holds about three copies of
        # it; the per-sample strings must be gone by then, not add to it.
        svg = render_memberships(colibri)
        tracemalloc.start()
        try:
            render_memberships(colibri)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * len(svg)


def reference_points(partition, cfg):
    """Every polyline's points, every category evaluated at every sample."""
    plot_w = cfg.width_px - MEMBERS_LEFT - MEMBERS_RIGHT
    plot_h = cfg.height_px - MEMBERS_TOP - MEMBERS_BOTTOM
    steps = int(round(360.0 / cfg.sample_step))
    cell = 360.0 / steps
    return [
        " ".join(
            f"{MEMBERS_LEFT + i * cell / 360.0 * plot_w:.3f},"
            f"{MEMBERS_TOP + (1.0 - t.membership(i * cell)) * plot_h:.3f}"
            for i in range(steps + 1)
        )
        for t in partition.sets
    ]


class TestRenderSpectrum:
    def marker_degrees(self, svg, cfg):
        plot_w = cfg.width_px - SPECTRUM_LEFT - SPECTRUM_RIGHT
        return [
            (float(el.get("x1")) - SPECTRUM_LEFT) / plot_w * 360.0
            for el in by_class(svg, "boundary-marker")
        ]

    def test_markers_at_published_boundaries(self, colibri):
        cfg = PlotConfig()
        svg = render_spectrum(colibri, cfg)
        degrees = self.marker_degrees(svg, cfg)
        assert len(degrees) == 9
        for got, expected in zip(degrees, GOLDEN_POSITIONS):
            assert got == pytest.approx(expected, abs=0.001)

    def test_green_region_spans_its_share_of_the_bar(self, colibri):
        cfg = PlotConfig()
        svg = render_spectrum(colibri, cfg)
        markers = [float(el.get("x1")) for el in by_class(svg, "boundary-marker")]
        x_55_5, x_151_5 = markers[2], markers[3]
        plot_w = cfg.width_px - SPECTRUM_LEFT - SPECTRUM_RIGHT
        assert x_151_5 - x_55_5 == pytest.approx(96.0 / 360.0 * plot_w, abs=0.01)

    def test_two_category_partition_has_two_markers(self):
        svg = render_spectrum(two_category_partition())
        assert len(by_class(svg, "boundary-marker")) == 2

    def test_strip_count_matches_sample_step(self, colibri):
        svg = render_spectrum(colibri, PlotConfig(sample_step=1.0))
        assert len(by_class(svg, "strip")) == 360

    def test_region_labels(self, colibri):
        svg = render_spectrum(colibri)
        labels = [el.text for el in by_class(svg, "region-label")]
        assert labels == list(RING)

    def test_byte_determinism(self, colibri):
        assert render_spectrum(colibri) == render_spectrum(colibri)


@pytest.mark.parametrize("render", [render_memberships, render_spectrum])
def test_markup_in_category_names_is_escaped(render):
    names = ('a"b', "R&D", "<x>")
    specs = [BoundarySpec(60.0, 10.0), BoundarySpec(180.0, 10.0), BoundarySpec(300.0, 10.0)]
    svg = render(from_boundaries(specs, names))
    minidom.parseString(svg)
    root = ET.fromstring(svg)
    labels = [el.text for el in root.iter() if el.get("class") in ("category-label", "region-label")]
    assert labels == list(names)
    categories = [el.get("data-category") for el in root.iter() if el.get("data-category")]
    assert categories in ([], list(names))


# SHA-256 of both figures, keyed by the partition's builder. The builtin
# ring's were recorded from the per-category renderer that sampled every
# category at every x. Those of the 2-category ring and of the rotated
# builtin ring (magenta straddles 0, and the magenta/red zone starts at 0)
# were recorded before the figures shared one frame. The rest were recorded
# while every strip's colour still came from the checked hsv_to_rgb: 36,000
# samples at the finest step, the coarsest step on the narrowest figure, no
# labels, and a ring of sixteen categories. That of the builtin ring turned
# by -185.6763, where a zone is moved to start at the end of the one before
# it, was recorded while the lookups read a zone table derived from the
# trapezoids.
FINE_CONFIG = PlotConfig(sample_step=0.01)
COARSE_NARROW_CONFIG = PlotConfig(width_px=200, sample_step=5.0)
UNLABELLED_CONFIG = PlotConfig(show_labels=False)
SVG_DIGESTS = {
    (builtin_colibri, render_memberships, PlotConfig()): (
        "b987f1331eac324da5897b7c87575cf74d90657a4967bc551e072f6334c2b2e5"
    ),
    (builtin_colibri, render_spectrum, PlotConfig()): (
        "9ea75f26a9f5396bd2c81cacda3dcc9f6e1446223e561b99a08bb770b012a2f3"
    ),
    (builtin_colibri, render_memberships, WIDE_CONFIG): (
        "95f436f5990d140fc4c2cd863d7c537832c7d2ba29ce34927995f226ba18fbf1"
    ),
    (builtin_colibri, render_spectrum, WIDE_CONFIG): (
        "e18c29e851ab4a272780c5f60a4db223460033a551a06a5501a84eef9330cb7f"
    ),
    (two_category_partition, render_memberships, WIDE_CONFIG): (
        "fb7f176bf0f8f1c90b6870a28acf9594fbbdd892e471f944941f488936a5d720"
    ),
    (two_category_partition, render_spectrum, WIDE_CONFIG): (
        "a1547764fd93e485374a8e7689dc1bea251b290e08245be5978acba7595d0c33"
    ),
    (rotated_builtin, render_memberships, WIDE_CONFIG): (
        "8f50e407e37e3cfa51173f10301e6a2123d23c269a3e44e711b4181f58d8e399"
    ),
    (rotated_builtin, render_spectrum, WIDE_CONFIG): (
        "a68ee5e7aeeb305b675e15b120bec9c4dccf762db4a36fd175fc7db9071826a8"
    ),
    (builtin_colibri, render_memberships, FINE_CONFIG): (
        "ea6533317c314d19276437f1c3fc7ebb4dd7907922367997bb2ac1c54f6ed945"
    ),
    (builtin_colibri, render_spectrum, FINE_CONFIG): (
        "e5c6ae542fb542a2c8726a2f6d2bb085c9bb8a13bc4bc736f18946d01e98ed1d"
    ),
    (builtin_colibri, render_memberships, COARSE_NARROW_CONFIG): (
        "a7bc8d9ed13e6ee43be79eddeb8491167722c2a27dfc93436ba4fa888c7692f9"
    ),
    (builtin_colibri, render_spectrum, COARSE_NARROW_CONFIG): (
        "5a5370185e310c7adc67638275d2252b18ba649cf77fc92460c832601aae88a6"
    ),
    (builtin_colibri, render_memberships, UNLABELLED_CONFIG): (
        "b23bb4e0e4e148deb638e5ede96544437f19a18b07c936f98f6071e102cbc9c4"
    ),
    (builtin_colibri, render_spectrum, UNLABELLED_CONFIG): (
        "7192d5027559133bc69cf9416c1fe2b4e76f3866d8086073d1eac21012d853a3"
    ),
    (sixteen_category_partition, render_memberships, PlotConfig()): (
        "abc335b472cb77400a0aea5d788285b82a6c5514f19466488ea93ec0a5691ffa"
    ),
    (sixteen_category_partition, render_spectrum, PlotConfig()): (
        "66db5f0afe388e4c2140fd18f4ebb81b6bc54d8cb9ee951890fd2d5b2b697d8d"
    ),
    (decimal_rotated_builtin, render_memberships, PlotConfig()): (
        "5b4b6d65295bea9bab891371fdef92e40d4683d5da8062bad20ee72ecc3bdfd0"
    ),
}


@pytest.mark.parametrize(
    ("build", "render", "cfg"),
    list(SVG_DIGESTS),
    ids=[
        "memberships-default",
        "spectrum-default",
        "memberships-wide",
        "spectrum-wide",
        "memberships-two-category-wide",
        "spectrum-two-category-wide",
        "memberships-rotated-30-wide",
        "spectrum-rotated-30-wide",
        "memberships-fine",
        "spectrum-fine",
        "memberships-coarse-narrow",
        "spectrum-coarse-narrow",
        "memberships-unlabelled",
        "spectrum-unlabelled",
        "memberships-sixteen-category",
        "spectrum-sixteen-category",
        "memberships-rotated-decimal-default",
    ],
)
def test_builtin_svg_bytes_are_pinned(build, render, cfg):
    svg = render(build(), cfg).encode("utf-8")
    assert hashlib.sha256(svg).hexdigest() == SVG_DIGESTS[build, render, cfg]
