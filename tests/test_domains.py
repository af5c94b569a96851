"""One number rule for every public number: what each entry point accepts,
and that misuse raises ValueError instead of a TypeError, an overflow or NaN."""

import copy
import json
import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhue import (
    AchromaticGate,
    Arc,
    BoundarySpec,
    ConfigError,
    HuePartition,
    PixelGrid,
    PlotConfig,
    builtin_colibri,
    classify_color,
    dominant_labels,
    load_partition,
    metrics_table,
    wideness_numeric,
    wrap,
)
from fuzzyhue._value import _number
from fuzzyhue.classify import hsv_to_rgb
from fuzzyhue.formats import dump_partition
from fuzzyhue.render import render_memberships, render_spectrum

COLIBRI = builtin_colibri()
YELLOW = COLIBRI.fuzzy_set("yellow")
DESCRIPTOR = classify_color(COLIBRI, (200, 150, 40))
CONFIG = json.loads(dump_partition(COLIBRI))
GRID = {"width": 2, "height": 1, "pixels": bytes(6)}

# Values a caller can pass by mistake, then any float or small int.
SPECIAL = [
    math.nan, math.inf, -math.inf, True, False, 5e-324, -5e-324, 1e308, -1e308, 2.5, 0, 1, -1
]
NUMBERS = st.one_of(st.sampled_from(SPECIAL), st.floats(), st.integers(-(10**4), 10**4))
MISUSE = st.one_of(NUMBERS, st.sampled_from(["0.5", "", None]))

# Each call must finish within this many seconds.
BUDGET = 5.0


@contextmanager
def time_budget(seconds):
    # SIGALRM interrupts unbounded work, which a hypothesis deadline only
    # reports once the call has returned.
    def expire(signum, frame):
        raise AssertionError(f"call took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def is_number(x, low=-math.inf, high=math.inf):
    return (
        isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
        and low <= x <= high
    )


def valid_plot(cfg):
    # The fields are checked first: a figure is drawn only within the bound.
    assert type(cfg.width_px) is int and cfg.width_px >= 200
    assert type(cfg.height_px) is int and cfg.height_px >= 100
    assert is_number(cfg.sample_step, 0.01, 5.0)
    assert is_number(cfg.alpha_line, 0.0, 1.0) and cfg.alpha_line > 0.0
    assert type(cfg.show_labels) is bool
    return render_memberships(COLIBRI, cfg).startswith("<svg") and render_spectrum(
        COLIBRI, cfg
    ).startswith("<svg")


def config_with(field, value):
    doc = copy.deepcopy(CONFIG)
    doc["boundaries"][3][field] = value
    return json.dumps(doc)


# (id, call with the value in one parameter, check of the returned result)
TARGETS = [
    ("BoundarySpec.width", lambda x: BoundarySpec(10.0, x), lambda r: is_number(r.width, 0, 360)),
    *(
        (f"AchromaticGate.{name}", lambda x, name=name: AchromaticGate(**{name: x}),
         lambda r: all(is_number(v, 0, 1) for v in (r.s_min, r.v_min, r.v_max)))
        for name in ("s_min", "v_min", "v_max")
    ),
    *(
        (f"PlotConfig.{name}", lambda x, name=name: PlotConfig(**{name: x}), valid_plot)
        for name in ("width_px", "height_px", "alpha_line", "sample_step", "show_labels")
    ),
    *(
        (f"PixelGrid.{name}", lambda x, name=name: PixelGrid(**{**GRID, name: x}),
         lambda r: r.width * r.height == 2)
        for name in ("width", "height")
    ),
    ("alpha_cut", YELLOW.alpha_cut, lambda r: isinstance(r, Arc) and is_number(r.measure)),
    ("wideness_numeric.alpha", lambda x: wideness_numeric(COLIBRI, "green", alpha=x),
     lambda r: is_number(r, 0, 360)),
    ("wideness_numeric.step", lambda x: wideness_numeric(COLIBRI, "green", step=x),
     lambda r: is_number(r, 0, 360)),
    ("metrics_table", lambda x: metrics_table(COLIBRI, x),
     lambda r: all(is_number(row.wideness, 0, 360) for row in r)),
    ("hsv_to_rgb.saturation", lambda x: hsv_to_rgb(50.0, x, 1.0),
     lambda r: all(type(c) is int and 0 <= c <= 255 for c in r)),
    ("hsv_to_rgb.value", lambda x: hsv_to_rgb(50.0, 1.0, x),
     lambda r: all(type(c) is int and 0 <= c <= 255 for c in r)),
    ("dominant_labels", lambda x: dominant_labels(DESCRIPTOR, x),
     lambda r: 1 <= len(r) <= 10 and all(is_number(mass, 0, 1) for _, mass in r)),
    ("load_partition.position", lambda x: load_partition(config_with("position", x)),
     lambda r: isinstance(r, HuePartition)),
    ("load_partition.width", lambda x: load_partition(config_with("width", x)),
     lambda r: isinstance(r, HuePartition)),
]


@pytest.mark.parametrize("call, valid", [t[1:] for t in TARGETS], ids=[t[0] for t in TARGETS])
@settings(max_examples=40, deadline=None)
@given(value=MISUSE)
def test_misuse_is_refused_with_value_error(call, valid, value):
    with time_budget(BUDGET):
        try:
            result = call(value)
        except ValueError:
            return
        assert valid(result), result


# Hues are angles, used in arithmetic: a non-number fails there with a
# TypeError, as in HuePartition.memberships, so only numbers are fed.
@settings(max_examples=60, deadline=None)
@given(hue=NUMBERS)
def test_membership_is_finite_or_refused(hue):
    for t in COLIBRI.sets:
        try:
            m = t.membership(hue)
        except ValueError:
            assert not math.isfinite(hue)
            continue
        assert is_number(m, 0.0, 1.0), (t, hue, m)
    # At saturation 0 colorsys never reads the hue, so both calls must refuse.
    for saturation, value in ((1.0, 1.0), (0.0, 0.5)):
        with time_budget(BUDGET):
            try:
                rgb = hsv_to_rgb(hue, saturation, value)
            except ValueError:
                assert not math.isfinite(hue)
                continue
        assert math.isfinite(hue) and all(type(c) is int and 0 <= c <= 255 for c in rgb), rgb


class TestRule:
    def test_returns_the_value_itself(self):
        x = np.float64(0.25)
        assert _number("x", x, 0, 1) is x
        assert _number("x", 7, 1, integral=True) == 7

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (("alpha", 0.0, 0, 1), {"open_low": True}, "alpha must be in (0, 1], got 0.0"),
            (("w", 360, 0, 360), {"open_high": True}, "w must be in [0, 360), got 360"),
            (("n", 2.0, 1), {"integral": True}, "n must be an integer in [1, inf), got 2.0"),
            (("n", True, 0, 10), {"integral": True}, "n must be an integer in [0, 10], got True"),
            (("x", False, 0, 1), {}, "x must be in [0, 1], got False"),
            (("x", math.nan, 0, 1), {}, "x must be in [0, 1], got nan"),
            (("x", math.inf, 0), {}, "x must be in [0, inf), got inf"),
            (("x", "0.5", 0, 1), {}, "x must be in [0, 1], got '0.5'"),
            (("x", np.int64(1), 0, 1), {}, "x must be in [0, 1], got "),
        ],
    )
    def test_refusals(self, args, kwargs, message):
        with pytest.raises(ValueError) as info:
            _number(*args, **kwargs)
        assert str(info.value).startswith(message)


@pytest.mark.parametrize("name", COLIBRI.names)
@pytest.mark.parametrize("hue", [math.nan, math.inf, -math.inf])
def test_membership_refuses_non_finite_hues(name, hue):
    t = COLIBRI.fuzzy_set(name)
    with pytest.raises(ValueError, match="angle must be finite"):
        t.membership(hue)


@pytest.mark.parametrize(
    "saturation, value, name",
    [(2.0, 1.0, "saturation"), (-0.5, 1.0, "saturation"), (1.0, -1.0, "value"),
     (1.0, math.nan, "value"), (True, 1.0, "saturation")],
)
def test_hsv_to_rgb_refuses_out_of_range_channels(saturation, value, name):
    with pytest.raises(ValueError, match=rf"{name} must be in \[0, 1\]"):
        hsv_to_rgb(0.0, saturation, value)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: PlotConfig(width_px=900.5), r"width_px must be an integer in \[200, 100000\]"),
        (lambda: PlotConfig(height_px=math.inf), r"height_px must be an integer"),
        (lambda: PlotConfig(width_px=True), r"width_px must be an integer"),
        (lambda: PlotConfig(show_labels="no"), "show_labels must be a bool, got 'no'"),
        (lambda: PlotConfig(sample_step=5e-324), r"sample_step must be in \[0.01, 5\]"),
        (lambda: PlotConfig(sample_step=1e-9), r"sample_step must be in \[0.01, 5\]"),
        (lambda: PlotConfig(alpha_line=True), r"alpha_line must be in \(0, 1\]"),
        (lambda: wideness_numeric(COLIBRI, "green", step=1e-9), r"step must be in \[0.01, 1\]"),
        (lambda: wideness_numeric(COLIBRI, "green", step=True), r"step must be in \[0.01, 1\]"),
        (lambda: dominant_labels(DESCRIPTOR, 2.5), r"k must be an integer in \[1, 10\]"),
        (lambda: dominant_labels(DESCRIPTOR, True), r"k must be an integer in \[1, 10\]"),
        (lambda: BoundarySpec(10.0, True), r"transition width must be in \(0, 360\)"),
        (lambda: AchromaticGate(s_min=True), r"s_min must be in \[0, 1\], got True"),
    ],
)
def test_newly_refused_inputs(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("field", ["width_px", "height_px"])
def test_plot_sizes_are_bounded(field):
    # Unbounded, 10**400 px constructs and then overflows in either figure.
    with pytest.raises(ValueError, match=rf"{field} must be an integer in \[\d+, 100000\], got 1000"):
        PlotConfig(**{field: 10**400})
    assert getattr(PlotConfig(**{field: 100_000}), field) == 100_000


# Every angle path, with the refused value in the argument that is an angle.
ANGLE_PATHS = [
    ("wrap", wrap),
    ("Arc.start", lambda x: Arc(x, 10.0)),
    ("Arc.end", lambda x: Arc(10.0, x)),
    ("BoundarySpec.position", lambda x: BoundarySpec(x, 5.0)),
    ("HuePartition.memberships", COLIBRI.memberships),
    ("HuePartition.category_of", COLIBRI.category_of),
    ("CircularTrapezoid.membership", YELLOW.membership),
    ("hsv_to_rgb", hsv_to_rgb),
    ("HuePartition.rotated", COLIBRI.rotated),
]


@pytest.mark.parametrize("call", [p[1] for p in ANGLE_PATHS], ids=[p[0] for p in ANGLE_PATHS])
@pytest.mark.parametrize(
    "angle, shown",
    [
        (10**400, "1000"), (-(10**400), "-1000"), (10**5000, "an int of 5001 digits"),
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
    ],
    ids=["1e400", "-1e400", "1e5000", "nan", "inf", "-inf"],
)
def test_ints_too_large_for_a_float_are_refused_as_angles(call, angle, shown):
    # Converting such an int to a float raises OverflowError; every angle
    # path refuses it with the message it gives NaN and the infinities.
    with pytest.raises(ValueError, match=f"^angle must be finite, got {shown}"):
        call(angle)


@pytest.mark.parametrize("field", ["width_px", "height_px"])
def test_refusing_an_int_too_long_to_print_names_the_field(field):
    # repr of an int of more than 4,300 digits raises ValueError itself.
    message = rf"{field} must be an integer in \[\d+, 100000\], got an int of 5001 digits"
    with pytest.raises(ValueError, match=message):
        PlotConfig(**{field: 10**5000})
    with pytest.raises(ValueError, match=message):
        PlotConfig(**{field: -(10**5000)})
    for value in (10**4300, 10**4301 - 1):
        with pytest.raises(ValueError, match=r"x must be in \[0, 1\], got an int of 4301 digits"):
            _number("x", value, 0, 1)


@pytest.mark.parametrize("saturation", [0.0, 1.0])
@pytest.mark.parametrize("hue", [math.nan, math.inf, -math.inf])
def test_hsv_to_rgb_refuses_non_finite_hues(hue, saturation):
    with pytest.raises(ValueError, match=f"angle must be finite, got {hue!r}"):
        hsv_to_rgb(hue, saturation, 0.5)


def test_domain_edges_are_accepted():
    assert hsv_to_rgb(0.0, 1.0, 1.0) == (255, 0, 0)
    assert hsv_to_rgb(0.0, 0.0, 0.0) == (0, 0, 0)
    assert PlotConfig(sample_step=0.01).sample_step == 0.01
    assert wideness_numeric(COLIBRI, "yellow", step=0.01) == pytest.approx(15.5, abs=0.01)


def test_config_number_errors_name_the_field():
    with pytest.raises(ConfigError, match=r"boundaries\[3\]\.width must be in \(0, 360\), got True"):
        load_partition(config_with("width", True))
    with pytest.raises(ConfigError, match=r"boundaries\[3\]\.position must be in \[0, 360\), got None"):
        load_partition(config_with("position", None))
