"""Behaviour of the public value types: fields, repr, equality, immutability,
copying and construction errors, one sample instance per type."""

import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzyhue
from fuzzyhue import (
    AchromaticGate,
    Arc,
    AsymmetryReport,
    BoundarySpec,
    CategoryMetrics,
    Check,
    CircularTrapezoid,
    FuzzyColorDescriptor,
    HsvColor,
    HuePartition,
    PixelGrid,
    PlotConfig,
    builtin_colibri,
    classify_color,
)

TWO_SPECS = (BoundarySpec(10.0, 5.0), BoundarySpec(200.0, 8.0))

# (instance, __match_args__, exact repr)
SAMPLES = [
    (
        Arc(370.0, 20.0),
        ("start", "end"),
        "Arc(start=10.0, end=20.0)",
    ),
    (
        CircularTrapezoid(10.0, 20.0, 30.0, 400.0),
        ("a", "b", "c", "d"),
        "CircularTrapezoid(a=10.0, b=20.0, c=30.0, d=40.0)",
    ),
    (
        BoundarySpec(370.0, 5.0),
        ("position", "width"),
        "BoundarySpec(position=10.0, width=5.0)",
    ),
    (
        HuePartition(["a", "b"], list(TWO_SPECS)),
        ("names", "boundaries"),
        "HuePartition(names=('a', 'b'), boundaries=(BoundarySpec(position=10.0, width=5.0),"
        " BoundarySpec(position=200.0, width=8.0)))",
    ),
    (
        HsvColor(None, 0.0, 0.5),
        ("hue", "saturation", "value"),
        "HsvColor(hue=None, saturation=0.0, value=0.5)",
    ),
    (
        AchromaticGate(v_min=0.2),
        ("s_min", "v_min", "v_max"),
        "AchromaticGate(s_min=0.15, v_min=0.2, v_max=1.0)",
    ),
    (
        FuzzyColorDescriptor({"a": 0.25, "b": 0.75}, 0.0),
        ("category_mass", "achromatic_mass"),
        "FuzzyColorDescriptor(category_mass={'a': 0.25, 'b': 0.75}, achromatic_mass=0.0)",
    ),
    (
        PixelGrid(2, 1, [(1, 2, 3), (4, 5, 6)]),
        ("width", "height", "samples"),
        "PixelGrid(width=2, height=1)",
    ),
    (
        CategoryMetrics("red", Arc(340.5, 12.5), 32.0, 21.0, 15.0),
        ("name", "wideness_range", "wideness", "left_boundary_width", "right_boundary_width"),
        "CategoryMetrics(name='red', wideness_range=Arc(start=340.5, end=12.5),"
        " wideness=32.0, left_boundary_width=21.0, right_boundary_width=15.0)",
    ),
    (
        AsymmetryReport("a", "b", 2.0, ()),
        ("widest", "narrowest", "ratio", "per_category"),
        "AsymmetryReport(widest='a', narrowest='b', ratio=2.0, per_category=())",
    ),
    (
        Check("x", True, 0.0, None),
        ("name", "ok", "worst", "hue"),
        "Check(name='x', ok=True, worst=0.0, hue=None)",
    ),
    (
        PlotConfig(alpha_line=0.3),
        ("width_px", "height_px", "alpha_line", "sample_step", "show_labels"),
        "PlotConfig(width_px=900, height_px=300, alpha_line=0.3, sample_step=0.5,"
        " show_labels=True)",
    ),
]

IDS = [type(sample).__name__ for sample, _, _ in SAMPLES]


def fields_of(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def is_hashable(value):
    return not isinstance(value, FuzzyColorDescriptor)


@pytest.mark.parametrize("sample, match_args, text", SAMPLES, ids=IDS)
class TestValueTypes:
    def test_match_args(self, sample, match_args, text):
        assert type(sample).__match_args__ == match_args

    def test_repr(self, sample, match_args, text):
        assert repr(sample) == text

    def test_not_equal_to_field_tuple(self, sample, match_args, text):
        fields = fields_of(sample)
        assert sample != fields and fields != sample
        assert not sample == fields

    def test_fields_cannot_be_assigned_or_deleted(self, sample, match_args, text):
        for name in match_args:
            before = getattr(sample, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(sample, name, before)
            with pytest.raises(AttributeError, match=f"'{name}'"):
                delattr(sample, name)
            assert getattr(sample, name) is before

    @pytest.mark.parametrize(
        "clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_round_trip(self, sample, match_args, text, clone):
        twin = clone(sample)
        assert twin is not sample and type(twin) is type(sample)
        assert twin == sample and fields_of(twin) == fields_of(sample)
        assert repr(twin) == text
        if is_hashable(sample):
            assert hash(twin) == hash(sample)
        else:
            with pytest.raises(TypeError):
                hash(twin)

    def test_equal_only_to_same_type_with_same_fields(self, sample, match_args, text):
        twin = copy.copy(sample)
        assert twin == sample and not twin != sample
        if is_hashable(sample):
            assert hash(twin) == hash(sample) == hash(fields_of(sample))


def test_descriptors_are_not_hashable():
    # category_mass is a dict, so a descriptor that classify_color returns
    # does not hash either.
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(classify_color(builtin_colibri(), (10, 200, 30)))


def test_derived_state_is_not_compared_or_shown():
    t = CircularTrapezoid(10.0, 20.0, 30.0, 40.0)
    assert (t._rise, t._core_end, t._span) == (10.0, 20.0, 30.0)
    p = HuePartition(["a", "b"], TWO_SPECS)
    assert p == HuePartition(("a", "b"), TWO_SPECS)
    assert "_zones" in vars(p) and "sets" not in repr(p)
    twin = pickle.loads(pickle.dumps(p))
    assert twin.sets == p.sets and twin._zones == p._zones


def test_keyword_construction_with_defaults():
    assert AchromaticGate(v_min=0.2) == AchromaticGate(0.15, 0.2, 1.0)
    assert AchromaticGate() == AchromaticGate(s_min=0.15, v_min=0.10, v_max=1.0)
    assert PlotConfig(alpha_line=0.3) == PlotConfig(900, 300, 0.3, 0.5, True)
    assert PlotConfig(show_labels=False).show_labels is False
    assert Arc(start=5.0, end=6.0) == Arc(5.0, 6.0)
    assert Arc(end=6.0, start=5.0) == Arc(5.0, 6.0)
    assert CircularTrapezoid(a=1.0, b=2.0, c=3.0, d=4.0) == CircularTrapezoid(1.0, 2.0, 3.0, 4.0)
    assert BoundarySpec(width=5.0, position=10.0) == BoundarySpec(10.0, 5.0)
    assert HuePartition(boundaries=TWO_SPECS, names=("a", "b")).names == ("a", "b")
    assert HsvColor(hue=1.0, saturation=0.5, value=0.25).hue == 1.0
    assert FuzzyColorDescriptor(category_mass={}, achromatic_mass=1.0).total() == 1.0
    assert PixelGrid(width=1, height=1, pixels=b"\x00\x00\x00").samples == b"\x00\x00\x00"
    assert CategoryMetrics(
        name="n", wideness_range=Arc(0.0, 1.0), wideness=1.0,
        left_boundary_width=2.0, right_boundary_width=3.0,
    ).right_boundary_width == 3.0
    assert AsymmetryReport(widest="a", narrowest="b", ratio=1.0, per_category=()).ratio == 1.0
    assert Check(name="c", ok=False, worst=1.0, hue=2.0).hue == 2.0


def test_types_differ_even_with_equal_fields():
    assert Arc(1.0, 2.0) != Check(1.0, 2.0, False, None)
    assert BoundarySpec(10.0, 5.0) != HsvColor(10.0, 5.0, 1.0)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: Arc(math.nan, 1.0), ValueError, "angle must be finite, got nan"),
        (lambda: Arc(1.0, math.inf), ValueError, "angle must be finite, got inf"),
        (lambda: CircularTrapezoid(10.0, 10.0, 20.0, 30.0), ValueError, "rising shoulder"),
        (lambda: CircularTrapezoid(10.0, 20.0, 30.0, 30.0), ValueError, "falling shoulder"),
        (lambda: CircularTrapezoid(0.0, 200.0, 100.0, 300.0), ValueError, "whole circle"),
        (lambda: CircularTrapezoid(math.nan, 1.0, 2.0, 3.0), ValueError, "angle must be finite"),
        # The position is wrapped before the width is checked.
        (lambda: BoundarySpec(math.nan, 10.0), ValueError, "angle must be finite, got nan"),
        (lambda: BoundarySpec(math.nan, math.nan), ValueError, "angle must be finite"),
        (lambda: BoundarySpec(10.0, math.nan), ValueError, r"transition width must be in \(0, 360\), got nan"),
        (lambda: BoundarySpec(10.0, 360.0), ValueError, "transition width"),
        (lambda: HuePartition(("a",), TWO_SPECS[:1]), ValueError, "at least 2 categories"),
        (lambda: HuePartition(("a", "a"), TWO_SPECS), ValueError, "names must be unique"),
        (lambda: AchromaticGate(s_min=math.nan), ValueError, r"s_min must be in \[0, 1\], got nan"),
        (lambda: AchromaticGate(v_min=0.6, v_max=0.5), ValueError, "v_min 0.6 exceeds v_max 0.5"),
        (lambda: AchromaticGate(v_min=2.0, v_max=0.5), ValueError, r"v_min must be in \[0, 1\]"),
        (lambda: PixelGrid(2.0, 1, b"\x00" * 6), ValueError, r"width must be an integer in \[1, inf\), got 2.0"),
        (lambda: PixelGrid(1, 1, b"\x00" * 4), ValueError, "4 sample bytes do not hold 1x1"),
        (lambda: PixelGrid(1, 1, [(0, 0, 256)]), ValueError, "RGB channel"),
        (lambda: PlotConfig(width_px=math.nan), ValueError, r"width_px must be an integer in \[200, 100000\], got nan"),
        (lambda: PlotConfig(sample_step=0.0, alpha_line=2.0), ValueError, r"sample_step must be in \[0.01, 5\]"),
        (lambda: PlotConfig(alpha_line=math.nan), ValueError, r"alpha_line must be in \(0, 1\], got nan"),
        (lambda: HsvColor(1.0, 2.0), TypeError, "value"),
        (lambda: Check("x", True, 0.0), TypeError, "hue"),
    ],
)
def test_construction_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_import_loads_no_dataclass_machinery():
    # -S keeps site (and whatever it imports) out, so only fuzzyhue's own
    # imports are seen. json, html, csv, array and colorsys are loaded by the
    # functions that use them.
    code = (
        "import sys; import fuzzyhue; print(sorted({'dataclasses', 'inspect', 'ast', 'dis',"
        " 'json', 'html', 'csv', 'array', 'colorsys'} & set(sys.modules)))"
    )
    src = str(Path(fuzzyhue.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_positional_match_patterns():
    match BoundarySpec(370.0, 5.0):
        case BoundarySpec(position, width):
            assert (position, width) == (10.0, 5.0)
        case _:
            pytest.fail("no match")
