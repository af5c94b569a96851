import colorsys
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhue import (
    CircularTrapezoid,
    builtin_colibri,
    cli,
    dump_partition,
    export_metrics_csv,
    from_boundaries,
    metrics_table,
    wrap,
)
from fuzzyhue.cli import cli_main
from fuzzyhue.render import PlotConfig, render_memberships, render_spectrum
from conftest import make_p6, random_boundary_specs
from test_metrics import narrow_defect

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMetricsCommand:
    def test_csv_matches_exporter(self, capsys):
        code, out, _ = run(capsys, "metrics", "--format", "csv")
        assert code == 0
        assert out == export_metrics_csv(metrics_table(builtin_colibri()))

    def test_table_has_header_and_nine_rows(self, capsys):
        code, out, _ = run(capsys, "metrics")
        assert code == 0
        lines = out.strip("\n").split("\n")
        assert len(lines) == 10
        assert lines[0].startswith("category")
        assert lines[1].startswith("red")

    def test_alpha_flag_changes_ranges(self, capsys):
        _, at_half, _ = run(capsys, "metrics", "--format", "csv")
        _, at_one, _ = run(capsys, "metrics", "--format", "csv", "--alpha", "1.0")
        assert at_half != at_one
        assert "green,65.0,128.0,63.0" in at_one


class TestClassifyCommand:
    def test_hue_50(self, capsys):
        code, out, _ = run(capsys, "classify", "--hue", "50")
        assert code == 0
        assert out == "yellow 0.789\ngreen 0.211\ncrisp label: yellow\n"

    def test_boundary_tie(self, capsys):
        code, out, _ = run(capsys, "classify", "--hue", "40")
        assert code == 0
        assert "orange 0.500" in out and "yellow 0.500" in out
        assert out.endswith("crisp label: orange\n")

    def test_rgb_gray(self, capsys):
        code, out, _ = run(capsys, "classify", "--rgb", "128,128,128")
        assert code == 0
        assert out == "achromatic 1.000\ncrisp label: achromatic\n"

    @pytest.mark.parametrize(
        "rgb, expected",
        [
            # Hue exactly 40.0: a tie, which goes to the earlier ring entry.
            ("255,170,0", "orange 0.500\nyellow 0.500\ncrisp label: orange\n"),
            ("200,150,40", "orange 0.396\nyellow 0.604\ncrisp label: yellow\n"),
        ],
    )
    def test_rgb_chromatic(self, capsys, rgb, expected):
        code, out, _ = run(capsys, "classify", "--rgb", rgb)
        assert (code, out) == (0, expected)

    def test_rgb_converts_once(self, capsys, monkeypatch):
        calls = []
        convert = colorsys.rgb_to_hsv
        monkeypatch.setattr(colorsys, "rgb_to_hsv", lambda *rgb: calls.append(rgb) or convert(*rgb))
        run(capsys, "classify", "--rgb", "200,150,40")
        assert len(calls) == 1

    def test_hue_looks_up_once(self, capsys, monkeypatch):
        calls = []
        evaluate = CircularTrapezoid.membership
        monkeypatch.setattr(
            CircularTrapezoid, "membership", lambda t, hue: calls.append(hue) or evaluate(t, hue)
        )
        run(capsys, "classify", "--hue", "50")
        assert 0 < len(calls) <= 3

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(2, 12))
    def test_crisp_label_is_category_of(self, seed, count):
        # At every knot, one ulp either side of it and every crossing, where
        # ties and near-ties between neighbours sit.
        p = from_boundaries(
            random_boundary_specs(random.Random(seed), count), [f"c{i}" for i in range(count)]
        )
        hues = [b.position for b in p.boundaries]
        for t in p.sets:
            for knot in (t.a, t.b, t.c, t.d):
                hues += [knot, math.nextafter(knot, -math.inf), math.nextafter(knot, math.inf)]
        with mock.patch.object(cli, "builtin_colibri", lambda: p):
            for hue in hues:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli_main(["classify", f"--hue={hue!r}"]) == 0
                crisp = out.getvalue().splitlines()[-1]
                assert crisp == f"crisp label: {p.category_of(wrap(hue))}"

    def test_hue_and_rgb_are_exclusive(self, capsys):
        code, _, err = run(capsys, "classify", "--hue", "50", "--rgb", "1,2,3")
        assert code == 1
        assert "usage" in err

    def test_malformed_rgb_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "classify", "--rgb", "1,2")
        assert code == 1


class TestLabelCommand:
    def test_half_and_half_image(self, capsys, tmp_path):
        pixels = [(85, 255, 0)] * 32 + [(240, 184, 0)] * 32
        path = tmp_path / "halves.ppm"
        path.write_bytes(make_p6(8, 8, pixels))
        code, out, _ = run(capsys, "label", str(path), "--top-k", "2")
        assert code == 0
        assert out == "yellow 0.500000\ngreen 0.500000\n"

    def test_missing_image(self, capsys, tmp_path):
        code, _, err = run(capsys, "label", str(tmp_path / "none.ppm"))
        assert code == 2
        assert "error" in err


class TestPlotCommand:
    def test_memberships_file_matches_renderer(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "plot", "memberships", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == render_memberships(
            builtin_colibri(), PlotConfig(alpha_line=0.5)
        )

    def test_spectrum(self, capsys, tmp_path):
        out_path = tmp_path / "bar.svg"
        code, _, _ = run(capsys, "plot", "spectrum", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == render_spectrum(builtin_colibri())

    def test_unknown_kind(self, capsys, tmp_path):
        code, _, _ = run(capsys, "plot", "pie", "--out", str(tmp_path / "x.svg"))
        assert code == 1


class TestValidateCommand:
    def test_builtin_config_passes(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(dump_partition(builtin_colibri()))
        code, out, _ = run(capsys, "validate", "--model", str(path))
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)

    def test_inconsistent_config_fails_with_data_error(self, capsys, tmp_path):
        doc = {
            "period": 360,
            "categories": [{"name": "a"}, {"name": "b"}],
            "boundaries": [
                {"position": 10, "width": 15},
                {"position": 20, "width": 15},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", "--model", str(path))
        assert code == 2
        assert "error" in err

    def test_builtin_details(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(dump_partition(builtin_colibri()))
        _, out, _ = run(capsys, "validate", "--model", str(path))
        assert out == (
            "PASS memberships-sum-to-one (max deviation 0)\n"
            "PASS at-most-two-nonzero (max simultaneous memberships 2 at hue 12.5)\n"
            "PASS half-cuts-tile-circle (sum 360.0)\n"
            "PASS boundaries-round-trip (max error 0)\n"
        )

    def test_rotated_dump_passes(self, capsys, tmp_path):
        path = tmp_path / "rotated.json"
        path.write_text(dump_partition(builtin_colibri().rotated(30.0)))
        code, out, _ = run(capsys, "validate", "--model", str(path))
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_failure_names_the_hue(self, capsys, monkeypatch, tmp_path):
        # No config reconstructs to a broken partition, so hand validate one.
        broken, (low, high) = narrow_defect("hole")
        monkeypatch.setattr(cli, "load_partition", lambda text: broken)
        path = tmp_path / "model.json"
        path.write_text("{}")
        code, out, _ = run(capsys, "validate", "--model", str(path))
        assert code == 2
        first = out.splitlines()[0]
        assert first.startswith("FAIL memberships-sum-to-one (max deviation 1 at hue ")
        assert low < float(first.rsplit(" ", 1)[1].rstrip(")")) < high

    def test_model_flag_required(self, capsys):
        code, _, _ = run(capsys, "validate")
        assert code == 1


class TestReportCommand:
    def test_green_yellow_ratio(self, capsys):
        code, out, _ = run(capsys, "report")
        assert code == 0
        assert "green/yellow ratio: 6.19" in out
        assert "widest: green" in out
        assert "narrowest: yellow" in out

    def test_custom_model(self, capsys, tmp_path):
        doc = {
            "period": 360,
            "categories": [{"name": "low"}, {"name": "high"}],
            "boundaries": [
                {"position": 90, "width": 10},
                {"position": 270, "width": 10},
            ],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "report", "--model", str(path))
        assert code == 0
        assert "ratio: 1" in out


class TestArgumentDomains:
    @pytest.mark.parametrize(
        "argv",
        [
            ("label", "img.ppm", "--s-min", "nan"),
            ("label", "img.ppm", "--v-min", "nan"),
            ("label", "img.ppm", "--s-min", "1.5"),
            ("label", "img.ppm", "--top-k", "0"),
            ("label", "img.ppm", "--top-k", "11"),
            ("metrics", "--alpha", "0"),
            ("metrics", "--alpha", "1.5"),
            ("metrics", "--alpha", "nan"),
            ("plot", "memberships", "--out", "fig.svg", "--alpha", "0"),
            ("classify", "--hue", "nan"),
            ("classify", "--hue", "inf"),
        ],
    )
    def test_out_of_domain_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and "must be in" in err

    def test_domain_edges_accepted(self, capsys, tmp_path):
        path = tmp_path / "green.ppm"
        path.write_bytes(make_p6(2, 2, [(85, 255, 0)] * 4))
        code, out, _ = run(
            capsys, "label", str(path), "--top-k", "10", "--s-min", "0", "--v-min", "1"
        )
        assert (code, out) == (0, "green 1.000000\n")
        code, _, _ = run(capsys, "metrics", "--alpha", "1")
        assert code == 0


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "metrics", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_no_command(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "metrics", "--model", "/nonexistent/model.json")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("label", "{dir}"),
            ("validate", "--model", "{dir}"),
            ("plot", "memberships", "--out", "{dir}"),
        ],
    )
    def test_directory_path_is_data_error(self, tmp_path, argv):
        argv = [arg.format(dir=tmp_path) for arg in argv]
        result = subprocess.run(
            [sys.executable, "-m", "fuzzyhue.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("metrics", "--alpha", "0"), 1, "argument --alpha: value must be in (0, 1], got 0.0"),
            (("classify", "--rgb", "1,2,300"), 1, "RGB channel must be an integer in [0, 255]"),
            (("classify", "--rgb", "1,2"), 1, "expected R,G,B integers, got '1,2'"),
            (("validate", "--model", "{model}"), 2, "boundaries[0].width must be in (0, 360)"),
        ],
    )
    def test_refused_numbers_name_the_rule(self, tmp_path, argv, code, message):
        model = tmp_path / "width-true.json"
        model.write_text(
            json.dumps(
                {
                    "period": 360,
                    "categories": [{"name": "a"}, {"name": "b"}],
                    "boundaries": [
                        {"position": 90.0, "width": True},
                        {"position": 270.0, "width": 20.0},
                    ],
                }
            )
        )
        argv = [arg.format(model=model) for arg in argv]
        result = subprocess.run(
            [sys.executable, "-m", "fuzzyhue.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (code, "")
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "metrics" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("metrics",),
            ("metrics", "--format", "csv"),
            ("classify", "--hue", "123.4"),
            ("report",),
        ],
    )
    def test_identical_invocations_identical_output(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_library_import_leaves_the_cli_out():
    env = {**os.environ, "PYTHONPATH": SRC}
    code = "import sys, fuzzyhue; print(sorted({'argparse', 'fuzzyhue.cli'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
