import contextlib
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fuzzyhue import (
    BoundarySpec,
    CircularTrapezoid,
    HuePartition,
    ImageFormatError,
    builtin_colibri,
    classify,
    cli,
    dominant_labels,
    dump_partition,
    export_metrics_csv,
    from_boundaries,
    image_descriptor,
    metrics_table,
    read_image,
    wrap,
)
from fuzzyhue.classify import DEFAULT_GATE, AchromaticGate, _block_sizes, _describe
from fuzzyhue.cli import cli_main
from fuzzyhue.formats import _READ_AHEAD, _image_blocks
from fuzzyhue.render import PlotConfig, render_memberships, render_spectrum
from conftest import make_p6, random_boundary_specs
from test_classify import bits, palette_grids, ramp_row, traced_block_counts
from test_metrics import narrow_defect

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Every subcommand that takes --model, with the other arguments it needs:
# {image} is an image file and {out} a figure path.
MODEL_COMMANDS = [
    ("metrics",),
    ("classify", "--hue", "50"),
    ("label", "{image}"),
    ("plot", "memberships", "--out", "{out}"),
    ("validate",),
    ("report",),
]
GREEN_P6 = make_p6(2, 2, [(85, 255, 0)] * 4)
# Deep enough that json.loads raises RecursionError on CPython 3.10 to 3.13.
# 3.13 decodes 3,000 levels, and so reports a decode error instead.
DEEP_JSON = b"[" * 100_000 + b"\n"


def fill_paths(directory, argv):
    """argv with {image} and {out} as run_on_files fills them in directory."""
    return [arg.format(image=directory / "image.ppm", out=directory / "fig.svg") for arg in argv]


def run_on_files(directory, argv, model=None, image=GREEN_P6):
    """cli_main on argv, with {image} and {out} in directory, and with
    ``--model`` given the bytes ``model`` in a file unless None:
    (exit code, stdout, stderr)."""
    (directory / "image.ppm").write_bytes(image)
    argv = fill_paths(directory, argv)
    if model is not None:
        model_path = directory / "model.json"
        model_path.write_bytes(model)
        argv += ["--model", str(model_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


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
        convert = classify._hsv
        monkeypatch.setattr(classify, "_hsv", lambda *rgb: calls.append(rgb) or convert(*rgb))
        run(capsys, "classify", "--rgb", "200,150,40")
        assert calls == [(200, 150, 40)]

    def test_hue_looks_up_once(self, capsys, monkeypatch):
        # One zone table lookup, and no trapezoid is evaluated.
        calls = []
        split = HuePartition._split
        monkeypatch.setattr(
            HuePartition, "_split", lambda p, hue: calls.append(hue) or split(p, hue)
        )
        monkeypatch.setattr(CircularTrapezoid, "membership", None)
        run(capsys, "classify", "--hue", "50")
        assert calls == [50.0]

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


def p6(width, height, samples):
    return b"P6\n%d %d\n255\n" % (width, height) + samples


def p3(width, height, samples):
    return b"P3\n%d %d\n255\n" % (width, height) + b" ".join(b"%d" % v for v in samples)


def label_lines(descriptor):
    """What label --top-k 10 prints for a descriptor."""
    return "".join(f"{label} {mass:.6f}\n" for label, mass in dominant_labels(descriptor, 10))


def fifo_of(path, data):
    """A named pipe at path, and a thread that writes data into it once."""
    os.mkfifo(path)
    writer = threading.Thread(target=Path(path).write_bytes, args=(data,), daemon=True)
    writer.start()
    return writer


def block_cases():
    """(width, height, samples, pixels counted past the tile-counted blocks)."""
    rng = random.Random(32)
    green, yellow, gray = bytes((85, 255, 0)), bytes((240, 184, 0)), bytes((128, 128, 128))
    cases = {}
    for tail in range(1, 16):
        # 64 copies of one tile, then the tail: a new colour, then the tile's.
        row = (green * 8 + yellow * 8) * 64 + gray + (green + yellow) * 7
        cases[f"tail of {tail}"] = (1024 + tail, 1, row[: 3 * (1024 + tail)], tail)
    cases["one pixel"] = (1, 1, gray, 1)
    cases["fewer pixels than a tile"] = (3, 5, rng.randbytes(45), 15)
    # 160x95: 950 tiles in 15 blocks of 60 and a last, shorter block of 50.
    flat = ramp_row(160, 8, 0.7) * 95
    noise = rng.randbytes(len(flat))
    cut = 8 * 60 * 48
    cases["never switching, a short last block"] = (160, 95, flat, 0)
    cases["switching in the first block"] = (160, 95, noise, 160 * 95 - 60 * 16)
    cases["switching in a middle block"] = (160, 95, flat[:cut] + noise[cut:], 160 * 95 - 9 * 960)
    # 168x95: 997 tiles in 15 blocks of 63 and one of 52, then 8 pixels.
    # A row is 10.5 tiles, so the ramp's tiles repeat every other row.
    flat = ramp_row(168, 8, 0.7) * 95
    noise = rng.randbytes(len(flat))
    cut = 8 * 63 * 48
    cases["switching in a middle block, with a tail"] = (
        168, 95, flat[:cut] + noise[cut:], 168 * 95 - 9 * 63 * 16
    )
    return cases


BLOCK_CASES = block_cases()


class TestLabelByBlocks:
    """label reads and counts a raster block by block; its descriptor and
    its output are image_descriptor(read_image(path))'s, bit for bit."""

    def expect_same(self, tmp_path, path, gate=DEFAULT_GATE, make_path=None):
        """Assert that path's blocks describe it as read_image's grid does,
        and that label prints that; (pixels counted past the tile-counted
        blocks, blocks from a read of the raster, not a cut of the samples)."""
        expected = image_descriptor(builtin_colibri(), read_image(path), gate)
        with open(path, "rb") as file:
            pixels, blocks = _image_blocks(file)
            got = _describe(builtin_colibri(), pixels, blocks, gate)
        assert bits(got) == bits(expected)
        argv = ["label", str(path), "--top-k", "10"]
        argv += ["--s-min", repr(gate.s_min), "--v-min", repr(gate.v_min)]
        assert run_on_files(tmp_path, argv, image=path.read_bytes()) == (
            0, label_lines(expected), ""
        )

    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    @pytest.mark.parametrize("kind", ["P6", "P3"])
    def test_cases(self, tmp_path, monkeypatch, case, kind):
        width, height, samples, past_tiles = BLOCK_CASES[case]
        path = tmp_path / "case.ppm"
        path.write_bytes((p6 if kind == "P6" else p3)(width, height, samples))
        self.expect_same(tmp_path, path)
        with open(path, "rb") as file:
            _, blocks = _image_blocks(file)
            _, sizes = traced_block_counts(monkeypatch, blocks)
        assert sizes[0] == past_tiles

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    @pytest.mark.parametrize("case", ["switching in a middle block, with a tail", "tail of 7"])
    def test_pipe_is_read_whole_and_cut_into_the_same_blocks(self, tmp_path, case):
        width, height, samples, _ = BLOCK_CASES[case]
        data = p6(width, height, samples)
        regular = tmp_path / "image.ppm"
        regular.write_bytes(data)
        expected = image_descriptor(builtin_colibri(), read_image(regular))
        writer = fifo_of(tmp_path / "blocks.fifo", data)
        with open(tmp_path / "blocks.fifo", "rb") as file:
            pixels, blocks = _image_blocks(file)
            got = _describe(builtin_colibri(), pixels, blocks, DEFAULT_GATE)
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert bits(got) == bits(expected)
        writer = fifo_of(tmp_path / "label.fifo", data)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["label", str(tmp_path / "label.fifo"), "--top-k", "10"])
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert (code, out.getvalue()) == (0, label_lines(expected))

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        grid=palette_grids(),
        kind=st.sampled_from(["P6", "P3"]),
        gate=st.sampled_from([DEFAULT_GATE, AchromaticGate(0.0, 0.0), AchromaticGate(0.4, 0.3)]),
    )
    def test_random_images(self, tmp_path, grid, kind, gate):
        path = tmp_path / "random.ppm"
        path.write_bytes((p6 if kind == "P6" else p3)(grid.width, grid.height, grid.samples))
        self.expect_same(tmp_path, path, gate)


class RecordedReads:
    """A binary file whose read and readinto calls are recorded."""

    def __init__(self, file):
        self.file = file
        self.calls = []

    def fileno(self):
        return self.file.fileno()

    def seek(self, offset):
        return self.file.seek(offset)

    def read(self, *size):
        self.calls.append(("read", *size))
        return self.file.read(*size)

    def readinto(self, buffer):
        self.calls.append(("readinto", len(buffer)))
        return self.file.readinto(buffer)


class TestLabelReads:
    def test_regular_p6_is_read_block_by_block_into_one_buffer(self, tmp_path):
        width, height, samples, _ = BLOCK_CASES["switching in a middle block, with a tail"]
        path = tmp_path / "image.ppm"
        path.write_bytes(p6(width, height, samples) + b"trailing bytes")
        with open(path, "rb") as file:
            recorded = RecordedReads(file)
            pixels, blocks = _image_blocks(recorded)
            assert recorded.calls == [("read", _READ_AHEAD)]
            views = list(blocks)
        sizes = _block_sizes(width * height)
        assert recorded.calls[1:] == [("readinto", size) for size in sizes]
        assert [len(view) for view in views] == sizes
        assert len({id(view.obj) for view in views}) == 1

    @pytest.mark.parametrize(
        "data",
        [
            p3(3, 5, bytes(range(45))),
            b"P6\n#" + b"c" * _READ_AHEAD + b"\n3 5\n255\n" + bytes(range(45)),
        ],
        ids=["P3", "header longer than the read-ahead"],
    )
    def test_anything_else_is_read_whole(self, tmp_path, data):
        path = tmp_path / "image.ppm"
        path.write_bytes(data)
        with open(path, "rb") as file:
            recorded = RecordedReads(file)
            pixels, blocks = _image_blocks(recorded)
            assert b"".join(blocks) == bytes(range(45))
        assert recorded.calls == [("read", _READ_AHEAD), ("read",)]

    def test_raster_that_gets_shorter_is_truncated(self, tmp_path):
        width, height, samples, _ = BLOCK_CASES["never switching, a short last block"]
        data = p6(width, height, samples)
        path = tmp_path / "image.ppm"
        path.write_bytes(data)
        with open(path, "rb") as file:
            _, blocks = _image_blocks(file)
            os.truncate(path, len(data) - 1000)
            with pytest.raises(ImageFormatError) as caught:
                list(blocks)
        count = len(samples)
        assert str(caught.value) == (
            f"truncated P6 pixel data: expected {count} bytes, got {count - 1000}"
        )

    def test_label_reports_a_raster_that_gets_shorter_and_closes_it(self, tmp_path, monkeypatch):
        width, height, samples, _ = BLOCK_CASES["switching in the first block"]
        path = tmp_path / "image.ppm"
        path.write_bytes(p6(width, height, samples))
        files = []
        load_model = cli._load_model

        def image_blocks(file):
            files.append(file)
            return _image_blocks(file)

        def shorten_then_load(args):
            os.truncate(path, len(path.read_bytes()) - 1000)
            return load_model(args)

        monkeypatch.setattr(cli, "_image_blocks", image_blocks)
        monkeypatch.setattr(cli, "_load_model", shorten_then_load)
        code, out, err = run_on_files(tmp_path, ["label", str(path)], image=path.read_bytes())
        count = len(samples)
        assert (code, out) == (2, "")
        assert err == f"error: truncated P6 pixel data: expected {count} bytes, got {count - 1000}\n"
        assert files[0].closed

    @pytest.mark.parametrize(
        "image",
        [
            make_p6(4, 4, [(10, 200, 30)] * 16)[:-5],
            b"P6 100000 100000 255\nabc",
            b"P6 4 4\n",
            b"P6 4 4 255x" + bytes(48),
            b"P6 4 4 65535\n" + bytes(96),
            b"GIF89a",
            b"P3 2 1 255 1 2 3 4 5",
        ],
        ids=["truncated", "size past the end", "no maxval", "no separator", "wide maxval",
             "not a PPM", "P3 truncated"],
    )
    @pytest.mark.parametrize("model", [b"[" * 10, b'{"period": 360}', None])
    def test_image_error_comes_before_the_model_error(self, tmp_path, image, model):
        path = tmp_path / "image.ppm"
        path.write_bytes(image)
        with pytest.raises(ImageFormatError) as caught:
            read_image(path)
        argv = ["label", "{image}"]
        if model is None:
            argv += ["--model", str(tmp_path / "missing.json")]
        code, out, err = run_on_files(tmp_path, argv, model=model, image=image)
        assert (code, out, err) == (2, "", f"error: {caught.value}\n")

    @pytest.mark.parametrize("kind", ["flat", "palette"])
    def test_traced_peak_stays_far_below_the_raster(self, tmp_path, kind):
        # A 1024x1024 posterized ramp with gray bands, counted by tiles
        # throughout; and four colours at random, so that every tile is new
        # and the count turns to pixels after the first block, whose 4,096
        # distinct tiles then take most of the peak. Either raster is 3 MB,
        # and a whole-raster read peaked above it.
        side = 1024
        if kind == "flat":
            rows = [ramp_row(side, 48, value) for value in (0.3, 0.55, 0.8, 1.0)]
            gray = bytes([128]) * (3 * side)
            raster = b"".join(gray if y % 8 < 3 else rows[y * 4 // side] for y in range(side))
            bound = 1_000_000
        else:
            rng = random.Random(3)
            colours = [bytes(c) for c in ((200, 40, 0), (30, 90, 220), (128, 128, 128), (0, 255, 0))]
            raster = b"".join(rng.choices(colours, k=side * side))
            bound = 1_500_000
        path = tmp_path / f"{kind}.ppm"
        path.write_bytes(p6(side, side, raster))
        del raster
        argv = ["label", str(path), "--top-k", "10"]
        with contextlib.redirect_stdout(io.StringIO()) as first:
            cli_main(argv)  # builds the gate's table and loads the lazy modules
        with contextlib.redirect_stdout(io.StringIO()) as traced:
            tracemalloc.start()
            try:
                code = cli_main(argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert (code, traced.getvalue()) == (0, first.getvalue())
        assert peak < bound


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


SPECTRUM_BYTES = render_spectrum(builtin_colibri()).encode()
MEMBERSHIPS_BYTES = render_memberships(builtin_colibri(), PlotConfig(alpha_line=0.5)).encode()


class TestPlotWritesInPlace:
    """``plot --out`` writes over the named file and cuts it to length."""

    def test_longer_file_shrinks_to_the_figure(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        out_path.write_bytes(MEMBERSHIPS_BYTES + b"x" * 1000)
        assert len(MEMBERSHIPS_BYTES) > len(SPECTRUM_BYTES)
        code, out, err = run(capsys, "plot", "spectrum", "--out", str(out_path))
        assert (code, out, err) == (0, "", "")
        assert out_path.read_bytes() == SPECTRUM_BYTES

    def test_shorter_file_grows_to_the_figure(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        out_path.write_bytes(b"<svg/>")
        code, _, _ = run(capsys, "plot", "memberships", "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == MEMBERSHIPS_BYTES

    def test_symlink_target_gets_the_figure(self, capsys, tmp_path):
        target = tmp_path / "target.svg"
        target.write_bytes(MEMBERSHIPS_BYTES)
        link = tmp_path / "link.svg"
        try:
            link.symlink_to(target)
        except OSError:
            pytest.skip("symlinks are not available")
        code, _, _ = run(capsys, "plot", "spectrum", "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert target.read_bytes() == SPECTRUM_BYTES

    def test_permission_bits_are_kept(self, capsys, tmp_path):
        out_path = tmp_path / "fig.svg"
        out_path.write_bytes(b"old")
        out_path.chmod(0o640)
        before = out_path.stat().st_mode
        code, _, _ = run(capsys, "plot", "spectrum", "--out", str(out_path))
        assert code == 0
        assert out_path.stat().st_mode == before
        assert out_path.read_bytes() == SPECTRUM_BYTES

    def test_devnull(self, capsys):
        code, out, err = run(capsys, "plot", "spectrum", "--out", os.devnull)
        assert (code, out, err) == (0, "", "")

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_into_a_pipe(self):
        # A pipe cannot be cut to length, so it must not be tried.
        result = subprocess.run(
            [sys.executable, "-m", "fuzzyhue.cli", "plot", "spectrum", "--out", "/dev/stdout"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == SPECTRUM_BYTES

    @pytest.mark.parametrize("name", [".", "missing/fig.svg"])
    def test_unwritable_path_reports_the_os_error(self, capsys, tmp_path, name):
        out_path = str(tmp_path / name)
        with pytest.raises(OSError) as refused:
            open(out_path, "w", encoding="utf-8")
        code, out, err = run(capsys, "plot", "spectrum", "--out", out_path)
        assert (code, out) == (2, "")
        assert err == f"error: {refused.value}\n"
        assert err.startswith("error: [Errno ")

    def test_render_error_leaves_the_old_file(self, capsys, tmp_path, monkeypatch):
        def refuse(partition, cfg=None):
            raise ValueError("cannot draw")

        monkeypatch.setattr(cli, "render_spectrum", refuse)
        out_path = tmp_path / "fig.svg"
        out_path.write_bytes(MEMBERSHIPS_BYTES)
        code, _, err = run(capsys, "plot", "spectrum", "--out", str(out_path))
        assert (code, err) == (2, "error: cannot draw\n")
        assert out_path.read_bytes() == MEMBERSHIPS_BYTES

    def test_never_truncates_to_zero(self, capsys, tmp_path, monkeypatch):
        # O_TRUNC on a recently written file waits for its writeback.
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        out_path = tmp_path / "fig.svg"
        for kind in ("memberships", "spectrum"):
            code, _, _ = run(capsys, "plot", kind, "--out", str(out_path))
            assert code == 0
        assert len(flags) == 2
        assert not any(flag & os.O_TRUNC for flag in flags)
        assert out_path.read_bytes() == SPECTRUM_BYTES


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

    @pytest.mark.parametrize("position", [0.0, 1e-300])
    def test_seam_ring_passes(self, capsys, tmp_path, position):
        # The zone at 0 straddles the seam and is 1e-8 wide; sum-to-one
        # once FAILed here by 3.97e-07, with exit 2.
        doc = {
            "period": 360,
            "categories": [{"name": "a"}, {"name": "b"}],
            "boundaries": [
                {"position": position, "width": 1e-8},
                {"position": 1e-7, "width": 1e-8},
            ],
        }
        path = tmp_path / "seam.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--model", str(path))
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 4 and all(line.startswith("PASS") for line in lines), out
        assert lines[0] == "PASS memberships-sum-to-one (max deviation 0)"

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

    def test_ulp_wide_zone_passes(self, capsys, tmp_path):
        # The zone at 8.607 is 5 ulps wide; sum-to-one failed with deviation 1.
        specs = [BoundarySpec(8.60744456874241, 8.881784197001252e-15),
                 BoundarySpec(116.08431337406991, 24.99763220342407)]
        path = tmp_path / "ulp.json"
        path.write_text(dump_partition(from_boundaries(specs, ("a", "b"))))
        code, out, _ = run(capsys, "validate", "--model", str(path))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4 and all(line.startswith("PASS") for line in lines)

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

    def test_near_full_core_is_widest(self, capsys, tmp_path):
        # a's core of 359.9999999 degrees was snapped to zero, which made b
        # the widest category.
        specs = [BoundarySpec(0.0, 1e-8), BoundarySpec(1e-7, 1e-8)]
        path = tmp_path / "full.json"
        path.write_text(dump_partition(from_boundaries(specs, ("a", "b"))))
        code, out, _ = run(capsys, "report", "--model", str(path))
        assert code == 0
        assert out.startswith("widest: a (wideness 359.9999999)\n")


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

    @pytest.mark.parametrize("argv", MODEL_COMMANDS, ids=lambda argv: argv[0])
    def test_deeply_nested_model_is_data_error(self, tmp_path, argv):
        # json.loads raises RecursionError on 100,000 nested arrays.
        code, out, err = run_on_files(tmp_path, argv, model=DEEP_JSON)
        assert (code, out) == (2, "")
        assert err == "error: invalid JSON: arrays or objects nested too deeply\n"

    @pytest.mark.parametrize("argv", MODEL_COMMANDS, ids=lambda argv: argv[0])
    def test_3000_levels_are_one_invalid_json_line(self, tmp_path, argv):
        # A RecursionError up to 3.12, a decode error of the unclosed arrays
        # on 3.13: either way one line, exit 2.
        code, out, err = run_on_files(tmp_path, argv, model=b"[" * 3000 + b"\n")
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "metrics" in out


# (what the random bytes are, argv): each subcommand's --model file, and
# label's image.
FILE_INPUTS = [("model", argv) for argv in MODEL_COMMANDS] + [("image", ("label", "{image}"))]


class TestNoTraceback:
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.binary(max_size=400), where=st.sampled_from(FILE_INPUTS))
    @example(data=DEEP_JSON, where=("model", ("validate",)))
    @example(data=make_p6(4, 4, [(10, 200, 30)] * 16)[:-5], where=("image", ("label", "{image}")))
    @example(data=b"P6 100000 100000 255\nabc", where=("image", ("label", "{image}")))
    @example(
        data=b"P6\n#" + b"c" * 5000 + b"\n4 4\n255\n" + bytes(48),
        where=("image", ("label", "{image}")),
    )
    def test_random_file_bytes_exit_with_a_code(self, tmp_path, data, where):
        kind, argv = where
        if kind == "model":
            code, out, err = run_on_files(tmp_path, argv, model=data)
        else:
            code, out, err = run_on_files(tmp_path, argv, image=data)
        assert code in (0, 1, 2)
        if code == 2 and not (argv[0] == "validate" and "FAIL" in out):
            # Not a failed check of a model that was read: one error line.
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err


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


def parse_then_run(argv):
    """What ``cli_main`` did with one full parser per call: parse ``argv``
    with ``build_parser()``, then run the command it names.
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
        else:
            try:
                code = args.func(args)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                code = cli.DATA_ERROR
    return code, out.getvalue(), err.getvalue()


# Help, usage errors and the parses they border, as argv templates: {image}
# is an image file. Each subcommand also appears with -h and with a required
# argument (or, where it has none, an option's value) missing.
COMMAND_NAMES = ("metrics", "classify", "label", "plot", "validate", "report")
PARSER_CASES = [
    (),
    ("-h",),
    ("--help",),
    ("bogus",),
    ("labe",),
    ("--",),
    ("-h", "label"),
    *((name, "-h") for name in COMMAND_NAMES),
    ("metrics", "--alpha"),
    ("classify",),
    ("label",),
    ("plot",),
    ("plot", "spectrum"),
    ("validate",),
    ("report", "--model"),
    ("label", "{image}", "--top-k", "11"),
    ("metrics", "--alpha", "0"),
    ("classify", "--hue", "nan"),
    ("classify", "--hue", "1", "--rgb", "1,2,3"),
    ("metrics", "--alph", "0.7"),
    ("label", "{image}", "--top", "2"),
    ("label", "{image}", "extra"),
    ("report", "--bogus"),
    # Shapes that a top-level parser around the subcommand used to see first.
    ("label", "--", "{image}"),
    ("label", "{image}", "--top-k=3"),
    ("metrics", "--mod"),
    ("classify", "--hue", "-5"),
    ("plot", "spectrum", "--out"),
    ("report", "-h", "extra"),
    ("validate", "--model", ""),
]

# Words random argv are drawn from: the six names, their options and values,
# "--", help flags, abbreviations and junk.
ARGV_WORDS = (
    *COMMAND_NAMES,
    *("--model", "--alpha", "--format", "--hue", "--rgb", "--top-k", "--s-min", "--v-min"),
    *("--out", "--mod", "--alph", "--top", "--top-k=3", "--alpha=0.3", "--hue=-5", "-h"),
    *("--help", "--", "-", "", "memberships", "spectrum", "csv", "table", "0", "0.5", "-5"),
    *("nan", "11", "1,2,3", "255,170,0", "{image}", "{out}", "labe", "bogus", "extra"),
)


class TestParserPerCommand:
    @pytest.mark.parametrize("columns", ["80", "30"])
    @pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_bytes_as_the_full_parser(self, tmp_path, monkeypatch, argv, columns):
        # argparse wraps help and usage at $COLUMNS.
        monkeypatch.setenv("COLUMNS", columns)
        got = run_on_files(tmp_path, argv)
        assert got == parse_then_run(fill_paths(tmp_path, argv))

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        argv=st.one_of(
            st.lists(st.sampled_from(ARGV_WORDS), max_size=6),
            st.builds(
                lambda name, rest: [name, *rest],
                st.sampled_from(COMMAND_NAMES),
                st.lists(st.sampled_from(ARGV_WORDS), max_size=5),
            ),
        )
    )
    def test_random_argv_same_bytes_as_the_full_parser(self, tmp_path, monkeypatch, argv):
        # A drawn word can be an --out or --model path: keep it in tmp_path.
        monkeypatch.chdir(tmp_path)
        got = run_on_files(tmp_path, argv)
        assert got == parse_then_run(fill_paths(tmp_path, argv))

    def test_leftover_argument_gets_the_six_command_usage(self, tmp_path):
        # A parser holding label alone would print {label} here.
        code, out, err = run_on_files(tmp_path, ["label", "{image}", "extra"])
        assert (code, out) == (1, "")
        assert err == (
            "usage: fuzzyhue [-h] {metrics,classify,label,plot,validate,report} ...\n"
            "fuzzyhue: error: unrecognized arguments: extra\n"
        )

    def test_one_call_leaves_less_cyclic_garbage_than_the_full_parser(self):
        def unreachable(call):
            """Objects only the cyclic collector frees, left by call()."""
            gc.collect()
            gc.disable()
            try:
                call()
                return gc.collect()
            finally:
                gc.enable()

        def build_report_parser():
            cli._COMMANDS["report"][1](cli._Parser(prog="fuzzyhue report"))

        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["report"])
            report = unreachable(lambda: cli_main(["report"]))
        assert report <= unreachable(build_report_parser) < unreachable(cli.build_parser)
