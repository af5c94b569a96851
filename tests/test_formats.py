import json
import os
import random
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyhue import (
    ConfigError,
    ImageFormatError,
    InconsistentCoreError,
    PartitionError,
    PixelGrid,
    UnsupportedImageFormatError,
    builtin_colibri,
    dump_partition,
    export_metrics_csv,
    from_boundaries,
    image_descriptor,
    load_partition,
    metrics_table,
    read_image,
)
from fuzzyhue.formats import _READ_AHEAD
from conftest import make_p6, random_boundary_specs

# Whitespace bytes and comments netpbm allows between header fields (and,
# in P3, between samples); every run holds at least one of them.
_separators = st.lists(
    st.one_of(
        st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c"]),
        st.binary(max_size=6).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n"),
    ),
    min_size=1,
    max_size=3,
).map(b"".join)


@st.composite
def ppm_files(draw):
    """(file bytes, pixels) of a small raster written as P6 or P3."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pixels = draw(
        st.lists(
            st.tuples(*[st.integers(0, 255)] * 3),
            min_size=width * height,
            max_size=width * height,
        )
    )
    binary = draw(st.booleans())
    data = b"P6" if binary else b"P3"
    for field in (width, height, 255):
        data += draw(_separators) + str(field).encode()
    if binary:
        data += draw(st.sampled_from([b" ", b"\t", b"\r", b"\n"])) + bytes(
            v for px in pixels for v in px
        )
    else:
        for v in (v for px in pixels for v in px):
            data += draw(_separators) + str(v).encode()
    return data, tuple(pixels)


GOLDEN_DOC = json.dumps(
    {
        "period": 360,
        "categories": [
            {"name": n}
            for n in (
                "red",
                "orange",
                "yellow",
                "green",
                "cyan",
                "lightblue",
                "blue",
                "violet",
                "magenta",
            )
        ],
        "boundaries": [
            {"position": p, "width": w}
            for p, w in (
                (12.5, 15),
                (40.0, 12),
                (55.5, 19),
                (151.5, 47),
                (180.5, 11),
                (199.5, 27),
                (255.0, 30),
                (300.5, 45),
                (340.5, 21),
            )
        ],
    }
)


class TestLoadPartition:
    def test_table_document_equals_builtin(self):
        assert load_partition(GOLDEN_DOC) == builtin_colibri()

    def test_negative_width_names_field(self):
        doc = json.loads(GOLDEN_DOC)
        doc["boundaries"][3]["width"] = -5
        with pytest.raises(ConfigError, match=r"boundaries\[3\].width"):
            load_partition(json.dumps(doc))

    def test_negative_core_names_category(self):
        doc = {
            "period": 360,
            "categories": [{"name": n} for n in ("a", "b", "c")],
            "boundaries": [
                {"position": 10, "width": 15},
                {"position": 20, "width": 15},
                {"position": 200, "width": 5},
            ],
        }
        with pytest.raises(InconsistentCoreError, match="'b'"):
            load_partition(json.dumps(doc))

    def test_parse_error_carries_position(self):
        with pytest.raises(ConfigError, match=r"line 2, column"):
            load_partition('{\n  "period": }')

    def test_wrong_period(self):
        doc = json.loads(GOLDEN_DOC)
        doc["period"] = 100
        with pytest.raises(ConfigError, match="period"):
            load_partition(json.dumps(doc))

    def test_count_mismatch(self):
        doc = json.loads(GOLDEN_DOC)
        doc["categories"] = doc["categories"][:-1]
        with pytest.raises(ConfigError, match="count"):
            load_partition(json.dumps(doc))

    def test_non_ascending_positions(self):
        doc = json.loads(GOLDEN_DOC)
        doc["boundaries"][0]["position"] = 50.0
        with pytest.raises(ConfigError, match="ascending"):
            load_partition(json.dumps(doc))

    def test_order_error_names_the_boundary(self):
        doc = json.loads(GOLDEN_DOC)
        doc["boundaries"][4]["position"] = 100.0
        with pytest.raises(ConfigError, match=r"boundaries\[4\]\.position .*ascending"):
            load_partition(json.dumps(doc))

    def test_position_out_of_range(self):
        doc = json.loads(GOLDEN_DOC)
        doc["boundaries"][-1]["position"] = 360.0
        with pytest.raises(ConfigError, match=r"\[0, 360\)"):
            load_partition(json.dumps(doc))

    @pytest.mark.parametrize("width", ["360", "400", "1e400"])
    def test_width_of_a_full_turn_or_more(self, width):
        doc = json.loads(GOLDEN_DOC)
        doc["boundaries"][2]["width"] = 0
        # 1e400 parses as infinity; json.dumps would write it as a token.
        text = json.dumps(doc).replace('"width": 0', f'"width": {width}', 1)
        with pytest.raises(ConfigError, match=r"boundaries\[2\].width"):
            load_partition(text)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["position", "width"])
    def test_non_finite_tokens_refused(self, token, field):
        doc = json.loads(GOLDEN_DOC)
        doc["boundaries"][1][field] = 0
        text = json.dumps(doc).replace(f'"{field}": 0', f'"{field}": {token}', 1)
        with pytest.raises(ConfigError, match=token):
            load_partition(text)

    def test_sub_ulp_width_is_a_partition_error(self):
        doc = json.loads(GOLDEN_DOC)
        doc["boundaries"][4]["width"] = 5e-324
        with pytest.raises(PartitionError, match="'cyan'"):
            load_partition(json.dumps(doc))

    def test_dump_round_trip(self, colibri):
        reloaded = load_partition(dump_partition(colibri))
        assert metrics_table(reloaded) == metrics_table(colibri)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        count=st.integers(2, 16),
        delta=st.floats(-720.0, 720.0, allow_nan=False),
    )
    def test_rotated_dump_round_trip(self, seed, count, delta):
        if seed is None:
            partition = builtin_colibri()
        else:
            specs = random_boundary_specs(random.Random(seed), count)
            partition = from_boundaries(specs, tuple(f"c{i}" for i in range(count)))
        rotated = partition.rotated(delta)
        assert load_partition(dump_partition(rotated)) == rotated


class TestExportMetricsCsv:
    def test_builtin_rows(self, colibri):
        text = export_metrics_csv(metrics_table(colibri))
        lines = text.split("\n")
        assert lines[0] == (
            "category,range_start,range_end,wideness,left_boundary_width,right_boundary_width"
        )
        assert "yellow,40.0,55.5,15.5,12.0,19.0" in lines
        assert "green,55.5,151.5,96.0,19.0,47.0" in lines
        assert len(lines) == 11 and lines[-1] == ""  # header + 9 rows + final LF

    def test_lf_only(self, colibri):
        assert "\r" not in export_metrics_csv(metrics_table(colibri))

    def test_numeric_round_trip_exact(self, colibri):
        rows = metrics_table(colibri)
        lines = export_metrics_csv(rows).splitlines()[1:]
        for row, line in zip(rows, lines):
            fields = line.split(",")
            assert float(fields[1]) == row.wideness_range.start
            assert float(fields[2]) == row.wideness_range.end
            assert float(fields[3]) == row.wideness
            assert float(fields[4]) == row.left_boundary_width
            assert float(fields[5]) == row.right_boundary_width

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            export_metrics_csv([])


class TestReadImage:
    def test_two_pixel_p6(self, tmp_path):
        path = tmp_path / "two.ppm"
        path.write_bytes(make_p6(2, 1, [(255, 0, 0), (0, 255, 0)]))
        grid = read_image(path)
        assert (grid.width, grid.height) == (2, 1)
        assert grid.pixels == ((255, 0, 0), (0, 255, 0))

    def test_header_comments(self, tmp_path):
        path = tmp_path / "commented.ppm"
        path.write_bytes(make_p6(1, 1, [(9, 8, 7)], comment="made by hand"))
        assert read_image(path).pixels == ((9, 8, 7),)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        data = make_p6(2, 2, [(1, 2, 3)] * 4)
        path.write_bytes(data[:-5])
        with pytest.raises(ImageFormatError, match="truncated"):
            read_image(path)

    def test_p3_is_accepted(self, tmp_path):
        path = tmp_path / "ascii.ppm"
        path.write_text("P3\n# comment\n2 1\n255\n255 0 0  0 255 0\n")
        grid = read_image(path)
        assert grid.pixels == ((255, 0, 0), (0, 255, 0))

    def test_p3_truncated(self, tmp_path):
        path = tmp_path / "ascii-short.ppm"
        path.write_text("P3\n2 1\n255\n255 0 0\n")
        with pytest.raises(ImageFormatError, match="truncated"):
            read_image(path)

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "not.ppm"
        path.write_bytes(b"GIF89a....")
        with pytest.raises(UnsupportedImageFormatError, match="magic"):
            read_image(path)

    def test_wide_maxval_unsupported(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(UnsupportedImageFormatError, match="maxval"):
            read_image(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\nnot-a-number 1\n255\n")
        with pytest.raises(ImageFormatError, match="header"):
            read_image(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_image(tmp_path / "nope.ppm")

    @settings(max_examples=200, deadline=None)
    @given(ppm_files())
    def test_round_trip_with_any_separators(self, case):
        data, pixels = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "case.ppm"
            path.write_bytes(data)
            assert read_image(path).pixels == pixels

    @pytest.mark.parametrize(
        "data",
        [
            # A digit run glued to the next token is never split.
            b"P6065535P6\n1 1\n255\n" + bytes(3),
            # A comment without a newline runs to the end of the file.
            b"P6\n1 1\n#255 xyz",
            b"P3 1 1 #255 1 2 3",
            # The raster separator must be whitespace, not a comment.
            b"P6\n1 1\n255#c\n" + bytes(3),
        ],
    )
    def test_header_tokens_are_not_split(self, tmp_path, data):
        path = tmp_path / "bad.ppm"
        path.write_bytes(data)
        with pytest.raises(ImageFormatError) as caught:
            read_image(path)
        # A split token reads as a maxval other than 255, which is the subclass.
        assert caught.type is ImageFormatError

    @pytest.mark.parametrize(
        "data",
        [
            b"P6 " + b"1" * 5000 + b" 1 255\n",
            b"P3 1 1 " + b"2" * 5000 + b" 1 2 3",
            b"P3 1 1 255 1 " + b"1" * 5000 + b" 3",
        ],
        ids=["width", "maxval", "p3-sample"],
    )
    def test_numbers_past_the_digit_limit(self, tmp_path, data):
        # int() refuses more than 4,300 digits by default.
        path = tmp_path / "long.ppm"
        path.write_bytes(data)
        with pytest.raises(ImageFormatError, match="too many digits"):
            read_image(path)

    def test_p3_size_past_any_file(self, tmp_path):
        path = tmp_path / "huge.ppm"
        path.write_bytes(b"P3 100000000000000000000 1 255 1 2 3")
        with pytest.raises(ImageFormatError, match="truncated"):
            read_image(path)

    def test_p3_sample_out_of_range(self, tmp_path):
        path = tmp_path / "hot.ppm"
        path.write_text("P3\n1 1\n255\n0 256 0\n")
        with pytest.raises(ImageFormatError, match="out of range"):
            read_image(path)

    def test_p3_reading_stops_at_the_last_digit(self, tmp_path):
        path = tmp_path / "tail.ppm"
        path.write_bytes(b"P3 1 1 255 1#one\n2 3junk")
        assert read_image(path).pixels == ((1, 2, 3),)


PIXELS = [(255, 0, 0), (0, 9, 200), (7, 7, 7), (1, 2, 3)]


def padded_p6(header_bytes):
    """A 2x2 P6 whose header, separator included, is ``header_bytes`` long:
    a comment after the magic takes up the slack."""
    tail = b"\n2 2 255\n"
    comment = b"\n#" + b"c" * (header_bytes - len(b"P6") - len(tail) - 2)
    data = b"P6" + comment + tail
    assert len(data) == header_bytes
    return data + bytes(v for px in PIXELS for v in px)


class TestRasterRead:
    """A regular P6 file whose header ends inside the read-ahead has its
    raster read straight into the grid; every other file is read whole.
    Both must give the same pixels and the same errors."""

    def test_comment_longer_than_the_read_ahead(self, tmp_path):
        path = tmp_path / "long-comment.ppm"
        path.write_bytes(padded_p6(3 * _READ_AHEAD))
        assert read_image(path).pixels == tuple(PIXELS)

    # A header ``past`` bytes longer than the read-ahead, which then ends
    # inside "255", right after it, on the separator or on the raster.
    @pytest.mark.parametrize(
        "past, ending",
        [(3, b" 2"), (2, b"25"), (1, b"255"), (0, b"255\n"), (-1, b"255\n\xff")],
    )
    def test_read_ahead_ending_on_each_last_header_byte(self, tmp_path, past, ending):
        path = tmp_path / "edge.ppm"
        data = padded_p6(_READ_AHEAD + past)
        path.write_bytes(data)
        assert data[:_READ_AHEAD].endswith(ending)
        assert read_image(path).pixels == tuple(PIXELS)

    @pytest.mark.parametrize(
        "data, message",
        [
            # Never asked for in one read larger than the file.
            (b"P6 100000 100000 255\nabc", "expected 30000000000 bytes, got 3"),
            (make_p6(2, 2, PIXELS)[:-1], "expected 12 bytes, got 11"),
        ],
        ids=["size-past-the-end", "one-byte-short"],
    )
    def test_truncated_raster_message(self, tmp_path, data, message):
        path = tmp_path / "short.ppm"
        path.write_bytes(data)
        with pytest.raises(ImageFormatError) as caught:
            read_image(path)
        assert str(caught.value) == f"truncated P6 pixel data: {message}"

    def test_trailing_bytes_are_ignored(self, tmp_path):
        path = tmp_path / "trailing.ppm"
        path.write_bytes(make_p6(2, 2, PIXELS) + b"P6 more bytes\n" * 10)
        assert read_image(path).samples == bytes(v for px in PIXELS for v in px)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_fifo_reads_like_the_regular_file(self, tmp_path):
        # Larger than a pipe's buffer, so the writer blocks until read.
        rng = random.Random(5)
        data = b"P6\n200 120\n255\n" + rng.randbytes(3 * 200 * 120) + b"tail"
        regular = tmp_path / "image.ppm"
        regular.write_bytes(data)
        fifo = tmp_path / "image.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            grid = read_image(fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert grid == read_image(regular)


class TestPixelGrid:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            PixelGrid(0, 1, ())
        with pytest.raises(ValueError):
            PixelGrid(2, 1, ((0, 0, 0),))

    @pytest.mark.parametrize("size", [2.0, True, "2", 0])
    @pytest.mark.parametrize("axis", ["width", "height"])
    def test_dimensions_must_be_positive_ints(self, size, axis):
        dims = {"width": 2, "height": 1, axis: size}
        with pytest.raises(ValueError, match=f"{axis} must be an integer in"):
            PixelGrid(dims["width"], dims["height"], bytes(6))

    def test_triples_and_bytes_build_the_same_grid(self):
        rng = random.Random(11)
        pixels = tuple(
            (rng.randrange(256), rng.randrange(256), rng.randrange(256)) for _ in range(12)
        )
        packed = bytes(v for px in pixels for v in px)
        from_triples = PixelGrid(4, 3, list(pixels))
        from_bytes = PixelGrid(4, 3, packed)
        assert from_triples == from_bytes
        assert hash(from_triples) == hash(from_bytes)
        assert from_triples.samples == packed
        assert from_bytes.pixels == pixels
        assert PixelGrid(4, 3, from_bytes.pixels) == from_bytes
        assert from_bytes != PixelGrid(3, 4, packed)

    @pytest.mark.parametrize(
        "wrap", [bytearray, memoryview, lambda b: memoryview(bytearray(b)).cast("c")]
    )
    def test_bytearray_and_byte_memoryview_are_packed_samples(self, wrap):
        # These used to be read as a sequence of triples, and unpacking their
        # first int raised a bare TypeError.
        packed = bytes([1, 2, 3, 250, 0, 7])
        grid = PixelGrid(2, 1, wrap(packed))
        assert type(grid.samples) is bytes
        assert grid == PixelGrid(2, 1, packed)
        assert hash(grid) == hash(PixelGrid(2, 1, packed))
        assert grid.pixels == ((1, 2, 3), (250, 0, 7))
        assert PixelGrid(1, 1, wrap(b"\x01\x02\x03")).pixels == ((1, 2, 3),)

    def test_packed_samples_are_copied(self):
        buffer = bytearray(3)
        grid = PixelGrid(1, 1, memoryview(buffer))
        buffer[0] = 9
        assert grid.samples == bytes(3)

    @pytest.mark.parametrize("size", [5, 11, 13, 0, 9, 15])
    def test_sample_bytes_must_fill_the_raster(self, size):
        # 2x2 needs exactly 12 bytes: lengths off a multiple of 3 and whole
        # pixels too few or too many are refused alike.
        with pytest.raises(ValueError, match="sample bytes"):
            PixelGrid(2, 2, bytes(size))

    @pytest.mark.parametrize(
        "data",
        [make_p6(2, 1, [(255, 0, 0), (0, 9, 200)]), b"P3\n2 1\n255\n255 0 0\n0 9 200\n"],
        ids=["P6", "P3"],
    )
    def test_read_image_keeps_the_raster_bytes(self, tmp_path, data):
        path = tmp_path / "raster.ppm"
        path.write_bytes(data)
        assert read_image(path).samples == bytes([255, 0, 0, 0, 9, 200])


def test_read_image_holds_the_raster_once(tmp_path):
    # The raster is read into the bytes the grid keeps: no whole-file copy
    # and no slice of it (the traced peak of a whole read is 2.00x).
    side = 512
    raster = random.Random(8).randbytes(3 * side * side)
    path = tmp_path / "noise.ppm"
    path.write_bytes(b"P6\n%d %d\n255\n" % (side, side) + raster)
    tracemalloc.start()
    try:
        grid = read_image(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.samples == raster
    assert peak < 1.25 * len(raster)


def test_label_memory_stays_near_the_raster_size(tmp_path, colibri):
    # Reading and labelling a 512x512 image must not hold an object per
    # pixel, nor a second copy of the raster: the traced peak stays near
    # the raster itself.
    side = 512
    raster = bytes([200, 40, 0, 30, 90, 220]) * (side * side // 2)
    path = tmp_path / "two-colour.ppm"
    path.write_bytes(b"P6\n%d %d\n255\n" % (side, side) + raster)
    image_descriptor(colibri, PixelGrid(1, 1, [(0, 0, 0)]))  # build the gate's table
    tracemalloc.start()
    try:
        descriptor = image_descriptor(colibri, read_image(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert descriptor.total() == pytest.approx(1.0)
    assert peak < 1.25 * len(raster)
