"""External formats: partition config JSON, metrics CSV, and PPM images."""

from __future__ import annotations

import io
import os
import re
import struct
from pathlib import Path
from stat import S_ISREG
from typing import BinaryIO, Iterator, NoReturn, Sequence

from ._value import Value, _number
from .classify import _block_sizes, _check_rgb, _sample_blocks
from .metrics import CategoryMetrics
from .partition import BoundaryOrderError, BoundarySpec, HuePartition, from_boundaries

CSV_HEADER = (
    "category",
    "range_start",
    "range_end",
    "wideness",
    "left_boundary_width",
    "right_boundary_width",
)


class ConfigError(ValueError):
    """Partition config document is unreadable or violates the schema."""


class ImageFormatError(ValueError):
    """Image file is recognized but malformed."""


class UnsupportedImageFormatError(ImageFormatError):
    """Image file is in a format this reader does not handle."""


class PixelGrid(Value):
    """Row-major 8-bit RGB raster, stored as packed samples (R, G, B per pixel).

    ``width`` and ``height`` are positive ``int``s (``bool`` refused), and
    ``pixels`` is either that packed form or a sequence of RGB triples, which
    is checked (each channel an ``int`` in [0, 255], ``bool`` refused) and
    packed once. The packed form is ``bytes``, or a ``bytearray`` or a
    ``memoryview`` of single bytes, which is copied to ``bytes``. A grid
    equals and hashes like any other grid of the same size and samples,
    however it was built.
    """

    __match_args__ = ("width", "height", "samples")

    def __init__(
        self,
        width: int,
        height: int,
        pixels: bytes | bytearray | memoryview | Sequence[tuple[int, int, int]],
    ) -> None:
        _number("width", width, 1, integral=True)
        _number("height", height, 1, integral=True)
        if isinstance(pixels, bytes):
            samples = pixels
        elif isinstance(pixels, bytearray) or (
            isinstance(pixels, memoryview) and pixels.itemsize == 1
        ):
            samples = bytes(pixels)
        else:
            samples = bytes(v for rgb in pixels for v in _check_rgb(rgb))
        if len(samples) != 3 * width * height:
            raise ValueError(
                f"{len(samples)} sample bytes do not hold {width}x{height} RGB pixels"
            )
        fields = self.__dict__
        fields["width"] = width
        fields["height"] = height
        fields["samples"] = samples

    def __repr__(self) -> str:
        # The samples are the raster, too long to show.
        return f"{type(self).__qualname__}(width={self.width!r}, height={self.height!r})"

    @property
    def pixels(self) -> tuple[tuple[int, int, int], ...]:
        """The raster as RGB triples, rebuilt on every access (O(pixels))."""
        return tuple(struct.iter_unpack("BBB", self.samples))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _reject_constant(name: str) -> NoReturn:
    raise ConfigError(f"non-finite number {name} is not allowed")


def load_partition(text: str) -> HuePartition:
    """Parse a partition config document.

    The document is flat JSON: a period of 360, the category names in ring
    order, and one (position, width) boundary per adjacent pair, ascending
    around the circle from any start, with boundary k separating category k
    from k+1 (the last wraps back to the first). Schema violations and
    positions out of order raise ConfigError naming the offending field, and
    so do the tokens ``NaN``, ``Infinity`` and ``-Infinity`` and JSON nested
    deeper than the parser's recursion limit; reconstruction
    errors (overlapping transition zones) raise PartitionError naming the
    category.
    """
    # json and csv are loaded on first use, so a start that reads no
    # config and writes no CSV does not pay for them.
    import json

    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ConfigError("invalid JSON: arrays or objects nested too deeply") from None
    _require(isinstance(doc, dict), "config root must be a JSON object")
    _require(doc.get("period") == 360, 'config field "period" must be the number 360')

    categories = doc.get("categories")
    _require(isinstance(categories, list), 'config field "categories" must be a list')
    names = []
    for i, entry in enumerate(categories):
        _require(
            isinstance(entry, dict) and isinstance(entry.get("name"), str) and entry["name"],
            f'categories[{i}] must be an object with a non-empty string "name"',
        )
        names.append(entry["name"])

    raw_boundaries = doc.get("boundaries")
    _require(isinstance(raw_boundaries, list), 'config field "boundaries" must be a list')
    _require(
        len(raw_boundaries) == len(names) and len(names) >= 2,
        f"category count ({len(names)}) and boundary count ({len(raw_boundaries)}) "
        "must match and be at least 2",
    )
    specs = []
    for i, entry in enumerate(raw_boundaries):
        at = f"boundaries[{i}]"
        _require(isinstance(entry, dict), f"{at} must be an object")
        try:
            position = _number(f"{at}.position", entry.get("position"), 0, 360, open_high=True)
            width = _number(f"{at}.width", entry.get("width"), 0, 360, open_low=True, open_high=True)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        specs.append(BoundarySpec(float(position), float(width)))
    try:
        return from_boundaries(specs, names)
    except BoundaryOrderError as exc:
        raise ConfigError(str(exc)) from None


def dump_partition(partition: HuePartition) -> str:
    """Config document for a partition, loadable by :func:`load_partition`."""
    import json

    doc = {
        "period": 360,
        "categories": [{"name": name} for name in partition.names],
        "boundaries": [
            {"position": b.position, "width": b.width} for b in partition.boundaries
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def format_number(value: float) -> str:
    """Shortest decimal text that round-trips, always with a decimal point."""
    return repr(float(value))


def export_metrics_csv(rows: Sequence[CategoryMetrics]) -> str:
    """Metrics table as CSV with LF line endings, rows in ring order."""
    import csv

    if not rows:
        raise ValueError("metrics table is empty")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.name,
                format_number(row.wideness_range.start),
                format_number(row.wideness_range.end),
                format_number(row.wideness),
                format_number(row.left_boundary_width),
                format_number(row.right_boundary_width),
            ]
        )
    return buffer.getvalue()


# The magic, then width, height and maxval, each after any mix of whitespace
# and comments. The lookaheads stop backtracking from splitting a digit run
# or ending a comment before its newline. In a bytes pattern ``\s`` is
# exactly the six netpbm separator bytes.
_PPM_HEADER = re.compile(rb"(P[36])" + rb"(?:\s|#[^\n]*(?![^\n]))*(\d+)(?!\d)" * 3)
_PPM_COMMENT = re.compile(rb"#[^\n]*")
_LEADING_DIGITS = re.compile(rb"\d*")
# Bytes read before the header is matched: any usual header fits, and a
# header that does not is read with the whole file.
_READ_AHEAD = 4096


def _ppm_int(digits: bytes, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise ImageFormatError(f"{what} has too many digits ({len(digits)})") from None


def _truncated_raster(count: int, got: int) -> ImageFormatError:
    return ImageFormatError(f"truncated P6 pixel data: expected {count} bytes, got {got}")


def _read_header(file: BinaryIO) -> tuple[int, int, bytes | None]:
    """Width, height and packed samples of the PPM image open in ``file``.

    When the header and its separator byte lie within the first _READ_AHEAD
    bytes of a regular P6 file, the samples are None: ``file`` is left at
    the raster, which the file's size holds. Anything else (a longer header,
    P3, a pipe or a device) is read whole. Every image error is raised here,
    but for a raster that gets shorter while it is read.
    """
    data = file.read(_READ_AHEAD)
    header = _PPM_HEADER.match(data)
    st = os.fstat(file.fileno())
    # A header that ends before the read-ahead does was matched on real
    # bytes: no digit run or comment was cut short, and the separator
    # byte is here. A pipe's or a device's st_size means nothing.
    direct = (
        header is not None
        and header.end() < len(data)
        and header[1] == b"P6"
        and S_ISREG(st.st_mode)
    )
    if not direct:
        data += file.read()
        header = _PPM_HEADER.match(data)
    if header is None:
        if data[:2] in (b"P3", b"P6"):
            raise ImageFormatError("malformed PPM header: expected width, height and maxval")
        raise UnsupportedImageFormatError(
            f"unsupported image format (magic {data[:2]!r}); expected PPM P6 or P3"
        )
    magic, *fields = header.groups()
    width, height, maxval = (_ppm_int(field, "PPM header field") for field in fields)
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"invalid PPM dimensions {width}x{height}")
    if maxval != 255:
        raise UnsupportedImageFormatError(f"only maxval 255 is supported, got {maxval}")
    count = 3 * width * height
    pos = header.end()
    if magic == b"P6":
        # Exactly one whitespace byte separates the header from the raster.
        if pos >= len(data) or data[pos] not in b" \t\r\n":
            raise ImageFormatError("malformed PPM header: missing raster separator")
        if direct:
            # The bytes after the separator; a declared size past them is
            # refused before anything that large is asked for.
            got = st.st_size - (pos + 1)
            if count <= got:
                file.seek(pos + 1)
                return width, height, None
            raise _truncated_raster(count, got)
        samples = data[pos + 1 : pos + 1 + count]
        if len(samples) < count:
            raise _truncated_raster(count, len(samples))
        return width, height, samples
    # No file holds more samples than bytes; this also bounds maxsplit.
    tokens = _PPM_COMMENT.sub(b"", data[pos:]).split(None, min(count, len(data)))[:count]
    if tokens:
        # A sample ends at its last digit; nothing after the last one is read.
        tokens[-1] = _LEADING_DIGITS.match(tokens[-1]).group()
    samples = []
    for index, token in enumerate(tokens):
        if not token.isdigit():
            break
        samples.append(_ppm_int(token, "P3 sample"))
        if samples[-1] > 255:
            raise ImageFormatError(f"P3 sample {index} out of range: {samples[-1]}")
    if len(samples) < count:
        raise ImageFormatError(
            f"truncated P3 pixel data: expected {count} samples, got {len(samples)}"
        )
    return width, height, bytes(samples)


def read_image(path: str | Path) -> PixelGrid:
    """Read a PPM image (binary P6; ASCII P3 also accepted).

    A header may be any length. When it and its separator byte lie within
    the first _READ_AHEAD bytes of a regular P6 file, the raster is read
    once, straight into the bytes that the grid keeps, and never past the
    size the file holds.
    Anything else (a longer header, P3, a pipe or a device) is read whole.
    Bytes after the raster are ignored. ``fuzzyhue label`` parses the header
    the same way but reads the raster block by block (see _image_blocks).

    Raises FileNotFoundError for missing files, ImageFormatError for
    malformed headers or truncated payloads, and
    UnsupportedImageFormatError for anything that is not a 8-bit PPM.
    """
    with Path(path).open("rb") as file:
        width, height, samples = _read_header(file)
        if samples is None:
            count = 3 * width * height
            samples = file.read(count)
            if len(samples) < count:
                raise _truncated_raster(count, len(samples))
    return PixelGrid(width, height, samples)


def _raster_blocks(file: BinaryIO, pixels: int) -> Iterator[memoryview]:
    """The raster of ``pixels`` pixels at ``file``'s position, read block by
    block (see classify._block_sizes) into one buffer that each block reuses.

    A block is valid until the next one is read. A raster that got shorter
    since its header was checked raises ImageFormatError.
    """
    sizes = _block_sizes(pixels)
    buffer = memoryview(bytearray(max(sizes)))
    got = 0
    for size in sizes:
        block = buffer[:size]
        read = file.readinto(block)
        got += read
        if read < size:
            raise _truncated_raster(3 * pixels, got)
        yield block


def _image_blocks(file: BinaryIO) -> tuple[int, Iterator[memoryview]]:
    """The pixel count of the PPM image open in ``file``, and its samples in
    the blocks that classify._colour_counts counts.

    The header is parsed by read_image's parser when this is called, so
    every image error but a raster that gets shorter is raised here. A
    raster that read_image would read straight into its grid is read a
    block at a time, while the blocks are taken; any other is read whole
    and cut into the same blocks. ``file`` must stay open until the last
    block has been taken.
    """
    width, height, samples = _read_header(file)
    pixels = width * height
    if samples is None:
        return pixels, _raster_blocks(file, pixels)
    return pixels, _sample_blocks(samples)
