"""Command-line interface.

Subcommands: ``metrics``, ``classify``, ``label``, ``plot``, ``validate``,
``report``. Exit codes: 0 success, 1 usage error, 2 data or validation
error. Output is deterministic: identical invocations print identical
bytes.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from pathlib import Path

from ._value import _number
from .classify import (
    ACHROMATIC,
    AchromaticGate,
    FuzzyColorDescriptor,
    _check_rgb,
    _describe,
    classify_color,
    dominant_labels,
)
from .formats import _image_blocks, export_metrics_csv, format_number, load_partition
from .metrics import asymmetry_report, check, metrics_table
from .partition import HuePartition, builtin_colibri
from .render import PlotConfig, render_memberships, render_spectrum

USAGE_ERROR = 1
DATA_ERROR = 2

# How validate words the worst value of each check.
_VALIDATE_DETAILS = {
    "memberships-sum-to-one": "max deviation {:.3g}",
    "at-most-two-nonzero": "max simultaneous memberships {}",
    "half-cuts-tile-circle": "sum {!r}",
    "boundaries-round-trip": "max error {:.3g}",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for data
    # errors, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _argument(check, *args, **kwargs):
    """``check(*args, **kwargs)``, with its ValueError turned into a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rgb_triple(text: str) -> tuple[int, int, int]:
    try:
        r, g, b = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected R,G,B integers, got {text!r}") from None
    return _argument(_check_rgb, (r, g, b))


def _in_range(cast, low: float, high: float | None, **bounds):
    """argparse type: ``cast(text)`` checked by the library's number rule."""

    def parse(text: str):
        return _argument(_number, "value", cast(text), low, high, **bounds)

    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = cast.__name__
    return parse


_alpha = _in_range(float, 0, 1, open_low=True)
_threshold = _in_range(float, 0, 1)
_finite = _in_range(float, float("-inf"), None, open_low=True)


def _add_model_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", metavar="FILE", help="partition config JSON (default: builtin)")


def _load_model(args: argparse.Namespace) -> HuePartition:
    if args.model is None:
        return builtin_colibri()
    return load_partition(Path(args.model).read_text(encoding="utf-8"))


def _add_metrics(parser: argparse.ArgumentParser) -> None:
    _add_model_flag(parser)
    parser.add_argument("--alpha", type=_alpha, default=0.5, help="cut level (default 0.5)")
    parser.add_argument("--format", choices=("table", "csv"), default="table")
    parser.set_defaults(func=_cmd_metrics)


def _add_classify(parser: argparse.ArgumentParser) -> None:
    color = parser.add_mutually_exclusive_group(required=True)
    color.add_argument("--hue", type=_finite, help="hue in degrees")
    color.add_argument("--rgb", type=_rgb_triple, metavar="R,G,B", help="8-bit RGB color")
    _add_model_flag(parser)
    parser.set_defaults(func=_cmd_classify)


def _add_label(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("image", metavar="IMAGE", help="PPM image path")
    parser.add_argument(
        "--top-k", type=_in_range(int, 1, 10), default=3, help="number of labels, 1-10 (default 3)"
    )
    _add_model_flag(parser)
    parser.add_argument("--s-min", type=_threshold, default=0.15, help="chromatic saturation floor")
    parser.add_argument("--v-min", type=_threshold, default=0.10, help="chromatic value floor")
    parser.set_defaults(func=_cmd_label)


def _add_plot(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("kind", choices=("memberships", "spectrum"))
    parser.add_argument("--out", required=True, metavar="FILE.svg")
    _add_model_flag(parser)
    parser.add_argument("--alpha", type=_alpha, default=0.5, help="alpha-cut line level")
    parser.set_defaults(func=_cmd_plot)


def _add_validate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", metavar="FILE", required=True)
    parser.set_defaults(func=_cmd_validate)


def _add_report(parser: argparse.ArgumentParser) -> None:
    _add_model_flag(parser)
    parser.set_defaults(func=_cmd_report)


# Subcommand name -> (help line, function that adds its arguments), in the
# order the usage line lists them.
_COMMANDS = {
    "metrics": ("print the wideness / boundary-width table", _add_metrics),
    "classify": ("fuzzy memberships of a single color", _add_classify),
    "label": ("dominant fuzzy color labels of an image", _add_label),
    "plot": ("write an SVG figure", _add_plot),
    "validate": ("check all partition invariants", _add_validate),
    "report": ("category asymmetry report", _add_report),
}


def build_parser() -> _Parser:
    """The full ``fuzzyhue`` parser, with all six subcommands. ``cli_main``
    uses it for any ``argv`` a subcommand's standalone parser does not take."""
    parser = _Parser(prog="fuzzyhue", description="Fuzzy linguistic hue categories")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _cmd_metrics(args: argparse.Namespace) -> int:
    partition = _load_model(args)
    rows = metrics_table(partition, alpha=args.alpha)
    if args.format == "csv":
        sys.stdout.write(export_metrics_csv(rows))
        return 0
    name_width = max(len("category"), max(len(r.name) for r in rows))
    print(
        f"{'category':<{name_width}}  {'range':>16}  {'wideness':>9}  "
        f"{'left_width':>10}  {'right_width':>11}"
    )
    for r in rows:
        range_text = f"{format_number(r.wideness_range.start)}-{format_number(r.wideness_range.end)}"
        print(
            f"{r.name:<{name_width}}  {range_text:>16}  {format_number(r.wideness):>9}  "
            f"{format_number(r.left_boundary_width):>10}  {format_number(r.right_boundary_width):>11}"
        )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    partition = _load_model(args)
    if args.hue is None:
        descriptor = classify_color(partition, args.rgb)
    else:
        descriptor = FuzzyColorDescriptor(partition.memberships(args.hue), 0.0)
    for name, value in descriptor.labeled_masses():
        if value > 0.0:
            print(f"{name} {value:.3f}")
    # max keeps the first of equal masses: category_of's ring-order tie rule.
    masses = descriptor.category_mass
    crisp = ACHROMATIC if descriptor.achromatic_mass > 0.0 else max(masses, key=masses.get)
    print(f"crisp label: {crisp}")
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    # The image's header is checked before the model is loaded, and its
    # raster is read and counted one block at a time.
    with Path(args.image).open("rb") as file:
        pixels, blocks = _image_blocks(file)
        partition = _load_model(args)
        gate = AchromaticGate(s_min=args.s_min, v_min=args.v_min)
        descriptor = _describe(partition, pixels, blocks, gate)
    for label, mass in dominant_labels(descriptor, args.top_k):
        print(f"{label} {mass:.6f}")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    partition = _load_model(args)
    cfg = PlotConfig(alpha_line=args.alpha)
    renderer = render_memberships if args.kind == "memberships" else render_spectrum
    svg = renderer(partition, cfg)
    # Write over the old file and then cut it to the written length: on
    # ext4, truncating a recently written file to zero (O_TRUNC) waits for
    # the writeback its last close started. A pipe or a device such as
    # /dev/null cannot be cut, so only a regular file is.
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="utf-8") as f:
        f.write(svg)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    results = check(_load_model(args))
    for result in results:
        detail = _VALIDATE_DETAILS[result.name].format(result.worst)
        if result.hue is not None and result.worst:
            detail += f" at hue {format_number(result.hue)}"
        print(f"{'PASS' if result.ok else 'FAIL'} {result.name} ({detail})")
    return 0 if all(result.ok for result in results) else DATA_ERROR


def _cmd_report(args: argparse.Namespace) -> int:
    partition = _load_model(args)
    report = asymmetry_report(partition)
    widths = {row.name: format_number(row.wideness) for row in report.per_category}
    print(f"widest: {report.widest} (wideness {widths[report.widest]})")
    print(f"narrowest: {report.narrowest} (wideness {widths[report.narrowest]})")
    print(f"{report.widest}/{report.narrowest} ratio: {report.ratio:.4g}")
    print("per-category wideness:")
    for name, width in widths.items():
        print(f"  {name} {width}")
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    """Run one ``fuzzyhue`` command on ``argv`` (default ``sys.argv[1:]``)
    and return its exit code.

    When ``argv[0]`` is exactly a subcommand name, ``argv[1:]`` is parsed by
    that subcommand's standalone parser, built as ``add_parser`` builds it
    (same class and ``prog``), so help and errors read as the full parser's.
    Leftover arguments, which the full parser reports under its six-command
    usage line, and any other ``argv`` (empty, ``-h``, ``--``, an unknown
    name or a prefix of one) go to ``build_parser()``. Nothing is kept.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    try:
        if name in _COMMANDS:
            parser = _Parser(prog=f"fuzzyhue {name}")
            _COMMANDS[name][1](parser)
            args, extras = parser.parse_known_args(argv[1:])
        if name not in _COMMANDS or extras:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # ConfigError, PartitionError and ImageFormatError are ValueErrors too;
    # OSError covers a path that is missing, a directory or unreadable.
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
