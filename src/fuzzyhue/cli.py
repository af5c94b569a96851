"""Command-line interface.

Subcommands: ``metrics``, ``classify``, ``label``, ``plot``, ``validate``,
``report``. Exit codes: 0 success, 1 usage error, 2 data or validation
error. Output is deterministic: identical invocations print identical
bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._value import _number
from .circle import wrap
from .classify import (
    ACHROMATIC,
    AchromaticGate,
    FuzzyColorDescriptor,
    _check_rgb,
    classify_color,
    dominant_labels,
    image_descriptor,
)
from .formats import export_metrics_csv, format_number, load_partition, read_image
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


def build_parser() -> _Parser:
    parser = _Parser(prog="fuzzyhue", description="Fuzzy linguistic hue categories")
    sub = parser.add_subparsers(dest="command", required=True)

    p_metrics = sub.add_parser("metrics", help="print the wideness / boundary-width table")
    _add_model_flag(p_metrics)
    p_metrics.add_argument("--alpha", type=_alpha, default=0.5, help="cut level (default 0.5)")
    p_metrics.add_argument("--format", choices=("table", "csv"), default="table")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_classify = sub.add_parser("classify", help="fuzzy memberships of a single color")
    color = p_classify.add_mutually_exclusive_group(required=True)
    color.add_argument("--hue", type=_finite, help="hue in degrees")
    color.add_argument("--rgb", type=_rgb_triple, metavar="R,G,B", help="8-bit RGB color")
    _add_model_flag(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_label = sub.add_parser("label", help="dominant fuzzy color labels of an image")
    p_label.add_argument("image", metavar="IMAGE", help="PPM image path")
    p_label.add_argument(
        "--top-k", type=_in_range(int, 1, 10), default=3, help="number of labels, 1-10 (default 3)"
    )
    _add_model_flag(p_label)
    p_label.add_argument("--s-min", type=_threshold, default=0.15, help="chromatic saturation floor")
    p_label.add_argument("--v-min", type=_threshold, default=0.10, help="chromatic value floor")
    p_label.set_defaults(func=_cmd_label)

    p_plot = sub.add_parser("plot", help="write an SVG figure")
    p_plot.add_argument("kind", choices=("memberships", "spectrum"))
    p_plot.add_argument("--out", required=True, metavar="FILE.svg")
    _add_model_flag(p_plot)
    p_plot.add_argument("--alpha", type=_alpha, default=0.5, help="alpha-cut line level")
    p_plot.set_defaults(func=_cmd_plot)

    p_validate = sub.add_parser("validate", help="check all partition invariants")
    p_validate.add_argument("--model", metavar="FILE", required=True)
    p_validate.set_defaults(func=_cmd_validate)

    p_report = sub.add_parser("report", help="category asymmetry report")
    _add_model_flag(p_report)
    p_report.set_defaults(func=_cmd_report)

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
        descriptor = FuzzyColorDescriptor(partition.memberships(wrap(args.hue)), 0.0)
    for name, value in descriptor.labeled_masses():
        if value > 0.0:
            print(f"{name} {value:.3f}")
    # max keeps the first of equal masses: category_of's ring-order tie rule.
    masses = descriptor.category_mass
    crisp = ACHROMATIC if descriptor.achromatic_mass > 0.0 else max(masses, key=masses.get)
    print(f"crisp label: {crisp}")
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    grid = read_image(args.image)
    partition = _load_model(args)
    gate = AchromaticGate(s_min=args.s_min, v_min=args.v_min)
    descriptor = image_descriptor(partition, grid, gate)
    for label, mass in dominant_labels(descriptor, args.top_k):
        print(f"{label} {mass:.6f}")
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    partition = _load_model(args)
    cfg = PlotConfig(alpha_line=args.alpha)
    renderer = render_memberships if args.kind == "memberships" else render_spectrum
    Path(args.out).write_text(renderer(partition, cfg), encoding="utf-8")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
