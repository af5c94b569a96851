"""Deterministic standalone SVG renderings of a hue partition.

Two figures: the membership curves with a horizontal alpha-cut line, and
the hue spectrum bar with a marker at every category boundary. All numbers
are written with fixed three-decimal formatting and elements in a fixed
order, so identical inputs produce byte-identical documents.
"""

from __future__ import annotations

from html import escape

from ._value import Value, _number
from .circle import Arc
from .classify import hsv_to_rgb
from .partition import HuePartition

_SVG_NS = "http://www.w3.org/2000/svg"


class PlotConfig(Value):
    __match_args__ = ("width_px", "height_px", "alpha_line", "sample_step", "show_labels")

    def __init__(
        self,
        width_px: int = 900,
        height_px: int = 300,
        alpha_line: float = 0.5,
        sample_step: float = 0.5,
        show_labels: bool = True,
    ) -> None:
        _number("width_px", width_px, 200, integral=True)
        _number("height_px", height_px, 100, integral=True)
        # The floor bounds a figure at 36,000 samples.
        _number("sample_step", sample_step, 0.01, 5)
        _number("alpha_line", alpha_line, 0, 1, open_low=True)
        if not isinstance(show_labels, bool):
            raise ValueError(f"show_labels must be a bool, got {show_labels!r}")
        object.__setattr__(self, "width_px", width_px)
        object.__setattr__(self, "height_px", height_px)
        object.__setattr__(self, "alpha_line", alpha_line)
        object.__setattr__(self, "sample_step", sample_step)
        object.__setattr__(self, "show_labels", show_labels)


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _hex_color(hue: float) -> str:
    r, g, b = hsv_to_rgb(hue, 1.0, 1.0)
    return f"#{r:02x}{g:02x}{b:02x}"


def _category_anchor(partition: HuePartition, index: int) -> float:
    """Representative hue of a category: the midpoint of its core."""
    return partition.sets[index].core().midpoint()


def _svg_open(cfg: PlotConfig) -> str:
    return (
        f'<svg xmlns="{_SVG_NS}" width="{cfg.width_px}" height="{cfg.height_px}" '
        f'viewBox="0 0 {cfg.width_px} {cfg.height_px}">'
    )


def _text(x: float, y: float, content: str, cls: str, anchor: str = "middle") -> str:
    return (
        f'<text class="{cls}" x="{_fmt(x)}" y="{_fmt(y)}" '
        f'font-family="sans-serif" font-size="11" text-anchor="{anchor}">'
        f"{escape(content)}</text>"
    )


def render_memberships(partition: HuePartition, config: PlotConfig | None = None) -> str:
    """Membership curves of all categories with the alpha-cut line.

    One polyline per category, sampled every ``sample_step`` degrees across
    the full 0-360 axis; a dashed horizontal line marks ``alpha_line``.
    """
    cfg = config or PlotConfig()
    left, right, top, bottom = 45.0, 15.0, 15.0, 35.0
    plot_w = cfg.width_px - left - right
    plot_h = cfg.height_px - top - bottom

    def x_of(deg: float) -> float:
        return left + deg / 360.0 * plot_w

    def y_of(mu: float) -> float:
        return top + (1.0 - mu) * plot_h

    steps = int(round(360.0 / cfg.sample_step))
    cell = 360.0 / steps

    parts = [_svg_open(cfg)]
    parts.append(
        f'<rect class="bg" x="0" y="0" width="{cfg.width_px}" height="{cfg.height_px}" fill="#ffffff"/>'
    )
    # Axes and ticks.
    axis = 'stroke="#444444" stroke-width="1"'
    parts.append(
        f'<line class="axis" x1="{_fmt(left)}" y1="{_fmt(y_of(0.0))}" '
        f'x2="{_fmt(left + plot_w)}" y2="{_fmt(y_of(0.0))}" {axis}/>'
    )
    parts.append(
        f'<line class="axis" x1="{_fmt(left)}" y1="{_fmt(y_of(0.0))}" '
        f'x2="{_fmt(left)}" y2="{_fmt(y_of(1.0))}" {axis}/>'
    )
    for deg in range(0, 361, 60):
        x = x_of(float(deg))
        parts.append(
            f'<line class="tick" x1="{_fmt(x)}" y1="{_fmt(y_of(0.0))}" '
            f'x2="{_fmt(x)}" y2="{_fmt(y_of(0.0) + 4)}" {axis}/>'
        )
        parts.append(_text(x, y_of(0.0) + 16, str(deg), "tick-label"))
    for mu in (0.0, 0.5, 1.0):
        parts.append(_text(left - 8, y_of(mu) + 4, f"{mu:.1f}", "tick-label", anchor="end"))

    def curve_points():
        """Each category's polyline ``points``, in ring order.

        Samples once: every x is formatted once, and at each x only the
        categories of the segment table's active entry are evaluated. Every
        other category is exactly 0 there, which formats to the floor. A
        polyline is joined just before it is yielded, so only the nonzero
        samples are kept, and they are freed with the loop that takes them.
        """
        xs = [_fmt(x_of(i * cell)) + "," for i in range(steps + 1)]
        floor = _fmt(y_of(0.0))
        flat = [x + floor for x in xs]
        raised: list[list[tuple[int, str]]] = [[] for _ in partition.names]
        for i in range(steps + 1):
            hue = i * cell
            for index, t in partition._active(hue)[1]:
                mu = t.membership(hue)
                if mu:
                    raised[index].append((i, _fmt(y_of(mu))))
        for pairs in raised:
            samples = flat.copy()
            for i, y in pairs:
                samples[i] = xs[i] + y
            yield " ".join(samples)

    for index, (name, points) in enumerate(zip(partition.names, curve_points())):
        color = _hex_color(_category_anchor(partition, index))
        parts.append(
            f'<polyline class="membership" data-category="{escape(name)}" '
            f'fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )

    parts.append(
        f'<line class="alpha-line" x1="{_fmt(left)}" y1="{_fmt(y_of(cfg.alpha_line))}" '
        f'x2="{_fmt(left + plot_w)}" y2="{_fmt(y_of(cfg.alpha_line))}" '
        f'stroke="#000000" stroke-width="1" stroke-dasharray="6,4"/>'
    )

    if cfg.show_labels:
        for index, name in enumerate(partition.names):
            anchor_hue = _category_anchor(partition, index)
            parts.append(_text(x_of(anchor_hue), top - 3, name, "category-label"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_spectrum(partition: HuePartition, config: PlotConfig | None = None) -> str:
    """Hue spectrum bar with a vertical marker at every category boundary.

    Strips are colored at full saturation and value; markers sit at the
    half-membership crossings, and optional labels center on each crisp
    region.
    """
    cfg = config or PlotConfig()
    left, right, top, bottom = 15.0, 15.0, 15.0, 45.0
    plot_w = cfg.width_px - left - right
    bar_h = cfg.height_px - top - bottom

    def x_of(deg: float) -> float:
        return left + deg / 360.0 * plot_w

    steps = int(round(360.0 / cfg.sample_step))
    cell = 360.0 / steps

    parts = [_svg_open(cfg)]
    parts.append(
        f'<rect class="bg" x="0" y="0" width="{cfg.width_px}" height="{cfg.height_px}" fill="#ffffff"/>'
    )
    edges = [x_of(i * cell) for i in range(steps + 1)]
    y_attr, h_attr = _fmt(top), _fmt(bar_h)
    for i in range(steps):
        x0, x1 = edges[i], edges[i + 1]
        color = _hex_color((i + 0.5) * cell)
        # Slight bleed so adjacent strips leave no hairline gaps.
        width = (x1 - x0) + (0.2 if i + 1 < steps else 0.0)
        parts.append(
            f'<rect class="strip" x="{_fmt(x0)}" y="{y_attr}" '
            f'width="{_fmt(width)}" height="{h_attr}" fill="{color}"/>'
        )

    for boundary in partition.boundaries:
        x = x_of(boundary.position)
        parts.append(
            f'<line class="boundary-marker" x1="{_fmt(x)}" y1="{_fmt(top - 5)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(top + bar_h + 5)}" '
            f'stroke="#000000" stroke-width="1"/>'
        )

    if cfg.show_labels:
        for k, name in enumerate(partition.names):
            region = Arc(partition.boundaries[k - 1].position, partition.boundaries[k].position)
            parts.append(_text(x_of(region.midpoint()), top + bar_h + 18, name, "region-label"))

    for deg in range(0, 361, 60):
        parts.append(_text(x_of(float(deg)), top + bar_h + 36, str(deg), "tick-label"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
