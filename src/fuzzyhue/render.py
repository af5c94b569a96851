"""Deterministic standalone SVG renderings of a hue partition.

Two figures: the membership curves with a horizontal alpha-cut line, and
the hue spectrum bar with a marker at every category boundary. All numbers
are written with fixed three-decimal formatting and elements in a fixed
order, so identical inputs produce byte-identical documents. Colours are
``hsv_to_rgb(hue, 1.0, 1.0)``'s, computed inline with colorsys' arithmetic,
so drawing does not load colorsys.
"""

from __future__ import annotations

from ._value import Value, _number
from .circle import Arc
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
        _number("width_px", width_px, 200, 100_000, integral=True)
        _number("height_px", height_px, 100, 100_000, integral=True)
        # The floor bounds a figure at 36,000 samples.
        _number("sample_step", sample_step, 0.01, 5)
        _number("alpha_line", alpha_line, 0, 1, open_low=True)
        if not isinstance(show_labels, bool):
            raise ValueError(f"show_labels must be a bool, got {show_labels!r}")
        fields = self.__dict__
        fields["width_px"] = width_px
        fields["height_px"] = height_px
        fields["alpha_line"] = alpha_line
        fields["sample_step"] = sample_step
        fields["show_labels"] = show_labels


def _fmt(value: float) -> str:
    return f"{value:.3f}"


# colorsys.hsv_to_rgb at s = v = 1, by sector: two channels are 255 and 0,
# and the third is q in odd sectors and t in even ones. Below 360,
# hue / 360.0 * 6.0 stays below 6.0, so no sector wraps.
_SECTORS = ("#ff%02x00", "#%02xff00", "#00ff%02x", "#00%02xff", "#%02x00ff", "#ff00%02x")


def _hex_color(hue: float) -> str:
    """``hsv_to_rgb(hue, 1.0, 1.0)`` as ``#rrggbb``, for a hue in [0, 360).

    This is colorsys' arithmetic without its checks: ``1.0 * x == x``, so
    its ``q`` is ``1.0 - f`` and its ``t`` is ``1.0 - (1.0 - f)``, bitwise.
    """
    h = hue / 360.0 * 6.0
    i = int(h)
    f = h - i
    return _SECTORS[i] % round(((1.0 - f) if i & 1 else (1.0 - (1.0 - f))) * 255)


def _frame(cfg: PlotConfig, left: float, right: float):
    """Both figures' opening parts (``<svg>`` and background), their ``x_of``
    between the side margins, and the grid: ``steps`` cells of ``cell`` degrees."""
    plot_w = cfg.width_px - left - right

    def x_of(deg: float) -> float:
        return left + deg / 360.0 * plot_w

    steps = int(round(360.0 / cfg.sample_step))
    parts = [
        f'<svg xmlns="{_SVG_NS}" width="{cfg.width_px}" height="{cfg.height_px}" '
        f'viewBox="0 0 {cfg.width_px} {cfg.height_px}">',
        f'<rect class="bg" x="0" y="0" width="{cfg.width_px}" height="{cfg.height_px}" fill="#ffffff"/>',
    ]
    return parts, x_of, steps, 360.0 / steps


def _text(x: float, y: float, content: str, cls: str, anchor: str = "middle") -> str:
    # Loaded on first use: only the figures need it.
    from html import escape

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
    from html import escape

    cfg = config or PlotConfig()
    left, right, top, bottom = 45.0, 15.0, 15.0, 35.0
    parts, x_of, steps, cell = _frame(cfg, left, right)
    plot_h = cfg.height_px - top - bottom

    def y_of(mu: float) -> float:
        return top + (1.0 - mu) * plot_h

    # Axes and ticks.
    axis = 'stroke="#444444" stroke-width="1"'
    parts.append(
        f'<line class="axis" x1="{_fmt(left)}" y1="{_fmt(y_of(0.0))}" '
        f'x2="{_fmt(x_of(360.0))}" y2="{_fmt(y_of(0.0))}" {axis}/>'
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

        Samples once: every x is formatted once, and at each x one zone
        table lookup gives the at most two nonzero memberships. Their ys are
        formatted inline, but a core sample (``t == 0``) takes the one
        preformatted y of membership 1. Every other category is exactly 0
        there, which formats to the floor. A polyline is joined just before
        it is yielded, so only the nonzero samples are kept, and they are
        freed with the loop that takes them.
        """
        xs = [f"{x_of(i * cell):.3f}," for i in range(steps + 1)]
        floor = _fmt(y_of(0.0))
        core = _fmt(y_of(1.0))
        flat = [x + floor for x in xs]
        raised: list[list[tuple[int, str]]] = [[] for _ in partition.names]
        split = partition._split
        for i in range(steps + 1):
            k, j, t = split(i * cell)
            if not t:
                raised[k].append((i, core))
                continue
            # y_of(1.0 - t) and y_of(t), inline.
            raised[k].append((i, f"{top + (1.0 - (1.0 - t)) * plot_h:.3f}"))
            raised[j].append((i, f"{top + (1.0 - t) * plot_h:.3f}"))
        for pairs in raised:
            samples = flat.copy()
            for i, y in pairs:
                samples[i] = xs[i] + y
            yield " ".join(samples)

    # Each category's representative hue: the midpoint of its core.
    anchors = [t.core().midpoint() for t in partition.sets]
    for name, anchor, points in zip(partition.names, anchors, curve_points()):
        color = _hex_color(anchor)
        parts.append(
            f'<polyline class="membership" data-category="{escape(name)}" '
            f'fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )

    parts.append(
        f'<line class="alpha-line" x1="{_fmt(left)}" y1="{_fmt(y_of(cfg.alpha_line))}" '
        f'x2="{_fmt(x_of(360.0))}" y2="{_fmt(y_of(cfg.alpha_line))}" '
        f'stroke="#000000" stroke-width="1" stroke-dasharray="6,4"/>'
    )

    if cfg.show_labels:
        for name, anchor in zip(partition.names, anchors):
            parts.append(_text(x_of(anchor), top - 3, name, "category-label"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_spectrum(partition: HuePartition, config: PlotConfig | None = None) -> str:
    """Hue spectrum bar with a vertical marker at every category boundary.

    Strips are colored at full saturation and value by ``_hex_color``, one
    call a strip; markers sit at the half-membership crossings, and optional
    labels center on each crisp region.
    """
    cfg = config or PlotConfig()
    left, right, top, bottom = 15.0, 15.0, 15.0, 45.0
    parts, x_of, steps, cell = _frame(cfg, left, right)
    bar_h = cfg.height_px - top - bottom
    edges = [x_of(i * cell) for i in range(steps + 1)]
    y_attr, h_attr = _fmt(top), _fmt(bar_h)
    for i in range(steps):
        x0, x1 = edges[i], edges[i + 1]
        # Slight bleed so adjacent strips leave no hairline gaps.
        width = (x1 - x0) + (0.2 if i + 1 < steps else 0.0)
        parts.append(
            f'<rect class="strip" x="{x0:.3f}" y="{y_attr}" '
            f'width="{width:.3f}" height="{h_attr}" fill="{_hex_color((i + 0.5) * cell)}"/>'
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
