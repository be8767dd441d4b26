"""Deterministic SVG line charts over report rows.

No plotting dependency: the chart is assembled from fixed-format strings,
so identical rows always produce identical bytes and the output can be
golden-tested. Numeric layer tags form curves over the layer axis; string
tags (baselines) are drawn as flat dashed reference lines.
"""

from __future__ import annotations

import itertools
import math
import re
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ValidationError
from .io_utils import atomic_write_text

WIDTH = 640.0
HEIGHT = 400.0
MARGIN_LEFT = 62.0
MARGIN_RIGHT = 18.0
MARGIN_TOP = 34.0
MARGIN_BOTTOM = 46.0

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
DASH = ' stroke-dasharray="5,3"'  # the baselines' line style

# what XML 1.0 cannot hold: C0 controls but tab, LF and CR, lone surrogates
# (a command-line byte that is not UTF-8 arrives as one), U+FFFE and U+FFFF
NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text: str) -> str:
    """``text`` as an SVG text node: ``&``, ``<`` and ``>`` escaped.

    ValidationError if it holds a character XML 1.0 cannot hold, which no
    escape can write.
    """
    if NOT_XML.search(text):
        raise ValidationError(f"chart text {text!r} holds a character XML cannot hold")
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _series_from_rows(rows: Sequence[dict], metric: str) -> tuple[list, list]:
    """Split rows into layer curves (per rank) and flat baseline series."""
    picked = [r for r in rows if r["metric"] == metric]
    if not picked:
        raise ValidationError(f"no rows for metric {metric!r}")
    curves: dict[int, list[tuple[int, float]]] = {}
    baselines: dict[tuple[str, int], float] = {}
    for r in picked:
        layer = r["layer"]
        if isinstance(layer, int):
            curves.setdefault(int(r["rank"]), []).append((layer, float(r["value"])))
        else:
            baselines[(str(layer), int(r["rank"]))] = float(r["value"])
    ranks = sorted(curves)
    curve_list = []
    for rank in ranks:
        pts = sorted(curves[rank])
        name = f"rank {rank}" if len(ranks) > 1 else "probe"
        curve_list.append((name, pts))
    base_list = []
    for (tag, rank), value in sorted(baselines.items()):
        name = tag if len({rk for _, rk in baselines} | set(ranks)) <= 1 else f"{tag} (rank {rank})"
        base_list.append((name, value))
    return curve_list, base_list


def _text(x: str, y: str, size: int, body: str, anchor: str = "middle", tail: str = "") -> str:
    """An SVG text element; ``anchor=""`` leaves text-anchor out, ``tail`` follows font-size."""
    at = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x}" y="{y}"{at} font-family="sans-serif" font-size="{size}"{tail}>'
        f"{body}</text>"
    )


def _line(x1: float, x2: float, y: float, stroke: str, width: str = "1.5", dash: str = "") -> str:
    """A horizontal SVG line element at height ``y``."""
    y_ = _fmt(y)
    return (
        f'<line x1="{_fmt(x1)}" y1="{y_}" x2="{_fmt(x2)}" y2="{y_}" stroke="{stroke}" '
        f'stroke-width="{width}"{dash}/>'
    )


def render_line_chart(rows: Sequence[dict], metric: str, title: str | None = None) -> str:
    """Build the SVG document for one metric across layers."""
    curves, baselines = _series_from_rows(rows, metric)

    xs = sorted({x for _, pts in curves for x, _ in pts})
    values = [v for _, pts in curves for _, v in pts] + [v for _, v in baselines]
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"cannot chart {metric!r}: a value is not a finite number")
    if not xs:
        xs = [0, 1]
    try:
        x_lo, x_hi = float(min(xs)), float(max(xs))
    except OverflowError:  # a layer beyond float64
        x_lo, x_hi = -math.inf, math.inf
    if x_lo == x_hi:
        x_lo -= 0.5
        x_hi += 0.5
    if all(0.0 <= v <= 1.0 for v in values):
        y_lo, y_hi = 0.0, 1.0
    else:
        y_lo, y_hi = min(values), max(values)
        pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 0.5
        y_lo -= pad
        y_hi += pad
    # a coordinate divides by its axis' span: a span of 0 or one not finite would write nan
    for axis, lo, hi in (("layer", x_lo, x_hi), ("value", y_lo, y_hi)):
        if not 0.0 < hi - lo < math.inf:
            raise ValidationError(
                f"cannot chart {metric!r}: the {axis} axis from {lo!r} to {hi!r} "
                "has no finite, non-zero span"
            )

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    plot_r = MARGIN_LEFT + plot_w

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    lx = plot_r - 150.0
    ly = MARGIN_TOP + 8.0
    legend_h = 16.0 * (len(curves) + len(baselines)) + 8
    # over 21 legend rows grow the canvas to 4 px below the box, which sits 4 px inside the frame
    height = max(HEIGHT, ly + legend_h)

    heading = title if title is not None else metric
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {WIDTH:.0f} {height:.0f}">',
        f'<rect width="{WIDTH:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        _text(_fmt(WIDTH / 2), "20", 14, _escape(heading)),
        # the frame, then the ticks
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for i in range(6):
        v = y_lo + (y_hi - y_lo) * i / 5.0
        y = py(v)
        out.append(_line(MARGIN_LEFT, plot_r, y, "#dddddd", "1"))
        out.append(_text(_fmt(MARGIN_LEFT - 6), _fmt(y + 4), 11, _fmt(v), "end"))
    for x in xs:
        out.append(_text(_fmt(px(x)), _fmt(MARGIN_TOP + plot_h + 16), 11, str(x)))
    out.append(_text(_fmt(MARGIN_LEFT + plot_w / 2), _fmt(HEIGHT - 10), 12, "layer"))
    mid = _fmt(MARGIN_TOP + plot_h / 2)
    out.append(_text("16", mid, 12, _escape(metric), tail=f' transform="rotate(-90 16 {mid})"'))

    # one palette walk: the curves take its first colours, the baselines the next
    colors = itertools.cycle(PALETTE)
    legend: list[tuple[str, str, str]] = []  # (name, colour, dash attribute)
    for (name, pts), color in zip(curves, colors):
        points = [(_fmt(px(x)), _fmt(py(v))) for x, v in pts]  # for the polyline and circles
        coords = " ".join(f"{cx},{cy}" for cx, cy in points)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.extend(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>' for cx, cy in points)
        legend.append((name, color, ""))
    for (name, value), color in zip(baselines, colors):
        out.append(_line(MARGIN_LEFT, plot_r, py(value), color, dash=DASH))
        legend.append((name, color, DASH))

    out.append(
        f'<rect x="{_fmt(lx - 6)}" y="{_fmt(ly - 4)}" width="150" '
        f'height="{_fmt(legend_h)}" fill="#ffffff" stroke="#999999" '
        f'stroke-width="0.5"/>'
    )
    for i, (name, color, dash) in enumerate(legend):
        y = ly + 8 + 16.0 * i
        out.append(_line(lx, lx + 22, y, color, dash=dash))
        out.append(_text(_fmt(lx + 28), _fmt(y + 4), 11, _escape(name), anchor=""))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_chart(
    rows: Iterable[dict], metric: str, out_path: str | Path, title: str | None = None
) -> None:
    """Render the chart and write it atomically."""
    svg = render_line_chart(list(rows), metric, title=title)
    atomic_write_text(out_path, svg)
