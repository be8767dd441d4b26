"""Deterministic SVG line charts over report rows.

No plotting dependency: the chart is assembled from fixed-format strings,
so identical rows always produce identical bytes and the output can be
golden-tested. Numeric layer tags form curves over the layer axis; string
tags (baselines) are drawn as flat dashed reference lines.
"""

from __future__ import annotations

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


def render_line_chart(rows: Sequence[dict], metric: str, title: str | None = None) -> str:
    """Build the SVG document for one metric across layers."""
    curves, baselines = _series_from_rows(rows, metric)

    xs = sorted({x for _, pts in curves for x, _ in pts})
    values = [v for _, pts in curves for _, v in pts] + [v for _, v in baselines]
    if not xs:
        xs = [0, 1]
    x_lo, x_hi = float(min(xs)), float(max(xs))
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

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">'
    )
    out.append(f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>')
    heading = title if title is not None else metric
    out.append(
        f'<text x="{_fmt(WIDTH / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(heading)}</text>'
    )

    # frame and ticks
    out.append(
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#000000" stroke-width="1"/>'
    )
    for i in range(6):
        v = y_lo + (y_hi - y_lo) * i / 5.0
        y = py(v)
        out.append(
            f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_LEFT + plot_w)}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(MARGIN_LEFT - 6)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>'
        )
    for x in xs:
        out.append(
            f'<text x="{_fmt(px(x))}" y="{_fmt(MARGIN_TOP + plot_h + 16)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{x}</text>'
        )
    out.append(
        f'<text x="{_fmt(MARGIN_LEFT + plot_w / 2)}" y="{_fmt(HEIGHT - 10)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">layer</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt(MARGIN_TOP + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" transform="rotate(-90 16 '
        f'{_fmt(MARGIN_TOP + plot_h / 2)})">{_escape(metric)}</text>'
    )

    legend: list[tuple[str, str, bool]] = []
    color_idx = 0
    for name, pts in curves:
        color = PALETTE[color_idx % len(PALETTE)]
        color_idx += 1
        coords = " ".join(f"{_fmt(px(x))},{_fmt(py(v))}" for x, v in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, v in pts:
            out.append(
                f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(v))}" r="3" fill="{color}"/>'
            )
        legend.append((name, color, False))
    for name, value in baselines:
        color = PALETTE[color_idx % len(PALETTE)]
        color_idx += 1
        y = py(value)
        out.append(
            f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_LEFT + plot_w)}" '
            f'y2="{_fmt(y)}" stroke="{color}" stroke-width="1.5" stroke-dasharray="5,3"/>'
        )
        legend.append((name, color, True))

    lx = MARGIN_LEFT + plot_w - 150.0
    ly = MARGIN_TOP + 8.0
    out.append(
        f'<rect x="{_fmt(lx - 6)}" y="{_fmt(ly - 4)}" width="150" '
        f'height="{_fmt(16.0 * len(legend) + 8)}" fill="#ffffff" stroke="#999999" '
        f'stroke-width="0.5"/>'
    )
    for i, (name, color, dashed) in enumerate(legend):
        y = ly + 8 + 16.0 * i
        dash = ' stroke-dasharray="5,3"' if dashed else ""
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(y)}" x2="{_fmt(lx + 22)}" y2="{_fmt(y)}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 28)}" y="{_fmt(y + 4)}" font-family="sans-serif" '
            f'font-size="11">{_escape(name)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_chart(
    rows: Iterable[dict], metric: str, out_path: str | Path, title: str | None = None
) -> None:
    """Render the chart and write it atomically."""
    svg = render_line_chart(list(rows), metric, title=title)
    atomic_write_text(out_path, svg)
