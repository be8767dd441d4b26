"""SVG chart emission: structure, determinism, and the golden file."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from structprobe.chart import emit_chart, render_line_chart
from structprobe.errors import ValidationError

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_chart.svg"

FIXTURE_ROWS = [
    {"layer": 0, "rank": 128, "task": "distance", "metric": "dspr", "value": 0.52, "n_sequences": 100},
    {"layer": 1, "rank": 128, "task": "distance", "metric": "dspr", "value": 0.71, "n_sequences": 100},
    {"layer": 2, "rank": 128, "task": "distance", "metric": "dspr", "value": 0.8342195210001, "n_sequences": 100},
    {"layer": 3, "rank": 128, "task": "distance", "metric": "dspr", "value": 0.79, "n_sequences": 100},
    {"layer": "baseline", "rank": 128, "task": "distance", "metric": "dspr", "value": 0.41, "n_sequences": 100},
    {"layer": "rcnn-baseline", "rank": 128, "task": "distance", "metric": "dspr", "value": 0.455, "n_sequences": 100},
    {"layer": 0, "rank": 128, "task": "distance", "metric": "uuas", "value": 0.3, "n_sequences": 100},
]


def two_point_rows():
    return [
        {"layer": 0, "rank": 8, "task": "depth", "metric": "nspr", "value": 0.4, "n_sequences": 5},
        {"layer": 1, "rank": 8, "task": "depth", "metric": "nspr", "value": 0.6, "n_sequences": 5},
    ]


def test_single_series_two_layers_one_polyline():
    svg = render_line_chart(two_point_rows(), "nspr")
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 2
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_unit_interval_values_span_unit_axis():
    svg = render_line_chart(two_point_rows(), "nspr")
    assert ">0.00<" in svg and ">1.00<" in svg


def test_wide_values_get_padded_axis():
    rows = two_point_rows()
    rows[0]["value"] = 5.0
    svg = render_line_chart(rows, "nspr")
    assert ">1.00<" not in svg


def test_unknown_metric_rejected():
    with pytest.raises(ValidationError, match="no rows"):
        render_line_chart(two_point_rows(), "accuracy")


def test_baselines_drawn_as_dashed_lines():
    svg = render_line_chart(FIXTURE_ROWS, "dspr")
    assert svg.count('stroke-dasharray="5,3"') >= 2
    assert "baseline" in svg and "rcnn-baseline" in svg


def test_deterministic_bytes():
    a = render_line_chart(FIXTURE_ROWS, "dspr")
    b = render_line_chart(list(FIXTURE_ROWS), "dspr")
    assert a == b


def test_golden_file_byte_identical():
    assert render_line_chart(FIXTURE_ROWS, "dspr") == GOLDEN.read_text(encoding="utf-8")


def test_emit_chart_writes_file(tmp_path):
    out = tmp_path / "chart.svg"
    emit_chart(two_point_rows(), "nspr", out)
    assert out.read_text().startswith("<svg")


def test_labels_are_escaped():
    rows = [
        {"layer": "base<&line", "rank": 1, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 1},
        {"layer": 0, "rank": 1, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 1},
    ]
    svg = render_line_chart(rows, "nspr")
    assert "base&lt;&amp;line" in svg
    assert "base<&line" not in svg


def row(layer, rank, value, metric="dspr"):
    return {"layer": layer, "rank": rank, "task": "distance", "metric": metric, "value": value,
            "n_sequences": 10}


# (rows, metric, title) of each branch the golden_chart.svg fixture does not reach; the files
# tests/data/golden_chart_<case>.svg were written by the renderer these tests first pinned
GOLDEN_CASES = {
    # curves named "rank k" and baselines named "tag (rank k)"
    "ranks": (
        [row(layer, rank, 0.1 * layer + rank / 100) for rank in (8, 64) for layer in range(3)]
        + [row("rand", 8, 0.05), row("rand", 64, 0.15)],
        "dspr",
        None,
    ),
    # values outside [0, 1]: the axis is padded by 5% of their range
    "padded": (
        [row(i, 4, v, "val_loss") for i, v in enumerate((-0.25, 1.5, 3.75, 2.0))]
        + [row("zero", 4, 0.0, "val_loss")],
        "val_loss",
        None,
    ),
    # equal values outside [0, 1]: a pad of 0.5
    "flat": ([row(i, 4, 2.5, "val_loss") for i in range(3)], "val_loss", None),
    # one layer: the x axis spans it by half a layer each side
    "one_layer": ([row(6, 16, 0.625), row("rand", 16, 0.25)], "dspr", None),
    # baselines only: the x axis is [0, 1]
    "baselines_only": ([row("rand", 16, 0.3), row("rcnn", 16, 0.45)], "dspr", None),
    # ten series: the palette of seven wraps
    "palette_wrap": (
        [row(layer, rank, 0.1 * rank + 0.05 * layer) for rank in range(1, 6) for layer in (0, 1)]
        + [row("rand", rank, 0.02 * rank) for rank in range(1, 6)],
        "dspr",
        None,
    ),
    "title": (two_point_rows(), "nspr", "a & <b> > c"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_chart_branch_golden_file_byte_identical(case):
    rows, metric, title = GOLDEN_CASES[case]
    golden = (DATA / f"golden_chart_{case}.svg").read_text(encoding="utf-8")
    assert render_line_chart(rows, metric, title=title) == golden


def test_a_legend_of_24_series_grows_the_canvas_and_not_the_plot():
    # 20 rank curves and 4 baselines: a legend too tall for the 400-px canvas
    rows = [row(layer, rank, 0.01 * rank) for rank in range(1, 21) for layer in (0, 1)]
    rows += [row(f"base{i}", 1, 0.1 * i) for i in range(4)]
    ns = "{http://www.w3.org/2000/svg}"
    svg = ET.fromstring(render_line_chart(rows, "dspr"))
    height = float(svg.get("height"))
    assert height > 400 and svg.get("viewBox") == f"0 0 640 {svg.get('height')}"
    assert svg.find(f"{ns}rect").get("height") == svg.get("height")  # the background
    box = svg.find(f"{ns}rect[@stroke='#999999']")
    assert float(box.get("y")) + float(box.get("height")) <= height
    names = [t for t in svg.iter(f"{ns}text") if t.get("text-anchor") is None]
    assert len(names) == 24
    assert all(float(t.get("y")) + 4 <= height for t in names)
    # the plot frame is where a short legend leaves it
    small = ET.fromstring(render_line_chart(two_point_rows(), "nspr"))
    assert svg.find(f"{ns}rect[@stroke='#000000']").attrib == small.find(
        f"{ns}rect[@stroke='#000000']").attrib
