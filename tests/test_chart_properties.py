"""Properties: chart text is escaped as ``xml.sax.saxutils.escape`` does, or rejected, and
every coordinate is a number.

The chart escapes its own text so that drawing one does not import the XML
package; the standard library's escape and parser are the references here.
"""

from __future__ import annotations

import re
from xml.etree import ElementTree
from xml.sax import saxutils

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structprobe.chart import render_line_chart
from structprobe.errors import ValidationError


# what XML 1.0 holds (its Char production) and what it does not
XML_CHAR = st.characters(blacklist_categories=("Cs",), blacklist_characters="\ufffe\uffff").filter(
    lambda c: c >= " " or c in "\t\n\r"
)
NOT_XML_CHAR = st.sampled_from(
    [chr(c) for c in range(0x20) if chr(c) not in "\t\n\r"] + ["\ud800", "\udcff", "\ufffe", "\uffff"]
)


def parsed(text: str) -> str:
    """``text`` as an XML parser reads it back: CRLF and lone CR become LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


@settings(max_examples=300, deadline=None)
@given(st.text(XML_CHAR, max_size=12), st.text(XML_CHAR, max_size=12))
def test_chart_text_is_escaped_as_saxutils_does_and_parses_back(tag, title):
    rows = [
        {"layer": "b" + tag, "rank": 1, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 1},
        {"layer": 0, "rank": 1, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 1},
    ]
    svg = render_line_chart(rows, "nspr", title=title)
    assert f">{saxutils.escape(title)}</text>" in svg and f">{saxutils.escape('b' + tag)}</text>" in svg
    texts = [el.text or "" for el in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == parsed(title) and parsed("b" + tag) in texts


@settings(max_examples=100, deadline=None)
@given(st.text(XML_CHAR, max_size=4), NOT_XML_CHAR, st.text(XML_CHAR, max_size=4))
def test_chart_text_xml_cannot_hold_is_rejected(before, bad, after):
    rows = [
        {"layer": before + bad + after, "rank": 1, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 1},
        {"layer": 0, "rank": 1, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 1},
    ]
    with pytest.raises(ValidationError, match="XML cannot hold"):
        render_line_chart(rows, "nspr")
    with pytest.raises(ValidationError, match="XML cannot hold"):
        render_line_chart(rows[1:], "nspr", title=before + bad + after)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers() | st.integers(-(10**400), 10**400), st.floats()),
                min_size=1, max_size=6))
def test_a_chart_holds_no_nan_or_inf_or_is_rejected(points):
    # layers of any size, and values of any float: finite ones too far apart or too close in
    # float64 for an axis, nan and the infinities
    rows = [{"layer": layer, "rank": 1, "task": "distance", "metric": "dspr", "value": value,
             "n_sequences": 1} for layer, value in points]
    try:
        svg = render_line_chart(rows, "dspr")
    except ValidationError as exc:
        assert str(exc).startswith("cannot chart 'dspr': ")
    else:
        assert not re.search(r"nan|inf", svg)
