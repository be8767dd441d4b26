"""Property: the JSON Lines record parser agrees with ``json.loads(line.strip())``.

``io_utils._loads`` parses a line whose last member is a plain string without
scanning that string. Lines here are EMB-JSONL records with long payloads, so
the slice path is reached, damaged in the ways that must send it back to a full
parse: quotes, backslashes, control and non-ASCII characters, structure
characters, duplicate keys, a member after the payload, and odd whitespace.
"""

from __future__ import annotations

import json
import string

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structprobe.io_utils import _loads

B64 = string.ascii_letters + string.digits + "+/="
PAYLOAD = "AbCd+/09" * 40
# characters a mutation inserts or writes over another, each group as likely
CHARS = (
    st.sampled_from(['"', "\\", "{", "}", ",", ":", "=", "[", "]", " ", "A"])
    | st.sampled_from([chr(c) for c in range(0x20)])
    | st.sampled_from(["\x7f", "é", "\u2028", "\udc80", "\U0001f600"])
)
# raw JSON text of the payload's key: escapes, and last characters "{" and ","
# that precede a key's opening quote elsewhere
KEYS = ["da\\ta", "d\\u0061ta", "data\\\\", 'k\\"data', "", "data,", "{data", "a{"]
# whole members a mutation inserts
MEMBERS = ['"data":"AAAA",', ',"data":"AAAA"', ',"data":""', ',"x":1', '"k\\"data":"A",', ',"a":{"b":"c"}']


def outcome(parse, line: str):
    """What ``parse(line)`` gives: repr of the record (values and key order) or the error."""
    try:
        return "record", repr(parse(line))
    except Exception as exc:  # the reference's exception, whatever it is, must be matched
        return "error", type(exc), str(exc)


def reference(line: str):
    return json.loads(line.strip())


@st.composite
def emb_lines(draw):
    rec = {
        "id": draw(st.text(alphabet="ab\"\\é", max_size=3)),
        "layer": draw(st.integers(0, 12)),
        "n": draw(st.integers(1, 40)),
        "m": 768,
        "dtype": "f32le",
        "data": draw(st.text(alphabet=B64, min_size=200, max_size=600)),
    }
    line = json.dumps(rec, separators=draw(st.sampled_from([(",", ":"), (", ", ": ")])))
    line = line.replace('"data"', '"' + draw(st.just("data") | st.sampled_from(KEYS)) + '"')
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["insert", "replace", "delete", "member"]))
        pos = draw(
            st.integers(0, 70)  # the header
            | st.integers(0, len(line))
            | st.integers(max(len(line) - 4, 0), len(line))  # the payload's end
        )
        if op == "insert":
            line = line[:pos] + draw(CHARS) + line[pos:]
        elif op == "replace":
            line = line[:pos] + draw(CHARS) + line[pos + 1 :]
        elif op == "delete":
            line = line[:pos] + line[pos + 1 :]
        else:  # a duplicate key before or after the payload, or a member after it
            at = draw(st.sampled_from([1, len(line) - 1, pos]))
            line = line[:at] + draw(st.sampled_from(MEMBERS)) + line[at:]
    lead = draw(st.sampled_from(["", " ", "\x0c", "\t"]))
    trail = draw(st.sampled_from(["\n", "\r\n", "  \n", "\r", "", "\x0c\n", " \n"]))
    return lead + line + trail


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(emb_lines())
def test_loads_matches_json_loads_of_stripped_line(line):
    assert outcome(_loads, line) == outcome(reference, line)


@pytest.mark.parametrize(
    "line",
    [
        '{"k\\"data":"' + PAYLOAD + '"}',
        '{"data":"","k\\"data":"' + PAYLOAD + '"}',
        '{"z":"w,",":"' + PAYLOAD + '"}',
        '{"a":{"data":"' + PAYLOAD + '"}',
        '{"da\\ta":"' + PAYLOAD + '"}',
        '{"a," : "' + PAYLOAD + '"}',
        '{"data":"' + PAYLOAD + '","id":"x","data":"' + PAYLOAD[::-1] + '"}',
        '{"data":"\\u0041' + PAYLOAD + '"}',
        '{"data":"' + PAYLOAD + '\x1f"}',
        '\x0c{"data":"' + PAYLOAD + '"}\r\n',
    ],
    ids=[
        "escaped-quote-in-key", "escaped-key-after-real-one", "colon-key-after-comma-in-value",
        "nested-unclosed", "escape-in-key", "spaces-around-colon", "duplicate-key",
        "escape-in-value", "control-char-in-value", "form-feed",
    ],
)
def test_loads_matches_json_loads_on_hand_picked_lines(line):
    assert outcome(_loads, line) == outcome(reference, line)
