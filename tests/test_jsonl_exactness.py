"""Property: the JSON Lines record parser agrees with ``json.loads(line.strip())``.

``io_utils._loads`` reads the bytes of a line and parses a UTF-8 line whose
last member is a plain string without scanning that string, with JSON
whitespace allowed around that member's key and colon. Lines here are
EMB-JSONL records with long payloads and compact, spaced or other whitespace
separators, so the slice path is reached, damaged in the ways that must send
it back to a full parse: quotes, backslashes, control and non-ASCII
characters, bytes that are not UTF-8, structure characters, duplicate keys, a
member after the payload, and odd whitespace. The reference decodes the line
itself: a lone surrogate in a test line stands for a byte that is not UTF-8.

At the file level, ``read_jsonl`` reads bytes and splits lines at ``\\n``
only, in place in a mapping of a regular file, or line by line from a FIFO
or an empty file. The reference is the text-mode reader it replaced, opened
with ``newline="\\n"`` so that a lone ``\\r`` does not end a line either;
every reader of the package must give its items, or its DataError text, from
either source.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import re
import string
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structprobe.embed_io import (
    EmbeddingSequence,
    _decode,
    _header,
    read_embeddings,
    scan_embedding_headers,
)
from structprobe import io_utils
from structprobe.errors import DataError
from structprobe.io_utils import _loads
from structprobe.scenetree import _decode_caption, read_grounding
from structprobe.trees import _decode_labels, read_labels

# a byte that is not UTF-8 is read as a lone surrogate, so its line is known
NOT_UTF8 = re.compile("[\udc80-\udcff]")
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
# item and key separators: compact, json.dumps' default, and other JSON whitespace
SEPARATORS = [(",", ":"), (", ", ": "), (",\t", "\t:\r"), (" ,\r ", " : "), (",  ", ":\t")]
# whole members a mutation inserts
MEMBERS = ['"data":"AAAA",', ',"data":"AAAA"', ',"data":""', ',"x":1', '"k\\"data":"A",', ',"a":{"b":"c"}']


def outcome(parse, line: str):
    """What ``parse(line)`` gives: repr of the record (values and key order) or the error."""
    try:
        return "record", repr(parse(line))
    except Exception as exc:  # the reference's exception, whatever it is, must be matched
        return "error", type(exc), str(exc)


def reference(line: str):
    """ValueError for a line that is not UTF-8, None for a blank one, else
    ``json.loads(line.strip())``, which must be an object."""
    if NOT_UTF8.search(line):
        raise ValueError("not valid UTF-8")
    if line.isspace():
        return None
    rec = json.loads(line.strip())
    if not isinstance(rec, dict):
        raise TypeError("not a JSON object")
    return rec


def loads(line: str, payload: str | None = None):
    """``_loads`` on the line's bytes, the value under ``payload`` read back as a str.

    A memoryview ``_loads`` sets must be a read-only view of the line.
    """
    raw = line.encode("utf-8", "surrogateescape")
    rec = _loads(raw, payload)
    if rec is not None and isinstance(rec.get(payload), memoryview):
        assert rec[payload].obj is raw and rec[payload].readonly
        rec[payload] = str(rec[payload], "ascii")
    return rec


def loads_bytes(line: str):
    return loads(line, "data")


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
    line = json.dumps(rec, separators=draw(st.sampled_from(SEPARATORS)))
    line = "{" + draw(st.sampled_from(["", "", " ", "\t", "\r "])) + line[1:]
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
    assert outcome(loads, line) == outcome(reference, line)


@st.composite
def payload_damaged_lines(draw):
    """An EMB line with one character written over or into its payload."""
    payload = draw(st.text(alphabet=B64, min_size=200, max_size=600))
    comma, colon = draw(st.sampled_from(SEPARATORS))
    line = '{"id":"a","n":1,"m":768,"dtype":"f32le"' + comma + '"data"' + colon + '"' + payload + '"}'
    at = draw(st.integers(line.rfind('"', 0, -2) + 1, len(line) - 2))
    line = line[:at] + draw(CHARS) + line[at + draw(st.integers(0, 1)) :]
    return line + draw(st.sampled_from(["\n", "\r\n", "\x1c\n", ""]))


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(emb_lines() | payload_damaged_lines())
def test_byte_slice_rule_matches_json_loads_of_stripped_line(line):
    assert outcome(loads_bytes, line) == outcome(reference, line)


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
        '{"id":"a\udc80","data":"' + PAYLOAD + '"}',
    ],
    ids=[
        "escaped-quote-in-key", "escaped-key-after-real-one", "colon-key-after-comma-in-value",
        "nested-unclosed", "escape-in-key", "spaces-around-colon", "duplicate-key",
        "escape-in-value", "control-char-in-value", "form-feed", "not-utf8-before-value",
    ],
)
def test_loads_matches_json_loads_on_hand_picked_lines(line):
    assert outcome(loads, line) == outcome(reference, line)
    assert outcome(loads_bytes, line) == outcome(reference, line)


@pytest.mark.parametrize(
    "trail", ["\n", "\r\n", " \x1c\x1f\n", "\x0b\x0c\t", ""],
    ids=["lf", "crlf", "x1c", "vt-ff-tab", "none"],
)
def test_byte_path_takes_a_canonical_line(trail):
    raw = ('{"id":"a","n":1,"data":"' + PAYLOAD + '"}' + trail).encode("ascii")
    rec = _loads(raw, "data")
    assert isinstance(rec["data"], memoryview) and rec["data"].tobytes() == PAYLOAD.encode("ascii")
    assert rec == dict(reference(raw.decode("ascii")), data=rec["data"])
    assert _loads(raw)["data"] == PAYLOAD


@pytest.mark.parametrize("comma, colon", SEPARATORS[1:])
@pytest.mark.parametrize("lead", ["", " ", "\t\r"])
def test_both_paths_take_a_line_with_json_whitespace(monkeypatch, comma, colon, lead):
    line = "{" + lead + '"id"' + colon + '"a"' + comma + '"data"' + colon + '"' + PAYLOAD + '"}\n'
    want = reference(line)
    raw = line.encode("ascii")
    parsed = []
    real_loads = io_utils.json.loads
    monkeypatch.setattr(io_utils.json, "loads", lambda text: parsed.append(text) or real_loads(text))
    rec = _loads(raw, "data")
    assert isinstance(rec["data"], memoryview) and rec["data"].tobytes() == PAYLOAD.encode("ascii")
    assert rec == dict(want, data=rec["data"])
    assert _loads(raw) == want
    assert len(parsed) == 2 and all(len(text) < len(PAYLOAD) for text in parsed)


def reference_read(path, what: str, decode):
    """The text-mode reader ``read_jsonl`` replaced, with lines split at ``\\n`` only.

    Its line parser was ``json.loads(line.strip())`` (the properties above),
    so the reference calls ``json.loads`` itself.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                if NOT_UTF8.search(line):
                    raise ValueError("not valid UTF-8")
                rec = json.loads(line.strip())
                if not isinstance(rec, dict):
                    raise TypeError("not a JSON object")
                item = decode(rec)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise DataError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
            yield item


READERS = {
    "emb": (read_embeddings, "embedding", _decode),
    "scan": (scan_embedding_headers, "embedding", _header),
    "labels": (read_labels, "labels", _decode_labels),
    "grounding": (read_grounding, "grounding", _decode_caption),
}


def summary(item):
    """An item's fields, numpy arrays by bytes, dtype, shape and writeable flag."""
    if isinstance(item, tuple):
        return repr(item)
    return [
        (k, (v.tobytes(), v.dtype.str, v.shape, v.flags.writeable))
        if isinstance(v, np.ndarray) else (k, repr(v))
        for k, v in vars(item).items()
    ]


def read_outcome(read):
    try:
        return "items", [summary(item) for item in read()]
    except Exception as exc:  # the reference's exception, whatever it is, must be matched
        return "error", type(exc), str(exc)


def _emb_text(n: int, m: int, seed: int, id_: str = "s") -> str:
    values = np.random.default_rng(seed).standard_normal((n, m)).astype("<f4")
    data = base64.b64encode(values.tobytes()).decode("ascii")
    rec = {"id": id_, "layer": 1, "n": n, "m": m, "dtype": "f32le", "data": data}
    return json.dumps(rec, separators=(",", ":"), ensure_ascii=False)


# one canonical record longer than the 1 MiB buffer a pipe is read through
BIG_EMB = _emb_text(3, 100_000, 0, "big").encode("ascii")
LABELS = '{"id":"%s","n":2,"depths":[0,1],"distances":[[0,1],[1,0]],"root":0}'
CAPTION = {
    "image_id": "i1",
    "sentence_id": "s1",
    "tokens": ["a", "man"],
    "phrases": [{"phrase_id": "p1", "start": 0, "end": 2, "region_ids": ["r1"]}],
}
BLANKS = [b"", b" ", b"\x1c", "\u2028".encode(), b"\t\x0c", b"\r"]
ENDS = [b"\n"] * 4 + [b"\r\n"] * 3 + [b"\r", b""]
# bytes a mutation writes: line ends, non-UTF-8 and UTF-8 lead bytes, JSON
# structure, escapes, pads, whitespace and a character outside base64
BYTES = st.sampled_from(list(b'\r\n\xff\x80\xc3\\"=A \x1c\x00}-'))
IDS = st.sampled_from(["s", "é", "ein M\u00e4dchen", "\u2028", "a\\b"])


@st.composite
def record_line(draw, kind: str) -> bytes:
    if kind in ("emb", "scan"):
        n, m, seed = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(0, 9))
        text = _emb_text(n, m, seed, draw(IDS))
        comma, colon = draw(st.sampled_from(SEPARATORS))  # compact, spaced or other whitespace
        text = text.replace('","', '"' + comma + '"').replace('":', '"' + colon)
    elif kind == "labels":
        text = LABELS % draw(IDS)
    else:
        text = json.dumps(dict(CAPTION, sentence_id=draw(IDS)), ensure_ascii=draw(st.booleans()))
    raw = text.encode("utf-8")
    damage = draw(st.sampled_from(
        ["none", "none", "payload", "payload", "pad", "header", "anywhere"]
    ))
    if damage == "payload":  # a byte in the last string, or at its end
        end = len(raw) - 2
        start = raw.rfind(b'"', 0, end) + 1
        at = draw(st.integers(max(end - 4, 0), end) | st.integers(start, end))
        raw = raw[:at] + bytes([draw(BYTES)]) + raw[at + draw(st.integers(0, 1)) :]
    elif damage == "pad":  # a pad added or dropped
        end = len(raw) - 2
        raw = raw[:end] + b"=" + raw[end:] if draw(st.booleans()) else raw[: end - 1] + raw[end:]
    elif damage == "header":
        at = draw(st.integers(0, min(40, len(raw))))
        raw = raw[:at] + bytes([draw(BYTES)]) + raw[at:]
    elif damage == "anywhere":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + bytes([draw(BYTES)]) + raw[at + draw(st.integers(0, 1)) :]
    return raw


@st.composite
def jsonl_files(draw):
    """(reader kind, file bytes): records, blanks, maybe one huge record; mixed line ends."""
    kind = draw(st.sampled_from(sorted(READERS)))
    # mostly records of the reader's kind, some of another kind
    kinds = st.sampled_from([kind] * 3 + sorted(READERS))
    lines = draw(st.lists(
        kinds.flatmap(record_line) | st.sampled_from(BLANKS), min_size=1, max_size=5
    ))
    if kind in ("emb", "scan") and draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), BIG_EMB)
    return kind, b"".join(line + draw(st.sampled_from(ENDS)) for line in lines)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(jsonl_files())
def test_byte_reader_matches_text_reader_on_whole_files(case):
    kind, data = case
    read, what, decode = READERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.jsonl"
        path.write_bytes(data)
        got = read_outcome(lambda: read(path))
        want = read_outcome(lambda: reference_read(path, what, decode))
    assert got == want
    assert got[0] == "items" or got[1] is DataError


def test_a_lone_carriage_return_does_not_end_a_record(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_bytes((LABELS % "a").encode() + b"\r" + (LABELS % "b").encode() + b"\r\n")
    with pytest.raises(DataError, match=f"{path}:1: bad labels record: Extra data"):
        read_labels(path)
    path.write_bytes((LABELS % "a").encode() + b"\r\n\r\n" + (LABELS % "b").encode())
    assert [lab.id for lab in read_labels(path)] == ["a", "b"]


# three good records of each reader's kind; the embedding ones hold BIG_EMB
GOOD = {
    "emb": [_emb_text(2, 3, 1, "a").encode(), BIG_EMB, _emb_text(1, 5, 2, "é").encode()],
    "labels": [(LABELS % i).encode() for i in "abc"],
    "grounding": [json.dumps(dict(CAPTION, sentence_id=i)).encode() for i in "abc"],
}
GOOD["scan"] = GOOD["emb"]
# a bad record per kind; an embedding one fails after its payload became a view
BAD = {
    "emb": _emb_text(1, 2, 3, "bad").replace("f32le", "f64").encode(),
    "labels": (LABELS % "bad").replace("[0,1]", "[0,-1]").encode(),
    "grounding": json.dumps(dict(CAPTION, tokens=["a"])).encode(),
}
BAD["scan"] = BAD["emb"]
PAYLOADS = {"emb": "data", "scan": "data", "labels": None, "grounding": None}
SOURCES = ["file", "fifo"]


@contextlib.contextmanager
def served(tmp_path, data: bytes, source: str):
    """A path that reads as ``data``: a regular file, or a FIFO a thread writes."""
    if source == "file":
        path = tmp_path / "f.jsonl"
        path.write_bytes(data)
        yield path
        return
    path = tmp_path / "f.fifo"
    os.mkfifo(path)

    def write():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    try:
        yield path
    finally:
        thread.join(timeout=30)
        assert not thread.is_alive()


def expected(tmp_path, data: bytes, kind: str, path: Path):
    """What the text-mode reference reads from ``data`` in a regular file, errors naming ``path``."""
    _, what, decode = READERS[kind]
    ref = tmp_path / "ref.jsonl"
    ref.write_bytes(data)
    want = read_outcome(lambda: reference_read(ref, what, decode))
    return want if want[0] == "items" else (*want[:2], want[2].replace(str(ref), str(path)))


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize(
    "case", ["records", "no-final-newline", "empty", "whitespace", "bad-after-good"]
)
def test_every_source_gives_the_reference_items(tmp_path, kind, source, case):
    good = GOOD[kind]
    data = {
        "records": b"\n".join(good) + b"\n",
        "no-final-newline": b"\r\n".join(good),
        "empty": b"",
        "whitespace": b" \n\t\r\n\x0c",
        "bad-after-good": b"\n".join([*good, BAD[kind], good[0]]) + b"\n",
    }[case]
    read = READERS[kind][0]
    with served(tmp_path, data, source) as path:
        got = read_outcome(lambda: read(path))
    assert got == expected(tmp_path, data, kind, path)
    if case in ("empty", "whitespace"):
        assert got == ("items", [])
    elif case == "bad-after-good":
        assert got[1] is DataError and got[2].startswith(f"{path}:4: bad ")
    else:
        assert len(got[1]) == 3


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("kind", sorted(READERS))
def test_a_read_closed_after_one_item_stops_cleanly(tmp_path, kind, source):
    _, what, decode = READERS[kind]
    data = b"\n".join(GOOD[kind]) + b"\n"
    with served(tmp_path, data, source) as path:
        items = io_utils.read_jsonl(path, what, decode, PAYLOADS[kind])
        first = next(items)
        items.close()
        with pytest.raises(StopIteration):
            next(items)
    assert summary(first) == expected(tmp_path, data, kind, path)[1][0]


@pytest.mark.parametrize(
    "error", [OSError(19, "No such device"), ValueError("cannot mmap")], ids=["oserror", "valueerror"]
)
@pytest.mark.parametrize("kind", sorted(READERS))
def test_a_file_mmap_refuses_is_read_through_the_buffer(tmp_path, monkeypatch, kind, error):
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(io_utils.mmap, "mmap", refuse)
    data = b"\n".join(GOOD[kind]) + b"\n"
    path = tmp_path / "f.jsonl"
    path.write_bytes(data)
    got = read_outcome(lambda: READERS[kind][0](path))
    assert got == expected(tmp_path, data, kind, path) and len(got[1]) == 3
