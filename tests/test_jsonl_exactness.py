"""Properties: JSON Lines records and EMB-JSONL payload slices agree with ``json.loads(line.strip())``.

``io_utils._loads`` parses the UTF-8 text of a line's bytes. The EMB-JSONL
readers slice a payload that ends its line out of it instead
(``embed_io._payload``) and parse only the header before it; the header
scan's hook (``embed_io._scan_header``) proves the slice by scanning the
payload's bytes. Lines here are EMB-JSONL records with long payloads and
compact, spaced or other whitespace separators, so the slice is reached,
damaged in the ways that must send a line back to a full parse: quotes,
backslashes, control and non-ASCII characters, bytes that are not UTF-8,
structure characters, duplicate keys, a member after the payload, and odd
whitespace. The reference decodes the line itself: a lone surrogate in a
test line stands for a byte that is not UTF-8. Lines exactly as
``write_embeddings`` writes them, or with JSON whitespace, a non-ASCII id or
CRLF, must reach ``json.loads`` only as their header in both readers.

At the file level, ``read_jsonl`` reads bytes and splits lines at ``\\n``
only, in place in a mapping of a regular file, or line by line from a FIFO
or an empty file. The reference is the text-mode reader it replaced, opened
with ``newline="\\n"`` so that a lone ``\\r`` does not end a line either;
every reader of the package must give its items, or its DataError text, from
either source.

A labels line exactly as ``labels_record`` writes it is read by a fast path
that re-renders what it parsed and keeps it only if the bytes match. On
such lines and on near misses of them (whitespace, CRLF, ``01``, ``-0``,
``1.0``, ``true``, ``2**63``, ``,}``, duplicate keys, escaped and non-ASCII
ids, extras named like a base member, excluded positions), mapped or read
through the buffer, ``read_labels`` must give the text-mode reference's
items or its DataError, and never a warning.
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
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structprobe.embed_io import (
    EmbeddingSequence,
    _decode,
    _header,
    _payload,
    _scan_header,
    read_embeddings,
    scan_embedding_headers,
)
from structprobe import io_utils
from structprobe import trees as trees_mod
from structprobe.errors import DataError
from structprobe.io_utils import _loads
from structprobe.scenetree import _decode_caption, read_grounding
from structprobe.trees import (
    ROOT,
    DepTree,
    TreeLabels,
    _decode_labels,
    _exact_labels,
    labels_record,
    read_labels,
    tree_labels,
    write_labels,
)

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


def loads(line: str):
    """``_loads`` on the line's bytes."""
    return _loads(line.encode("utf-8", "surrogateescape"))


def scan_slice(line: str):
    """The header ``_scan_header`` reads from the line's bytes and the payload ``_payload`` slices.

    A line the hook declines is parsed in full, as the header scan does.
    """
    raw = line.encode("utf-8", "surrogateescape")
    if _scan_header(raw, 0, len(raw)) is None:
        rec = _loads(raw)
        return _header(rec), rec["data"]
    header, a, b = _payload(raw, 0, len(raw))
    return header, raw[a:b].decode("ascii")


def reference_slice(line: str):
    rec = reference(line)
    return _header(rec), rec["data"]


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
    assert outcome(scan_slice, line) == outcome(reference_slice, line)


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
        '{"data":""}\r\n',
        '\ufeff{"data":"' + PAYLOAD + '"}\n',
        '{"data":"' + PAYLOAD + '\udcff"}',
        '[{"data":"' + PAYLOAD + '"}]',
        " \x0c\r\n",
    ],
    ids=[
        "escaped-quote-in-key", "escaped-key-after-real-one", "colon-key-after-comma-in-value",
        "nested-unclosed", "escape-in-key", "spaces-around-colon", "duplicate-key",
        "escape-in-value", "control-char-in-value", "form-feed", "not-utf8-before-value",
        "empty-payload", "bom", "not-utf8-in-value", "not-an-object", "blank",
    ],
)
def test_loads_matches_json_loads_on_hand_picked_lines(line):
    assert outcome(loads, line) == outcome(reference, line)
    # with a header the hook accepts, so that only the slice can send a line back
    line = line.replace("{", '{"id":"h","n":1,"m":768,"dtype":"f32le",', 1)
    assert outcome(scan_slice, line) == outcome(reference_slice, line)


def assert_only_headers_parsed(tmp_path, text: str, lines: int, payload_chars: int):
    """Both EMB readers read ``text``, mapped and buffered, as the reference does, parsing only headers as JSON."""
    path = tmp_path / "e.jsonl"
    path.write_bytes(text.encode("utf-8"))
    want = {
        read: read_outcome(lambda: reference_read(path, "embedding", decode))
        for read, decode in ((read_embeddings, _decode), (scan_embedding_headers, _header))
    }
    real_loads = json.loads
    for map_min in (1, 1 << 40):
        parsed = []
        with mock.patch.object(io_utils, "_MAP_MIN", map_min), \
                mock.patch.object(json, "loads", lambda text: parsed.append(len(text)) or real_loads(text)):
            for read in want:
                assert read_outcome(lambda: read(path)) == want[read]
        assert len(parsed) == 2 * lines and max(parsed) < payload_chars


def spaced(text: str, comma: str, colon: str) -> str:
    return text.replace('","', '"' + comma + '"').replace('":', '"' + colon)


@pytest.mark.parametrize(
    "trail", ["\n", "\r\n", " \x1c\x1f\n", "\x0b\x0c\t", ""],
    ids=["lf", "crlf", "x1c", "vt-ff-tab", "none"],
)
def test_byte_path_takes_a_canonical_line(tmp_path, trail):
    sep = "" if trail.endswith("\n") else "\n"
    text = sep.join(_emb_text(4, 48, i, id_) + trail for i, id_ in enumerate(["a", "é…"]))
    assert_only_headers_parsed(tmp_path, text, 2, 4 * 48 * 4 * 4 // 3)


@pytest.mark.parametrize("comma, colon", SEPARATORS[1:])
@pytest.mark.parametrize("lead", ["", " ", "\t\r"])
def test_both_paths_take_a_line_with_json_whitespace(tmp_path, comma, colon, lead):
    lines = [spaced(_emb_text(4, 48, i, id_), comma, colon) for i, id_ in enumerate(["a", "é…"])]
    text = "".join("{" + lead + line[1:] + "\n" for line in lines)
    assert_only_headers_parsed(tmp_path, text, 2, 4 * 48 * 4 * 4 // 3)


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
                text = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
                raise DataError(f"{path}:{lineno}: bad {what} record: {text}") from exc
            yield item


def reference_labels(path):
    """``reference_read`` of a labels file, which then names no id twice."""
    labels = list(reference_read(path, "labels", _decode_labels))
    ids = [lab.id for lab in labels]
    for i, seq_id in enumerate(ids):
        if seq_id in ids[:i]:
            raise DataError(f"{path}: labels id {seq_id!r} is named by more than one record")
    return labels


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
        text = spaced(text, *draw(st.sampled_from(SEPARATORS)))  # compact, spaced or other whitespace
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
        if kind == "labels":
            want = read_outcome(lambda: reference_labels(path))
        else:
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
        items = io_utils.read_jsonl(path, what, decode)
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


# ids whose JSON text is plain, escaped (quote, backslash, control, non-ASCII,
# lone surrogate) or holds a marker the fast path splits at
LABEL_IDS = st.sampled_from(
    ["s0", "a b", "", "x1", 'q"x', "b\\s", "\x01", "\u00e9", "\u2028", "\ud800", 'x,"depths":[', "]]"]
)
LABEL_EXTRAS = st.sampled_from([
    None, {}, {"parents": [-1, 0, 0]}, {"phrase_to_text": {"p1": "a man"}},
    {"x": [[1, 2]], "y": "]],\"root\":"}, {"z": 1.5, "\u00e9": None},
    {"root": 0}, {"id": "z"}, {"n": 3}, {"distances": None}, {"depths": [0]},
    {"x": 1, "root": 0}, {"parents": [-1], "id": "z"}, {"x": [0], "n": 2},
    {"excluded": [0]}, {"excluded": []},
])
# a JSON number that is not part of a float or a name: a near miss writes
# one of NUMBER_SWAPS in its place
NUMBER = re.compile(r"(?<![\w.])\d+(?![\w.])")
NUMBER_SWAPS = ["01", "-0", "-1", "1.0", "0.0", "1e0", "true", "false", "null", "9223372036854775808",
                str(2**63 - 1), "1 ", " 1", "1024", "1023", '"1"', "[1]"]
MEMBERS_AT_END = [',"distances":[[0]]', ',"root":0', ',"root":1', ',"n":1', ',"id":"z"', ',"depths":[0]',
                  ',"x":1', ",", ',"excluded":[0]', ',"excluded":[]']


@st.composite
def canonical_labels(draw) -> tuple[TreeLabels, dict | None]:
    n = draw(st.integers(1, 9))
    parents = [ROOT] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    perm = draw(st.permutations(range(n)))
    heads = [0] * n
    for i, p in enumerate(parents):
        heads[perm[i]] = ROOT if p == ROOT else perm[p]
    gold = tree_labels(DepTree(tokens=("w",) * n, heads=heads), draw(LABEL_IDS))
    scale = draw(st.sampled_from([1, 1, 1, 341, 1023, 1024, 10**15]))
    root = gold.root if draw(st.booleans()) else None
    others = [i for i in range(n) if i != root]
    excluded = sorted(draw(st.sets(st.sampled_from(others)))) if others and draw(st.booleans()) else ()
    lab = TreeLabels(
        id=gold.id,
        distances=gold.distances * scale,
        depths=gold.depths * scale,
        root=root,
        excluded=excluded,
    )
    return lab, draw(LABEL_EXTRAS)


@st.composite
def near_miss_labels_line(draw) -> bytes:
    """A line ``labels_record`` writes, maybe with one near-miss change, as UTF-8 bytes."""
    line = labels_record(*draw(canonical_labels()))
    kind = draw(st.sampled_from(
        ["none", "none", "space", "number", "member", "id", "edge", "char"]
    ))
    if kind == "space":  # JSON whitespace beside a structure character
        spots = [i for i, c in enumerate(line) if c in ',:[]{}']
        at = draw(st.sampled_from(spots)) + draw(st.integers(0, 1))
        line = line[:at] + draw(st.sampled_from([" ", "\t", "\r", "  "])) + line[at:]
    elif kind == "number":
        spans = [m.span() for m in NUMBER.finditer(line)]
        if spans:
            a, b = draw(st.sampled_from(spans))
            line = line[:a] + draw(st.sampled_from(NUMBER_SWAPS)) + line[b:]
    elif kind == "member":  # a duplicate key, a stray comma or an extra member
        at = draw(st.sampled_from([len(line) - 1, 1]))
        member = draw(st.sampled_from(MEMBERS_AT_END))
        line = line[:at] + (member if at > 1 else member[1:] + ",") + line[at:]
    elif kind == "id":  # an escaped or non-ASCII character at the start of the id
        line = line[:7] + draw(st.sampled_from(["\\u0061", "\\/", "\u00e9", "\\n", "\u2028"])) + line[7:]
    elif kind == "edge":
        line = draw(st.sampled_from(["", " ", "\ufeff", "\t"])) + line + draw(st.sampled_from(["", " ", ",", "}"]))
    elif kind == "char":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from(list(',:[]{}"\\0123 -.e\x00\u00e9'))) + line[at + draw(st.integers(0, 1)) :]
    return line.encode("utf-8", "surrogateescape")


@st.composite
def labels_files(draw) -> bytes:
    lines = draw(st.lists(near_miss_labels_line() | st.sampled_from([b"", b" "]), min_size=1, max_size=3))
    ends = st.sampled_from([b"\n", b"\n", b"\r\n", b""])
    return b"".join(line + draw(ends) for line in lines[:-1]) + lines[-1] + draw(ends)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(labels_files(), st.booleans(), st.sampled_from([0, 0, trees_mod._EXACT_MIN]))
def test_read_labels_matches_the_full_parse_on_canonical_lines_and_near_misses(data, mapped, exact_min):
    # most examples let lines of any length take the exact path
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "labels.jsonl"
        path.write_bytes(data)
        with mock.patch.object(io_utils, "_MAP_MIN", 1 if mapped else 1 << 62), \
                mock.patch.object(trees_mod, "_EXACT_MIN", exact_min):
            got = read_outcome(lambda: read_labels(path))
        want = read_outcome(lambda: reference_labels(path))
    assert got == want
    assert got[0] == "items" or got[1] is DataError


@settings(max_examples=300, deadline=None)
@given(canonical_labels())
def test_exact_labels_reads_back_every_plain_line_labels_record_writes(case):
    # plain: no extra is named like a base member, whatever the id (escaped,
    # non-ASCII) and whether the line has exclusions
    lab, extra = case
    raw = labels_record(lab, extra).encode("ascii")
    plain = {"id", "n", "depths", "distances", "root", "excluded"}.isdisjoint(extra or {})
    try:
        want = summary(_decode_labels(json.loads(raw)))
    except (KeyError, TypeError, ValueError):  # an extra replaced a base member with junk
        want = None
    with warnings.catch_warnings(), mock.patch.object(trees_mod, "_EXACT_MIN", 0):
        warnings.simplefilter("error")
        for line in (raw, raw + b"\n", b"xx" + raw + b"\nyy"):
            start = 2 if line.startswith(b"xx") else 0
            stop = len(line) - 2 if line.endswith(b"yy") else len(line)
            got = _exact_labels(line, start, stop)
            if plain or got is not None:  # what the exact path reads, it reads as json.loads
                assert got is not None and summary(got) == want


@pytest.mark.parametrize(
    "n, exact, seq_id, excluded",
    [(1, False, "s", ()), (9, False, "s", ()), (10, True, "s", ()), (40, True, "s", ()),
     (40, True, "s", (2, 7)), (40, True, "\u00e9\u2028", ())],
    ids=["1", "9", "10", "40", "40-excluded", "40-non-ascii-id"],
)
def test_read_labels_parses_a_plain_line_as_json_only_if_it_is_short(
    tmp_path, monkeypatch, n, exact, seq_id, excluded
):
    tree = DepTree(tokens=("w",) * n, heads=[ROOT] + list(range(n - 1)))
    labs = []
    for side in "ab":
        gold = tree_labels(tree, f"{seq_id}{n}{side}")
        labs.append(TreeLabels(gold.id, gold.distances, gold.depths, gold.root, excluded))
    path = tmp_path / "labels.jsonl"
    write_labels(labs, path)
    assert (path.stat().st_size // 2 >= trees_mod._EXACT_MIN) == exact
    parsed = []
    real_loads = io_utils._loads
    monkeypatch.setattr(io_utils, "_loads", lambda *args: parsed.append(1) or real_loads(*args))
    back = read_labels(path)
    assert [summary(b) for b in back] == [summary(lab) for lab in labs]
    assert len(parsed) == (0 if exact else 2)


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"id":"a","n":2,"depths":[0,true],"distances":[[0,1],[1,0]],"root":0}', "depths must be numbers, not true or false"),
        ('{"id":"a","n":2,"depths":[0,1],"distances":[[0,1],[true,0]],"root":0}', "distances must be numbers, not true or false"),
        ('{"id":"a","n":1,"depths":[false],"distances":[[false]]}', "distances must be numbers, not true or false"),
        ('{"id":"a","n":true,"depths":[0],"distances":[[0]],"root":0}', "n True is not an integer"),
        ('{"id":"a","n":2.0,"depths":[0,1],"distances":[[0,1],[1,0]],"root":0}', "n 2.0 is not an integer"),
        ('{"id":"a","n":"2","depths":[0,1],"distances":[[0,1],[1,0]],"root":0}', "n '2' is not an integer"),
        # a member of the wrong shape is named, not left to numpy's message
        ('{"id":"a","n":2,"depths":null,"distances":[[0,1],[1,0]],"root":0}', "depths must be whole numbers"),
        ('{"id":"a","n":2,"depths":[0,null],"distances":[[0,1],[1,0]],"root":0}', "depths must be whole numbers"),
        ('{"id":"a","n":2,"depths":[0,1],"distances":{"x":1},"root":0}', "distances must be whole numbers"),
        ('{"id":"a","n":2,"depths":[0,1],"distances":[[0,1],[1]],"root":0}',
         "distances must be whole numbers in lists of equal length"),
        ('{"id":"a","n":2,"depths":[0,1],"distances":[[0,1],[1,0]],"root":0,"excluded":null}',
         "excluded positions must be whole numbers"),
        ('{"id":"a","n":2,"depths":[0,1],"distances":[[0,1],[1,0]],"root":0,"excluded":{"1":1}}',
         "excluded positions must be whole numbers"),
        # an integer beyond int64: one that fits uint64, and one beyond any numpy integer
        *(
            (line.replace("@", big), message)
            for big in ("10000000000000000000", "100000000000000000000000000000")
            for line, message in (
                ('{"id":"a","n":2,"depths":[0,@],"distances":[[0,1],[1,0]],"root":0}',
                 "depths must be whole numbers"),
                ('{"id":"a","n":2,"depths":[0,1],"distances":[[0,@],[1,0]],"root":0}',
                 "distances must be whole numbers"),
                ('{"id":"a","n":2,"depths":[0,1],"distances":[[0,1],[1,0]],"root":0,"excluded":[@]}',
                 "excluded positions must be whole numbers"),
            )
        ),
    ],
    ids=["true-depth", "true-distance", "false-everywhere", "n-true", "n-float", "n-string",
         "null-depths", "null-depth", "object-distances", "ragged-distances", "null-excluded",
         "object-excluded", "uint64-depth", "uint64-distance", "uint64-excluded",
         "beyond-int-depth", "beyond-int-distance", "beyond-int-excluded"],
)
def test_labels_members_of_the_wrong_type_or_shape_are_data_errors(tmp_path, line, message):
    path = tmp_path / "labels.jsonl"
    path.write_text("\n" + line + "\n")
    with pytest.raises(DataError) as info:
        read_labels(path)
    assert str(info.value) == f"{path}:2: bad labels record: {message}"


def test_whole_number_floats_stay_label_integers(tmp_path):
    path = tmp_path / "labels.jsonl"
    path.write_text('{"id":"a","n":2,"depths":[0,1.0],"distances":[[0.0,1],[1,0]],"root":0}\n')
    (lab,) = read_labels(path)
    assert lab.depths.tolist() == [0, 1] and lab.distances.tolist() == [[0, 1], [1, 0]]
