"""Properties: both EMB-JSONL readers against a reference reader, line by line.

Both readers find a payload that ends its line by one locator
(``embed_io._payload``). ``read_embeddings`` lets the base64 kernel prove the
slice (``_read_canonical``) and ``scan_embedding_headers`` a byte range
check and a backslash search (``_scan_header``); every other line goes
through ``io_utils._loads``. The reference parses each stripped line with
``json.loads`` and applies the header rule, and to read a sequence decodes
the payload with strict ``base64.b64decode``. Lines are damaged in the ways
that must send them off the hooks: a quote, backslash, control or non-ASCII
character in the payload, duplicate ``data`` keys, spaced separators,
trailing whitespace and CRLF, ids that hold ``"data"`` or run past the
search bound, a payload that is not last, bad padding or length, a line
that does not end in ``"}``, and non-finite values. Files are read mapped
and through the buffer.
"""

from __future__ import annotations

import base64
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structprobe import embed_io, io_utils
from structprobe.embed_io import (
    EmbeddingSequence,
    _header,
    read_embeddings,
    scan_embedding_headers,
    write_embeddings,
)
from structprobe.errors import DataError


def reference_decode(rec: dict) -> EmbeddingSequence:
    """The header rule and strict base64."""
    seq_id, layer, n, m = _header(rec)
    blob = base64.b64decode(rec["data"], validate=True)
    if len(blob) != n * m * 4:
        raise ValueError(f"sequence {seq_id}: payload is {len(blob)} bytes, expected {n * m * 4}")
    values = np.frombuffer(blob, dtype="<f4").reshape(n, m)
    return EmbeddingSequence(id=seq_id, layer=layer, values=values)


def reference_read(path, decode=reference_decode) -> list:
    """``decode`` of ``json.loads`` of each stripped line."""
    out = []
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                rec = json.loads(line.strip())
                if not isinstance(rec, dict):
                    raise TypeError("not a JSON object")
                out.append(decode(rec))
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                text = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
                raise DataError(f"{path}:{lineno}: bad embedding record: {text}") from exc
    return out


def reference_scan(path) -> list:
    return reference_read(path, _header)


def outcome(read, path):
    """Each header, or each sequence's id, layer, value bytes, dtype, shape and writeable flag, or the error."""
    try:
        return [
            tuple(s) if isinstance(s, tuple) else
            (s.id, s.layer, s.values.tobytes(), s.values.dtype.str, s.values.shape, s.values.flags.writeable)
            for s in read(path)
        ]
    except DataError as exc:
        return DataError, str(exc)


# characters that send a payload off the slice path, and some that do not
PAYLOAD_INSERTS = ['"', "\\", "\\\\", "\\/", "\\u0041", "\x01", "\x7f", "é", "!", " ", "=", "A", "\t"]
SEPARATORS = [(",", ":")] * 4 + [(", ", ": "), (",\t", " :\r"), (" ,", ":  ")]
# "x" * 1100: an id that runs past the header search bound
IDS = ["s", "é", "data", '"data":"', "\\", "x" * 1100, "x" * 300]
TRAILS = ["", "", "", " ", "\r", "\t", " \r", "\x0c"]


@st.composite
def emb_lines(draw) -> str:
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    values = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((n, m)).astype("<f4")
    if draw(st.integers(0, 10)) == 0:
        values.flat[draw(st.integers(0, n * m - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    data = base64.b64encode(values.tobytes()).decode("ascii")
    fault = draw(st.sampled_from([None] * 5 + ["insert", "pad", "length", "dtype"]))
    if fault == "insert":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(PAYLOAD_INSERTS)) + data[at:]
    elif fault == "pad":
        data = data.rstrip("=") if data.endswith("=") else data + "=="
    rec = {
        "id": draw(st.sampled_from(IDS)),
        "layer": 2,
        "n": n + (fault == "length"),
        "m": m,
        "dtype": "f64" if fault == "dtype" else "f32le",
    }
    items = list(rec.items())
    if draw(st.integers(0, 5)) == 0:
        items = draw(st.permutations(items))
    if draw(st.integers(0, 5)) == 0:  # a duplicate data key, before or after the payload
        items.insert(draw(st.integers(0, len(items))), ("data", "AAAA"))
    items.insert(len(items) if draw(st.integers(0, 6)) else draw(st.integers(0, len(items))), ("data", data))
    # members joined by hand: json.dumps of a dict would keep one of two data keys
    item, key = draw(st.sampled_from(SEPARATORS))
    body = item.join(f"{json.dumps(k)}{key}{json.dumps(v, ensure_ascii=draw(st.booleans()))}" for k, v in items)
    line = "{" + body + "}"
    if draw(st.integers(0, 10)) == 0:  # no closing '"}', but the same slice before where it was
        line = line[:-2] + draw(st.sampled_from(["AA", "==", '"]', "}}", '""']))
    return line + draw(st.sampled_from(TRAILS))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(emb_lines(), min_size=1, max_size=3), st.sampled_from(["\n", "\r\n", ""]), st.booleans())
def test_read_embeddings_matches_the_reference_reader(tmp_path_factory, lines, end, mapped):
    path = tmp_path_factory.mktemp("emb") / "e.jsonl"
    path.write_bytes(("\n".join(lines) + end).encode("utf-8"))
    with mock.patch.object(io_utils, "_MAP_MIN", 1 if mapped else 1 << 40):
        assert outcome(read_embeddings, path) == outcome(reference_read, path)
        assert outcome(scan_embedding_headers, path) == outcome(reference_scan, path)


@pytest.mark.parametrize("mapped", [True, False], ids=["mapped", "buffered"])
def test_lines_write_embeddings_writes_never_reach_loads(tmp_path, monkeypatch, mapped):
    rng = np.random.default_rng(11)
    ids = ["s0", "é…", "data", '"data":"', "\\", "x" * 900]  # 900 bytes: within the search bound
    seqs = [
        EmbeddingSequence(id=id_, layer=i, values=rng.standard_normal((1 + i % 3, 4 + i)).astype(np.float32))
        for i, id_ in enumerate(ids)
    ]
    path = tmp_path / "e.jsonl"
    write_embeddings(seqs, path)
    monkeypatch.setattr(io_utils, "_MAP_MIN", 1 if mapped else 1 << 40)
    monkeypatch.setattr(io_utils, "_loads", lambda *args: pytest.fail("a written line reached _loads"))
    back = list(read_embeddings(path))
    assert [(b.id, b.layer, b.values.tobytes()) for b in back] == [(s.id, s.layer, s.values.tobytes()) for s in seqs]
    assert all(not b.values.flags.writeable for b in back)
    assert scan_embedding_headers(path) == [(s.id, s.layer, s.n, s.m) for s in seqs]


def test_an_id_past_the_search_bound_takes_the_full_parse(tmp_path, monkeypatch):
    seq = EmbeddingSequence(id="x" * embed_io._HEAD_MAX, layer=0, values=np.ones((2, 3), np.float32))
    path = tmp_path / "e.jsonl"
    write_embeddings([seq], path)
    loads = []
    real = io_utils._loads
    monkeypatch.setattr(io_utils, "_loads", lambda *args: loads.append(args) or real(*args))
    (back,) = read_embeddings(path)
    assert back.id == seq.id and back.values.tobytes() == seq.values.tobytes() and len(loads) == 1
    assert scan_embedding_headers(path) == [(seq.id, 0, 2, 3)] and len(loads) == 2
