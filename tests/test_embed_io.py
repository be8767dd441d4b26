"""Embedding container round-trips."""

from __future__ import annotations

import base64
import json
import re

import numpy as np
import pytest

from structprobe import embed_io
from structprobe.embed_io import (
    EmbeddingSequence,
    read_embeddings,
    scan_embedding_headers,
    write_embeddings,
)
from structprobe.errors import DataError


def test_zero_matrix_record(tmp_path):
    path = tmp_path / "e.jsonl"
    blob = base64.b64encode(b"\x00" * 24).decode()
    path.write_text(
        json.dumps({"id": "a", "layer": 0, "n": 2, "m": 3, "dtype": "f32le", "data": blob})
        + "\n"
    )
    (seq,) = list(read_embeddings(path))
    assert seq.values.shape == (2, 3)
    assert np.all(seq.values == 0)


def test_length_mismatch_rejected(tmp_path):
    path = tmp_path / "e.jsonl"
    blob = base64.b64encode(b"\x00" * 23).decode()
    path.write_text(
        json.dumps({"id": "a", "layer": 0, "n": 2, "m": 3, "dtype": "f32le", "data": blob})
        + "\n"
    )
    with pytest.raises(DataError, match="23 bytes"):
        list(read_embeddings(path))


def test_bad_base64_rejected(tmp_path):
    path = tmp_path / "e.jsonl"
    path.write_text(
        json.dumps({"id": "a", "layer": 0, "n": 1, "m": 1, "dtype": "f32le", "data": "@@@"})
        + "\n"
    )
    with pytest.raises(DataError, match="base64"):
        list(read_embeddings(path))


@pytest.mark.parametrize(
    "bad_line",
    [
        "[1, 2]",
        '"just a string"',
        json.dumps({"id": "a", "layer": [1], "n": 1, "m": 1, "dtype": "f32le", "data": "AACAPw=="}),
    ],
)
def test_malformed_record_names_file_and_line(tmp_path, bad_line):
    path = tmp_path / "e.jsonl"
    good = {"id": "ok", "layer": 0, "n": 1, "m": 1, "dtype": "f32le", "data": "AACAPw=="}
    path.write_text(json.dumps(good) + "\n" + bad_line + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: ")):
        list(read_embeddings(path))


def test_nan_payload_rejected(tmp_path):
    path = tmp_path / "e.jsonl"
    blob = base64.b64encode(np.array([[np.nan]], dtype="<f4").tobytes()).decode()
    path.write_text(
        json.dumps({"id": "bad", "layer": 0, "n": 1, "m": 1, "dtype": "f32le", "data": blob})
        + "\n"
    )
    with pytest.raises(DataError, match="bad"):
        list(read_embeddings(path))


def test_roundtrip_100_random_matrices(tmp_path):
    rng = np.random.default_rng(11)
    seqs = []
    for i in range(100):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 9))
        values = rng.standard_normal((n, m)).astype(np.float32)
        seqs.append(EmbeddingSequence(id=f"s{i}", layer=int(rng.integers(0, 4)), values=values))
    path = tmp_path / "e.jsonl"
    write_embeddings(seqs, path)
    back = list(read_embeddings(path))
    assert len(back) == 100
    for a, b in zip(seqs, back):
        assert a.id == b.id and a.layer == b.layer
        assert a.values.tobytes() == b.values.tobytes()


def test_empty_stream_gives_empty_file(tmp_path):
    path = tmp_path / "e.jsonl"
    write_embeddings([], path)
    assert path.read_text() == ""
    assert list(read_embeddings(path)) == []


def test_known_ieee_encoding(tmp_path):
    path = tmp_path / "e.jsonl"
    write_embeddings([EmbeddingSequence(id="x", layer=0, values=np.array([[0.5]]))], path)
    rec = json.loads(path.read_text())
    assert base64.b64decode(rec["data"]) == bytes([0x00, 0x00, 0x00, 0x3F])


def test_scan_headers(tmp_path):
    path = tmp_path / "e.jsonl"
    write_embeddings(
        [EmbeddingSequence(id="x", layer=3, values=np.zeros((2, 5), dtype=np.float32))], path
    )
    assert scan_embedding_headers(path) == [("x", 3, 2, 5)]


def test_canonical_payloads_skip_the_strict_decoder(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    # n*m*4 bytes of 0, 1 and 2 mod 3: payloads with no, two and one pad
    seqs = [
        EmbeddingSequence(id=f"s{i}", layer=2, values=rng.standard_normal(shape).astype(np.float32))
        for i, shape in enumerate([(3, 6), (1, 1), (1, 5), (20, 768)])
    ]
    path = tmp_path / "e.jsonl"
    write_embeddings(seqs, path)
    calls = []
    b64decode = embed_io.base64.b64decode

    def recording_b64decode(*args, **kwargs):
        calls.append(args[0])
        return b64decode(*args, **kwargs)

    monkeypatch.setattr(embed_io.base64, "b64decode", recording_b64decode)
    back = list(read_embeddings(path))
    assert calls == []
    assert [b.values.tobytes() for b in back] == [s.values.tobytes() for s in seqs]
    assert all(not b.values.flags.writeable for b in back)

    recs = [json.loads(line) for line in path.read_text().splitlines()]
    recs[1]["data"] = recs[1]["data"].replace("=", "", 1)  # a pad too few
    path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    with pytest.raises(DataError, match=re.escape(f"{path}:2: ")):
        list(read_embeddings(path))
    # a payload the kernel declines reaches the strict decoder once, parsed by json.loads
    assert calls == [recs[1]["data"]]


def record_decoders(monkeypatch) -> tuple[list, list]:
    """Lists that record each payload the kernel and ``base64.b64decode`` are given."""
    kernel_args, b64_args = [], []
    kernel, b64decode = embed_io._decode_canonical, embed_io.base64.b64decode
    monkeypatch.setattr(
        embed_io, "_decode_canonical", lambda data, *a: kernel_args.append(data) or kernel(data, *a)
    )
    monkeypatch.setattr(
        embed_io.base64, "b64decode", lambda *a, **k: b64_args.append(a) or b64decode(*a, **k)
    )
    return kernel_args, b64_args


def test_canonical_lines_reach_the_kernel_as_views_and_scans_decode_nothing(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    seqs = [
        EmbeddingSequence(id=f"s{i}", layer=0, values=rng.standard_normal(shape).astype(np.float32))
        for i, shape in enumerate([(2, 3), (1, 1), (4, 2048)])
    ]
    path = tmp_path / "e.jsonl"
    write_embeddings(seqs, path)
    kernel_args, b64_args = record_decoders(monkeypatch)
    assert scan_embedding_headers(path) == [(s.id, 0, s.n, s.m) for s in seqs]
    assert kernel_args == [] and b64_args == []
    back = list(read_embeddings(path))
    assert [b.values.tobytes() for b in back] == [s.values.tobytes() for s in seqs]
    assert [type(a) for a in kernel_args] == [memoryview] * 3 and b64_args == []
    assert all(a.readonly for a in kernel_args)


def test_lines_with_non_ascii_ids_reach_the_kernel_as_views(tmp_path, monkeypatch):
    rng = np.random.default_rng(10)
    seqs = [
        EmbeddingSequence(id=id_, layer=0, values=rng.standard_normal(shape).astype(np.float32))
        for id_, shape in [("é…", (2, 3)), ("ein M\u00e4dchen", (1, 1)), ("\U0001f600", (4, 2048))]
    ]
    path = tmp_path / "e.jsonl"
    write_embeddings(seqs, path)
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text(
        "".join(json.dumps(rec, separators=(",", ":"), ensure_ascii=False) + "\n" for rec in recs),
        encoding="utf-8",
    )
    assert not path.read_bytes().isascii()
    kernel_args, b64_args = record_decoders(monkeypatch)
    assert scan_embedding_headers(path) == [(s.id, 0, s.n, s.m) for s in seqs]
    assert kernel_args == [] and b64_args == []
    back = list(read_embeddings(path))
    assert [(b.id, b.values.tobytes()) for b in back] == [(s.id, s.values.tobytes()) for s in seqs]
    assert [type(a) for a in kernel_args] == [memoryview] * 3 and b64_args == []
    assert all(a.readonly for a in kernel_args)


@pytest.mark.parametrize(
    "separators", [(", ", ": "), (",\t", " :\r")], ids=["json-dumps-default", "tab-and-cr"]
)
def test_spaced_canonical_lines_reach_the_kernel_as_views(tmp_path, monkeypatch, separators):
    rng = np.random.default_rng(9)
    seqs = [
        EmbeddingSequence(id=f"s{i}", layer=0, values=rng.standard_normal(shape).astype(np.float32))
        for i, shape in enumerate([(2, 3), (1, 1), (4, 2048)])
    ]
    path = tmp_path / "e.jsonl"
    write_embeddings(seqs, path)
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps(rec, separators=separators) + "\n" for rec in recs))
    kernel_args, b64_args = record_decoders(monkeypatch)
    back = list(read_embeddings(path))
    assert [b.values.tobytes() for b in back] == [s.values.tobytes() for s in seqs]
    assert [type(a) for a in kernel_args] == [memoryview] * 3 and b64_args == []
    assert all(a.readonly for a in kernel_args)


def test_sequence_rejects_nan_and_empty():
    with pytest.raises(ValueError):
        EmbeddingSequence(id="a", layer=0, values=np.array([[np.inf]]))
    with pytest.raises(ValueError):
        EmbeddingSequence(id="a", layer=0, values=np.zeros((0, 3)))
