"""The shared JSON Lines reader and atomic writer, through every reader of the package."""

from __future__ import annotations

import json
import mmap
import re
import stat

import numpy as np
import pytest

from structprobe import embed_io, io_utils
from structprobe.embed_io import EmbeddingSequence, read_embeddings, scan_embedding_headers, write_embeddings
from structprobe.errors import DataError
from structprobe.io_utils import atomic_write_text
from structprobe.scenetree import read_grounding
from structprobe.trees import read_labels

LABELS = '{"id":"a","n":2,"depths":[0,1],"distances":[[0,1],[1,0]],"root":0}'
EMB = {"id": "x", "layer": 3, "n": 1, "m": 2, "dtype": "f32le", "data": "AACAPwAAAEA="}
CAPTION = {
    "image_id": "i1",
    "sentence_id": "s1",
    "tokens": ["a", "man"],
    "phrases": [{"phrase_id": "p1", "start": 0, "end": 2, "region_ids": ["r1"]}],
}


def read_all(reader, path):
    return list(reader(path))


def emb_line(**changes) -> str:
    rec = {k: v for k, v in dict(EMB, **changes).items() if v is not None}
    return json.dumps(rec)


EMB_READERS = [read_embeddings, scan_embedding_headers]

# (reader, bad second line); every case raised something other than DataError,
# or was read with its numbers truncated or negative, before
BAD_SECOND_LINE = [
    (read_labels, LABELS.replace('"depths":[0,1]', '"depths":[0,1e999]')),
    (read_labels, LABELS.replace('"depths":[0,1]', '"depths":[0,1.7]')),
    (read_labels, LABELS.replace('"distances":[[0,1],[1,0]]', '"distances":[[0,1.2],[1.9,0]]')),
    (read_labels, LABELS.replace('"depths":[0,1]', f'"depths":[0,{10**30}]')),
    (read_labels, LABELS.replace('"depths":[0,1]', '"depths":' + "[" * 100_000 + "]" * 100_000)),
    (read_labels, LABELS.replace('"root":0', '"root":1.5')),
    (read_labels, LABELS.replace('"depths":[0,1]', '"depths":0')),
    (read_labels, '{"id":"a","n":2,"depths":[0,-3],"distances":[[0,-5],[-5,0]],"root":0}'),
    (read_labels, LABELS.replace('"depths":[0,1]', '"depths":[0,-1]')),
    (read_labels, LABELS.replace('"distances":[[0,1],[1,0]]', '"distances":[[0,-1],[-1,0]]')),
    (read_grounding, json.dumps(CAPTION).replace('"end": 2', '"end": 1e999')),
    *[(reader, emb_line(layer=0).replace('"layer": 0', '"layer": 1e999')) for reader in EMB_READERS],
    (read_embeddings, emb_line(id=None)),
    *[(reader, emb_line(dtype="f64")) for reader in EMB_READERS],
    *[(reader, emb_line(n=-1, m=-1, data="AACAPw==")) for reader in EMB_READERS],
    *[(reader, emb_line(n=1.9)) for reader in EMB_READERS],
    *[(reader, emb_line(n=True)) for reader in EMB_READERS],
    *[(reader, emb_line(layer="7")) for reader in EMB_READERS],
]
GOOD_LINE = {read_labels: LABELS, read_grounding: json.dumps(CAPTION)}


@pytest.mark.parametrize(
    "reader, bad",
    BAD_SECOND_LINE,
    ids=[
        "labels-1e999", "labels-depth-1.7", "labels-distance-1.2",
        "labels-10**30", "labels-nested", "labels-root-1.5", "labels-scalar-depths",
        "labels-negative", "labels-negative-depth", "labels-negative-distance",
        "grounding-end-1e999",
        "emb-layer-1e999", "scan-layer-1e999", "emb-no-id",
        "emb-f64", "scan-f64", "emb-negative-shape", "scan-negative-shape",
        "emb-n-1.9", "scan-n-1.9", "emb-n-true", "scan-n-true", "emb-layer-str", "scan-layer-str",
    ],
)
def test_bad_record_is_data_error_at_its_line(tmp_path, reader, bad):
    path = tmp_path / "f.jsonl"
    path.write_text(GOOD_LINE.get(reader, emb_line()) + "\n" + bad + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: bad ")):
        read_all(reader, path)


@pytest.mark.parametrize("reader", [read_labels, read_grounding, *EMB_READERS])
def test_non_utf8_byte_names_its_line(tmp_path, reader):
    good = GOOD_LINE.get(reader, emb_line())
    path = tmp_path / "f.jsonl"
    # enough good lines that the bad byte lies beyond the first decoded chunk
    text = (good + "\n") * 500 + "\n"
    path.write_bytes(text.encode() + b'{"id": "\xff"}\n' + (good + "\n").encode())
    with pytest.raises(DataError, match=re.escape(f"{path}:502: ") + ".*not valid UTF-8"):
        read_all(reader, path)


def test_non_ascii_utf8_is_read(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text(json.dumps(dict(CAPTION, tokens=["ein", "Mädchen"]), ensure_ascii=False) + "\n")
    (cap,) = read_grounding(path)
    assert cap.tokens == ("ein", "Mädchen")


def test_atomic_writes_keep_the_default_file_mode(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("x")
    atomic = tmp_path / "atomic"
    atomic_write_text(atomic, "x")
    assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


@pytest.mark.parametrize(
    "reader, what, text",
    [
        (read_labels, "labels", LABELS),
        (read_embeddings, "embedding", json.dumps(EMB, separators=(",", ":"))),
    ],
    ids=["labels", "emb"],
)
def test_a_line_starting_with_a_utf8_bom_is_a_data_error(tmp_path, reader, what, text):
    path = tmp_path / "f.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("ascii") + b"\n")
    msg = f"{path}:1: bad {what} record: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"
    with pytest.raises(DataError) as info:
        read_all(reader, path)
    assert str(info.value) == msg


def test_emb_payloads_are_not_json_scanned(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    seqs = [
        EmbeddingSequence(id=f"s{i}", layer=1, values=rng.standard_normal((4, 48)).astype(np.float32))
        for i in range(3)
    ]
    path = tmp_path / "e.jsonl"
    write_embeddings(seqs, path)
    payload_chars = 4 * 48 * 4 * 4 // 3
    parsed = []
    loads = io_utils.json.loads

    def recording_loads(text, *args, **kwargs):
        parsed.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(io_utils.json, "loads", recording_loads)
    back = list(read_embeddings(path))
    assert scan_embedding_headers(path) == [(s.id, 1, 4, 48) for s in seqs]
    assert [b.values.tobytes() for b in back] == [s.values.tobytes() for s in seqs]
    assert len(parsed) == 6 and max(parsed) < payload_chars


@pytest.mark.skipif(not io_utils._MAP, reason="files are mapped from Python 3.11 on")
def test_emb_payloads_reach_decode_as_views_of_one_mapping(tmp_path, monkeypatch):
    seqs = [EmbeddingSequence(id=f"s{i}", layer=1, values=np.full((2, 8), i, np.float32)) for i in range(3)]
    path = tmp_path / "e.jsonl"
    write_embeddings(seqs, path)
    payloads = []
    decode = embed_io._decode
    monkeypatch.setattr(embed_io, "_decode", lambda rec: payloads.append(rec["data"]) or decode(rec))
    back = list(read_embeddings(path))
    assert [b.values.tobytes() for b in back] == [s.values.tobytes() for s in seqs]
    assert len(payloads) == 3
    assert all(type(data) is memoryview and data.readonly for data in payloads)
    assert type(payloads[0].obj) is mmap.mmap
    assert all(data.obj is payloads[0].obj for data in payloads)
