"""Property: a randomly damaged JSON Lines file is read or rejected with a DataError."""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structprobe.embed_io import EmbeddingSequence, read_embeddings, scan_embedding_headers, write_embeddings
from structprobe.errors import DataError
from structprobe.scenetree import read_grounding
from structprobe.synth import random_tree
from structprobe.trees import read_labels, tree_labels, write_labels

CAPTION = {
    "image_id": "i1",
    "sentence_id": "s1",
    "tokens": ["a", "man"],
    "phrases": [{"phrase_id": "p1", "start": 0, "end": 2, "region_ids": ["r1"]}],
}


def _valid_files() -> dict:
    rng = np.random.default_rng(5)
    labels = [tree_labels(random_tree(int(rng.integers(1, 6)), rng), f"s{i}") for i in range(3)]
    seqs = [
        EmbeddingSequence(id=f"s{i}", layer=i, values=rng.standard_normal((2, 3)).astype(np.float32))
        for i in range(3)
    ]
    captions = [CAPTION, dict(CAPTION, sentence_id="s2", phrases=[])]
    with tempfile.TemporaryDirectory() as tmp:
        write_labels(labels, Path(tmp) / "labels")
        write_embeddings(seqs, Path(tmp) / "emb")
        files = {name: (Path(tmp) / name).read_bytes() for name in ("labels", "emb")}
    files["grounding"] = "".join(json.dumps(c) + "\n" for c in captions).encode()
    return files


VALID = _valid_files()
READERS = {
    "labels": [read_labels],
    "emb": [read_embeddings, scan_embedding_headers],
    "grounding": [read_grounding],
}
# bytes that break UTF-8 or JSON structure, besides any byte at all
BYTES = st.sampled_from(b'\xff\x80\xc3\x00[{"\n') | st.integers(0, 255)


@st.composite
def mutated(draw):
    kind = draw(st.sampled_from(sorted(VALID)))
    data = bytearray(VALID[kind])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "insert", "truncate", "non-object", "overflow"]))
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        byte = draw(BYTES)
        if op == "flip" and data:
            data[pos] = byte
        elif op == "insert":
            data[pos:pos] = bytes([byte])
        elif op == "truncate":
            del data[pos:]
        elif op == "non-object":
            lines = bytes(data).split(b"\n")
            lines[pos % len(lines)] = draw(st.sampled_from([b"[1, 2]", b'"text"', b"7", b"null"]))
            data = bytearray(b"\n".join(lines))
        elif op == "overflow":
            numbers = list(re.finditer(rb"-?\d+(\.\d+)?", bytes(data)))
            if numbers:
                hit = numbers[pos % len(numbers)]
                data[hit.start() : hit.end()] = draw(st.sampled_from([b"1e999", b"-1e999", b"1" * 40]))
    return kind, bytes(data)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_files_raise_only_data_error(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.jsonl"
        path.write_bytes(data)
        for reader in READERS[kind]:
            try:
                list(reader(path))
            except DataError as exc:
                assert re.match(re.escape(f"{path}:") + r"\d+: bad ", str(exc))
