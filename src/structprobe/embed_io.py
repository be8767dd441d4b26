"""Embedding sequences: container format and subword-to-word averaging.

The on-disk container (EMB-JSONL) is one JSON object per line with a
base64 payload of little-endian float32 values in row-major order:

    {"id": str, "layer": int, "n": int, "m": int,
     "dtype": "f32le", "data": "<base64 of n*m*4 bytes>"}

``layer``, ``n`` and ``m`` are JSON integers; ``layer`` defaults to 0 and
``n`` and ``m`` are at least 1. Header scans and decodes apply one rule.
Values are stored in 32-bit floats; arithmetic on them is done in 64-bit.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .io_utils import atomic_open, read_jsonl


@dataclass(frozen=True, eq=False)
class EmbeddingSequence:
    """One sequence of node embeddings from a single model layer."""

    id: str
    layer: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float32)
        if arr.ndim != 2:
            raise ValueError(f"sequence {self.id}: values must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"sequence {self.id}: empty shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"sequence {self.id}: non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def m(self) -> int:
        return int(self.values.shape[1])


@dataclass(frozen=True)
class AlignmentMap:
    """Ordered subword index groups, one group per word."""

    id: str
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        object.__setattr__(self, "groups", groups)
        for g in groups:
            if not g:
                raise ValueError(f"alignment {self.id}: empty group")
            if list(g) != sorted(g):
                raise ValueError(f"alignment {self.id}: group indices not ascending")


def align_wordpieces(seq: EmbeddingSequence, amap: AlignmentMap) -> EmbeddingSequence:
    """Average each group of subword rows into one word row.

    The groups must partition the sequence's rows exactly.
    """
    flat = sorted(i for g in amap.groups for i in g)
    if flat != list(range(seq.n)):
        raise ValueError(
            f"sequence {seq.id}: alignment groups do not partition {seq.n} rows"
        )
    rows = np.vstack(
        [seq.values[list(g)].mean(axis=0, dtype=np.float64) for g in amap.groups]
    )
    return EmbeddingSequence(id=seq.id, layer=seq.layer, values=rows.astype(np.float32))


def _header(rec: dict) -> tuple[str, int, int, int]:
    """(id, layer, n, m) of a record; the rule both scan and decode apply."""
    seq_id = str(rec["id"])
    layer, n, m = rec.get("layer", 0), rec["n"], rec["m"]
    for key, value in (("layer", layer), ("n", n), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"sequence {seq_id}: {key} {value!r} is not an integer")
    if rec["dtype"] != "f32le":
        raise ValueError(f"sequence {seq_id}: unsupported dtype {rec['dtype']!r}")
    if n < 1 or m < 1:
        raise ValueError(f"sequence {seq_id}: n={n} and m={m} must both be at least 1")
    return seq_id, layer, n, m


def _decode(rec: dict) -> EmbeddingSequence:
    seq_id, layer, n, m = _header(rec)
    blob = base64.b64decode(rec["data"], validate=True)
    if len(blob) != n * m * 4:
        raise ValueError(f"sequence {seq_id}: payload is {len(blob)} bytes, expected {n * m * 4}")
    values = np.frombuffer(blob, dtype="<f4").reshape(n, m)
    return EmbeddingSequence(id=seq_id, layer=layer, values=values)


def read_embeddings(path: str | Path) -> Iterator[EmbeddingSequence]:
    """Lazily yield embedding sequences from an EMB-JSONL file."""
    return read_jsonl(path, "embedding", _decode)


def write_embeddings(seqs: Iterable[EmbeddingSequence], path: str | Path) -> None:
    """Atomically write sequences as EMB-JSONL (row-major little-endian float32)."""
    with atomic_open(path) as fh:
        for seq in seqs:
            blob = np.ascontiguousarray(seq.values, dtype="<f4").tobytes()
            rec = {
                "id": seq.id,
                "layer": seq.layer,
                "n": seq.n,
                "m": seq.m,
                "dtype": "f32le",
                "data": base64.b64encode(blob).decode("ascii"),
            }
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def scan_embedding_headers(path: str | Path) -> list[tuple[str, int, int, int]]:
    """(id, layer, n, m) per record, without decoding the payloads."""
    return list(read_jsonl(path, "embedding", _header))
