"""Embedding sequences: container format and subword-to-word averaging.

The on-disk container (EMB-JSONL) is one JSON object per line with a
base64 payload of little-endian float32 values in row-major order:

    {"id": str, "layer": int, "n": int, "m": int,
     "dtype": "f32le", "data": "<base64 of n*m*4 bytes>"}

Values are stored in 32-bit floats; arithmetic on them is done in 64-bit.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError


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


def _decode_record(rec: object, where: str) -> EmbeddingSequence:
    if not isinstance(rec, dict):
        raise DataError(f"{where}: record is not a JSON object")
    seq_id = str(rec.get("id", "<missing id>"))
    try:
        layer = int(rec.get("layer", 0))
        n = int(rec["n"])
        m = int(rec["m"])
        dtype = rec["dtype"]
        payload = rec["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{where}: record {seq_id}: missing or bad field: {exc}") from exc
    if dtype != "f32le":
        raise DataError(f"{where}: record {seq_id}: unsupported dtype {dtype!r}")
    try:
        blob = base64.b64decode(payload, validate=True)
    except binascii.Error as exc:
        raise DataError(f"{where}: record {seq_id}: bad base64 payload: {exc}") from exc
    expect = n * m * 4
    if len(blob) != expect:
        raise DataError(
            f"{where}: record {seq_id}: payload is {len(blob)} bytes, expected {expect}"
        )
    values = np.frombuffer(blob, dtype="<f4").reshape(n, m)
    if not np.all(np.isfinite(values)):
        raise DataError(f"{where}: record {seq_id}: non-finite values in payload")
    return EmbeddingSequence(id=seq_id, layer=layer, values=values)


def read_embeddings(path: str | Path) -> Iterator[EmbeddingSequence]:
    """Lazily yield embedding sequences from an EMB-JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            yield _decode_record(rec, f"{path}:{lineno}")


def write_embeddings(seqs: Iterable[EmbeddingSequence], path: str | Path) -> None:
    """Write sequences as EMB-JSONL (row-major little-endian float32)."""
    with open(path, "w", encoding="utf-8") as fh:
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
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                out.append(
                    (str(rec["id"]), int(rec.get("layer", 0)), int(rec["n"]), int(rec["m"]))
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: bad embedding header: {exc}") from exc
    return out
