"""Embedding sequences: container format and subword-to-word averaging.

The on-disk container (EMB-JSONL) is one JSON object per line with a
base64 payload of little-endian float32 values in row-major order:

    {"id": str, "layer": int, "n": int, "m": int,
     "dtype": "f32le", "data": "<base64 of n*m*4 bytes>"}

``layer``, ``n`` and ``m`` are JSON integers; ``layer`` defaults to 0 and
``n`` and ``m`` are at least 1. Header scans and decodes apply one rule.
Values are stored in 32-bit floats; arithmetic on them is done in 64-bit.

A canonical payload, the strict base64 text of exactly ``n*m*4`` bytes, is
decoded by a vectorised kernel (``_decode_canonical``); any other payload
goes through ``base64.b64decode(validate=True)`` and the length check, so
errors are those of the strict decoder. Decoded values are read-only. The
readers name ``data`` as ``read_jsonl``'s payload member, so a payload that
ends its line, as ``write_embeddings`` writes it, arrives as a read-only
memoryview of the mapped file (of the line, for a pipe) and is never copied
into a str.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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


class EmbeddingHeader(NamedTuple):
    """One record's header; equal to the plain tuple ``(id, layer, n, m)``."""

    id: str
    layer: int
    n: int
    m: int


def _header(rec: dict) -> EmbeddingHeader:
    """The header of a record; the rule both scan and decode apply."""
    seq_id = str(rec["id"])
    layer, n, m = rec.get("layer", 0), rec["n"], rec["m"]
    for key, value in (("layer", layer), ("n", n), ("m", m)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"sequence {seq_id}: {key} {value!r} is not an integer")
    if rec["dtype"] != "f32le":
        raise ValueError(f"sequence {seq_id}: unsupported dtype {rec['dtype']!r}")
    if n < 1 or m < 1:
        raise ValueError(f"sequence {seq_id}: n={n} and m={m} must both be at least 1")
    return EmbeddingHeader(seq_id, layer, n, m)


_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _pair_table() -> np.ndarray:
    """The 12 bits of each pair of base64 characters, indexed by the pair read as ``<u2``.

    Entry ``c0 | c1 << 8`` (``c0`` the first character) is
    ``sextet(c0) << 6 | sextet(c1)``. An entry above 0xFFF marks a pair with
    a character outside the alphabet, ``=`` included: such a character's
    sextet is 0xFFFF, which sets the top four bits either way.
    """
    sextet = np.full(256, 0xFFFF, dtype="<u2")
    sextet[np.frombuffer(_ALPHABET, dtype=np.uint8)] = np.arange(64)
    table = sextet[None, :] << 6 | sextet[:, None]  # row c1, column c0
    return table.astype("<u2", copy=False).reshape(-1)


_PAIRS = _pair_table()


def _decode_canonical(data, n: int, m: int) -> np.ndarray | None:
    """The read-only ``(n, m)`` values of canonical base64 ``data``, else None.

    Canonical means a str, or a contiguous memoryview of bytes, of
    ``4*ceil(B/3)`` ASCII characters, ``B = n*m*4``, whose last ``(-B) % 3``
    are ``=`` and all others in the alphabet. A string that strict
    ``a2b_base64`` decodes to ``B`` bytes has exactly that form, and on it the
    kernel gives the same bytes: both drop the unused bits before a pad. So
    None, for any other payload, loses nothing but speed, and no buffer sized
    from the header is made before the length matches.

    A memoryview is read in place; only its last 4-character group, where the
    pads are, is copied. The bytes come from wide integer operations on one
    table lookup per character pair (Muła and Lemire, 2018). Every view and
    buffer has an explicit little-endian dtype, so the result is the same on a
    big-endian host.
    """
    size = n * m * 4
    chars = 4 * -(-size // 3)
    pads = -size % 3
    if isinstance(data, str):
        if len(data) != chars or not data.isascii():
            return None
        data = data.encode("ascii")
    elif not (isinstance(data, memoryview) and data.c_contiguous and data.nbytes == chars):
        return None
    text = np.frombuffer(data, dtype=np.uint8)
    last = bytearray(text[-4:])
    if not last.endswith(b"=" * pads):
        return None
    last[4 - pads :] = b"A" * pads  # zero bits, in bytes sliced off below
    # a <u2 index is below len(_PAIRS) == 65536, so clipping never moves one
    pairs = np.empty(chars // 2, dtype="<u2")
    _PAIRS.take(text[:-4].view("<u2"), out=pairs[:-2], mode="clip")
    _PAIRS.take(np.frombuffer(last, dtype="<u2"), out=pairs[-2:], mode="clip")
    if pairs.max() > 0xFFF:
        return None
    # one 4-character group per word: first pair in bits 0..11, second in 16..27
    groups = pairs.view("<u4")
    word = np.left_shift(groups, 12, out=np.empty_like(groups))
    groups >>= 16
    word |= groups  # the group's 3 bytes, first in bits 16..23
    word_bytes = word.view(np.uint8).reshape(-1, 4)
    out = np.empty((len(word), 3), dtype=np.uint8)
    for j in range(3):  # column by column: a 2-D slice copies one 3-byte row at a time
        out[:, j] = word_bytes[:, 2 - j]
    values = out.reshape(-1)[:size].view("<f4").reshape(n, m)
    values.flags.writeable = False
    return values


def _decode(rec: dict) -> EmbeddingSequence:
    seq_id, layer, n, m = _header(rec)
    values = _decode_canonical(rec["data"], n, m)
    if values is None:
        blob = base64.b64decode(rec["data"], validate=True)
        if len(blob) != n * m * 4:
            raise ValueError(
                f"sequence {seq_id}: payload is {len(blob)} bytes, expected {n * m * 4}"
            )
        values = np.frombuffer(blob, dtype="<f4").reshape(n, m)
    return EmbeddingSequence(id=seq_id, layer=layer, values=values)


def read_embeddings(path: str | Path) -> Iterator[EmbeddingSequence]:
    """Lazily yield embedding sequences from an EMB-JSONL file."""
    return read_jsonl(path, "embedding", _decode, payload="data")


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


def scan_embedding_headers(path: str | Path) -> list[EmbeddingHeader]:
    """The header of each record, without decoding the payloads."""
    return list(read_jsonl(path, "embedding", _header, payload="data"))
