"""Embedding sequences: the container format.

The on-disk container (EMB-JSONL) is one JSON object per line with a
base64 payload of little-endian float32 values in row-major order:

    {"id": str, "layer": int, "n": int, "m": int,
     "dtype": "f32le", "data": "<base64 of n*m*4 bytes>"}

``id`` is a JSON string or integer (``io_utils.record_id``); ``layer``,
``n`` and ``m`` are JSON integers; ``layer`` defaults to 0 and
``n`` and ``m`` are at least 1. Header scans and decodes apply one rule
(``_header``). Values are stored in 32-bit floats; arithmetic on them is
done in 64-bit.

A canonical payload, the strict base64 text of exactly ``n*m*4`` bytes, is
decoded by a vectorised kernel (``_decode_canonical``); any other payload
goes through ``base64.b64decode(validate=True)`` and the length check, so
errors are those of the strict decoder. Decoded values are read-only.

One rule slices a payload out of its line, so that neither reader parses it
as JSON. ``_payload`` finds a payload that ends its line, as
``write_embeddings`` writes it, and parses only the header before it; the
line's record is then that header's with the payload as ``data``, once the
payload is shown to hold no quote, backslash, control or non-ASCII byte.
``read_embeddings`` shows that by the base64 kernel accepting the payload,
read in place from the mapped file (``_read_canonical``), and
``scan_embedding_headers`` by a byte range check and a backslash search
(``_scan_header``). Any line a hook declines goes through
``io_utils._loads`` and ``_decode`` or ``_header`` and gives the same
sequence, header or error.
"""

from __future__ import annotations

import base64
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .io_utils import atomic_open, read_jsonl, record_id


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


class EmbeddingHeader(NamedTuple):
    """One record's header; equal to the plain tuple ``(id, layer, n, m)``."""

    id: str
    layer: int
    n: int
    m: int


def _header(rec: dict) -> EmbeddingHeader:
    """The header of a record; the rule both scan and decode apply."""
    seq_id = record_id(rec["id"])
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


# the ASCII bytes that str.strip takes off the end of a line
_SPACE = frozenset(b" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f")
# the payload's key and the quote that opens its value: {"data":" or
# ,"data":" with JSON whitespace after the { or , and around the :
_DATA_KEY = re.compile(rb'[{,][ \t\r]*"data"[ \t\r]*:[ \t\r]*"')
# how far into a line _payload looks for the payload: past the header that
# write_embeddings writes before it, for an id of up to about 950 bytes
_HEAD_MAX = 1024


def _payload(buf, start: int, stop: int) -> tuple[EmbeddingHeader, int, int] | None:
    """The header of the line ``buf[start:stop]`` and the span ``(a, b)`` of its payload, else None.

    The line, less the trailing ASCII whitespace that ``str.strip`` takes
    off (so a CRLF line too), must end in ``"}``, whose quote is at ``b``.
    The payload's opening quote ``p = a - 1`` ends the first ``_DATA_KEY``,
    ``{"data":"`` or ``,"data":"`` with JSON whitespace allowed, in the
    line's first ``_HEAD_MAX`` bytes. The stub ``buf[start:p+1] + '"}'``
    must be UTF-8 and parse, and ``_header`` must accept its record (whose
    ``data`` is ``""``). Never raises.

    Why the slice is exact once a hook has shown that ``buf[a:b]`` holds no
    quote, backslash, control or non-ASCII byte: a quote byte is never part
    of a multi-byte UTF-8 character, so with the ASCII payload and tail the
    line is UTF-8 exactly when the stub is, and ``p`` is the last quote
    before ``b``. The stub and the line agree up to and including ``p``. Had
    ``p`` closed a string, the stub would end in an unterminated string and
    fail; so it opens one, and both give the same tokens but that string,
    which the final ``}`` makes the value of the outermost object's last
    member. Whitespace is no token, so the ``:`` before ``p`` is that
    member's colon and ``"data"`` its key: the quote before ``data`` follows
    ``{`` or ``,`` and whitespace, so no backslash escapes it. The payload,
    free of escapes, decodes to its own bytes. So the line's record is the
    stub's with ``data`` set to the payload, duplicate keys included (the
    last member wins in both), and gives the same header; ``str.strip`` and
    ``json.loads`` drop the same leading whitespace or reject the stub. Any
    line that fails a step is left to ``_loads``, so errors are the same
    too.
    """
    end = stop
    while end > start and buf[end - 1] in _SPACE:
        end -= 1
    if end - start < 2 or buf[end - 2 : end] != b'"}':
        return None
    key = _DATA_KEY.search(buf, start, min(end - 2, start + _HEAD_MAX))
    if key is None:
        return None
    a = key.end()
    try:  # a UnicodeDecodeError is a ValueError too
        return _header(json.loads(buf[start:a].decode("utf-8") + '"}')), a, end - 2
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
        return None


def _read_canonical(buf, start: int, stop: int) -> EmbeddingSequence | None:
    """The sequence of the line ``buf[start:stop]`` if its payload is canonical, else None.

    The kernel accepting the payload proves the slice (``_payload``): all
    it accepts is base64 alphabet and ``=``. The payload is read in place,
    as a read-only view of the mapped file or of the line. So ``_decode``
    would give this sequence, read-only values included, and the same
    error for non-finite values.
    """
    found = _payload(buf, start, stop)
    if found is None:
        return None
    (seq_id, layer, n, m), a, b = found
    values = _decode_canonical(memoryview(buf)[a:b], n, m)
    return None if values is None else EmbeddingSequence(id=seq_id, layer=layer, values=values)


def _scan_header(buf, start: int, stop: int) -> EmbeddingHeader | None:
    """The line's header if ``_payload`` finds its payload and the slice holds, else None.

    Two scans prove the slice (``_payload``): every payload byte is in
    0x2B–0x7F, which leaves out quote, control and non-ASCII bytes, and
    none is a backslash.
    """
    found = _payload(buf, start, stop)
    if found is None:
        return None
    header, a, b = found
    # one min: a byte of 0x80 or more reads as a negative int8
    if a < b and (np.frombuffer(buf, np.int8, b - a, a).min() < 0x2B or buf.find(b"\\", a, b) >= 0):
        return None
    return header


def read_embeddings(path: str | Path) -> Iterator[EmbeddingSequence]:
    """Lazily yield embedding sequences from an EMB-JSONL file.

    A line whose canonical payload ends it, as ``write_embeddings`` writes
    it, is read by ``_read_canonical``, which scans the payload only in the
    base64 kernel; any other line goes through ``_loads`` and ``_decode`` and
    gives the same sequence or the same error.
    """
    return read_jsonl(path, "embedding", _decode, fast=_read_canonical)


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
    """The header of each record, without decoding the payloads.

    A line whose payload ends it is read by ``_scan_header``, which parses
    only the header; any other line goes through ``_loads`` and ``_header``
    and gives the same header or the same error.
    """
    return list(read_jsonl(path, "embedding", _header, fast=_scan_header))
