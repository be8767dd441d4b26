"""Property: the EMB-JSONL payload kernel agrees with the strict base64 decoder.

``embed_io._decode`` decodes a canonical payload with a vectorised kernel and
sends any other payload to ``base64.b64decode(validate=True)``. The reference
is that fallback alone: strict base64, the payload length check, then
``np.frombuffer``. Payloads are drawn for random shapes and damaged in the
ways that must leave the kernel: characters outside the alphabet or ASCII,
``\\n``, ``=`` in the middle, a pad too few or too many, lengths off by 1 to
4, and data that is not a string. Non-zero bits before the pads are drawn
too; both decoders drop them. The kernel must give the same on a memoryview of
a payload's bytes, the form in which ``read_jsonl`` hands over an ASCII line's
payload, as on the str.
"""

from __future__ import annotations

import base64
import string

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structprobe import embed_io
from structprobe.embed_io import EmbeddingSequence, _decode, _header

B64 = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
# characters a mutation writes over another or inserts
CHARS = (
    st.sampled_from(list(B64))
    | st.sampled_from(["=", "\n", " ", "-", "_", "@", "*", "\x00", "\x7f", ".", "\\"])
    | st.sampled_from(["é", " ", "\udc80", "\U0001f600", "\xff"])
)


def reference(rec: dict) -> EmbeddingSequence:
    """``_decode`` without the kernel: strict base64, length check, frombuffer."""
    seq_id, layer, n, m = _header(rec)
    blob = base64.b64decode(rec["data"], validate=True)
    if len(blob) != n * m * 4:
        raise ValueError(
            f"sequence {seq_id}: payload is {len(blob)} bytes, expected {n * m * 4}"
        )
    values = np.frombuffer(blob, dtype="<f4").reshape(n, m)
    return EmbeddingSequence(id=seq_id, layer=layer, values=values)


def outcome(decode, rec: dict):
    """Value bytes, dtype, shape and writeable flag, or the error's type and message."""
    try:
        seq = decode(rec)
    except Exception as exc:  # the reference's exception, whatever it is, must be matched
        return "error", type(exc), str(exc)
    v = seq.values
    return "values", v.tobytes(), v.dtype.str, v.shape, v.flags.writeable


def kernel_outcome(data, n: int, m: int):
    values = embed_io._decode_canonical(data, n, m)
    return None if values is None else (
        values.tobytes(), values.dtype.str, values.shape, values.flags.writeable
    )


def assert_view_decodes_as_str(data, n: int, m: int) -> None:
    if isinstance(data, str):
        view = memoryview(data.encode("utf-8", "surrogateescape"))
        assert kernel_outcome(view, n, m) == kernel_outcome(data, n, m)


def record(n: int, m: int, data) -> dict:
    return {"id": "s", "layer": 3, "n": n, "m": m, "dtype": "f32le", "data": data}


@st.composite
def payloads(draw):
    """(n, m, data, damaged): a canonical payload of a drawn shape, maybe damaged."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    size = n * m * 4
    # mostly the header's size; sometimes a few bytes more or fewer
    size += draw(st.sampled_from([0] * 6 + [-3, -2, -1, 1, 2, 3]))
    # finite float32 values, so the reference accepts the undamaged payload
    values = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           min_size=size // 4 + 1, max_size=size // 4 + 1))
    raw = np.array(values, dtype="<f4").tobytes()[:size]
    data = base64.b64encode(raw).decode("ascii")
    damaged = size != n * m * 4
    pads = len(data) - len(data.rstrip("="))
    kind = draw(st.sampled_from(
        ["none", "none", "overwrite", "insert", "pad", "length", "trailing", "not-str"]
    ))
    if kind == "overwrite" and data:
        i = draw(st.integers(0, len(data) - 1))
        c = draw(CHARS)
        damaged |= c != data[i]
        data = data[:i] + c + data[i + 1 :]
    elif kind == "insert":
        i = draw(st.integers(0, len(data)))
        data = data[:i] + draw(CHARS) + data[i:]
        damaged = True
    elif kind == "pad":
        data = data[:-1] if pads and draw(st.booleans()) else data + "="
        damaged = True
    elif kind == "length":
        k = draw(st.integers(1, 4))
        data = data[:-k] if draw(st.booleans()) else data + draw(
            st.text(alphabet=B64 + "=", min_size=k, max_size=k)
        )
        damaged = True
    elif kind == "trailing" and pads:
        # the last data character's unused low bits: strict base64 ignores them
        i = len(data) - pads - 1
        data = data[:i] + draw(st.sampled_from(list(B64))) + data[i + 1 :]
    elif kind == "not-str":
        data = draw(st.sampled_from([data.encode("ascii"), None, 7, [data], bytearray(b"AAAA")]))
        damaged = True
    return n, m, data, damaged


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payloads())
def test_decode_matches_strict_base64_reference(case):
    n, m, data, damaged = case
    rec = record(n, m, data)
    assert outcome(_decode, rec) == outcome(reference, rec)
    assert_view_decodes_as_str(data, n, m)
    if not damaged:
        # an undamaged payload is canonical: the kernel, not the fallback, decodes it
        assert embed_io._decode_canonical(data, n, m) is not None


@pytest.mark.parametrize(
    "n, m, data",
    [
        (1, 1, "AACAPw=="),  # 1.0f, two pads
        (1, 1, "AACAPx=="),  # non-zero bits before the pads
        (1, 1, "AACAPw="),
        (1, 1, "AACAPw==="),
        (1, 1, "AACAPw"),
        (1, 1, "AACA=w=="),
        (1, 1, "=AACAPw="),
        (1, 1, "AACAPw==\n"),
        (1, 1, "AACAPé=="),
        (1, 1, "AACAPw==AAAA"),
        (1, 2, "AACAPwAAAEA="),  # 1.0f, 2.0f: one pad
        (1, 2, "AACAPwAAAEB="),
        (1, 2, "AACAPwAAAE=="),
        (1, 2, "AACAPwAAAEAA"),
        (1, 3, "AACAPwAAAEAAAEBA"),  # 1.0f, 2.0f, 3.0f: no pad
        (1, 3, "AACAPwAAAEAAAEB="),
        (1, 3, "AACAPwAAAEAAAEBA===="),
        (1, 1, "AACAfw=="),  # +inf: EmbeddingSequence rejects it
        (1, 1, "AADAfw=="),  # NaN
        (1, 1, b"AACAPw=="),
        (1, 1, None),
        (4, 4, ""),
    ],
)
def test_decode_matches_reference_on_hand_picked_payloads(n, m, data):
    rec = record(n, m, data)
    assert outcome(_decode, rec) == outcome(reference, rec)
    assert_view_decodes_as_str(data, n, m)

