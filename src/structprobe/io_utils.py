"""JSON Lines reading and atomic writing, shared by every file format."""

from __future__ import annotations

import contextlib
import json
import os
import re
from pathlib import Path
from typing import Callable, Iterator, TextIO, TypeVar

import numpy as np

from .errors import DataError

T = TypeVar("T")

# the ASCII bytes that str.isspace counts, so str.strip takes them off a line
_SPACE = frozenset(b" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f")
# the end of the part before a plain last string value: {"key":" or ,"key":"
# with JSON whitespace after the { or , and around the :, and no quote or
# backslash in the key
_LAST_KEY = re.compile(r'[{,][ \t\r]*"([^"\\]*)"[ \t\r]*:[ \t\r]*"\Z')


def _loads(line: bytes, payload: str | None = None) -> dict | None:
    """The record of one JSON Lines line: ``json.loads(line.strip())`` of its UTF-8 text.

    None for a blank line. ValueError for a line that is not UTF-8 or not
    JSON, TypeError for one that is not a JSON object. ``json.loads`` only
    ever sees a str, never bytes, which it would accept with a BOM or as
    UTF-16 or UTF-32.

    The slice rule: if the line, less the trailing ASCII whitespace that
    ``str.strip`` takes off, ends in ``"value"}``, the value holds no
    backslash and no byte outside 0x20–0x7F, and the part up to its opening
    quote at ``p`` is UTF-8 and ends in a plain ``{"key":"`` or ``,"key":"``
    (``_LAST_KEY``: JSON whitespace allowed after ``{`` or ``,`` and around
    ``:``, no quote or backslash in the key), then only the stub
    ``line[:p+1] + '"}'`` is decoded and parsed, and ``rec[key]`` is set to
    the sliced value: a read-only memoryview of the line under the key
    ``payload``, else a str.

    Why it is exact: a quote byte is never part of a multi-byte UTF-8
    character, so the stub ends on a character boundary, and with the ASCII
    value and tail the whole line is UTF-8 exactly when the stub is. The
    stub and the line agree up to and including the quote at ``p``. If that
    quote closes a string, the stub ends in an unterminated string and fails.
    If it opens one, both give the same tokens except that one string, which
    the final ``}`` makes the value of the outermost object's last member.
    Whitespace between tokens is no token, so the ``:`` before ``p`` is the
    member's colon and the quote before it, at ``q``, ends its key: had it
    opened a string, the string would have run on to ``p``. The key's opening
    quote is the last quote before ``q`` at ``k``, since the key holds none;
    ``{`` or ``,`` (and whitespace) before ``k`` means no backslash escapes
    it, so it cannot close an earlier string either. With no backslash in it
    the key decodes to the sliced ``key``, and the value (no quote, backslash
    or control character) to the sliced ``value``. A stub that parses thus
    gives the line's record, duplicate keys and key order included. Leading
    whitespace JSON does not allow makes the stub fail. Any other line, or a
    stub that fails to decode or parse, is decoded in full and goes through
    ``json.loads(line.strip())``, so errors are the same too.
    """
    end = len(line)
    while end and line[end - 1] in _SPACE:
        end -= 1
    if line.endswith(b'"}', 0, end):
        p = line.rfind(b'"', 0, end - 2)
        if line.find(b"\\", p + 1, end - 2) < 0 and (
            # one min: a byte of 0x80 or more reads as a negative int8
            end - p == 3 or np.frombuffer(line, np.int8, end - p - 3, p + 1).min() >= 0x20
        ):
            try:  # a UnicodeDecodeError is a ValueError too
                head = line[: p + 1].decode("utf-8")
                plain = _LAST_KEY.search(head)
                rec = None if plain is None else json.loads(head + '"}')
            except (ValueError, RecursionError):
                rec = None
            if rec is not None:
                key, value = plain[1], memoryview(line)[p + 1 : end - 2]
                rec[key] = value if key == payload else str(value, "ascii")
                return rec
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("not valid UTF-8") from None
    if text.isspace():
        return None
    rec = json.loads(text.strip())
    if not isinstance(rec, dict):
        raise TypeError("not a JSON object")
    return rec


def read_jsonl(
    path: str | Path, what: str, decode: Callable[[dict], T], payload: str | None = None
) -> Iterator[T]:
    """Lazily yield ``decode(rec)`` for each non-blank line of a JSON Lines file.

    Lines end at ``\\n`` only; a ``\\r`` before it is whitespace like any
    other. The file is read as bytes through a 1 MiB buffer, so memory is
    that buffer and one line. A line that is not UTF-8, not JSON or not an
    object, or on which ``decode`` raises KeyError, TypeError, ValueError,
    OverflowError or RecursionError, ends the read in one DataError that
    names ``path:line``.

    Each line gives what ``_loads`` gives, ``json.loads(line.strip())`` of its
    UTF-8 text: a UTF-8 line whose last member is a plain ``"key":"value"``
    string, such as an EMB-JSONL payload, is read without scanning that
    string, and the value of the member named ``payload`` is a memoryview of
    the line, not a str. ``_loads`` states the rule and why it is exact.
    """
    with open(path, "rb", buffering=1 << 20) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                rec = _loads(raw, payload)
                if rec is None:
                    continue
                item = decode(rec)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise DataError(f"{path}:{lineno}: bad {what} record: {exc}") from exc
            yield item


@contextlib.contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Stream text to a temp file beside ``path``; rename it over ``path`` on success."""
    path = Path(path)
    # a plain exclusive create keeps the umask's file mode (mkstemp gives 0600)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically."""
    with atomic_open(path) as fh:
        fh.write(text)
