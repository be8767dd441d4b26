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

# a byte that is not UTF-8 is read as a lone surrogate, so its line is known
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
# the ASCII bytes that str.isspace counts, so str.strip takes them off a line
_SPACE = frozenset(b" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f")


def _last_key(head: str) -> str | None:
    """The key before the value string whose opening quote ends ``head``, if plain.

    Plain: ``head`` ends in ``{"key":"`` or ``,"key":"`` with JSON whitespace
    (space, tab, CR) allowed after the ``{`` or ``,`` and around the ``:``,
    and the key holds no quote or backslash. Else None.
    """
    rest = head[:-1].rstrip(" \t\r")
    if not rest.endswith(":"):
        return None
    rest = rest[:-1].rstrip(" \t\r")
    k = rest.rfind('"', 0, len(rest) - 1)
    if k < 1 or not rest.endswith('"') or not rest[:k].rstrip(" \t\r").endswith(("{", ",")):
        return None
    key = rest[k + 1 : -1]
    return None if "\\" in key else key


def _loads(line: str):
    """``json.loads(line.strip())``, without scanning a plain last string member.

    The slice rule: if the stripped line ends in ``"value"}``, the value is
    ASCII with no backslash and no character below 0x20, and the part up to
    its opening quote at ``p`` ends in a plain ``{"key":"`` or ``,"key":"``
    (``_last_key``: JSON whitespace allowed after ``{`` or ``,`` and around
    ``:``, no backslash in the key), then only the stub
    ``line[:p+1] + '"}'`` is parsed and ``rec[key] = value`` is set.

    Why it is exact: the stub and the line agree up to and including the
    quote at ``p``. If that quote closes a string, the stub ends in an
    unterminated string and fails. If it opens one, both give the same tokens
    except that one string, which the final ``}`` makes the value of the
    outermost object's last member. Whitespace between tokens is no token,
    so the ``:`` before ``p`` is the member's colon and the quote before it,
    at ``q``, ends its key: had it opened a string, the string would have run
    on to ``p``. The key's opening quote is the last quote before ``q`` at
    ``k``, since the key holds none; ``{`` or ``,`` (and whitespace) before
    ``k`` means no backslash escapes it, so it cannot close an earlier string
    either. With no backslash in it the key decodes to the sliced ``key``,
    and the value (no quote, backslash or control character) to the sliced
    ``value``. A stub that parses thus gives the line's record, duplicate keys
    and key order included. Any other line, or a stub that fails to parse,
    goes through ``json.loads(line.strip())``, so errors are the same too.
    """
    end = len(line)
    while end and line[end - 1].isspace():
        end -= 1
    if line.endswith('"}', 0, end):
        p = line.rfind('"', 0, end - 2)
        value = line[p + 1 : end - 2]
        key = _last_key(line[: p + 1])
        if (
            key is not None
            and value.isascii()
            and "\\" not in value
            and (not value or np.frombuffer(value.encode("ascii"), np.uint8).min() >= 0x20)
        ):
            try:
                rec = json.loads(line[: p + 1] + '"}')
            except (ValueError, RecursionError):
                pass
            else:
                rec[key] = value
                return rec
    return json.loads(line.strip())


def _loads_ascii(line: bytes, payload: str | None):
    """``_loads`` on the bytes of an ASCII line, or None where it would parse the whole line.

    The same slice rule as ``_loads``, checked in place: trailing whitespace
    is what ``str.isspace`` counts, the value holds no backslash and no byte
    below 0x20, and only the stub before the value is decoded, for
    ``_last_key`` and the parse. A value under the key ``payload`` is set as
    a read-only memoryview of the line, any other as a str. None, for a line
    the rule does not take or whose stub fails to parse, sends the line to
    ``_loads``, which gives its record or error.
    """
    end = len(line)
    while end and line[end - 1] in _SPACE:
        end -= 1
    if not line.endswith(b'"}', 0, end):
        return None
    p = line.rfind(b'"', 0, end - 2)
    head = line[: p + 1].decode("ascii")
    key = _last_key(head)
    if (
        key is None
        or line.find(b"\\", p + 1, end - 2) >= 0
        or (end - p > 3 and np.frombuffer(line, np.uint8, end - p - 3, p + 1).min() < 0x20)
    ):
        return None
    try:
        rec = json.loads(head + '"}')
    except (ValueError, RecursionError):
        return None
    value = memoryview(line)[p + 1 : end - 2]
    rec[key] = value if key == payload else str(value, "ascii")
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

    Each line gives what ``json.loads(line.strip())`` gives, record or error.
    A line whose last member is a plain ``"key":"value"`` string, such as an
    EMB-JSONL payload, is read without scanning that string: only the part
    before the value is parsed, with ``""`` in its place, and the sliced value
    is set. This is exact because the two texts share every token but that
    string; ``_loads`` states the rule and the argument in full. On an ASCII
    line the rule is applied to the bytes (``_loads_ascii``), and the value of
    the member named ``payload`` is a memoryview of the line, not a str.
    """
    with open(path, "rb", buffering=1 << 20) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                rec = _loads_ascii(raw, payload) if raw.isascii() else None
                if rec is None:
                    line = raw.decode("utf-8", "surrogateescape")
                    if line.isspace():
                        continue
                    if not line.isascii() and _NOT_UTF8.search(line):
                        raise ValueError("not valid UTF-8")
                    rec = _loads(line)
                if not isinstance(rec, dict):
                    raise TypeError("not a JSON object")
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
