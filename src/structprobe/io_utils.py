"""JSON Lines reading and atomic writing, shared by every file format."""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import re
import stat
import sys
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TextIO, TypeVar

import numpy as np

from .errors import DataError

T = TypeVar("T")

# the ASCII bytes that str.isspace counts, so str.strip takes them off a line
_SPACE = frozenset(b" \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f")
# the end of the part before a plain last string value: {"key":" or ,"key":"
# with JSON whitespace after the { or , and around the :, and no quote or
# backslash in the key
_LAST_KEY = re.compile(r'[{,][ \t\r]*"([^"\\]*)"[ \t\r]*:[ \t\r]*"\Z')
# mmap's find and rfind search as fast as bytes' from Python 3.11 on; 3.10's
# compare a byte at a time, 25 times slower (15 ms against 0.6 ms on 9.7 MB)
_MAP = sys.version_info >= (3, 11)
# a smaller regular file is read through the buffer: mapping and unmapping
# cost about 10 us, and finding a line in a mapping about 0.26 us more than
# reading it from the buffer, which only copies long lines save. A one-record
# EMB-JSONL file reads as fast either way at 32 KiB and about 15 us faster
# mapped at 64 KiB; a file of 400-byte or 2 KB lines reads slower mapped at
# every size up to 1.5 MB (CPython 3.11, 2 vCPUs)
_MAP_MIN = 1 << 16


def stub_record(buf: bytes | mmap.mmap, start: int, p: int) -> tuple[dict, str] | None:
    """The record of the stub ``buf[start:p+1] + '"}'`` and the key of its last member, else None.

    None unless the stub is UTF-8, its part up to the quote at ``p`` ends in
    a plain ``{"key":"`` or ``,"key":"`` (``_LAST_KEY``) and ``json.loads``
    parses it; the record's last member is then ``key`` with the value
    ``""``. This is the stub step of ``_loads``' slice rule, which says when
    the stub's record, with that value replaced, is the record of the line.
    """
    try:  # a UnicodeDecodeError is a ValueError too
        head = buf[start : p + 1].decode("utf-8")
        plain = _LAST_KEY.search(head)
        return None if plain is None else (json.loads(head + '"}'), plain[1])
    except (ValueError, RecursionError):
        return None


def _loads(
    buf: bytes | mmap.mmap, payload: str | None = None, start: int = 0, stop: int | None = None
) -> dict | None:
    """The record of the line ``buf[start:stop]``: ``json.loads(line.strip())`` of its UTF-8 text.

    ``buf`` is one line of bytes, or a mapped file of which the line is a
    span; the line is read in place and never copied whole. None for a blank
    line. ValueError for a line that is not UTF-8 or not JSON, TypeError for
    one that is not a JSON object. ``json.loads`` only ever sees a str, never
    bytes, which it would accept with a BOM or as UTF-16 or UTF-32.

    The slice rule: if the line, less the trailing ASCII whitespace that
    ``str.strip`` takes off, ends in ``"value"}``, the value holds no
    backslash and no byte outside 0x20–0x7F, and the part up to its opening
    quote at ``p`` is UTF-8 and ends in a plain ``{"key":"`` or ``,"key":"``
    (``_LAST_KEY``: JSON whitespace allowed after ``{`` or ``,`` and around
    ``:``, no quote or backslash in the key), then only the stub
    ``buf[start:p+1] + '"}'`` is decoded and parsed, and ``rec[key]`` is set
    to the sliced value: a read-only memoryview of ``buf`` under the key
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
    end = stop = len(buf) if stop is None else stop
    while end > start and buf[end - 1] in _SPACE:
        end -= 1
    if end - start >= 2 and buf[end - 2 : end] == b'"}':
        p = buf.rfind(b'"', start, end - 2)
        if p >= start and buf.find(b"\\", p + 1, end - 2) < 0 and (
            # one min: a byte of 0x80 or more reads as a negative int8
            end - p == 3 or np.frombuffer(buf, np.int8, end - p - 3, p + 1).min() >= 0x20
        ):
            stub = stub_record(buf, start, p)
            if stub is not None:
                rec, key = stub
                value = memoryview(buf)[p + 1 : end - 2]
                rec[key] = value if key == payload else str(value, "ascii")
                return rec
    try:
        text = buf[start:stop].decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("not valid UTF-8") from None
    if text.isspace():
        return None
    rec = json.loads(text.strip())
    if not isinstance(rec, dict):
        raise TypeError("not a JSON object")
    return rec


def _lines(fh: BinaryIO) -> Iterator[tuple[bytes | mmap.mmap, int, int]]:
    """``(buf, start, stop)`` of each line of the binary file ``fh``, its ``\\n`` included.

    A regular file of at least ``_MAP_MIN`` bytes is mapped read-only
    (``_MAP``), and each line is a span of the one mapping. Anything else (a
    pipe or FIFO such as ``/dev/stdin`` or ``<(cat f)``, a smaller file, one
    of size 0 included, which may be empty or a ``/proc`` file, or a file
    that ``mmap`` refuses) is read lazily through ``fh``'s buffer, one
    ``bytes`` per line. The mapping is never closed here: a view of it may
    outlive the read, say in a DataError's traceback, and it goes with its
    last reference.
    """
    info = os.fstat(fh.fileno())
    if _MAP and stat.S_ISREG(info.st_mode) and info.st_size >= _MAP_MIN:
        try:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            pass
        else:
            start, size = 0, len(buf)
            while start < size:
                stop = buf.find(b"\n", start) + 1 or size
                yield buf, start, stop
                start = stop
            return
    for line in fh:
        yield line, 0, len(line)


def read_jsonl(
    path: str | Path,
    what: str,
    decode: Callable[[dict], T],
    payload: str | None = None,
    fast: Callable[[bytes | mmap.mmap, int, int], T | None] | None = None,
) -> Iterator[T]:
    """Lazily yield ``decode(rec)`` for each non-blank line of a JSON Lines file.

    Lines end at ``\\n`` only; a ``\\r`` before it is whitespace like any
    other. A regular file of 64 KiB or more is mapped read-only (from Python
    3.11 on) and each line is parsed in place, so no line is copied whole; a
    smaller file, a pipe or other file that cannot be mapped is read line by
    line through a 1 MiB buffer (``_lines``). A file that another process
    truncates in place while it is read is outside this contract; the
    package's writers replace a file by rename, which is safe.
    A line that is not UTF-8, not JSON or not an object, or on which
    ``decode`` raises KeyError, TypeError, ValueError, OverflowError or
    RecursionError, ends the read in one DataError that names ``path:line``.

    Each line gives what ``_loads`` gives, ``json.loads(line.strip())`` of its
    UTF-8 text: a UTF-8 line whose last member is a plain ``"key":"value"``
    string, such as an EMB-JSONL payload, is read without scanning that
    string, and the value of the member named ``payload`` is a read-only
    memoryview of the mapping (or of the line's bytes), not a str. ``_loads``
    states the rule and why it is exact.

    ``fast(buf, start, stop)``, if given, is tried on each line first: it
    returns the item of a line it reads exactly as ``_loads`` and ``decode``
    would, and None, never an error, for any other line.
    """
    with open(path, "rb", buffering=1 << 20) as fh:
        for lineno, (buf, start, stop) in enumerate(_lines(fh), start=1):
            try:
                item = None if fast is None else fast(buf, start, stop)
                if item is None:
                    rec = _loads(buf, payload, start, stop)
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
