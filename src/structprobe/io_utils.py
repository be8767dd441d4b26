"""JSON Lines reading, ids and atomic writing, shared by every file format.

Every line reads as ``json.loads(line.strip())`` of its UTF-8 text
(``_loads``), every id in a record by ``record_id``, and a file names each
id once (``index_ids``); a rejected record or file names a KeyError's key as
missing (``error_text``). This module knows no file format. A reader may
pass ``read_jsonl`` a ``fast`` hook that reads the lines its format writes
in fewer steps and must give the same item, or the same error, as that
line rule.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import stat
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, TextIO, TypeVar

from .errors import DataError

T = TypeVar("T")

# a smaller regular file is read through the buffer: mapping and unmapping
# cost about 10 us, and finding a line in a mapping about 0.26 us more than
# reading it from the buffer, which only copies long lines save. A one-record
# EMB-JSONL file reads as fast either way at 32 KiB and about 15 us faster
# mapped at 64 KiB; a file of 400-byte or 2 KB lines reads slower mapped at
# every size up to 1.5 MB (CPython 3.11, 2 vCPUs)
_MAP_MIN = 1 << 16


def _loads(buf: bytes | mmap.mmap, start: int = 0, stop: int | None = None) -> dict | None:
    """The record of the line ``buf[start:stop]``: ``json.loads(line.strip())`` of its UTF-8 text.

    ``buf`` is one line of bytes, or a mapped file of which the line is a
    span. None for a blank line. ValueError for a line that is not UTF-8 or
    not JSON, TypeError for one that is not a JSON object. ``json.loads``
    only ever sees a str, never bytes, which it would accept with a BOM or as
    UTF-16 or UTF-32.
    """
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

    A regular file of at least ``_MAP_MIN`` bytes is mapped read-only, and
    each line is a span of the one mapping. Anything else (a pipe or FIFO
    such as ``/dev/stdin`` or ``<(cat f)``, a smaller file, one of size 0
    included, which may be empty or a ``/proc`` file, or a file that
    ``mmap`` refuses) is read lazily through ``fh``'s buffer, one ``bytes``
    per line. The mapping is never closed here: a view of it may outlive
    the read, say in a DataError's traceback, and it goes with its last
    reference.
    """
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode) and info.st_size >= _MAP_MIN:
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
    fast: Callable[[bytes | mmap.mmap, int, int], T | None] | None = None,
) -> Iterator[T]:
    """Lazily yield ``decode(rec)`` for each non-blank line of a JSON Lines file.

    Lines end at ``\\n`` only; a ``\\r`` before it is whitespace like any
    other. A regular file of 64 KiB or more is mapped read-only and each line
    is a span of the mapping, which a ``fast`` hook reads in place; a smaller
    file, a pipe or other file that cannot be mapped is read line by line
    through a 1 MiB buffer (``_lines``). A file that another process
    truncates in place while it is read is outside this contract; the
    package's writers replace a file by rename, which is safe.
    A line that is not UTF-8, not JSON or not an object, or on which
    ``decode`` raises KeyError, TypeError, ValueError, OverflowError or
    RecursionError, ends the read in one DataError that names ``path:line``.

    ``fast(buf, start, stop)``, if given, is tried on each line first. It
    returns the item ``decode(_loads(line))`` gives, or raises the error
    that would raise, or returns None to leave the line to ``_loads`` and
    ``decode``.
    """
    with open(path, "rb", buffering=1 << 20) as fh:
        for lineno, (buf, start, stop) in enumerate(_lines(fh), start=1):
            try:
                item = None if fast is None else fast(buf, start, stop)
                if item is None:
                    rec = _loads(buf, start, stop)
                    if rec is None:
                        continue
                    item = decode(rec)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                raise DataError(f"{path}:{lineno}: bad {what} record: {error_text(exc)}") from exc
            yield item


def error_text(exc: Exception) -> str:
    """An error's text for a message; a KeyError's is ``missing key 'sentence_id'``."""
    if isinstance(exc, KeyError) and len(exc.args) == 1:
        return f"missing key {exc.args[0]!r}"
    return str(exc)


def record_id(value, what: str = "id") -> str:
    """A record's id: a JSON string as it is, a JSON integer (not a bool) as its decimal text."""
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    raise ValueError(f"{what} {value!r} is not a JSON string or integer")


def index_ids(
    items: Iterable[tuple[str, T]], what: str, source: str | Path | None = None
) -> dict[str, T]:
    """``{id: item}`` of ``(id, item)`` pairs, in their order; each id is named once.

    An id named twice is a DataError that names it and, if given, ``source``.
    """
    index: dict[str, T] = {}
    for key, item in items:
        if key in index:
            where = "" if source is None else f"{source}: "
            raise DataError(f"{where}{what} id {key!r} is named by more than one record")
        index[key] = item
    return index


@contextlib.contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Stream text to a temp file beside ``path``; rename it over ``path`` on success.

    An OSError that names the temp file, as a failed create or rename does,
    is raised again of the same kind naming ``path`` alone: the temp name is
    none the caller knows. A path with no file name, such as ``""``, ``.``
    or ``/``, is a DataError that names it, and nothing is written.
    """
    name = Path(path).name
    if not name:
        raise DataError(f"output path {os.fspath(path)!r} names no file")
    # a plain exclusive create keeps the umask's file mode (mkstemp gives 0600)
    tmp = Path(path).with_name(f".{name}.{os.urandom(8).hex()}")
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != os.fspath(tmp):
            raise
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically."""
    with atomic_open(path) as fh:
        fh.write(text)


def write_outputs(*outputs: tuple[str | Path | None, Callable[[str | Path], object]]) -> None:
    """``write(path)`` for each ``(path, write)`` unless path is None; a failure leaves none.

    Two paths that resolve to one file are a DataError that names them, before any is written.
    """
    outputs = tuple((path, write) for path, write in outputs if path is not None)
    named: dict[Path, str | Path] = {}
    for path, _ in outputs:
        key = Path(path).resolve()
        if key in named:
            raise DataError(
                f"output path {os.fspath(path)!r} names the same file as {os.fspath(named[key])!r}"
            )
        named[key] = path
    written = []
    try:
        for path, write in outputs:
            write(path)
            written.append(path)
    except BaseException:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise
