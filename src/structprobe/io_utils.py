"""JSON Lines reading and atomic writing, shared by every file format."""

from __future__ import annotations

import contextlib
import json
import os
import re
from pathlib import Path
from typing import Callable, Iterator, TextIO, TypeVar

from .errors import DataError

T = TypeVar("T")

# a byte that is not UTF-8 is read as a lone surrogate, so its line is known
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def read_jsonl(path: str | Path, what: str, decode: Callable[[dict], T]) -> Iterator[T]:
    """Lazily yield ``decode(rec)`` for each non-blank line of a JSON Lines file.

    A line that is not UTF-8, not JSON or not an object, or on which ``decode``
    raises KeyError, TypeError, ValueError, OverflowError or RecursionError,
    ends the read in one DataError that names ``path:line``.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii() and _NOT_UTF8.search(line):
                    raise ValueError("not valid UTF-8")
                rec = json.loads(line)
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
