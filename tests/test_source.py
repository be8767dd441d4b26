"""The source's layout: every ``src/`` line fits in 100 columns, so that a line count of the
package measures its code and not how tightly it is packed."""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MAX_COLUMNS = 100


def test_every_source_line_fits_in_100_columns():
    long = [
        f"{path.relative_to(SRC)}:{lineno}: {len(line)} columns"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_COLUMNS
    ]
    assert long == []
