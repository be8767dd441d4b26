"""Property: a damaged CoNLL file, manifest, probe file or report TSV is read or
rejected with a StructProbeError, never with another exception. A report row
whose rank, task, value or n_sequences is not in the form the writer gives is
a DataError at its line, also where ``int`` or ``float`` would read the field."""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structprobe.errors import DataError, StructProbeError
from structprobe.grid import load_manifest
from structprobe.metrics import read_report_tsv, write_report_tsv
from structprobe.probe import Probe, load_probe, save_probe
from structprobe.trees import read_conllu

CONLL = (
    "# sent_id = a\n"
    "1\tI\t_\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
    "2\tlike\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
    "3\tapples\t_\tNOUN\t_\t_\t2\tobj\t_\t_\n"
    "\n"
    "1 Hi 0 root\n"
)

MANIFEST = {
    "task": "depth",
    "train_labels": "train.jsonl",
    "val_labels": "val.jsonl",
    "eval_labels": "eval.jsonl",
    "layers": [{"tag": 3, "train_emb": "a", "val_emb": "b", "eval_emb": "c"}],
    "baselines": [{"tag": "007", "train_emb": "d", "val_emb": "e", "eval_emb": "f"}],
    "ranks": [2, 16],
    "train": {"batch_size": 8, "max_epochs": 4, "patience": 2, "lr": 0.01, "seed": 5},
    "out_dir": "out",
}


def _valid_files() -> dict:
    rows = [
        {"layer": layer, "rank": 4, "task": "depth", "metric": "nspr", "value": 0.125, "n_sequences": 12}
        for layer in (0, "baseline", "")
    ]
    with tempfile.TemporaryDirectory() as tmp:
        save_probe(Probe(task="distance", transform=np.arange(6.0).reshape(2, 3), meta={"layer": 1}),
                   Path(tmp) / "probe")
        write_report_tsv(rows, Path(tmp) / "report")
        files = {name: (Path(tmp) / name).read_bytes() for name in ("probe", "report")}
    files["conll"] = CONLL.encode()
    files["manifest"] = json.dumps(MANIFEST, indent=1).encode()
    return files


VALID = _valid_files()
READERS = {
    "conll": read_conllu,
    "manifest": load_manifest,
    "probe": load_probe,
    "report": read_report_tsv,
}
# bytes that break UTF-8, JSON, TSV or CoNLL structure, besides any byte at all
BYTES = st.sampled_from(b'\xff\x80\xc3\x00[{"\t\n\r-.') | st.integers(0, 255)
NUMBERS = [b"1e999", b"-1e999", b"1" * 40, b"2.5", b"2.0", b"true", b"-1"]


@st.composite
def mutated(draw):
    kind = draw(st.sampled_from(sorted(VALID)))
    data = bytearray(VALID[kind])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["flip", "insert", "truncate", "number"]))
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        byte = draw(BYTES)
        if op == "flip" and data:
            data[pos] = byte
        elif op == "insert":
            data[pos:pos] = bytes([byte])
        elif op == "truncate":
            del data[pos:]
        elif op == "number":
            numbers = list(re.finditer(rb"-?\d+(\.\d+)?", bytes(data)))
            if numbers:
                hit = numbers[pos % len(numbers)]
                data[hit.start() : hit.end()] = draw(st.sampled_from(NUMBERS))
    return kind, bytes(data)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_inputs_raise_only_structprobe_errors(case):
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            READERS[kind](path)
        except StructProbeError:
            pass


# whitespace that int() and float() strip, underscores, non-ASCII digits of the
# same value, signs and leading zeros; tasks a report does not name
SPACES = [" ", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2003", "\u3000"]
DIGIT_BASES = [0x660, 0x966, 0xFF10]  # Arabic-Indic, Devanagari, fullwidth
TASKS = ["Depth", "dist", "", "depths", "distance\x0b", "nspr"]


@st.composite
def report_field_mutations(draw):
    """(report bytes, line) with one field of that row made non-canonical."""
    lines = VALID["report"].decode("utf-8").split("\n")
    lineno = draw(st.integers(2, len(lines) - 1))
    parts = lines[lineno - 1].split("\t")
    column = draw(st.sampled_from([1, 2, 4, 5]))  # rank, task, value, n_sequences
    text = parts[column]
    ops = ["space", "underscore"] + (["task"] if column == 2 else ["digit"])
    op = draw(st.sampled_from(ops + (["sign", "zero"] if column in (1, 5) else [])))
    if op == "space":
        space = draw(st.sampled_from(SPACES))
        text = draw(st.sampled_from([space + text, text + space, space + text + space]))
    elif op == "underscore":
        text += "_0"
    elif op == "digit":
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c.isdigit()]))
        text = text[:at] + chr(draw(st.sampled_from(DIGIT_BASES)) + int(text[at])) + text[at + 1 :]
    elif op == "task":
        text = draw(st.sampled_from(TASKS))
    elif op == "sign":
        text = "+" + text
    else:
        text = "0" + text
    parts[column] = text
    lines[lineno - 1] = "\t".join(parts)
    return "\n".join(lines).encode("utf-8"), lineno


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(report_field_mutations())
def test_report_rows_with_non_canonical_fields_are_data_errors(case):
    data, lineno = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report"
        path.write_bytes(data)
        with pytest.raises(DataError, match=re.escape(f"{path}:{lineno}: ")):
            read_report_tsv(path)
