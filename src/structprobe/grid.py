"""Rank sweeps and layer grids: compose ``probe`` training with ``metrics`` scoring.

``read_split_labels``, ``check_splits`` and ``load_splits`` load the (labels, embeddings)
splits of ``train``, ``sweep``, ``eval`` and each grid layer: labels, headers, then payloads.
``rank_cells`` trains and scores one probe per rank and yields each cell's outcome, its
error included: ``sweep`` stops at the first error, a grid records it and goes on. A grid's
manifest names a labels file per split, an embedding file per split for each layer or
baseline tag, the ranks, and the training config; the types check their own rules, however
they are built. Every path must be a file, and each (labels, embeddings) pair must agree on
ids and lengths, before any cell trains; a layer whose splits differ in width fails its
cells without being decoded. Layers run one at a time, in manifest order, each decoding its
files once. The aggregate TSV and charts are written once, atomically, in a deterministic
order, into an ``out_dir`` that was new or empty.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .chart import emit_chart
from .embed_io import read_embeddings, scan_embedding_headers
from .errors import DataError, StructProbeError, ValidationError
from .io_utils import error_text, write_outputs
from .metrics import (
    TASK_METRICS,
    EvalReport,
    check_layer_tag,
    evaluate_probe,
    write_report_json,
    write_report_tsv,
)
from .probe import (
    TASKS,
    Pair,
    Probe,
    TrainConfig,
    embedding_width,
    pair_records,
    save_probe,
    train_probe,
)
from .trees import TreeLabels, read_labels

log = logging.getLogger(__name__)

SPLITS = ("train", "val", "eval")
# the keys a manifest file holds, and the keys of each of its layers and baselines, each with
# the JSON type its value must have (object: any, checked where it is used)
MANIFEST_KEYS = {
    **dict.fromkeys((f"{s}_labels" for s in SPLITS), str),
    **dict.fromkeys(("layers", "baselines", "ranks", "chart_metrics"), list),
    **dict.fromkeys(("task", "train"), object),
    "out_dir": str,
}
CELL_KEYS = {"tag": object, **dict.fromkeys((f"{s}_emb" for s in SPLITS), str)}


def _by_split(paths: Mapping[str, Path]) -> Mapping[str, Path]:
    """The path of each of ``SPLITS``, in that order, as a read-only mapping."""
    return MappingProxyType({split: paths[split] for split in SPLITS})


@dataclass(frozen=True)
class GridCell:
    """One embedding source: a layer index or a baseline tag, and its file per split."""

    tag: int | str
    emb: Mapping[str, Path]

    def __post_init__(self):
        check_layer_tag(self.tag)
        if self.tag == "" or "/" in str(self.tag):
            raise ValueError(f"layer tag {self.tag!r} cannot name a cell's files")
        object.__setattr__(self, "emb", _by_split(self.emb))


@dataclass(frozen=True)
class ExperimentManifest:
    """A grid: cells with distinct tags, distinct ranks and charts of the task's metrics."""

    task: str
    labels: Mapping[str, Path]
    cells: tuple[GridCell, ...]
    ranks: tuple[int, ...]
    train: TrainConfig
    out_dir: Path
    chart_metrics: tuple[str, ...] = ()

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        object.__setattr__(self, "labels", _by_split(self.labels))
        object.__setattr__(self, "ranks", rank_list(self.ranks))
        if not self.cells:
            raise ValueError("empty layer list")
        tags = [cell.tag for cell in self.cells]
        if len(set(tags)) != len(tags):
            raise ValueError(f"duplicate layer tags {tags}")
        metrics = TASK_METRICS[self.task]
        if any(metric not in metrics for metric in self.chart_metrics):
            raise ValueError(
                f"chart_metrics must be a list of {self.task} metrics "
                f"{list(metrics)}, got {list(self.chart_metrics)!r}"
            )


def rank_list(ranks: Iterable[int]) -> tuple[int, ...]:
    """The ranks of a sweep or grid: a non-empty list of distinct ranks TrainConfig takes."""
    ranks = tuple(ranks)
    if not ranks:
        raise ValueError("ranks must be a non-empty list of integers, got []")
    for rank in ranks:
        TrainConfig(rank=rank)
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"ranks must be distinct, got {list(ranks)!r}")
    return ranks


def _known_keys(entry, keys: Mapping[str, type], where: str) -> dict:
    """A manifest object that holds only the given keys, each of its type; a fault is named."""
    if not isinstance(entry, dict):
        raise TypeError(f"{where} must be a JSON object, not {type(entry).__name__}")
    for key, value in entry.items():
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where}")
        if not isinstance(value, keys[key]):
            kind = "list" if keys[key] is list else "string"
            raise TypeError(f"{key} in {where} must be a JSON {kind}, got {value!r}")
    return entry


def load_manifest(path: str | Path) -> ExperimentManifest:
    """Map a manifest file onto ``ExperimentManifest`` and ``GridCell``, which check its rules.

    Its relative paths are from its directory; a rejection is a ``ValidationError`` naming it.
    """
    path = Path(path)
    base = path.parent
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise ValidationError(f"{path}: cannot read manifest: {exc}") from exc
    try:
        doc = _known_keys(doc, MANIFEST_KEYS, "the manifest")
        task = doc["task"]
        cells = []
        for key, listed in (("layers", doc["layers"]), ("baselines", doc.get("baselines", []))):
            for i, entry in enumerate(listed):
                entry = _known_keys(entry, CELL_KEYS, f"{key}[{i}]")
                cells.append(GridCell(entry["tag"], {s: base / entry[f"{s}_emb"] for s in SPLITS}))
        ranks = doc.get("ranks", [TrainConfig.rank])
        train_keys = dict.fromkeys((f.name for f in fields(TrainConfig)), object)
        train_doc = _known_keys(doc.get("train", {}), train_keys, '"train"')
        if "rank" in train_doc:  # every cell trains at a rank from ranks
            raise ValueError('"train" has no "rank"; list the ranks in the top-level "ranks"')
        # an unknown task is the manifest's to reject; it has no default metrics
        chart_metrics = doc.get("chart_metrics", list(TASK_METRICS[task]) if task in TASKS else [])
        return ExperimentManifest(
            task=task,
            labels={s: base / doc[f"{s}_labels"] for s in SPLITS},
            cells=tuple(cells),
            ranks=ranks,
            train=TrainConfig(**train_doc),
            out_dir=base / doc["out_dir"],
            chart_metrics=tuple(chart_metrics),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad manifest: {error_text(exc)}") from exc


def read_split_labels(paths: Mapping[str, str | Path]) -> dict[str, list[TreeLabels]]:
    """Loading, step 1: each split's labels, every file read and checked in order; none is empty."""
    split_labels = {}
    for split, path in paths.items():
        split_labels[split] = read_labels(path)
        if not split_labels[split]:
            raise DataError(f"{path}: no label records")
    return split_labels


def _pair_splits(
    split_labels: Mapping[str, list[TreeLabels]], emb: Mapping[str, str | Path], read: Callable
) -> dict[str, list[Pair]]:
    """Pair each split's labels, in order, with ``read(path)``, run once per distinct path."""
    records = {}
    pairs = {}
    for split, path in emb.items():
        key = os.fspath(path)
        if key not in records:
            records[key] = read(path)
        pairs[split] = pair_records(split_labels[split], records[key], path)
    return pairs


def check_splits(
    split_labels: Mapping[str, list[TreeLabels]], emb: Mapping[str, str | Path]
) -> dict[str, list[Pair]]:
    """Loading, step 2: each regular embeddings file's headers, paired with its split's labels.

    A pairing fault is found before any payload is decoded. A pipe can be read only once, so it
    is left out here: ``load_splits`` pairs it as it decodes it.
    """
    regular = {split: path for split, path in emb.items() if os.path.isfile(path)}
    return _pair_splits(split_labels, regular, scan_embedding_headers)


def load_splits(
    split_labels: Mapping[str, list[TreeLabels]],
    emb: Mapping[str, str | Path],
    check: Callable[[dict[str, list[Pair]]], object] | None = None,
) -> dict[str, list[Pair]]:
    """Loading, step 3: decode each embeddings file once and pair it with each split's labels.

    A ``check`` sees the ``check_splits`` pairs of the regular files before any decode and, if a
    file is a pipe, every split's pairs after it.
    """
    headers = {} if check is None else check_splits(split_labels, emb)
    if headers:
        check(headers)
    # every line of a file is decoded, and so checked, before any is paired
    splits = _pair_splits(split_labels, emb, lambda path: list(read_embeddings(path)))
    if check is not None and len(headers) < len(emb):  # a pipe, left out of the headers
        check(splits)
    return splits


def _tag_sort_key(tag: int | str):
    return (0, tag, "") if isinstance(tag, int) else (1, 0, tag)


def _cell_name(tag: int | str, rank: int) -> str:
    return f"layer{tag}_rank{rank}"


def rank_cells(
    task: str,
    splits: Mapping[str, Sequence[Pair]],
    cfg: TrainConfig,
    ranks: Iterable[int],
    layer: int | str | None = None,
) -> Iterator[tuple[int, Probe | None, EvalReport | Exception]]:
    """Per ``rank_list`` rank, in order: train on ``splits["train"]``, stop early on ``"val"``.

    Each probe (shared seed) is scored on ``splits["eval"]`` and yielded as ``(rank, probe,
    report)``, or as ``(rank, None, error)`` if training or scoring raised. Writes nothing;
    the caller decides whether an error ends the loop.
    """
    for rank in rank_list(ranks):
        try:
            cell_cfg = replace(cfg, rank=rank)
            probe = train_probe(task, splits["train"], splits["val"], cell_cfg, layer)
            outcome = (rank, probe, evaluate_probe(probe, splits["eval"]))
        except Exception as exc:
            outcome = (rank, None, exc)
        yield outcome  # outside the try: what the caller does here is not this cell's error
        del outcome  # a yielded error's traceback holds this frame, and so ``splits``


def run_layer_grid(manifest: ExperimentManifest) -> tuple[list[EvalReport], list[tuple[str, str]]]:
    """Train and evaluate every (layer, rank) cell by ``rank_cells``; emit the aggregate table.

    ``out_dir`` holds one run: one that exists and is not an empty directory is a
    ValidationError before any input is read. Every path must be a file, and every cell's
    pairing is checked, before ``out_dir`` is made. Layers run one at a time, in manifest
    order. A failed cell is recorded and the others go on; a cell's probe and report are
    written once it is scored, and a cell whose training, scoring or writing fails leaves no
    file. Raises only if every cell fails. Returns the successful reports in manifest order
    and the (cell, error) failures.
    """
    out_dir = manifest.out_dir
    if out_dir.exists() and (not out_dir.is_dir() or any(out_dir.iterdir())):
        raise ValidationError(
            f"out_dir {out_dir} exists and is not an empty directory; "
            "a grid writes one run into a new or empty directory"
        )
    inputs = {f"labels file {path}": path for path in manifest.labels.values()}
    for cell in manifest.cells:
        inputs.update((f"layer {cell.tag}: embeddings file {p}", p) for p in cell.emb.values())
    for what, path in inputs.items():
        if not path.is_file():
            raise ValidationError(f"{what} is missing or not a file")
    split_labels = read_split_labels(manifest.labels)
    width_errors = {}  # why each layer whose splits differ in width fails its cells
    for cell in manifest.cells:
        headers = check_splits(split_labels, cell.emb)
        try:
            embedding_width(headers)
        except DataError as exc:
            width_errors[cell.tag] = f"layer {cell.tag}: {exc}"
    out_dir.mkdir(parents=True, exist_ok=True)

    def run_layer(cell: GridCell) -> list[EvalReport | str]:
        """Each rank's report, or its failure as text: an error's traceback holds ``splits``."""
        if cell.tag in width_errors:
            raise DataError(width_errors[cell.tag])
        splits = load_splits(split_labels, cell.emb)
        cells = rank_cells(manifest.task, splits, manifest.train, manifest.ranks, cell.tag)
        outcomes: list[EvalReport | str] = []
        for rank, probe, outcome in cells:
            if probe is None:
                outcome = str(outcome)
            else:  # scored: write its files; a failed write fails the cell
                name = _cell_name(cell.tag, rank)
                try:  # a failed cell leaves no file
                    write_outputs(
                        (out_dir / f"probe_{name}.json", partial(save_probe, probe)),
                        (out_dir / f"report_{name}.json", partial(write_report_json, outcome)),
                    )
                except Exception as exc:
                    outcome = str(exc)
            outcomes.append(outcome)
        return outcomes

    reports: list[EvalReport] = []
    failures: list[tuple[str, str]] = []
    for cell in manifest.cells:
        try:
            outcomes = run_layer(cell)
        except Exception as exc:
            outcomes = [str(exc)] * len(manifest.ranks)
        for rank, outcome in zip(manifest.ranks, outcomes):
            if isinstance(outcome, str):
                name = _cell_name(cell.tag, rank)
                log.error("cell %s failed: %s", name, outcome)
                failures.append((name, outcome))
            else:
                reports.append(outcome)

    if not reports:
        raise StructProbeError(
            "all grid cells failed: " + "; ".join(f"{n}: {e}" for n, e in failures)
        )

    rows = [row for report in reports for row in report.tsv_rows()]
    rows.sort(key=lambda r: (_tag_sort_key(r["layer"]), r["rank"], r["metric"]))
    write_report_tsv(rows, out_dir / "report.tsv")

    for metric in manifest.chart_metrics:
        present = [r for r in rows if r["metric"] == metric]
        if not present:
            log.warning("no rows for chart metric %s; skipping chart", metric)
            continue
        emit_chart(present, metric, out_dir / f"chart_{metric}.svg")

    return reports, failures
