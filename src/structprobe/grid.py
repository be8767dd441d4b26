"""Rank sweeps and layer grids: compose ``probe`` training with ``metrics`` scoring.

A sweep trains and scores one probe per rank and stops at its first error.
A grid's manifest (one JSON file) names the label files, one embedding file
triple per layer or baseline tag, the ranks, and the training config. Every
path must be a file, and each (labels, embeddings) pair must agree on ids
and lengths, before any cell trains; a layer whose splits differ in width
fails its cells without being decoded. Layers run in a bounded worker pool:
each job decodes its layer's three embedding files once, then trains and
evaluates one (layer, rank) cell per rank, and a failed cell does not stop
the others. The aggregate TSV and charts are written once, atomically, in a
deterministic order.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

from .chart import emit_chart
from .embed_io import read_embeddings, scan_embedding_headers
from .errors import DataError, StructProbeError, ValidationError
from .metrics import (
    TASK_METRICS,
    EvalReport,
    check_layer_tag,
    evaluate_probe,
    write_report_json,
    write_report_tsv,
)
from .probe import TASKS, Pair, TrainConfig, embedding_width, pair_records, save_probe, train_probe
from .trees import TreeLabels, read_labels

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridCell:
    """One embedding source: a layer index or a baseline tag."""

    tag: int | str
    train_emb: Path
    val_emb: Path
    eval_emb: Path


@dataclass(frozen=True)
class ExperimentManifest:
    task: str
    train_labels: Path
    val_labels: Path
    eval_labels: Path
    cells: tuple[GridCell, ...]
    ranks: tuple[int, ...]
    train: TrainConfig
    out_dir: Path
    chart_metrics: tuple[str, ...] = field(default_factory=tuple)


def _as_tag(value) -> int | str:
    """A manifest's layer tag: a report TSV's tag that can also name the cell's files."""
    check_layer_tag(value)
    if value == "" or "/" in str(value):
        raise ValueError(f"layer tag {value!r} cannot name a cell's files")
    return value


def rank_list(ranks) -> tuple[int, ...]:
    """The ranks of a sweep or grid: a non-empty list of distinct ranks TrainConfig takes."""
    if not isinstance(ranks, list) or not ranks:
        raise ValueError(f"ranks must be a non-empty list of integers, got {ranks!r}")
    for rank in ranks:
        TrainConfig(rank=rank)
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"ranks must be distinct, got {ranks!r}")
    return tuple(ranks)


def load_manifest(path: str | Path, out_dir_override: str | None = None) -> ExperimentManifest:
    """Parse and schema-check a manifest file; its relative paths are taken from its directory."""
    path = Path(path)
    base = path.parent
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise ValidationError(f"{path}: cannot read manifest: {exc}") from exc
    try:
        task = doc["task"]
        if task not in TASKS:
            raise ValidationError(f"{path}: unknown task {task!r}")
        cells = []
        entries = list(doc["layers"]) + list(doc.get("baselines", []))
        for entry in entries:
            cells.append(
                GridCell(
                    tag=_as_tag(entry["tag"]),
                    train_emb=base / entry["train_emb"],
                    val_emb=base / entry["val_emb"],
                    eval_emb=base / entry["eval_emb"],
                )
            )
        ranks = rank_list(doc.get("ranks", [TrainConfig.rank]))
        train_doc = dict(doc.get("train", {}))
        if "rank" in train_doc:  # every cell trains at a rank from ranks
            raise ValueError('"train" has no "rank"; list the ranks in the top-level "ranks"')
        cfg = TrainConfig(**train_doc)
        out_dir = Path(out_dir_override) if out_dir_override else base / doc["out_dir"]
        chart_metrics = doc.get("chart_metrics", list(TASK_METRICS[task]))
        if not isinstance(chart_metrics, list) or any(
            metric not in TASK_METRICS[task] for metric in chart_metrics
        ):
            raise ValueError(
                f"chart_metrics must be a list of {task} metrics "
                f"{list(TASK_METRICS[task])}, got {chart_metrics!r}"
            )
        manifest = ExperimentManifest(
            task=task,
            train_labels=base / doc["train_labels"],
            val_labels=base / doc["val_labels"],
            eval_labels=base / doc["eval_labels"],
            cells=tuple(cells),
            ranks=ranks,
            train=cfg,
            out_dir=out_dir,
            chart_metrics=tuple(chart_metrics),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad manifest: {exc}") from exc
    if not manifest.cells:
        raise ValidationError(f"{path}: empty layer list")
    tags = [c.tag for c in manifest.cells]
    if len(set(tags)) != len(tags):
        raise ValidationError(f"{path}: duplicate layer tags {tags}")
    return manifest


def validate_manifest_data(
    manifest: ExperimentManifest,
) -> tuple[dict[str, list[TreeLabels]], dict[int | str, str]]:
    """Check every file and every (labels, embeddings) pairing up front.

    Returns the labels of each split and, for each layer whose train, val
    and eval records do not share one width m, why its cells will fail.
    """
    split_labels = {}
    width_errors = {}
    for name, lpath in (
        ("train", manifest.train_labels),
        ("val", manifest.val_labels),
        ("eval", manifest.eval_labels),
    ):
        if not lpath.is_file():
            raise ValidationError(f"labels file {lpath} is missing or not a file")
        split_labels[name] = read_labels(lpath)
        if not split_labels[name]:
            raise ValidationError(f"{lpath}: no label records")
    for cell in manifest.cells:
        split_pairs = {}
        for split, epath in (
            ("train", cell.train_emb),
            ("val", cell.val_emb),
            ("eval", cell.eval_emb),
        ):
            if not epath.is_file():
                raise ValidationError(
                    f"layer {cell.tag}: embeddings file {epath} is missing or not a file"
                )
            # a malformed line stays a DataError; only the pairing is a manifest problem
            headers = scan_embedding_headers(epath)
            try:
                split_pairs[split] = pair_records(split_labels[split], headers)
            except DataError as exc:
                raise ValidationError(f"{epath}: {exc}") from exc
        try:
            embedding_width(split_pairs)
        except DataError as exc:
            width_errors[cell.tag] = f"layer {cell.tag}: {exc}"
    return split_labels, width_errors


def _tag_sort_key(tag: int | str):
    return (0, tag, "") if isinstance(tag, int) else (1, 0, tag)


def _cell_name(tag: int | str, rank: int) -> str:
    return f"layer{tag}_rank{rank}"


def sweep_reports(
    ranks: Sequence[int],
    train: Sequence[Pair],
    val: Sequence[Pair],
    cfg: TrainConfig,
    task: str,
    layer: int | str | None,
) -> Iterator[EvalReport]:
    """Train one probe per rank (shared seed) and evaluate it on the validation split.

    Each report's aggregates also hold the probe's best ``val_loss``.
    """
    for rank in ranks:
        probe = train_probe(task, train, val, replace(cfg, rank=rank), layer=layer)
        report = evaluate_probe(probe, val)
        report.aggregates["val_loss"] = probe.meta["val_loss"]
        yield report


def sweep_ranks(
    ranks: Sequence[int],
    train: Sequence[Pair],
    val: Sequence[Pair],
    cfg: TrainConfig,
    task: str,
    layer: int | str | None = None,
) -> list[dict]:
    """Train one probe per rank (shared seed) and tabulate validation metrics."""
    reports = sweep_reports(ranks, train, val, cfg, task, layer)
    return [{"rank": int(r.rank), **r.aggregates} for r in reports]


def run_layer_grid(
    manifest: ExperimentManifest, jobs: int = 1
) -> tuple[list[EvalReport], list[tuple[str, str]]]:
    """Train and evaluate every (layer, rank) cell; emit the aggregate table.

    Up to ``jobs`` layers run at once. Failed cells are recorded and
    skipped. Raises only if every cell fails. Returns the successful
    reports in manifest order and the (cell, error) failures.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    split_labels, width_errors = validate_manifest_data(manifest)
    manifest.out_dir.mkdir(parents=True, exist_ok=True)

    def run_layer(cell: GridCell) -> list[EvalReport | Exception]:
        if cell.tag in width_errors:
            raise DataError(width_errors[cell.tag])
        train_pairs = pair_records(split_labels["train"], read_embeddings(cell.train_emb))
        val_pairs = pair_records(split_labels["val"], read_embeddings(cell.val_emb))
        eval_pairs = pair_records(split_labels["eval"], read_embeddings(cell.eval_emb))
        outcomes: list[EvalReport | Exception] = []
        for rank in manifest.ranks:
            name = _cell_name(cell.tag, rank)
            try:
                cfg = replace(manifest.train, rank=rank)
                probe = train_probe(manifest.task, train_pairs, val_pairs, cfg, layer=cell.tag)
                save_probe(probe, manifest.out_dir / f"probe_{name}.json")
                report = evaluate_probe(probe, eval_pairs)
                write_report_json(report, manifest.out_dir / f"report_{name}.json")
                outcomes.append(report)
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    reports: list[EvalReport] = []
    failures: list[tuple[str, str]] = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_layer, cell) for cell in manifest.cells]
        for cell, future in zip(manifest.cells, futures):
            try:
                outcomes = future.result()
            except Exception as exc:
                outcomes = [exc] * len(manifest.ranks)
            for rank, outcome in zip(manifest.ranks, outcomes):
                if isinstance(outcome, Exception):
                    name = _cell_name(cell.tag, rank)
                    log.error("cell %s failed: %s", name, outcome)
                    failures.append((name, str(outcome)))
                else:
                    reports.append(outcome)

    if not reports:
        raise StructProbeError(
            "all grid cells failed: " + "; ".join(f"{n}: {e}" for n, e in failures)
        )

    rows = [row for report in reports for row in report.tsv_rows()]
    rows.sort(key=lambda r: (_tag_sort_key(r["layer"]), r["rank"], r["metric"]))
    write_report_tsv(rows, manifest.out_dir / "report.tsv")

    for metric in manifest.chart_metrics:
        present = [r for r in rows if r["metric"] == metric]
        if not present:
            log.warning("no rows for chart metric %s; skipping chart", metric)
            continue
        emit_chart(present, metric, manifest.out_dir / f"chart_{metric}.svg")

    return reports, failures
