"""Evaluation metrics: rank correlations, tree decoding, and reports.

Correlation aggregates are computed per sequence length and then averaged
over the lengths 5 to 50 inclusive. Attachment score decodes a minimum
spanning tree from the predicted distance matrix and counts recovered gold
edges; root accuracy checks the argmin of the predicted depths. Both leave
out the labels' ``excluded`` positions; the rank correlations keep them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .chart import NOT_XML
from .errors import DataError
from .io_utils import atomic_write_text
from .probe import TASKS, Pair, Probe, predict_depths, predict_distances
from .trees import TreeLabels

SPEARMAN_MIN_LEN = 5
SPEARMAN_MAX_LEN = 50

REPORT_COLUMNS = ("layer", "rank", "task", "metric", "value", "n_sequences")

# every metric each task reports, as evaluate_probe names its aggregates
TASK_METRICS = {
    "distance": ("dspr", "uuas"),
    "depth": ("nspr", "root_acc"),
}


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank positions."""
    arr = np.asarray(values, dtype=np.float64)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.shape[0], dtype=np.float64)
    sorted_vals = arr[order]
    i = 0
    while i < arr.shape[0]:
        j = i
        while j + 1 < arr.shape[0] and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Rank correlation with tie-averaged ranks.

    Returns None (absent) when fewer than two points are given or either
    rank vector has zero variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.shape[0] < 2:
        return None
    rx = average_ranks(x)
    ry = average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = np.sqrt((dx * dx).sum())
    sy = np.sqrt((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        return None
    rho = float((dx * dy).sum() / (sx * sy))
    return min(1.0, max(-1.0, rho))


def _length_binned(
    scores: Sequence[float | None], lengths: Sequence[int]
) -> tuple[float | None, int]:
    """``length_binned_spearman``'s mean, and the number of scores it averages."""
    if len(scores) != len(lengths):
        raise ValueError("scores and lengths differ in length")
    bins: dict[int, list[float]] = {}
    for score, n in zip(scores, lengths):
        if score is None or not SPEARMAN_MIN_LEN <= n <= SPEARMAN_MAX_LEN:
            continue
        bins.setdefault(int(n), []).append(float(score))
    if not bins:
        return None, 0
    per_length = [sum(v) / len(v) for _, v in sorted(bins.items())]
    return sum(per_length) / len(per_length), sum(map(len, bins.values()))


def length_binned_spearman(
    scores: Sequence[float | None], lengths: Sequence[int]
) -> float | None:
    """Mean over per-length mean scores for lengths 5 to 50 inclusive.

    Absent per-sequence scores are skipped; an empty range yields None.
    """
    return _length_binned(scores, lengths)[0]


def decode_mst_edges(
    weights: np.ndarray, nodes: Sequence[int] | None = None
) -> set[tuple[int, int]]:
    """Minimum spanning tree of a complete weighted graph.

    Grows the tree greedily; among crossing edges of equal weight, the
    lexicographically smallest (i, j) pair wins, so the result is fully
    deterministic. The weight matrix is read as w[min(i,j), max(i,j)].
    """
    weights = np.asarray(weights, dtype=np.float64)
    if nodes is None:
        nodes = range(weights.shape[0])
    nodes = sorted(nodes)
    if len(nodes) < 2:
        return set()

    def key(u: int, v: int) -> tuple[float, int, int]:
        a, b = (u, v) if u < v else (v, u)
        return (float(weights[a, b]), a, b)

    start = nodes[0]
    best = {v: key(start, v) for v in nodes[1:]}
    edges: set[tuple[int, int]] = set()
    while best:
        chosen = min(best, key=best.__getitem__)
        _, a, b = best.pop(chosen)
        edges.add((a, b))
        for v in best:
            cand = key(chosen, v)
            if cand < best[v]:
                best[v] = cand
    return edges


def gold_edges(labels: TreeLabels) -> set[tuple[int, int]]:
    """Undirected gold edges: node pairs at tree distance one."""
    ii, jj = np.nonzero(np.triu(labels.distances == 1, k=1))
    return {(int(i), int(j)) for i, j in zip(ii, jj)}


def uuas_counts(pred_dist: np.ndarray, gold: TreeLabels) -> tuple[int, int]:
    """(recovered edges, gold edges) over the positions ``gold`` does not exclude.

    A position at gold distance 0 from an earlier one (a region on the scene
    node of an earlier region) is dropped as well, so each node counts once.
    """
    excluded = set(gold.excluded).union(np.nonzero(np.triu(gold.distances == 0, k=1))[1].tolist())
    kept = [i for i in range(gold.n) if i not in excluded]
    gold_set = {(i, j) for i, j in gold_edges(gold) if i not in excluded and j not in excluded}
    if len(kept) < 2 or not gold_set:
        return (0, 0)
    pred_set = decode_mst_edges(np.asarray(pred_dist), kept)
    return (len(pred_set & gold_set), len(gold_set))


def distance_sequence_score(pred: np.ndarray, gold: np.ndarray) -> tuple[float | None, int]:
    """Per-sequence distance correlation and the count of undefined rows.

    The score is the mean Spearman correlation of the node rows whose
    correlation is defined, and None if none is.
    """
    vals = []
    undefined = 0
    for i in range(pred.shape[0]):
        rho = spearman(pred[i], gold[i])
        if rho is None:
            undefined += 1
        else:
            vals.append(rho)
    if not vals:
        return None, undefined
    return sum(vals) / len(vals), undefined


@dataclass
class EvalReport:
    """Per-sequence metric records plus their aggregates for one probe run."""

    task: str
    tag: int | str | None
    rank: int
    records: list[dict] = field(default_factory=list)
    aggregates: dict[str, float | None] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def tsv_rows(self) -> list[dict]:
        rows = []
        for metric in sorted(self.aggregates):
            value = self.aggregates[metric]
            if value is None:
                continue
            rows.append(
                {
                    "layer": self.tag if self.tag is not None else "",
                    "rank": self.rank,
                    "task": self.task,
                    "metric": metric,
                    "value": float(value),
                    "n_sequences": self.counters[f"n_{metric}"],
                }
            )
        return rows


def evaluate_probe(probe: Probe, dataset: Sequence[Pair]) -> EvalReport:
    """Run a probe over a dataset and compute its task's metric suite.

    The report's layer is the probe's ``meta["layer"]`` and its rank the probe's.
    """
    if not dataset:
        raise ValueError("empty dataset")
    report = EvalReport(task=probe.task, tag=probe.meta.get("layer"), rank=probe.rank)
    distance = probe.task == "distance"
    zero_variance = 0
    for labels, seq in dataset:
        if distance:
            pred = predict_distances(probe, seq)
            score, undefined = distance_sequence_score(pred, labels.distances.astype(np.float64))
            correct, total = uuas_counts(pred, labels)
            record = {
                "dspr": score,
                "uuas": (correct / total) if total else None,
                "uuas_correct": correct,
                "uuas_total": total,
            }
        else:
            pred = predict_depths(probe, seq)
            score = spearman(pred, labels.depths.astype(np.float64))
            undefined = int(score is None)
            kept = np.delete(np.arange(labels.n), labels.excluded)  # the argmin's candidates
            hit = None if labels.root is None else int(kept[np.argmin(pred[kept])]) == labels.root
            record = {"nspr": score, "root_correct": hit}
        zero_variance += undefined
        report.records.append({"id": labels.id, "n": labels.n, **record})

    records = report.records
    corr = "dspr" if distance else "nspr"
    binned = _length_binned([r[corr] for r in records], [r["n"] for r in records])
    report.aggregates[corr], report.counters[f"n_{corr}"] = binned
    if distance:
        total_edges = sum(r["uuas_total"] for r in records)
        correct_edges = sum(r["uuas_correct"] for r in records)
        report.aggregates["uuas"] = correct_edges / total_edges if total_edges else None
        report.counters["n_uuas"] = sum(1 for r in records if r["uuas_total"] > 0)
    else:
        hits = [r["root_correct"] for r in records if r["root_correct"] is not None]
        report.aggregates["root_acc"] = (sum(hits) / len(hits)) if hits else None
        report.counters["n_root_acc"] = len(hits)
    report.counters["zero_variance"] = zero_variance
    return report


def _canonical_int(text: str) -> int | None:
    """The int whose canonical decimal text is ``text``, else None."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


def check_layer_tag(tag) -> None:
    """Raise ValueError unless ``tag``, an int or a string, reads back from a report TSV.

    A string tag may hold no tab, ``\\n`` or ``\\r``, which would end its field
    or line, and may not be an int's canonical text, which reads back as
    that int. ``""`` is the tag of a report with no layer. Nor may it hold a
    character a chart's XML cannot hold (``chart.NOT_XML``). A bool is no int.
    """
    if isinstance(tag, int) and not isinstance(tag, bool):
        return
    if not isinstance(tag, str):
        raise ValueError(f"layer tag {tag!r} is neither an integer nor a string")
    if any(c in tag for c in "\t\n\r") or _canonical_int(tag) is not None:
        raise ValueError(f"layer tag {tag!r} does not read back from a report TSV")
    if NOT_XML.search(tag):
        raise ValueError(f"layer tag {tag!r} holds a character XML cannot hold")


def write_report_tsv(rows: Iterable[dict], path: str | Path) -> None:
    """Atomically write report rows as TSV; ``str`` of a float round-trips it exactly.

    Each row's layer tag must pass ``check_layer_tag``.
    """
    lines = ["\t".join(REPORT_COLUMNS)]
    for row in rows:
        check_layer_tag(row["layer"])
        lines.append("\t".join(str(row[c]) for c in REPORT_COLUMNS))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_report_tsv(path: str | Path) -> list[dict]:
    """Read rows written by write_report_tsv.

    A layer field reads as an int only when it is that int's canonical
    decimal text; any other field stays a string. A row is a DataError at its
    line unless ``task`` is ``distance`` or ``depth``, ``rank`` and
    ``n_sequences`` are canonical decimal integers, ``value`` is ASCII text
    with no whitespace or ``_`` that ``float`` reads as a finite number, and
    the layer and metric hold no character a chart's XML cannot hold
    (``chart.NOT_XML``).
    """
    # "\r\n" and a lone "\r" end a line as "\n" does; a layer tag may hold
    # U+2028 and the other separators at which splitlines() would also break
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not valid UTF-8: {exc.reason}") from exc
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln]
    if not lines or lines[0][1].split("\t") != list(REPORT_COLUMNS):
        raise DataError(f"{path}: not a report TSV (bad header)")
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != len(REPORT_COLUMNS):
            raise DataError(f"{path}:{lineno}: expected {len(REPORT_COLUMNS)} columns")
        layer = _canonical_int(parts[0])
        try:
            if NOT_XML.search(parts[0]) or NOT_XML.search(parts[3]):
                raise ValueError("its layer or metric holds a character XML cannot hold")
            if parts[2] not in TASKS:
                raise ValueError(f"unknown task {parts[2]!r}")
            rank, n_sequences = _canonical_int(parts[1]), _canonical_int(parts[5])
            if rank is None or n_sequences is None:
                raise ValueError("rank and n_sequences must be canonical decimal integers")
            value = parts[4]
            if not value.isascii() or "_" in value or value.strip() != value:
                raise ValueError(f"value {value!r} is not plain ASCII number text")
            number = float(value)
            if not math.isfinite(number):
                raise ValueError(f"value {value!r} is not a finite number")
            rows.append(
                {
                    "layer": parts[0] if layer is None else layer,
                    "rank": rank,
                    "task": parts[2],
                    "metric": parts[3],
                    "value": number,
                    "n_sequences": n_sequences,
                }
            )
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad report row: {exc}") from exc
    return rows


def write_report_json(report: EvalReport, path: str | Path) -> None:
    """Full per-sequence detail for one evaluation run."""
    doc = {
        "task": report.task,
        "layer": report.tag,
        "rank": report.rank,
        "aggregates": report.aggregates,
        "counters": report.counters,
        "sequences": report.records,
    }
    atomic_write_text(path, json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
