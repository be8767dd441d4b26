"""Linear structural probes: prediction, L1 training, and serialization.

A probe is a single k-by-m matrix applied to node embeddings. The distance
probe predicts the squared norm of the transformed difference of two node
vectors; the depth probe predicts the squared norm of a single transformed
vector. Both are trained by minimizing an L1 loss against integer gold
labels with mini-batch first-order updates and early stopping on the
validation loss. One forward z = H Bᵀ per sequence serves prediction, loss
and gradient: the subgradient is Zᵀ(L H), with L built from the signs of the
errors, so no m-by-m matrix is built. ``metrics`` scores probes, and ``grid``
runs the rank sweeps and layer grids that train and score them.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embed_io import EmbeddingHeader, EmbeddingSequence
from .errors import DataError, TrainingDiverged
from .io_utils import atomic_write_text
from .trees import TreeLabels

TASKS = ("distance", "depth")

Pair = tuple[TreeLabels, EmbeddingSequence]
# one sequence's float64 embeddings and float64 gold labels
Features = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
class Probe:
    """A trained (or fixed) linear transform tagged with its task."""

    task: str
    transform: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        arr = np.asarray(self.transform, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"transform must be a k-by-m matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("transform contains non-finite values")
        object.__setattr__(self, "transform", arr)

    @property
    def rank(self) -> int:
        return int(self.transform.shape[0])

    @property
    def m(self) -> int:
        return int(self.transform.shape[1])


def identity_probe(task: str, m: int) -> Probe:
    """Full-rank probe whose transform is the identity."""
    return Probe(task=task, transform=np.eye(m))


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults match the evaluation protocol."""

    batch_size: int = 32
    max_epochs: int = 40
    patience: int = 5
    rank: int = 128
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience", "rank", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("batch_size", "max_epochs", "patience", "rank"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")
        lr = self.lr
        if (
            isinstance(lr, bool)
            or not isinstance(lr, (int, float, np.integer, np.floating))
            or not 0 <= lr < math.inf  # NaN fails both comparisons
            or isinstance(lr, int) and lr > sys.float_info.max  # no float holds it
        ):
            raise ValueError(f"lr must be a finite number >= 0, got {lr!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def _predict(probe: Probe, seq: EmbeddingSequence, task: str) -> np.ndarray:
    if probe.task != task:
        raise ValueError(f"expected a {task} probe, got task {probe.task!r}")
    if probe.m != seq.m:
        raise ValueError(f"probe width {probe.m} does not match embedding width {seq.m}")
    return _prediction(seq.values.astype(np.float64) @ probe.transform.T, task)


def predict_distances(probe: Probe, seq: EmbeddingSequence) -> np.ndarray:
    """Squared transformed-difference norms for every node pair."""
    return _predict(probe, seq, "distance")


def predict_depths(probe: Probe, seq: EmbeddingSequence) -> np.ndarray:
    """Squared transformed norm of each node embedding."""
    return _predict(probe, seq, "depth")


def l1_loss(pred: np.ndarray, gold: np.ndarray, task: str) -> float:
    """Per-sequence L1 loss.

    Distance task: sum of absolute errors over unordered pairs, divided by
    n squared. Depth task: mean absolute error over the n nodes.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gold = np.asarray(gold, dtype=np.float64)
    if pred.shape != gold.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gold.shape}")
    if task == "distance":
        n = pred.shape[0]
        iu = np.triu_indices(n, k=1)
        return float(np.abs(pred[iu] - gold[iu]).sum() / (n * n))
    if task == "depth":
        n = pred.shape[0]
        return float(np.abs(pred - gold).sum() / n)
    raise ValueError(f"unknown task {task!r}")


def _gold_array(labels: TreeLabels, task: str) -> np.ndarray:
    return (labels.distances if task == "distance" else labels.depths).astype(np.float64)


def _features(pairs: Sequence[Pair], task: str) -> list[Features]:
    return [(seq.values.astype(np.float64), _gold_array(labels, task)) for labels, seq in pairs]


def _prediction(z: np.ndarray, task: str) -> np.ndarray:
    """The task's prediction from one sequence's forward z = H Bᵀ.

    Distances come out as an exactly symmetric matrix with a zero diagonal.
    """
    if task != "distance":
        return np.einsum("ij,ij->i", z, z)
    gram = z @ z.T
    gram = (gram + gram.T) / 2.0
    sq = np.diag(gram)
    dist = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(dist, 0.0, out=dist)
    np.fill_diagonal(dist, 0.0)
    return dist


def _batch_gradient(transform: np.ndarray, items: Sequence[Features], task: str) -> np.ndarray:
    """Analytic subgradient of the mean per-sequence L1 loss w.r.t. the transform B.

    For a pair difference u the squared prediction differentiates to
    2(Bu)uᵀ; summing sign-weighted pair terms gives (2/n²) B Hᵀ L H, with L
    the Laplacian of the sign matrix, and a depth gives (2/n) B Hᵀ (s ⊙ H).
    Both are read off the forward's own z = H Bᵀ as Zᵀ(L H), so no m-by-m
    matrix is built. Ties (prediction equal to gold) get subgradient zero.
    """
    grad = np.zeros_like(transform)
    for h, gold in items:
        n = h.shape[0]
        z = h @ transform.T
        signs = np.sign(_prediction(z, task) - gold)
        if task == "distance":  # L = diag(signs·1) - signs
            grad += (2.0 / (n * n)) * (z.T @ (signs.sum(axis=1)[:, None] * h - signs @ h))
        else:
            grad += (2.0 / n) * (z.T @ (signs[:, None] * h))
    return grad / len(items)


def _mean_loss(transform: np.ndarray, items: Sequence[Features], task: str) -> float:
    total = 0.0
    for h, gold in items:
        total += l1_loss(_prediction(h @ transform.T, task), gold, task)
    return total / len(items)


def loss_gradient(probe: Probe, batch: Sequence[Pair]) -> np.ndarray:
    """Gradient of the batch loss (mean per-sequence loss) w.r.t. the transform."""
    if not batch:
        raise ValueError("empty batch")
    return _batch_gradient(probe.transform, _features(batch, probe.task), probe.task)


def dataset_loss(transform: np.ndarray, pairs: Sequence[Pair], task: str) -> float:
    """Mean per-sequence L1 loss over a dataset."""
    return _mean_loss(transform, _features(pairs, task), task)


def pair_records(
    labels: Sequence[TreeLabels], embeddings: Iterable[EmbeddingSequence | EmbeddingHeader]
) -> list[Pair]:
    """Join labels with embeddings (or their headers) by unique id; lengths must agree."""
    by_id: dict[str, EmbeddingSequence | EmbeddingHeader] = {}
    for seq in embeddings:
        if seq.id in by_id:
            raise DataError(f"duplicate embedding id {seq.id!r}")
        by_id[seq.id] = seq
    pairs = []
    for lab in labels:
        seq = by_id.get(lab.id)
        if seq is None:
            raise DataError(f"no embeddings for sequence {lab.id!r}")
        if seq.n != lab.n:
            raise DataError(
                f"sequence {lab.id!r}: {seq.n} embedding rows but {lab.n} labelled nodes"
            )
        pairs.append((lab, seq))
    return pairs


class _Adam:
    """Per-parameter adaptive first-order update."""

    def __init__(self, shape: tuple[int, ...], lr: float):
        self.lr = lr
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.mean = np.zeros(shape)
        self.var = np.zeros(shape)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.mean = self.beta1 * self.mean + (1.0 - self.beta1) * grad
        self.var = self.beta2 * self.var + (1.0 - self.beta2) * grad * grad
        mhat = self.mean / (1.0 - self.beta1**self.t)
        vhat = self.var / (1.0 - self.beta2**self.t)
        params -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


class _Sgd:
    """Constant-step gradient descent."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        params -= self.lr * grad


def embedding_width(splits: Mapping[str, Sequence[Pair]]) -> int:
    """The one width m of the named splits of (labels, embeddings or header) pairs.

    An empty split is a ValueError; widths that differ are a DataError that
    names each split's widths.
    """
    widths = {}
    for name, pairs in splits.items():
        if not pairs:
            raise ValueError(f"{name} dataset is empty")
        widths[name] = sorted({seq.m for _, seq in pairs})
    (m, *more) = set().union(*widths.values())
    if more:
        raise DataError(
            "embedding widths differ: " + ", ".join(f"{n} m={ms}" for n, ms in widths.items())
        )
    return m


def train_probe(
    task: str,
    train: Sequence[Pair],
    val: Sequence[Pair],
    cfg: TrainConfig,
    layer: int | str | None = None,
) -> Probe:
    """Train a probe with mini-batch updates and early stopping.

    Keeps the parameters with the best validation loss seen so far and
    stops once that loss fails to improve for ``cfg.patience`` epochs in a
    row. Only a strictly lower loss is an improvement: an epoch that ties
    the best loss counts towards the patience, and of several epochs that
    reach the lowest loss the earliest is kept. ``meta["val_history"]``
    holds one validation loss per epoch run. Deterministic for a fixed
    config: one seeded generator drives the initialization and every
    epoch's shuffle.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    m = embedding_width({"train": train, "val": val})

    rng = np.random.default_rng(cfg.seed)
    k = cfg.rank
    scale = np.sqrt(6.0 / (k + m))
    transform = rng.uniform(-scale, scale, size=(k, m))

    train_items = _features(train, task)
    val_items = _features(val, task)

    opt = _Adam((k, m), cfg.lr) if cfg.optimizer == "adam" else _Sgd(cfg.lr)
    best_loss = np.inf
    best_transform = transform.copy()
    best_epoch = 0
    epochs_without_gain = 0
    history: list[float] = []
    epochs_run = 0

    # overflow to inf is how divergence shows up; it is caught and raised
    # below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            epochs_run = epoch
            order = rng.permutation(len(train))
            for lo in range(0, len(order), cfg.batch_size):
                chunk = order[lo : lo + cfg.batch_size]
                grad = _batch_gradient(transform, [train_items[i] for i in chunk], task)
                if not np.all(np.isfinite(grad)):
                    raise TrainingDiverged(f"non-finite gradient in epoch {epoch}")
                opt.step(transform, grad)
            val_loss = _mean_loss(transform, val_items, task)
            if not np.isfinite(val_loss):
                raise TrainingDiverged(f"non-finite validation loss in epoch {epoch}")
            history.append(val_loss)
            if val_loss < best_loss:
                best_loss = val_loss
                best_transform = transform.copy()
                best_epoch = epoch
                epochs_without_gain = 0
            else:
                epochs_without_gain += 1
            if epochs_without_gain >= cfg.patience:
                break

    meta = {
        "layer": layer,
        "seed": cfg.seed,
        "optimizer": cfg.optimizer,
        "lr": cfg.lr,
        "epochs_run": epochs_run,
        "best_epoch": best_epoch,
        "val_loss": float(best_loss),
        "val_history": [float(v) for v in history],
    }
    return Probe(task=task, transform=best_transform, meta=meta)


def save_probe(probe: Probe, path: str | Path) -> None:
    """Write a probe as JSON with a base64 float64 payload."""
    blob = np.ascontiguousarray(probe.transform, dtype="<f8").tobytes()
    rec = {
        "task": probe.task,
        "k": probe.rank,
        "m": probe.m,
        "B": base64.b64encode(blob).decode("ascii"),
        "meta": probe.meta,
    }
    atomic_write_text(path, json.dumps(rec, separators=(",", ":")) + "\n")


def load_probe(path: str | Path) -> Probe:
    """Read a probe written by save_probe."""
    try:
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
        k, m = rec["k"], rec["m"]
        if not all(isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in (k, m)):
            raise ValueError(f"k={k!r} and m={m!r} must be positive integers")
        blob = base64.b64decode(rec["B"], validate=True)
        if len(blob) != k * m * 8:
            raise ValueError(f"payload is {len(blob)} bytes, expected {k * m * 8}")
        transform = np.frombuffer(blob, dtype="<f8").reshape(k, m)
        return Probe(task=rec["task"], transform=transform, meta=dict(rec.get("meta", {})))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, binascii.Error) as exc:
        raise DataError(f"{path}: bad probe file: {exc}") from exc
