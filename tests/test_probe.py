"""Probe predictions, L1 loss, analytic gradient, and the training loop."""

from __future__ import annotations

import re

import numpy as np
import pytest

from structprobe.embed_io import EmbeddingSequence
from structprobe.errors import DataError, TrainingDiverged
from structprobe.probe import (
    Probe,
    TrainConfig,
    dataset_loss,
    identity_probe,
    l1_loss,
    load_probe,
    loss_gradient,
    pair_records,
    predict_depths,
    predict_distances,
    save_probe,
    train_probe,
)
from structprobe.synth import oracle_dataset, random_tree
from structprobe.trees import tree_labels


def seq(values, seq_id="s", layer=0):
    return EmbeddingSequence(id=seq_id, layer=layer, values=np.asarray(values, dtype=np.float32))


def dist_probe(matrix):
    return Probe(task="distance", transform=np.asarray(matrix, dtype=np.float64))


def depth_probe(matrix):
    return Probe(task="depth", transform=np.asarray(matrix, dtype=np.float64))


def test_distance_identity_unit_difference():
    pred = predict_distances(dist_probe(np.eye(2)), seq([[0, 0], [1, 0]]))
    assert pred[0, 1] == pytest.approx(1.0)


def test_distance_scaling_is_quadratic():
    pred = predict_distances(dist_probe(2 * np.eye(2)), seq([[0, 0], [1, 0]]))
    assert pred[0, 1] == pytest.approx(4.0)


def test_distance_rank_one():
    pred = predict_distances(dist_probe([[1, 1]]), seq([[1, 2], [0, 0]]))
    assert pred[0, 1] == pytest.approx(9.0)


def test_depth_identity_norm():
    assert predict_depths(depth_probe(np.eye(2)), seq([[3, 4]]))[0] == pytest.approx(25.0)


def test_depth_zero_vector():
    assert predict_depths(depth_probe(np.eye(2)), seq([[0, 0]]))[0] == 0.0


def test_depth_coordinate_picker():
    assert predict_depths(depth_probe([[0, 1]]), seq([[7, 2]]))[0] == pytest.approx(4.0)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError, match="width"):
        predict_distances(dist_probe(np.eye(3)), seq([[0, 0], [1, 0]]))
    with pytest.raises(ValueError, match="width"):
        predict_depths(depth_probe(np.eye(3)), seq([[0, 0]]))


def test_task_mismatch_rejected():
    with pytest.raises(ValueError, match="task"):
        predict_distances(depth_probe(np.eye(2)), seq([[0, 0], [1, 0]]))


def test_prediction_matrix_shape_properties():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n, m, k = rng.integers(2, 9), rng.integers(1, 7), rng.integers(1, 7)
        probe = dist_probe(rng.standard_normal((k, m)))
        pred = predict_distances(probe, seq(rng.standard_normal((n, m))))
        assert np.array_equal(pred, pred.T)
        assert np.all(np.diag(pred) == 0)
        assert np.all(pred >= 0)


def test_sqrt_predictions_satisfy_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(10):
        probe = dist_probe(rng.standard_normal((4, 6)))
        pred = predict_distances(probe, seq(rng.standard_normal((7, 6))))
        root = np.sqrt(pred)
        for i in range(7):
            for j in range(7):
                for k in range(7):
                    assert root[i, k] <= root[i, j] + root[j, k] + 1e-9


def test_orthogonal_rotation_leaves_predictions_unchanged():
    rng = np.random.default_rng(2)
    k, m, n = 5, 4, 6
    base = rng.standard_normal((k, m))
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    data = seq(rng.standard_normal((n, m)))
    a = predict_distances(dist_probe(base), data)
    b = predict_distances(dist_probe(q @ base), data)
    assert np.max(np.abs(a - b)) < 1e-9
    da = predict_depths(depth_probe(base), data)
    db = predict_depths(depth_probe(q @ base), data)
    assert np.max(np.abs(da - db)) < 1e-9


def test_l1_loss_zero_on_equal():
    gold = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert l1_loss(gold, gold, "distance") == 0.0


def test_l1_loss_distance_normalization():
    pred = np.array([[0.0, 3.0], [3.0, 0.0]])
    gold = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert l1_loss(pred, gold, "distance") == pytest.approx(0.5)


def test_l1_loss_depth_normalization():
    assert l1_loss(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 2.0]), "depth") == (
        pytest.approx(1.0 / 3.0)
    )


def test_l1_loss_shape_mismatch():
    with pytest.raises(ValueError):
        l1_loss(np.zeros(3), np.zeros(4), "depth")


def labelled_pair(rng, n, m, task_values=None, seq_id="s"):
    tree = random_tree(n, rng)
    labels = tree_labels(tree, seq_id)
    emb = seq(rng.standard_normal((n, m)), seq_id=seq_id)
    return labels, emb


def finite_difference(probe, batch, step=1e-5):
    base = probe.transform
    grad = np.zeros_like(base)
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            hi = base.copy()
            hi[i, j] += step
            lo = base.copy()
            lo[i, j] -= step
            up = dataset_loss(hi, batch, probe.task)
            down = dataset_loss(lo, batch, probe.task)
            grad[i, j] = (up - down) / (2 * step)
    return grad


@pytest.mark.parametrize("task", ["distance", "depth"])
def test_gradient_matches_finite_differences(task):
    rng = np.random.default_rng(9)
    for _ in range(25):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        batch = [
            labelled_pair(rng, int(rng.integers(2, 7)), m, seq_id=f"s{i}") for i in range(3)
        ]
        probe = Probe(task=task, transform=rng.standard_normal((k, m)))
        analytic = loss_gradient(probe, batch)
        numeric = finite_difference(probe, batch)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-4


def test_gradient_zero_when_predictions_match_gold():
    # identity probe on exact tree embeddings: pred == gold everywhere
    data = oracle_dataset(3, 4, 6, extra_dims=0, seed=5)
    probe = identity_probe("distance", data.embeddings[0].m)
    grad = loss_gradient(probe, data.pairs())
    assert np.all(grad == 0)


def test_gradient_direction_term_scales_quadratically():
    # with embeddings large enough that pred > gold stays true after
    # doubling, the whole gradient picks up the factor of four
    rng = np.random.default_rng(12)
    labels, emb = labelled_pair(rng, 5, 4)
    big = EmbeddingSequence(id="s", layer=0, values=emb.values * 100.0)
    double = EmbeddingSequence(id="s", layer=0, values=big.values * 2.0)
    probe = dist_probe(rng.standard_normal((3, 4)))
    g1 = loss_gradient(probe, [(labels, big)])
    g2 = loss_gradient(probe, [(labels, double)])
    assert np.allclose(g2, 4.0 * g1, rtol=1e-10)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=50, max_epochs=40)


def test_early_stopping_with_zero_learning_rate():
    data = oracle_dataset(8, 4, 6, extra_dims=0, seed=6)
    pairs = data.pairs()
    cfg = TrainConfig(batch_size=4, max_epochs=40, patience=1, rank=3, lr=0.0, seed=0)
    probe = train_probe("distance", pairs, pairs, cfg)
    assert probe.meta["epochs_run"] == 2
    assert probe.meta["best_epoch"] == 1


@pytest.mark.parametrize("task", ["distance", "depth"])
def test_early_stopping_keeps_best_epoch(task):
    pairs = oracle_dataset(16, 4, 10, extra_dims=0, seed=9).pairs()
    val = pairs[12:]
    cfg = TrainConfig(batch_size=4, max_epochs=40, patience=3, rank=4, lr=0.05, seed=3)
    probe = train_probe(task, pairs[:12], val, cfg)
    meta = probe.meta
    assert meta["epochs_run"] < cfg.max_epochs
    assert meta["best_epoch"] == meta["epochs_run"] - cfg.patience
    assert len(meta["val_history"]) == meta["epochs_run"]
    assert meta["val_loss"] == meta["val_history"][meta["best_epoch"] - 1]
    # the returned transform is the best epoch's, not the last epoch's
    assert dataset_loss(probe.transform, val, task) == meta["val_loss"]


def test_training_is_deterministic():
    data = oracle_dataset(12, 4, 8, extra_dims=2, seed=8)
    pairs = data.pairs()
    cfg = TrainConfig(batch_size=4, max_epochs=3, patience=3, rank=6, seed=21)
    a = train_probe("depth", pairs[:8], pairs[8:], cfg)
    b = train_probe("depth", pairs[:8], pairs[8:], cfg)
    assert np.array_equal(a.transform, b.transform)
    assert a.meta["val_history"] == b.meta["val_history"]


def test_best_so_far_is_monotone():
    data = oracle_dataset(16, 4, 10, extra_dims=0, seed=9)
    pairs = data.pairs()
    cfg = TrainConfig(batch_size=8, max_epochs=10, patience=10, rank=9, seed=3)
    probe = train_probe("distance", pairs[:12], pairs[12:], cfg)
    best = np.inf
    bests = []
    for v in probe.meta["val_history"]:
        best = min(best, v)
        bests.append(best)
    assert bests == sorted(bests, reverse=True)
    assert probe.meta["val_loss"] == pytest.approx(min(probe.meta["val_history"]))


@pytest.mark.parametrize("task", ["distance", "depth"])
def test_a_non_finite_validation_loss_is_training_divergence(task):
    # one batch per epoch: the step overflows the transform, not the gradient before it
    pairs = oracle_dataset(8, 3, 6, seed=1).pairs()
    cfg = TrainConfig(batch_size=len(pairs), max_epochs=2, patience=2, lr=1e300)
    with pytest.raises(TrainingDiverged, match=r"^non-finite validation loss in epoch 1$"):
        train_probe(task, pairs, pairs, cfg)


def test_train_rejects_empty_and_mixed_width():
    data = oracle_dataset(4, 4, 5, seed=10)
    pairs = data.pairs()
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        train_probe("distance", [], pairs, cfg)
    other = oracle_dataset(2, 8, 9, seed=11).pairs()
    with pytest.raises(DataError):
        train_probe("distance", pairs + other, pairs, cfg)


def test_pair_records_validation():
    data = oracle_dataset(3, 4, 5, seed=12)
    pairs = pair_records(list(data.labels), list(data.embeddings))
    assert [lab.id for lab, _ in pairs] == [e.id for _, e in pairs]
    with pytest.raises(DataError, match="no embeddings"):
        pair_records(list(data.labels), list(data.embeddings)[:2])
    bad = EmbeddingSequence(
        id=data.labels[0].id, layer=0, values=np.zeros((99, 4), dtype=np.float32)
    )
    with pytest.raises(DataError, match="rows"):
        pair_records([data.labels[0]], [bad])


def test_full_rank_probe_recovers_oracle_structure():
    # with rank equal to the embedding width the gold labels are exactly
    # representable, so training should get very close
    from structprobe.metrics import evaluate_probe

    data = oracle_dataset(500, 5, 50, extra_dims=16, seed=7)
    pairs = data.pairs()
    m = data.embeddings[0].m
    probe = train_probe("distance", pairs[:400], pairs[400:], TrainConfig(rank=m, seed=4))
    report = evaluate_probe(probe, pairs[400:])
    assert report.aggregates["dspr"] >= 0.95
    assert report.aggregates["uuas"] >= 0.90


def test_sweep_empty_rank_list():
    from structprobe.grid import rank_cells

    data = oracle_dataset(6, 4, 6, seed=14)
    pairs = data.pairs()
    splits = {"train": pairs, "val": pairs, "eval": pairs}
    with pytest.raises(ValueError, match="non-empty"):
        list(rank_cells("depth", splits, TrainConfig(), []))


def test_sweep_duplicate_ranks_give_identical_rows():
    from structprobe.grid import rank_cells

    data = oracle_dataset(10, 4, 7, seed=15)
    pairs = data.pairs()
    cfg = TrainConfig(batch_size=4, max_epochs=2, patience=2, seed=5)
    splits = {"train": pairs[:7], "val": pairs[7:], "eval": pairs[7:]}
    runs = [list(rank_cells("distance", splits, cfg, [3])) for _ in range(2)]
    tables = [
        [(rank, probe.meta, r.rank, r.aggregates, r.counters) for rank, probe, r in cells]
        for cells in runs
    ]
    assert tables[0] == tables[1]
    assert [r.rank for _, _, r in runs[0]] == [3]
    # the best validation loss is the probe's, and the report scores every eval sequence
    assert runs[0][0][1].meta["val_loss"] >= 0
    assert len(runs[0][0][2].records) == 3
    # a rank named twice follows the rule of sweep --ranks and a manifest's ranks
    with pytest.raises(ValueError, match="distinct"):
        list(rank_cells("distance", splits, cfg, [3, 3]))


def test_probe_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    probe = Probe(
        task="depth",
        transform=rng.standard_normal((4, 7)),
        meta={"layer": 2, "seed": 1, "val_loss": 0.25},
    )
    path = tmp_path / "probe.json"
    save_probe(probe, path)
    back = load_probe(path)
    assert back.task == "depth"
    assert back.meta["layer"] == 2
    assert back.transform.tobytes() == probe.transform.tobytes()


def test_load_probe_rejects_garbage(tmp_path):
    path = tmp_path / "probe.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        load_probe(path)


@pytest.mark.parametrize(
    "field, value",
    [("batch_size", 2.5), ("seed", 1.5), ("rank", 2.0), ("rank", True), ("max_epochs", "40"),
     ("patience", float("inf")), ("seed", -1)],
)
def test_train_config_integer_fields_must_be_integers(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_numpy_integers():
    assert TrainConfig(rank=np.int64(3), seed=np.int32(2)).rank == 3


def test_a_train_config_of_numpy_scalars_saves_the_probe_of_its_python_numbers(tmp_path):
    pairs = oracle_dataset(8, 4, 6, extra_dims=0, seed=6).pairs()
    python = dict(batch_size=4, max_epochs=2, patience=1, rank=3, lr=0.01, seed=3)
    numpy = dict(batch_size=np.int32(4), max_epochs=np.int64(2), patience=np.uint8(1),
                 rank=np.int64(3), lr=np.float64(0.01), seed=np.int64(3))
    paths = []
    for name, values in (("python", python), ("numpy", numpy)):
        cfg = TrainConfig(**values)
        assert all(type(getattr(cfg, k)) is type(v) for k, v in python.items())
        paths.append(tmp_path / f"{name}.json")
        save_probe(train_probe("depth", pairs[:6], pairs[6:], cfg), paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("field, text", [("k", "1e999"), ("k", "4.0"), ("m", "true"), ("m", "-7")])
def test_load_probe_requires_integer_k_and_m(tmp_path, field, text):
    path = tmp_path / "probe.json"
    save_probe(Probe(task="depth", transform=np.ones((4, 7))), path)
    good = f'"{field}":{4 if field == "k" else 7},'
    path.write_text(path.read_text().replace(good, f'"{field}":{text},'))
    with pytest.raises(DataError, match=re.escape(f"{path}: bad probe file")):
        load_probe(path)
