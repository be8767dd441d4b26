"""Property tests of the probe gradient and of early stopping in the training loop."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from structprobe.embed_io import EmbeddingSequence
from structprobe.probe import (
    Probe,
    TrainConfig,
    dataset_loss,
    identity_probe,
    l1_loss,
    loss_gradient,
    predict_depths,
    predict_distances,
    train_probe,
)
from structprobe.synth import oracle_dataset, random_tree
from structprobe.trees import tree_labels

PAIRS = oracle_dataset(16, 4, 10, extra_dims=0, seed=9).pairs()
TRAIN, VAL = PAIRS[:12], PAIRS[12:]


@settings(max_examples=40, deadline=None)
@given(
    task=st.sampled_from(["distance", "depth"]),
    lr=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    patience=st.integers(1, 4),
    max_epochs=st.integers(4, 15),
    seed=st.integers(0, 2**16),
)
def test_early_stopping_invariants(task, lr, patience, max_epochs, seed):
    cfg = TrainConfig(
        batch_size=4, max_epochs=max_epochs, patience=patience, rank=4, lr=lr, seed=seed
    )
    probe = train_probe(task, TRAIN, VAL, cfg)
    meta = probe.meta
    history = meta["val_history"]
    epochs_run, best_epoch = meta["epochs_run"], meta["best_epoch"]

    assert len(history) == epochs_run
    if epochs_run < max_epochs:
        assert best_epoch == epochs_run - patience
    else:
        assert epochs_run == max_epochs
        assert epochs_run - best_epoch <= patience
    # only a strictly lower loss is a gain, so the earliest minimum is kept
    assert best_epoch == history.index(min(history)) + 1
    assert meta["val_loss"] == history[best_epoch - 1]
    assert dataset_loss(probe.transform, VAL, task) == meta["val_loss"]


def reference_gradient(probe, batch):
    """The gradient in its m-by-m form: (2/n²)·B(HᵀLH) for distances with L the
    Laplacian of the sign matrix, (2/n)·B(Hᵀ(s⊙H)) for depths."""
    b = probe.transform
    grad = np.zeros_like(b)
    for labels, seq in batch:
        h = seq.values.astype(np.float64)
        n = h.shape[0]
        if probe.task == "distance":
            signs = np.sign(predict_distances(probe, seq) - labels.distances)
            np.fill_diagonal(signs, 0.0)
            lap = np.diag(signs.sum(axis=1)) - signs
            grad += (2.0 / (n * n)) * (b @ (h.T @ lap @ h))
        else:
            signs = np.sign(predict_depths(probe, seq) - labels.depths)
            grad += (2.0 / n) * (b @ (h.T @ (signs[:, None] * h)))
    return grad / len(batch)


def random_batch(task, k, m, sizes, seed):
    rng = np.random.default_rng(seed)
    probe = Probe(task=task, transform=rng.normal(size=(k, m)))
    batch = [
        (
            tree_labels(random_tree(n, rng), f"s{i}"),
            EmbeddingSequence(id=f"s{i}", layer=0, values=rng.normal(size=(n, m))),
        )
        for i, n in enumerate(sizes)
    ]
    return probe, batch


# up to 8 sequences of unequal lengths, so that each starts at its own row of the stacked batch
BATCHES = dict(
    task=st.sampled_from(["distance", "depth"]),
    k=st.integers(1, 8),
    m=st.integers(1, 8),
    sizes=st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None)
@given(**BATCHES)
def test_gradient_matches_the_m_by_m_reference(task, k, m, sizes, seed):
    probe, batch = random_batch(task, k, m, sizes, seed)
    expected = reference_gradient(probe, batch)
    got = loss_gradient(probe, batch)
    assert got.shape == (k, m)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@settings(max_examples=100, deadline=None)
@given(**BATCHES)
def test_a_stacked_batch_gives_the_mean_of_its_sequences_loss_and_gradient(
    task, k, m, sizes, seed
):
    probe, batch = random_batch(task, k, m, sizes, seed)
    predict = predict_distances if task == "distance" else predict_depths
    losses = [
        l1_loss(predict(probe, seq), labels.distances if task == "distance" else labels.depths, task)
        for labels, seq in batch
    ]
    expected = np.mean(losses)
    assert abs(dataset_loss(probe.transform, batch, task) - expected) <= 1e-12 * expected
    expected = np.mean([loss_gradient(probe, [pair]) for pair in batch], axis=0)
    got = loss_gradient(probe, batch)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@settings(max_examples=60, deadline=None)
@given(
    task=st.sampled_from(["distance", "depth"]),
    min_n=st.integers(1, 8),
    spread=st.integers(0, 6),
    extra_dims=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_identity_probe_on_exact_oracle_trees_has_zero_gradient(
    task, min_n, spread, extra_dims, seed
):
    data = oracle_dataset(4, min_n, min_n + spread, extra_dims=extra_dims, seed=seed)
    batch = data.pairs()
    probe = identity_probe(task, batch[0][1].m)
    # every prediction ties its gold value, so every sign is zero
    assert not np.any(loss_gradient(probe, batch))
