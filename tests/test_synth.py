"""Synthetic tree generation and the exact embedding construction."""

from __future__ import annotations

import numpy as np
import pytest

from structprobe.metrics import evaluate_probe, uuas_counts
from structprobe.probe import identity_probe, predict_distances, predict_depths
from structprobe.synth import oracle_dataset, oracle_embed_tree, random_tree
from structprobe.trees import ROOT, DepTree, tree_depths, tree_distances, tree_labels


def test_random_tree_small_cases():
    one = random_tree(1, 0)
    assert one.n == 1 and one.heads == (ROOT,)
    two = random_tree(2, 0)
    assert two.n == 2
    assert sorted(two.heads)[0] == ROOT


def test_random_tree_deterministic():
    assert random_tree(9, 123).heads == random_tree(9, 123).heads


def test_random_tree_covers_both_three_node_shapes():
    # rooted shapes on three nodes: chain (max depth 2) and star (max depth 1)
    chains = stars = 0
    for seed in range(10_000):
        depth = int(tree_depths(random_tree(3, seed)).max())
        if depth == 2:
            chains += 1
        else:
            stars += 1
    assert chains > 1000 and stars > 1000


def test_random_tree_root_position_varies():
    roots = {random_tree(6, seed).root for seed in range(200)}
    assert len(roots) == 6


def test_oracle_chain_rows():
    chain = DepTree(tokens=("a", "b", "c"), heads=(ROOT, 0, 1))
    emb = oracle_embed_tree(chain)
    assert emb.values.tolist() == [[0, 0], [1, 0], [1, 1]]
    sq = predict_distances(identity_probe("distance", 2), emb)
    assert sq.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    norms = predict_depths(identity_probe("depth", 2), emb)
    assert norms.tolist() == [0, 1, 2]


def test_oracle_identities_exact_on_random_trees():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        tree = random_tree(n, rng)
        emb = oracle_embed_tree(tree, extra_dims=int(rng.integers(0, 5)), seed=rng)
        dist = predict_distances(identity_probe("distance", emb.m), emb)
        assert np.array_equal(dist, tree_distances(tree).astype(float))
        depths = predict_depths(identity_probe("depth", emb.m), emb)
        assert np.array_equal(depths, tree_depths(tree).astype(float))


def test_oracle_single_node_has_width_one():
    tree = DepTree(tokens=("a",), heads=(ROOT,))
    emb = oracle_embed_tree(tree)
    assert emb.values.shape == (1, 1)


def test_oracle_rejects_bad_arguments():
    tree = random_tree(4, 0)
    with pytest.raises(ValueError):
        oracle_embed_tree(tree, extra_dims=-1)
    with pytest.raises(ValueError):
        oracle_embed_tree(tree, noise_sigma=-0.5)
    with pytest.raises(ValueError):
        random_tree(0)


def test_noisy_oracle_keeps_high_uuas():
    hits = []
    for seed in range(100):
        tree = random_tree(10, seed)
        labels = tree_labels(tree, "s")
        emb = oracle_embed_tree(tree, noise_sigma=0.05, seed=seed + 1)
        pred = predict_distances(identity_probe("distance", emb.m), emb)
        correct, total = uuas_counts(pred, labels)
        hits.append(correct / total)
    assert float(np.mean(hits)) >= 0.9


def test_dataset_shares_width_and_is_deterministic():
    data = oracle_dataset(10, 3, 9, extra_dims=4, seed=5)
    widths = {e.m for e in data.embeddings}
    assert widths == {12}
    again = oracle_dataset(10, 3, 9, extra_dims=4, seed=5)
    for a, b in zip(data.embeddings, again.embeddings):
        assert np.array_equal(a.values, b.values)
    assert [t.heads for t in data.trees] == [t.heads for t in again.trees]


def test_dataset_metrics_all_perfect_without_noise():
    data = oracle_dataset(20, 5, 12, extra_dims=3, seed=6)
    pairs = data.pairs()
    m = data.embeddings[0].m
    report = evaluate_probe(identity_probe("distance", m), pairs)
    assert report.aggregates["dspr"] == pytest.approx(1.0, abs=1e-12)
    assert report.aggregates["uuas"] == pytest.approx(1.0, abs=1e-12)
