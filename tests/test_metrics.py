"""Metric suite: correlations, MST decoding, attachment and root scores."""

from __future__ import annotations

import heapq
import itertools
import os
import re

import numpy as np
import pytest

from structprobe import io_utils
from structprobe.embed_io import write_embeddings
from structprobe.errors import DataError
from structprobe.metrics import (
    EvalReport,
    decode_mst_edges,
    distance_sequence_score,
    evaluate_probe,
    gold_edges,
    length_binned_spearman,
    root_accuracy,
    spearman,
    uuas,
    read_report_tsv,
    write_report_json,
    write_report_tsv,
)
from structprobe.probe import identity_probe, save_probe
from structprobe.synth import oracle_dataset, random_tree
from structprobe.trees import TreeLabels, tree_labels, write_labels


def brute_force_spearman(x, y):
    """O(n^2) rank formula oracle: mean rank for ties, then Pearson."""

    def ranks(v):
        out = []
        for i, a in enumerate(v):
            below = sum(1 for b in v if b < a)
            equal = sum(1 for j, b in enumerate(v) if b == a and j != i)
            out.append(1.0 + below + equal / 2.0)
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (
        sum((a - mx) ** 2 for a in rx) ** 0.5 * sum((b - my) ** 2 for b in ry) ** 0.5
    )
    return num / den


def test_spearman_monotone():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)


def test_spearman_reversed():
    assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_spearman_with_ties_matches_brute_force():
    x = [1.0, 2.0, 2.0, 4.0]
    y = [1.0, 3.0, 2.0, 4.0]
    assert spearman(x, y) == pytest.approx(brute_force_spearman(x, y))


def test_spearman_random_against_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.integers(0, 5, size=n).astype(float)
        mine = spearman(x, y)
        if len(set(x)) == 1 or len(set(y)) == 1:
            assert mine is None
        else:
            assert mine == pytest.approx(brute_force_spearman(x, y))


def test_spearman_absent_cases():
    assert spearman([1.0], [2.0]) is None
    assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None


def test_spearman_invariant_under_increasing_transform():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(20)
    y = rng.standard_normal(20)
    base = spearman(x, y)
    assert spearman(np.exp(x), y) == pytest.approx(base)
    assert spearman(x, 3.0 * y + 7.0) == pytest.approx(base)


def test_length_binned_all_ones():
    assert length_binned_spearman([1.0, 1.0, 1.0], [5, 9, 50]) == pytest.approx(1.0)


def test_length_binned_two_bins():
    scores = [0.0, 1.0, 1.0]
    lengths = [5, 5, 6]
    assert length_binned_spearman(scores, lengths) == pytest.approx(0.75)


def test_length_binned_ignores_out_of_range_and_absent():
    scores = [1.0, 0.0, None, 0.5]
    lengths = [4, 51, 10, 10]
    assert length_binned_spearman(scores, lengths) == pytest.approx(0.5)
    assert length_binned_spearman([1.0], [3]) is None


def test_length_binned_order_invariant():
    rng = np.random.default_rng(2)
    scores = list(rng.uniform(0, 1, 40))
    lengths = list(rng.integers(4, 52, 40))
    base = length_binned_spearman(scores, lengths)
    order = rng.permutation(40)
    shuffled = length_binned_spearman(
        [scores[i] for i in order], [lengths[i] for i in order]
    )
    assert shuffled == pytest.approx(base)


def prufer_to_edges(seq, n):
    """Standard decode of a Prüfer sequence into tree edges."""
    if n == 2:
        return [(0, 1)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    heap = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        u = heapq.heappop(heap)
        edges.append((min(u, v), max(u, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((min(u, v), max(u, v)))
    return edges


def exhaustive_min_spanning_tree(weights):
    """Minimum spanning tree by enumerating every labelled tree."""
    n = weights.shape[0]
    best = None
    best_edges = None
    for seq in itertools.product(range(n), repeat=max(n - 2, 0)):
        edges = prufer_to_edges(seq, n)
        total = sum(weights[a, b] for a, b in edges)
        if best is None or total < best:
            best = total
            best_edges = set(edges)
    return best, best_edges


def test_mst_matches_exhaustive_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        w = rng.uniform(0, 1, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        mine = decode_mst_edges(w)
        best_total, best_edges = exhaustive_min_spanning_tree(w)
        total = sum(w[a, b] for a, b in mine)
        assert total == pytest.approx(best_total)
        assert mine == best_edges


def test_mst_deterministic_tie_breaking():
    # all edges weigh the same: the lexicographically smallest spanning
    # tree is the star on node 0
    w = np.ones((4, 4)) - np.eye(4)
    assert decode_mst_edges(w) == {(0, 1), (0, 2), (0, 3)}


def test_uuas_gold_against_gold_is_one():
    rng = np.random.default_rng(4)
    for _ in range(50):
        labels = tree_labels(random_tree(int(rng.integers(2, 13)), rng), "s")
        assert uuas(labels.distances.astype(float), labels) == pytest.approx(1.0)


def test_uuas_two_thirds_case():
    # gold chain 0-1-2-3; predictions prefer the edge (1,3) over (2,3)
    chain = TreeLabels(
        id="s",
        distances=[[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
        depths=[0, 1, 2, 3],
        root=0,
    )
    w = np.full((4, 4), 10.0)
    np.fill_diagonal(w, 0.0)
    for a, b in ((0, 1), (1, 2), (1, 3)):
        w[a, b] = w[b, a] = 1.0
    _, best_edges = exhaustive_min_spanning_tree(w)
    assert best_edges == {(0, 1), (1, 2), (1, 3)}
    assert uuas(w, chain) == pytest.approx(2.0 / 3.0)


def test_uuas_two_nodes_always_one():
    labels = TreeLabels(id="s", distances=[[0, 1], [1, 0]], depths=[0, 1], root=0)
    rng = np.random.default_rng(5)
    w = np.zeros((2, 2))
    w[0, 1] = w[1, 0] = float(rng.uniform(0, 9))
    assert uuas(w, labels) == pytest.approx(1.0)


def test_uuas_exclusions_drop_tokens():
    # chain 0-1-2-3; excluding token 3 leaves gold edges {01,12}
    chain = TreeLabels(
        id="s",
        distances=[[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
        depths=[0, 1, 2, 3],
        root=0,
    )
    pred = chain.distances.astype(float)
    assert uuas(pred, chain, exclude=[3]) == pytest.approx(1.0)
    assert uuas(pred, chain, exclude=[0, 1, 2]) is None


def test_gold_edges_extraction():
    labels = tree_labels(random_tree(8, 42), "s")
    edges = gold_edges(labels)
    assert len(edges) == 7
    for a, b in edges:
        assert labels.distances[a, b] == 1


def test_root_accuracy_perfect_and_half():
    labels = [
        TreeLabels(id="a", distances=[[0, 1], [1, 0]], depths=[0, 1], root=0),
        TreeLabels(id="b", distances=[[0, 1], [1, 0]], depths=[1, 0], root=1),
    ]
    golds = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    assert root_accuracy(golds, labels) == pytest.approx(1.0)
    assert root_accuracy([golds[0], np.array([0.0, 1.0])], labels) == pytest.approx(0.5)


def test_root_accuracy_tie_goes_to_first_index():
    labels = [TreeLabels(id="a", distances=[[0, 1], [1, 0]], depths=[0, 1], root=0)]
    assert root_accuracy([np.zeros(2)], labels) == pytest.approx(1.0)


def test_root_accuracy_rejects_visual_labels():
    labels = [TreeLabels(id="a", distances=[[0, 1], [1, 0]], depths=[0, 1], root=None)]
    with pytest.raises(ValueError, match="root"):
        root_accuracy([np.zeros(2)], labels)


def test_distance_sequence_score_modes():
    labels = tree_labels(random_tree(7, 11), "s")
    gold = labels.distances.astype(float)
    rows_score, undef = distance_sequence_score(gold, gold, mode="rows")
    assert rows_score == pytest.approx(1.0) and undef == 0
    mat_score, _ = distance_sequence_score(gold, gold, mode="matrix")
    assert mat_score == pytest.approx(1.0)
    constant = np.zeros_like(gold)
    none_score, undef = distance_sequence_score(constant, gold, mode="rows")
    assert none_score is None and undef == 7


def test_evaluate_probe_on_exact_oracle():
    data = oracle_dataset(12, 5, 9, extra_dims=0, seed=6)
    pairs = data.pairs()
    m = pairs[0][1].m
    dist = evaluate_probe(identity_probe("distance", m), pairs, tag=0, rank=m)
    assert dist.aggregates["dspr"] == pytest.approx(1.0)
    assert dist.aggregates["uuas"] == pytest.approx(1.0)
    depth = evaluate_probe(identity_probe("depth", m), pairs, tag=0, rank=m)
    assert depth.aggregates["nspr"] == pytest.approx(1.0)
    assert depth.aggregates["root_acc"] == pytest.approx(1.0)
    assert depth.counters["zero_variance"] == 0


def test_evaluate_probe_is_pure():
    data = oracle_dataset(6, 5, 8, extra_dims=1, seed=7)
    pairs = data.pairs()
    probe = identity_probe("distance", pairs[0][1].m)
    a = evaluate_probe(probe, pairs)
    b = evaluate_probe(probe, pairs)
    assert a.aggregates == b.aggregates
    assert a.records == b.records


@pytest.mark.parametrize(
    "write",
    [
        lambda path: save_probe(identity_probe("depth", 2), path),
        lambda path: write_report_json(EvalReport(task="depth", tag=0, rank=2), path),
        lambda path: write_report_tsv([], path),
        lambda path: write_labels(oracle_dataset(2, 3, 4, seed=1).labels, path),
        lambda path: write_embeddings(oracle_dataset(2, 3, 4, seed=1).embeddings, path),
    ],
    ids=["save_probe", "write_report_json", "write_report_tsv", "write_labels", "write_embeddings"],
)
def test_writers_are_atomic(tmp_path, monkeypatch, write):
    target = tmp_path / "out"
    target.write_bytes(b"old contents\n")

    def failing_replace(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(io_utils.os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated crash"):
        write(target)
    assert target.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("bad_field", [1, 4, 5], ids=["rank", "value", "n_sequences"])
def test_read_report_tsv_bad_field_names_line(tmp_path, bad_field):
    path = tmp_path / "r.tsv"
    row = {"layer": 0, "rank": 4, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 3}
    write_report_tsv([row, row], path)
    lines = path.read_text().splitlines()
    parts = lines[2].split("\t")
    parts[bad_field] = "x"
    path.write_text("\n".join(lines[:2] + ["", "\t".join(parts)]) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:4: ")):
        read_report_tsv(path)


@pytest.mark.parametrize("sep", ["\x85", "\u2028", "\u2029"])
def test_report_tsv_roundtrip_keeps_unicode_line_breaks_in_layer_tags(tmp_path, sep):
    path = tmp_path / "r.tsv"
    rows = [
        {"layer": f"a{sep}b", "rank": 4, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 3},
        {"layer": 2, "rank": 4, "task": "depth", "metric": "root_acc", "value": 0.25, "n_sequences": 3},
    ]
    write_report_tsv(rows, path)
    assert read_report_tsv(path) == rows


@pytest.mark.parametrize(
    "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x00", "\x1f", "\ufffe", "\uffff"]
)
def test_report_tsv_rejects_layer_tags_and_metrics_xml_cannot_hold(tmp_path, char):
    path = tmp_path / "r.tsv"
    row = {"layer": f"a{char}b", "rank": 4, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 3}
    with pytest.raises(ValueError, match="XML cannot hold"):
        write_report_tsv([row], path)
    assert not path.exists()
    good = dict(row, layer=2)
    write_report_tsv([good, good], path)
    lines = path.read_text().split("\n")
    for column in (0, 3):  # the layer, then the metric
        parts = lines[2].split("\t")
        parts[column] = f"a{char}b"
        path.write_text("\n".join(lines[:2] + ["\t".join(parts), ""]))
        with pytest.raises(DataError, match=re.escape(f"{path}:3: ") + ".*XML cannot hold"):
            read_report_tsv(path)


@pytest.mark.parametrize("tag", ["007", "1_0", " 7", "7 ", "+7", "-0", "", "baseline", 0, -3, 12])
def test_report_tsv_layer_tags_read_back_as_written(tmp_path, tag):
    path = tmp_path / "r.tsv"
    rows = [{"layer": tag, "rank": 4, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 3}]
    write_report_tsv(rows, path)
    assert read_report_tsv(path) == rows


@pytest.mark.parametrize("tag", ["a\tb", "a\nb", "a\rb", "7", "-3", "0"])
def test_write_report_tsv_rejects_tags_that_do_not_read_back(tmp_path, tag):
    path = tmp_path / "r.tsv"
    row = {"layer": tag, "rank": 4, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 3}
    with pytest.raises(ValueError, match="layer tag"):
        write_report_tsv([row], path)
    assert not path.exists()


def test_read_report_tsv_non_utf8_is_data_error_naming_file(tmp_path):
    path = tmp_path / "r.tsv"
    row = {"layer": "ab", "rank": 4, "task": "depth", "metric": "nspr", "value": 0.5, "n_sequences": 3}
    write_report_tsv([row], path)
    path.write_bytes(path.read_bytes().replace(b"ab", b"a\xffb"))
    with pytest.raises(DataError, match=re.escape(f"{path}: not valid UTF-8")):
        read_report_tsv(path)
