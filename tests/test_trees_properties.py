"""Properties: gold tree labels against the Floyd–Warshall reference, and their JSONL lines."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structprobe import trees as trees_mod
from structprobe.trees import (
    ROOT,
    DepTree,
    TreeLabels,
    all_pairs_path_lengths,
    labels_record,
    tree_depths,
    tree_labels,
)
from test_trees import floyd_warshall


@st.composite
def head_arrays(draw):
    """A tree of 1-60 nodes: attachment order, then a relabelling."""
    n = draw(st.integers(1, 60))
    parents = [ROOT] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    perm = draw(st.permutations(range(n)))
    heads = [0] * n
    for i, p in enumerate(parents):
        heads[perm[i]] = ROOT if p == ROOT else perm[p]
    return heads


@settings(max_examples=100, deadline=None)
@given(head_arrays())
def test_tree_labels_match_floyd_warshall(heads):
    expected = floyd_warshall(heads)
    assert np.array_equal(all_pairs_path_lengths(heads), expected)
    tree = DepTree(tokens=tuple("w" * len(heads)), heads=heads)
    assert np.array_equal(tree_depths(tree), expected[tree.root])
    labels = tree_labels(tree, "s")
    assert np.array_equal(labels.distances, expected)
    assert np.array_equal(labels.depths, expected[tree.root])
    # built without TreeLabels' checks, which hold by construction
    assert labels.distances.dtype == labels.depths.dtype == np.int64
    TreeLabels(id=labels.id, distances=labels.distances, depths=labels.depths, root=labels.root)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(-2, n), min_size=n, max_size=n)))
def test_any_head_array_is_a_tree_or_rejected(heads):
    n = len(heads)
    is_tree = heads.count(ROOT) == 1 and all(h == ROOT or 0 <= h < n for h in heads)
    if is_tree:  # n - 1 edges: a tree exactly when connected
        expected = floyd_warshall(heads)
        is_tree = bool(np.all(expected < 10**6))
    if is_tree:
        assert np.array_equal(all_pairs_path_lengths(heads), expected)
    else:
        with pytest.raises(ValueError):
            all_pairs_path_lengths(heads)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(-2, n), min_size=n, max_size=n)))
def test_deptree_order_lists_each_token_after_its_head_or_rejects(heads):
    n = len(heads)
    is_tree = heads.count(ROOT) == 1 and all(h == ROOT or 0 <= h < n for h in heads)
    is_tree = is_tree and bool(np.all(floyd_warshall(heads) < 10**6))
    if not is_tree:
        with pytest.raises(ValueError):
            DepTree(tokens=("w",) * n, heads=heads)
        return
    tree = DepTree(tokens=("w",) * n, heads=heads)
    assert sorted(tree.order) == list(range(n))
    assert tree.root == tree.order[0] and heads[tree.root] == ROOT
    position = {v: i for i, v in enumerate(tree.order)}
    assert all(position[heads[v]] < position[v] for v in tree.order[1:])


def reference_record(lab: TreeLabels, extra: dict | None = None) -> str:
    """The reference line: ``json.dumps`` of the record as a dict, compact separators."""
    rec: dict = {
        "id": lab.id,
        "n": lab.n,
        "depths": lab.depths.tolist(),
        "distances": lab.distances.tolist(),
    }
    if lab.root is not None:
        rec["root"] = int(lab.root)
    if extra:
        rec.update(extra)
    return json.dumps(rec, separators=(",", ":"))


CACHE = trees_mod._TABLE
EXTRA_KEYS = st.sampled_from(["parents", "phrase_to_text", "é", "", "id", "n", "depths", "distances", "root"])
EXTRA_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(
    head_arrays(),
    st.text(max_size=6) | st.sampled_from(["s1", "ein M\u00e4dchen", "\u2028", 'a"b\\c', "\ud800"]),
    st.sampled_from([1, 1, CACHE // 2, CACHE, 10**15]),
    st.booleans(),
    st.none() | st.dictionaries(EXTRA_KEYS, EXTRA_VALUES, max_size=3),
)
def test_labels_record_matches_json_dumps_of_the_record_dict(heads, seq_id, scale, has_root, extra):
    tree = DepTree(tokens=tuple("w" * len(heads)), heads=heads)
    gold = tree_labels(tree, seq_id)
    # scaled labels keep the checks' invariants and reach values at and past the cache
    lab = TreeLabels(
        id=seq_id,
        distances=gold.distances * scale,
        depths=gold.depths * scale,
        root=gold.root if has_root else None,
    )
    assert labels_record(lab, extra) == reference_record(lab, extra)
    assert labels_record(lab) == reference_record(lab)


@pytest.mark.parametrize(
    "extra",
    [None, {}, {"parents": [-1, 0]}, {"root": 7}, {"id": "z", "x": 1}, {"distances": None}],
)
def test_labels_record_of_an_empty_sequence_matches_json_dumps(extra):
    lab = TreeLabels(id="e", distances=np.zeros((0, 0), dtype=np.int64), depths=[], root=None)
    assert labels_record(lab, extra) == reference_record(lab, extra)


@pytest.mark.parametrize("extra", [None, {"parents": [-1, 0, 0]}, {"root": 1}])
@pytest.mark.parametrize("root", [0, None])
@pytest.mark.parametrize(
    "far, farther",
    [(CACHE - 1, CACHE - 1), (CACHE - 1, CACHE), (CACHE, CACHE), (CACHE, CACHE - 1), (1, 2 * CACHE)],
    ids=["1023-1023", "1023-1024", "1024-1024", "1024-1023", "1-2048"],
)
def test_labels_record_at_the_edge_of_the_table_matches_json_dumps(far, farther, root, extra):
    # a sequence long enough for the table, its largest values in the
    # depths, in a row's last column and inside a row
    n = trees_mod._TABLE_MIN_N
    distances = np.full((n, n), 3)
    np.fill_diagonal(distances, 0)
    distances[0, -1] = distances[-1, 0] = far
    distances[1, 2] = distances[2, 1] = farther
    lab = TreeLabels(id="t", distances=distances, depths=distances[0], root=root)
    assert labels_record(lab, extra) == reference_record(lab, extra)
    flipped = TreeLabels(id="t", distances=distances[::-1, ::-1], depths=distances[-1], root=None)
    assert labels_record(flipped, extra) == reference_record(flipped, extra)


@pytest.mark.parametrize("extra", [None, {}, {"parents": [-1]}, {"n": 2}, {"é": "\u2028"}])
@pytest.mark.parametrize("root", [0, None])
@pytest.mark.parametrize("value", [0, 1, CACHE - 1, CACHE])
def test_labels_record_of_one_node_matches_json_dumps(value, root, extra):
    lab = TreeLabels(id="one", distances=[[0]], depths=[0 if root == 0 else value], root=root)
    assert labels_record(lab, extra) == reference_record(lab, extra)


def test_the_digit_table_is_built_on_first_use_not_at_import(tmp_path):
    code = (
        "import sys, structprobe.cli, structprobe.trees as t; before = t._digits.cache_info().currsize; "
        "t.write_labels([t.tree_labels(t.DepTree('w' * 9, [-1] + [0] * 8), 's')], sys.argv[1]); "
        "print(before, t._digits.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(trees_mod.__file__).parents[1]))
    out = tmp_path / "labels.jsonl"
    done = subprocess.run([sys.executable, "-c", code, str(out)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"] and out.read_text().startswith('{"id":"s","n":9,')


@pytest.mark.parametrize(
    "distances, message",
    [
        ([[1, 1], [1, 0]], "nonzero diagonal"),
        ([[0, 1], [2, 0]], "not symmetric"),
        ([[1, 1], [2, 0]], "nonzero diagonal"),  # the diagonal is checked first
        ([[0, 1]], "does not match 2 depths"),
        ([[0, -1], [-1, 0]], "must not be negative"),
        ([[0, 1.5], [1.5, 0]], "whole numbers"),
    ],
)
def test_tree_labels_checks_keep_their_order_and_messages(distances, message):
    with pytest.raises(ValueError, match=message):
        TreeLabels(id="x", distances=distances, depths=[0, 1], root=0)
