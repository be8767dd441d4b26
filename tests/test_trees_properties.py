"""Properties: gold tree labels against the Floyd–Warshall reference."""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from structprobe.trees import ROOT, DepTree, all_pairs_path_lengths, tree_depths, tree_labels
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
