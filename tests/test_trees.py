"""Tree parsing and gold-label generation."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from structprobe import trees as trees_mod
from structprobe.scenetree import PhraseAnnotation, construct_scene_tree, visual_labels
from structprobe.synth import oracle_embed_tree, random_tree
from structprobe.trees import (
    ROOT,
    ConllError,
    DepTree,
    TreeLabels,
    all_pairs_path_lengths,
    labels_record,
    parse_conllu,
    read_conllu,
    read_labels,
    tree_depths,
    tree_distances,
    tree_labels,
    write_labels,
)


def floyd_warshall(heads):
    """Independent all-pairs oracle over the undirected tree."""
    n = len(heads)
    big = 10**6
    dist = [[0 if i == j else big for j in range(n)] for i in range(n)]
    for i, h in enumerate(heads):
        if h != ROOT:
            dist[i][h] = dist[h][i] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return np.array(dist)


CONLLU_TWO_SENTENCES = """\
# sent_id = a
1\tI\t_\tPRON\t_\t_\t2\tnsubj\t_\t_
2\tlike\t_\tVERB\t_\t_\t0\troot\t_\t_
3\tapples\t_\tNOUN\t_\t_\t2\tobj\t_\t_

# sent_id = b
1\tHi\t_\tINTJ\t_\t_\t0\troot\t_\t_
"""


def test_parse_conllu_full_layout():
    trees = parse_conllu(CONLLU_TWO_SENTENCES)
    assert len(trees) == 2
    assert trees[0].tokens == ("I", "like", "apples")
    assert trees[0].heads == (1, ROOT, 1)
    assert trees[0].root == 1
    assert trees[0].deprels == ("nsubj", "root", "obj")
    assert trees[0].sent_id == "a"
    assert trees[1].tokens == ("Hi",)
    assert trees[1].sent_id == "b"


def test_parse_conllu_compact_layout():
    trees = parse_conllu("1 a 2 det\n2 man 0 root\n")
    assert len(trees) == 1
    assert trees[0].heads == (1, ROOT)
    assert trees[0].root == 1


def test_parse_conllu_chain_heads():
    (tree,) = parse_conllu("1 a 2 x\n2 b 3 x\n3 c 0 root\n")
    assert tree.heads == (1, 2, ROOT)
    assert tree.root == 2


def test_parse_conllu_multiple_roots_rejected():
    with pytest.raises(ConllError, match="root"):
        parse_conllu("1 a 0 root\n2 b 0 root\n")


def test_parse_conllu_zero_roots_rejected():
    with pytest.raises(ConllError, match="root"):
        parse_conllu("1 a 2 x\n2 b 1 x\n")


def test_parse_conllu_malformed_line_reports_number():
    with pytest.raises(ConllError, match="line 2"):
        parse_conllu("1 a 2 det\nBAD\n")


def test_parse_conllu_skips_mwt_and_empty_nodes():
    text = (
        "1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\t_\t_\t_\t_\t2\tcase\t_\t_\n"
        "2\tle\t_\t_\t_\t_\t0\troot\t_\t_\n"
        "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    (tree,) = parse_conllu(text)
    assert tree.tokens == ("de", "le")


# every character besides "\n" and "\r" at which str.splitlines breaks a line
UNICODE_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", UNICODE_LINE_BREAKS)
def test_parse_conllu_keeps_unicode_line_breaks_inside_a_form(sep):
    text = f"1\ta{sep}b\t_\t_\t_\t_\t2\tdet\t_\t_\r\n2\tman\t_\t_\t_\t_\t0\troot\t_\t_\r\n\nBAD\n"
    with pytest.raises(ConllError, match="line 4"):
        parse_conllu(text)
    (tree,) = parse_conllu(text.removesuffix("BAD\n"))
    assert tree.tokens == (f"a{sep}b", "man")


def test_parse_conllu_bad_head_value():
    with pytest.raises(ConllError):
        parse_conllu("1 a 5 x\n2 b 0 root\n")


def test_read_conllu_non_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "x.conll"
    path.write_bytes(b"1 a 2 x\n2 b 0 root\n\n1 \xff 0 root\n")
    with pytest.raises(ConllError, match=f"{re.escape(str(path))}:4: not valid UTF-8"):
        read_conllu(path)


def test_deptree_rejects_bad_head_index():
    with pytest.raises(ValueError):
        DepTree(tokens=("a", "b", "c"), heads=(1, 2, ROOT - 1))


def test_deptree_rejects_cycle():
    # 0 and 1 point at each other; 2 is the root
    with pytest.raises(ValueError):
        DepTree(tokens=("a", "b", "c"), heads=(1, 0, ROOT))


def test_distances_chain():
    tree = DepTree(tokens=("a", "b", "c"), heads=(ROOT, 0, 1))
    expected = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert np.array_equal(tree_distances(tree), expected)


def test_distances_star():
    tree = DepTree(tokens=("r", "x", "y"), heads=(ROOT, 0, 0))
    dist = tree_distances(tree)
    assert dist[1, 2] == 2
    assert dist[0, 1] == 1


def test_depths_trivial_cases():
    assert tree_depths(DepTree(tokens=("a",), heads=(ROOT,))).tolist() == [0]
    chain = DepTree(tokens=("a", "b", "c"), heads=(ROOT, 0, 1))
    assert tree_depths(chain).tolist() == [0, 1, 2]


def random_heads(n, rng):
    """A raw head array: chains, stars and the shapes between, relabelled."""
    reach = int(rng.integers(1, n + 1))  # how far back in attachment order a node may attach
    parents = [ROOT] + [int(rng.integers(max(0, i - reach), i)) for i in range(1, n)]
    perm = rng.permutation(n)
    heads = np.empty(n, dtype=np.int64)
    for i, p in enumerate(parents):
        heads[perm[i]] = ROOT if p == ROOT else perm[p]
    return heads


def random_scene_parents(n, rng):
    tree = random_tree(n, rng)
    phrases = []
    for i in range(int(rng.integers(1, 17))):
        start = int(rng.integers(0, n))
        end = int(rng.integers(start + 1, n + 1))
        phrases.append(PhraseAnnotation(f"p{i}", start, end, (f"r{i}",)))
    return construct_scene_tree(tree, phrases, "img").parents


def test_distances_match_floyd_warshall_on_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 61))
        tree = random_tree(n, rng)
        assert np.array_equal(tree_distances(tree), floyd_warshall(tree.heads))
        heads = random_heads(n, rng)
        assert np.array_equal(all_pairs_path_lengths(heads), floyd_warshall(heads))
        parents = random_scene_parents(n, rng)
        assert np.array_equal(all_pairs_path_lengths(parents), floyd_warshall(parents))


@pytest.mark.parametrize(
    "heads",
    [[ROOT, ROOT], [-2, ROOT, 0], [ROOT, 3, 0], [1, 2, 0]],
    ids=["two-roots", "head-minus-2", "head-n", "rootless-cycle"],
)
def test_non_tree_head_arrays_rejected(heads):
    with pytest.raises(ValueError):
        all_pairs_path_lengths(heads)


def test_depths_equal_distance_row_of_root():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(1, 13))
        tree = random_tree(n, rng)
        dist = tree_distances(tree)
        assert np.array_equal(tree_depths(tree), dist[tree.root])


def test_tree_metric_and_depth_bounds():
    rng = np.random.default_rng(44)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        tree = random_tree(n, rng)
        dist = tree_distances(tree)
        depths = tree_depths(tree)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert dist[i, k] <= dist[i, j] + dist[j, k]
                assert abs(depths[i] - depths[j]) <= dist[i, j] <= depths[i] + depths[j]


def test_exactly_one_zero_depth():
    rng = np.random.default_rng(45)
    for _ in range(20):
        tree = random_tree(int(rng.integers(1, 15)), rng)
        assert int(np.sum(tree_depths(tree) == 0)) == 1


def test_unit_distance_pairs_recover_the_tree():
    rng = np.random.default_rng(46)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        tree = random_tree(n, rng)
        dist = tree_distances(tree)
        edges = {(min(i, h), max(i, h)) for i, h in enumerate(tree.heads) if h != ROOT}
        found = {
            (i, j) for i in range(n) for j in range(i + 1, n) if dist[i, j] == 1
        }
        assert found == edges
        assert len(found) == n - 1


def test_labels_roundtrip(tmp_path):
    rng = np.random.default_rng(47)
    labels = [tree_labels(random_tree(int(rng.integers(1, 20)), rng), f"s{i}") for i in range(30)]
    # an empty sequence is written as "distances":[] and read back as a 0-by-0 matrix
    labels.append(TreeLabels(id="empty", distances=np.zeros((0, 0)), depths=[], root=None))
    path = tmp_path / "labels.jsonl"
    write_labels(labels, path)
    back = read_labels(path)
    assert len(back) == len(labels)
    for a, b in zip(labels, back):
        assert a.id == b.id
        assert a.root == b.root
        assert a.distances.shape == b.distances.shape
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.depths, b.depths)


@pytest.mark.parametrize("root", [1.5, True, "0", [0]])
def test_labels_root_must_be_an_integer(root):
    with pytest.raises(ValueError, match="not an integer"):
        TreeLabels(id="x", distances=[[0, 1], [1, 0]], depths=[0, 1], root=root)


def test_labels_validation():
    with pytest.raises(ValueError):
        TreeLabels(id="x", distances=[[0, 1], [2, 0]], depths=[0, 1], root=0)
    with pytest.raises(ValueError):
        TreeLabels(id="x", distances=[[0, 1], [1, 0]], depths=[0, 1], root=1)


def test_tree_labels_exclude_the_tokens_of_the_named_deprels():
    tree, _ = parse_conllu(CONLLU_TWO_SENTENCES)
    assert tree_labels(tree, "a").excluded == ()
    assert tree_labels(tree, "a", ["obj", "punct"]).excluded == (2,)
    assert tree_labels(tree, "a", ["nsubj", "obj"]).excluded == (0, 2)
    # the positions ride along with unchanged matrices
    plain, excluded = tree_labels(tree, "a"), tree_labels(tree, "a", ["obj"])
    assert np.array_equal(plain.distances, excluded.distances)
    assert np.array_equal(plain.depths, excluded.depths)


def test_tree_labels_refuse_to_exclude_the_root_or_to_exclude_without_deprels():
    tree, _ = parse_conllu(CONLLU_TWO_SENTENCES)
    with pytest.raises(ValueError, match="deprel 'root' would exclude the root"):
        tree_labels(tree, "a", ["obj", "root"])
    bare = DepTree(tokens=("a", "b"), heads=(ROOT, 0))
    with pytest.raises(ValueError, match="no deprels"):
        tree_labels(bare, "b", ["obj"])
    assert tree_labels(bare, "b", []).excluded == ()


CHAIN = {"id": "x", "distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "depths": [0, 1, 2]}


@pytest.mark.parametrize(
    "root, excluded, message",
    [
        (0, [True], "must be numbers, not true or false"),
        (0, [1, True], "must be numbers, not true or false"),
        (0, [1.5], "must be whole numbers"),
        (0, [-1], "must not be negative"),
        (0, [2, 1], "strictly increasing list"),
        (0, [1, 1], "strictly increasing list"),
        (0, [3], "list below n=3"),
        (0, [[1]], "strictly increasing list"),
        (0, 1, "strictly increasing list"),
        (0, [0, 2], "the root 0 cannot be excluded"),
        (2, [2], "root does not have depth zero"),
    ],
)
def test_labels_check_their_excluded_positions(root, excluded, message):
    with pytest.raises(ValueError, match=message):
        TreeLabels(**CHAIN, root=root, excluded=excluded)


def test_labels_keep_excluded_positions_as_a_tuple_of_ints():
    assert TreeLabels(**CHAIN, root=0, excluded=np.array([1, 2])).excluded == (1, 2)
    assert TreeLabels(**CHAIN, root=0, excluded=[]).excluded == ()
    # a visual sequence has no root index, so any position may be excluded
    assert TreeLabels(**CHAIN, root=None, excluded=(0, 2)).excluded == (0, 2)


@pytest.mark.parametrize("exact_min", [0, 1 << 20], ids=["exact-path-tried", "json-only"])
def test_labels_record_writes_excluded_after_root_and_both_readers_read_it(
    tmp_path, monkeypatch, exact_min
):
    monkeypatch.setattr(trees_mod, "_EXACT_MIN", exact_min)
    plain = tree_labels(random_tree(12, np.random.default_rng(2)), "plain")
    kept_out = [i for i in range(12) if i != plain.root][::3]
    labels = [
        TreeLabels("long", plain.distances, plain.depths, plain.root, excluded=kept_out),
        TreeLabels(**CHAIN, root=None, excluded=[0]),
        plain,
    ]
    lines = [labels_record(lab) for lab in labels]
    # the member comes after root, as json.dumps writes such a record
    assert lines[0] == json.dumps(
        {"id": "long", "n": 12, "depths": plain.depths.tolist(),
         "distances": plain.distances.tolist(), "root": plain.root, "excluded": kept_out},
        separators=(",", ":"),
    )
    assert lines[1].endswith('"depths":[0,1,2],"distances":[[0,1,2],[1,0,1],[2,1,0]],"excluded":[0]}')
    assert "excluded" not in lines[2]
    path = tmp_path / "labels.jsonl"
    write_labels(labels, path)
    back = read_labels(path)
    assert [lab.excluded for lab in back] == [lab.excluded for lab in labels]
    assert [labels_record(lab) for lab in back] == lines


def test_a_tree_is_walked_once_when_built(monkeypatch):
    calls = []
    real_order = trees_mod._parent_order

    def counting_order(heads):
        calls.append(tuple(heads))
        return real_order(heads)

    monkeypatch.setattr(trees_mod, "_parent_order", counting_order)
    tree = DepTree(tokens=("a", "man", "on", "a", "bench"), heads=(1, ROOT, 1, 4, 2))
    assert calls == [tree.heads]
    assert tree.order == (1, 0, 2, 4, 3) and tree.root == 1
    phrase = PhraseAnnotation("p1", 3, 5, ("r1",))
    tree_distances(tree)
    tree_depths(tree)
    tree_labels(tree, "s")
    construct_scene_tree(tree, [phrase], "img")
    oracle_embed_tree(tree)
    assert len(calls) == 1


def test_derived_labels_skip_the_input_checks_that_outside_labels_get(monkeypatch, tmp_path):
    calls = []
    real_check = trees_mod._whole_numbers

    def counting_check(values, what):
        calls.append(what)
        return real_check(values, what)

    monkeypatch.setattr(trees_mod, "_whole_numbers", counting_check)
    long_tree = random_tree(20, np.random.default_rng(3))
    tree = DepTree(tokens=("a", "man", "on", "a", "bench"), heads=(1, ROOT, 1, 4, 2))
    labels = [tree_labels(long_tree, "long"), tree_labels(tree, "short")]
    assert calls == []  # derived from a checked tree
    scene = construct_scene_tree(tree, [PhraseAnnotation("p1", 3, 5, ("r1",))], "img")
    visual_labels(scene, ["r1"], "v")
    assert calls == []  # depths are the root row of the checked matrix
    calls.clear()
    path = tmp_path / "labels.jsonl"
    write_labels(labels, path)
    lines = path.read_bytes().splitlines()
    assert len(lines[0]) >= trees_mod._EXACT_MIN > len(lines[1])  # one line per read path
    assert [lab.id for lab in read_labels(path)] == ["long", "short"]
    assert calls == ["distances", "depths"] * 2
