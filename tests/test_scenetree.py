"""Scene-tree construction against hand-traced fixtures and brute force."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from structprobe import scenetree
from structprobe.errors import DataError
from structprobe.scenetree import (
    PhraseAnnotation,
    construct_scene_tree,
    find_highest_node,
    overlapping_phrase_pairs,
    read_grounding,
    region_sequence,
    visual_labels,
)
from structprobe.synth import random_tree
from structprobe.trees import ROOT, DepTree, tree_depths

FIXTURES = json.loads((Path(__file__).parent / "data" / "scene_fixtures.json").read_text())


def make_tree(heads):
    return DepTree(tokens=tuple(f"w{i}" for i in range(len(heads))), heads=tuple(heads))


def make_phrases(specs):
    return [
        PhraseAnnotation(
            phrase_id=p["id"], start=p["start"], end=p["end"], region_ids=(f"r_{p['id']}",)
        )
        for p in specs
    ]


@pytest.mark.parametrize("case", FIXTURES, ids=[c["name"] for c in FIXTURES])
def test_hand_traced_fixture(case):
    tree = make_tree(case["heads"])
    phrases = make_phrases(case["phrases"])
    scene = construct_scene_tree(tree, phrases, image_id="img")
    assert list(scene.parents) == case["expected_parents"]
    assert list(scene.depths) == case["expected_depths"]
    assert scene.phrase_to_text == case["expected_anchor"]
    assert scene.nodes[0] == "img"
    assert list(scene.nodes[1:]) == [p["id"] for p in case["phrases"]]


def test_find_highest_node_parent_dominates():
    # "a" attaches to "man"; the span covers both
    tree = make_tree([1, ROOT])
    phrase = PhraseAnnotation("p", 0, 2, ("r",))
    assert find_highest_node(phrase, tree) == 1


def test_find_highest_node_span_with_root():
    tree = make_tree([ROOT, 0, 1])
    assert find_highest_node(PhraseAnnotation("p", 0, 3, ("r",)), tree) == 0


def test_find_highest_node_leftmost_tie():
    # siblings at depth 2 on positions 4 and 6; 5 is deeper
    tree = make_tree([-1, 0, 1, 0, 1, 4, 3])
    assert find_highest_node(PhraseAnnotation("p", 4, 7, ("r",)), tree) == 4


def test_construct_scene_tree_computes_token_depths_once(monkeypatch):
    calls = []

    def counting_depths(tree):
        calls.append(tree)
        return tree_depths(tree)

    monkeypatch.setattr(scenetree, "tree_depths", counting_depths)
    tree = make_tree([ROOT, 0, 1, 2, 1, 4])
    phrases = make_phrases(
        [{"id": "a", "start": 0, "end": 2}, {"id": "b", "start": 2, "end": 4},
         {"id": "c", "start": 4, "end": 6}]
    )
    construct_scene_tree(tree, phrases, image_id="img")
    assert len(calls) == 1


def test_find_highest_node_span_out_of_bounds():
    tree = make_tree([ROOT, 0])
    with pytest.raises(ValueError):
        find_highest_node(PhraseAnnotation("p", 0, 5, ("r",)), tree)


def test_phrase_annotation_rejects_empty_span_or_regions():
    with pytest.raises(ValueError):
        PhraseAnnotation("p", 2, 2, ("r",))
    with pytest.raises(ValueError):
        PhraseAnnotation("p", 0, 1, ())


def expected_scene_parent(idx, phrases, anchors, depths_t, heads, root):
    """Brute-force statement of the attachment rule for one phrase.

    The parent is the earliest phrase sharing the anchor among earlier
    inputs, else the earliest phrase on the nearest phrase-bearing proper
    ancestor, else the image. Node numbering: image 0, phrase i at i+1.
    """
    p = phrases[idx]
    me = anchors[p.phrase_id]
    same = [
        j
        for j, q in enumerate(phrases)
        if j != idx
        and anchors[q.phrase_id] == me
        and (depths_t[me], j) < (depths_t[me], idx)
    ]
    if same:
        return min(same) + 1
    cur = me
    while cur != root:
        cur = heads[cur]
        bearing = [j for j, q in enumerate(phrases) if anchors[q.phrase_id] == cur]
        if bearing:
            return min(bearing) + 1
    return 0


def random_instance(rng):
    n = int(rng.integers(2, 14))
    tree = random_tree(n, rng)
    n_phrases = int(rng.integers(1, 6))
    phrases = []
    for i in range(n_phrases):
        start = int(rng.integers(0, n))
        end = int(rng.integers(start + 1, n + 1))
        phrases.append(PhraseAnnotation(f"p{i}", start, end, (f"r{i}",)))
    return tree, phrases


def test_ancestor_chain_property_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        tree, phrases = random_instance(rng)
        scene = construct_scene_tree(tree, phrases, "img")
        depths_t = tree_depths(tree)
        anchors = scene.phrase_to_text
        for idx in range(len(phrases)):
            want = expected_scene_parent(
                idx, phrases, anchors, depths_t, tree.heads, tree.root
            )
            assert scene.parents[idx + 1] == want, (tree.heads, phrases, idx)


def test_scene_invariants_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(300):
        tree, phrases = random_instance(rng)
        scene = construct_scene_tree(tree, phrases, "img")
        depths_t = tree_depths(tree)
        anchor_depth = {
            p.phrase_id: int(depths_t[scene.phrase_to_text[p.phrase_id]]) for p in phrases
        }
        assert len(scene.nodes) == len(phrases) + 1
        assert scene.depths[0] == 0 and scene.parents[0] == ROOT
        for node in range(1, len(scene.nodes)):
            assert scene.depths[node] == scene.depths[scene.parents[node]] + 1
        for i, p in enumerate(phrases):
            parent = scene.parents[i + 1]
            # walking up never deepens: the parent's anchor sits at most as
            # deep as the phrase's own anchor (the image counts as depth 0)
            parent_anchor = (
                0 if parent == 0 else anchor_depth[scene.nodes[parent]]
            )
            assert parent_anchor <= anchor_depth[p.phrase_id]
            # one scene level per phrase-bearing ancestor, plus the image
            # level, plus one more when an earlier phrase shares the anchor
            shares_earlier = any(
                scene.phrase_to_text[q.phrase_id] == scene.phrase_to_text[p.phrase_id]
                for q in phrases[:i]
            )
            bound = anchor_depth[p.phrase_id] + (2 if shares_earlier else 1)
            assert scene.depths[i + 1] <= bound


def test_construction_is_deterministic():
    rng = np.random.default_rng(5)
    tree, phrases = random_instance(rng)
    a = construct_scene_tree(tree, phrases, "img")
    b = construct_scene_tree(tree, phrases, "img")
    assert a == b


def test_duplicate_phrase_ids_rejected():
    tree = make_tree([ROOT, 0])
    phrases = [PhraseAnnotation("p", 0, 1, ("r1",)), PhraseAnnotation("p", 1, 2, ("r2",))]
    with pytest.raises(ValueError, match="duplicate"):
        construct_scene_tree(tree, phrases, "img")


def test_visual_labels_image_plus_one_region():
    tree = make_tree([ROOT, 0])
    scene = construct_scene_tree(tree, [PhraseAnnotation("p1", 0, 2, ("r1",))], "img")
    labels = visual_labels(scene, ["r1"], "seq")
    assert labels.depths.tolist() == [0, 1]
    assert labels.distances.tolist() == [[0, 1], [1, 0]]
    assert labels.root is None


def test_visual_labels_shared_phrase_regions_distance_zero():
    tree = make_tree([ROOT, 0])
    scene = construct_scene_tree(tree, [PhraseAnnotation("p1", 0, 2, ("r1", "r2"))], "img")
    labels = visual_labels(scene, ["r1", "r2"], "seq")
    assert labels.distances[1, 2] == 0
    assert labels.depths.tolist() == [0, 1, 1]


def test_visual_labels_chain_distance_two():
    tree = make_tree([ROOT, 0, 1, 2])
    phrases = [PhraseAnnotation("p1", 1, 2, ("r1",)), PhraseAnnotation("p2", 3, 4, ("r2",))]
    scene = construct_scene_tree(tree, phrases, "img")
    labels = visual_labels(scene, ["r1", "r2"], "seq")
    # image -> p1 -> p2
    assert labels.distances[0, 2] == 2
    assert labels.depths.tolist() == [0, 1, 2]


def test_visual_labels_unknown_region():
    tree = make_tree([ROOT])
    scene = construct_scene_tree(tree, [PhraseAnnotation("p1", 0, 1, ("r1",))], "img")
    with pytest.raises(DataError, match="unknown region"):
        visual_labels(scene, ["nope"], "seq")


def test_overlap_detection():
    phrases = [
        PhraseAnnotation("a", 0, 3, ("r1",)),
        PhraseAnnotation("b", 2, 4, ("r2",)),
        PhraseAnnotation("c", 5, 6, ("r3",)),
    ]
    assert overlapping_phrase_pairs(phrases) == [("a", "b")]


def test_read_grounding_filters_ungrounded_phrases(tmp_path):
    rec = {
        "image_id": "i1",
        "sentence_id": "s1",
        "tokens": ["a", "man"],
        "phrases": [
            {"phrase_id": "p1", "start": 0, "end": 2, "region_ids": ["r1"]},
            {"phrase_id": "p2", "start": 1, "end": 2, "region_ids": []},
        ],
    }
    path = tmp_path / "g.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    (cap,) = list(read_grounding(path))
    assert [p.phrase_id for p in cap.phrases] == ["p1"]
    assert region_sequence(cap.phrases) == ["r1"]


def test_read_grounding_rejects_bad_span(tmp_path):
    rec = {
        "image_id": "i1",
        "sentence_id": "s1",
        "tokens": ["a"],
        "phrases": [{"phrase_id": "p1", "start": 0, "end": 2, "region_ids": ["r1"]}],
    }
    path = tmp_path / "g.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(DataError):
        list(read_grounding(path))


def test_read_grounding_rejects_non_object_phrase(tmp_path):
    good = {"image_id": "i1", "sentence_id": "s1", "tokens": ["a"], "phrases": []}
    bad = dict(good, sentence_id="s2", phrases=[5])
    path = tmp_path / "g.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: ") + ".*not a JSON object"):
        list(read_grounding(path))
