"""Scene trees: project a caption's dependency tree onto image regions.

Each grounded phrase is anchored at its highest dependency node (the token
in its span closest to the sentence root). Phrases are attached to the tree
in order of increasing anchor depth: each one walks up the ancestor chain of
its anchor until it reaches a node already occupied by an attached phrase,
or the sentence root, which the full image occupies. When several phrases
share one anchor node, later ones attach below the earliest-attached one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError
from .io_utils import error_text, read_jsonl, record_id
from .trees import ROOT, DepTree, TreeLabels, all_pairs_path_lengths, derived_labels, tree_depths

log = logging.getLogger(__name__)

IMAGE_NODE = 0


@dataclass(frozen=True)
class PhraseAnnotation:
    """A grounded phrase: a token span plus the image regions it names."""

    phrase_id: str
    start: int
    end: int
    region_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "region_ids", tuple(self.region_ids))
        _check_span(self.phrase_id, self.start, self.end)
        if not self.region_ids:
            raise ValueError(f"phrase {self.phrase_id!r}: no region ids")


@dataclass(frozen=True)
class SceneTree:
    """Rooted tree of phrase nodes under the full-image root (node 0)."""

    image_id: str
    nodes: tuple[str, ...]
    parents: tuple[int, ...]
    depths: tuple[int, ...]
    phrase_to_text: dict[str, int]
    region_of: dict[str, int]


@dataclass(frozen=True)
class GroundedCaption:
    """One caption paired with its image and grounded phrases."""

    image_id: str
    sentence_id: str
    tokens: tuple[str, ...]
    phrases: tuple[PhraseAnnotation, ...]


def _check_span(phrase_id: str, start: int, end: int, n: int | None = None) -> None:
    """The span rule, ``0 <= start < end``, and ``end <= n`` for a caption of ``n`` tokens."""
    if start < 0 or start >= end:
        raise ValueError(f"phrase {phrase_id!r}: empty or negative span [{start},{end})")
    if n is not None and end > n:
        raise ValueError(f"phrase {phrase_id!r}: span end {end} beyond {n} tokens")


def _check_spans(phrases: Sequence[PhraseAnnotation], n: int) -> None:
    """Every span ends within the caption's ``n`` tokens, and no two phrases share an id."""
    seen = set()
    for p in phrases:
        _check_span(p.phrase_id, p.start, p.end, n)
        if p.phrase_id in seen:
            raise ValueError(f"phrase {p.phrase_id!r}: duplicate phrase id")
        seen.add(p.phrase_id)


def construct_scene_tree(
    tree: DepTree, phrases: Sequence[PhraseAnnotation], image_id: str
) -> SceneTree:
    """Build the scene tree for one caption-image pair.

    Deterministic: phrases are processed by (anchor depth, input order),
    and a dependency node occupied by several phrases resolves to the
    earliest-attached one. Input order of phrases fixes the node order in
    the result (image first).
    """
    _check_spans(phrases, tree.n)
    token_depths = tree_depths(tree)
    # a phrase anchors on its shallowest token, the earlier one on a tie
    anchors = [min(range(p.start, p.end), key=lambda i: (token_depths[i], i)) for p in phrases]
    order = sorted(range(len(phrases)), key=lambda i: (token_depths[anchors[i]], i))

    # node i + 1 is phrase i; a dependency token maps to the scene node of
    # the first phrase attached there, and the sentence root is implicitly
    # occupied by the full image
    parents = [ROOT] + [IMAGE_NODE] * len(phrases)
    depths = [0] * (len(phrases) + 1)
    occupant: dict[int, int] = {}
    root, heads = tree.root, tree.heads
    for i in order:
        cur = anchors[i]
        while cur not in occupant and cur != root:
            cur = heads[cur]
        parent = occupant.get(cur, IMAGE_NODE)
        parents[i + 1] = parent
        depths[i + 1] = depths[parent] + 1
        occupant.setdefault(anchors[i], i + 1)

    region_of: dict[str, int] = {}
    for node, p in enumerate(phrases, start=1):
        for rid in p.region_ids:
            if rid in region_of:
                log.warning(
                    "image %s: region %s named by several phrases; keeping the first",
                    image_id,
                    rid,
                )
                continue
            region_of[rid] = node

    return SceneTree(
        image_id=image_id,
        nodes=(image_id,) + tuple(p.phrase_id for p in phrases),
        parents=tuple(parents),
        depths=tuple(depths),
        phrase_to_text={p.phrase_id: a for p, a in zip(phrases, anchors)},
        region_of=region_of,
    )


def visual_labels(scene: SceneTree, region_order: Sequence[str], seq_id: str) -> TreeLabels:
    """Gold labels for the visual sequence: full image first, then regions.

    Sequence position depths and pairwise distances come from the scene
    tree's ``parents``; two regions of the same phrase sit on one node
    (distance 0). A depth is the distance to the full image, node 0, which
    must be the root, and each region's node an int index into ``parents``
    (ValueError otherwise). The root index is omitted because the root is
    always position 0. The labels are derived from the checked ``parents``
    and not checked again.
    """
    node_dist = all_pairs_path_lengths(scene.parents)
    if scene.parents[IMAGE_NODE] != ROOT:
        raise ValueError(f"scene {scene.image_id}: node 0 is not the root of its parents")
    n = len(node_dist)
    seq_nodes = [IMAGE_NODE]
    for rid in region_order:
        if rid not in scene.region_of:
            raise DataError(f"sequence {seq_id}: unknown region id {rid}")
        node = scene.region_of[rid]
        # type(True) is bool, not int: a bool is no node, though it indexes like one
        if (type(node) is not int and not isinstance(node, np.integer)) or not 0 <= node < n:
            raise ValueError(
                f"scene {scene.image_id}: region {rid} is on node {node!r}, "
                f"not one of its {n} nodes"
            )
        seq_nodes.append(node)
    idx = np.array(seq_nodes)
    distances = node_dist[idx[:, None], idx]  # what np.ix_ builds, without its overhead
    return derived_labels(seq_id, distances, None)


def region_sequence(phrases: Sequence[PhraseAnnotation]) -> list[str]:
    """Region ids in first-appearance order across the phrase list."""
    seen = set()
    out = []
    for p in phrases:
        for rid in p.region_ids:
            if rid not in seen:
                seen.add(rid)
                out.append(rid)
    return out


def overlapping_phrase_pairs(phrases: Sequence[PhraseAnnotation]) -> list[tuple[str, str]]:
    """Phrase id pairs whose token spans intersect (nested spans included)."""
    out = []
    for i, a in enumerate(phrases):
        for b in phrases[i + 1 :]:
            if a.start < b.end and b.start < a.end:
                out.append((a.phrase_id, b.phrase_id))
    return out


def _decode_caption(rec: dict) -> GroundedCaption:
    tokens = rec["tokens"]
    if type(tokens) is not list:
        raise ValueError(f"tokens must be a JSON list, got {tokens!r}")
    for i, t in enumerate(tokens):
        if type(t) is not str:
            raise ValueError(f"tokens[{i}]: {t!r} is not a JSON string")
    if type(rec["phrases"]) is not list:
        raise ValueError(f"phrases must be a JSON list, got {rec['phrases']!r}")
    phrases = []
    for i, p in enumerate(rec["phrases"]):
        try:
            if not isinstance(p, dict):
                raise ValueError(f"{p!r} is not a JSON object")
            phrase_id = record_id(p["phrase_id"], "phrase_id")
        except (KeyError, ValueError) as exc:
            raise ValueError(f"phrases[{i}]: {error_text(exc)}") from exc
        try:
            start, end, region_ids = p["start"], p["end"], p["region_ids"]
            # type(), not isinstance(): a bool is an int
            if type(start) is not int or type(end) is not int:
                raise ValueError(f"start and end must be JSON integers, got {start!r} and {end!r}")
            if type(region_ids) is not list:
                raise ValueError(f"region_ids must be a JSON list, got {region_ids!r}")
            region_ids = tuple(record_id(r, "region id") for r in region_ids)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"phrase {phrase_id!r}: {error_text(exc)}") from exc
        if region_ids:
            phrases.append(PhraseAnnotation(phrase_id, start, end, region_ids))
        else:  # dropped, once its span is shown to be one the caption can hold
            _check_span(phrase_id, start, end, len(tokens))
    _check_spans(phrases, len(tokens))
    return GroundedCaption(
        image_id=record_id(rec["image_id"], "image_id"),
        sentence_id=record_id(rec["sentence_id"], "sentence_id"),
        tokens=tuple(tokens),
        phrases=tuple(phrases),
    )


def read_grounding(path: str | Path) -> Iterator[GroundedCaption]:
    """Read grounded captions from JSON Lines.

    Record shape: {"image_id", "sentence_id", "tokens", "phrases":
    [{"phrase_id", "start", "end", "region_ids"}]}, where ``tokens``,
    ``phrases`` and each ``region_ids`` are JSON lists, every token a JSON
    string, every ``start`` and ``end`` a JSON integer, and every id a JSON
    string or integer (``io_utils.record_id``). Every phrase must have
    ``0 <= start < end <= len(tokens)``; phrases without region ids are then
    dropped, and the kept ones must have distinct ids. A phrase's error
    reads ``phrase '<id>': ...``, or ``phrases[<i>]: ...`` while it has no
    usable id.
    """
    return read_jsonl(path, "grounding", _decode_caption)


def scene_record_extra(scene: SceneTree) -> dict:
    """Extra JSONL fields describing the scene tree itself."""
    return {
        "parents": list(scene.parents),
        "phrase_to_text": dict(scene.phrase_to_text),
    }
