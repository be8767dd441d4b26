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

from .errors import DataError
from .io_utils import read_jsonl
from .trees import ROOT, DepTree, TreeLabels, all_pairs_path_lengths, tree_depths

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
        if self.start < 0 or self.start >= self.end:
            raise ValueError(
                f"phrase {self.phrase_id}: empty or negative span [{self.start},{self.end})"
            )
        if not self.region_ids:
            raise ValueError(f"phrase {self.phrase_id}: no region ids")


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


def _anchor(phrase: PhraseAnnotation, tree: DepTree, token_depths: Sequence[int]) -> int:
    if phrase.end > tree.n:
        raise ValueError(
            f"phrase {phrase.phrase_id}: span end {phrase.end} beyond sentence "
            f"length {tree.n}"
        )
    span = range(phrase.start, phrase.end)
    return min(span, key=lambda i: (token_depths[i], i))


def find_highest_node(phrase: PhraseAnnotation, tree: DepTree) -> int:
    """Token in the phrase span closest to the root; leftmost wins ties."""
    return _anchor(phrase, tree, tree_depths(tree))


def construct_scene_tree(
    tree: DepTree, phrases: Sequence[PhraseAnnotation], image_id: str
) -> SceneTree:
    """Build the scene tree for one caption-image pair.

    Deterministic: phrases are processed by (anchor depth, input order),
    and a dependency node occupied by several phrases resolves to the
    earliest-attached one. Input order of phrases fixes the node order in
    the result (image first).
    """
    seen_ids = set()
    for p in phrases:
        if p.phrase_id in seen_ids:
            raise ValueError(f"duplicate phrase id {p.phrase_id}")
        seen_ids.add(p.phrase_id)

    token_depths = tree_depths(tree)
    anchor = {p.phrase_id: _anchor(p, tree, token_depths) for p in phrases}
    order = sorted(
        range(len(phrases)), key=lambda i: (token_depths[anchor[phrases[i].phrase_id]], i)
    )

    nodes = (image_id,) + tuple(p.phrase_id for p in phrases)
    node_of = {p.phrase_id: i + 1 for i, p in enumerate(phrases)}
    parents = [ROOT] + [0] * len(phrases)
    depths = [0] * (len(phrases) + 1)
    # dependency token -> scene nodes of already-attached phrases, in
    # attachment order; the sentence root is implicitly occupied by node 0
    occupants: dict[int, list[int]] = {}

    for i in order:
        p = phrases[i]
        cur = anchor[p.phrase_id]
        while True:
            occ = occupants.get(cur)
            if occ:
                parent_node = occ[0]
                break
            if cur == tree.root:
                parent_node = IMAGE_NODE
                break
            cur = tree.heads[cur]
        node = node_of[p.phrase_id]
        parents[node] = parent_node
        depths[node] = depths[parent_node] + 1
        occupants.setdefault(anchor[p.phrase_id], []).append(node)

    region_of: dict[str, int] = {}
    for p in phrases:
        for rid in p.region_ids:
            if rid in region_of:
                log.warning(
                    "image %s: region %s named by several phrases; keeping the first",
                    image_id,
                    rid,
                )
                continue
            region_of[rid] = node_of[p.phrase_id]

    return SceneTree(
        image_id=image_id,
        nodes=nodes,
        parents=tuple(parents),
        depths=tuple(depths),
        phrase_to_text={p.phrase_id: anchor[p.phrase_id] for p in phrases},
        region_of=region_of,
    )


def visual_labels(scene: SceneTree, region_order: Sequence[str], seq_id: str) -> TreeLabels:
    """Gold labels for the visual sequence: full image first, then regions.

    Sequence position depth and pairwise distances come from the scene
    tree; two regions of the same phrase sit on one node (distance 0).
    The root index is omitted because the root is always position 0.
    """
    node_dist = all_pairs_path_lengths(scene.parents)
    seq_nodes = [IMAGE_NODE]
    for rid in region_order:
        if rid not in scene.region_of:
            raise DataError(f"sequence {seq_id}: unknown region id {rid}")
        seq_nodes.append(scene.region_of[rid])
    idx = list(seq_nodes)
    distances = node_dist[idx][:, idx]
    depths = [scene.depths[v] for v in seq_nodes]
    return TreeLabels(id=seq_id, distances=distances, depths=depths, root=None)


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
    tokens = tuple(str(t) for t in rec["tokens"])
    phrases = []
    for p in rec["phrases"]:
        if not isinstance(p, dict):
            raise ValueError(f"phrase {p!r} is not a JSON object")
        if not p.get("region_ids"):
            continue
        ann = PhraseAnnotation(
            phrase_id=str(p["phrase_id"]),
            start=int(p["start"]),
            end=int(p["end"]),
            region_ids=tuple(str(r) for r in p["region_ids"]),
        )
        if ann.end > len(tokens):
            raise ValueError(
                f"phrase {ann.phrase_id} span end {ann.end} beyond {len(tokens)} tokens"
            )
        phrases.append(ann)
    return GroundedCaption(
        image_id=str(rec["image_id"]),
        sentence_id=str(rec["sentence_id"]),
        tokens=tokens,
        phrases=tuple(phrases),
    )


def read_grounding(path: str | Path) -> Iterator[GroundedCaption]:
    """Read grounded captions from JSON Lines.

    Record shape: {"image_id", "sentence_id", "tokens", "phrases":
    [{"phrase_id", "start", "end", "region_ids"}]}. Phrases without
    region ids are dropped here, before any tree construction.
    """
    return read_jsonl(path, "grounding", _decode_caption)


def scene_record_extra(scene: SceneTree) -> dict:
    """Extra JSONL fields describing the scene tree itself."""
    return {
        "parents": list(scene.parents),
        "phrase_to_text": dict(scene.phrase_to_text),
    }
