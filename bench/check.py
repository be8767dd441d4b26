"""Output checks against the generator's gold answers.

The scene-tree expectation is worked out here, independently of the
package, from the rule the package documents: phrases attach in order of
(anchor depth, input order), each to the first phrase already anchored on
the nearest dependency ancestor of its anchor, else to the image node.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from gen import CHART_LAYERS, CHART_METRICS, CHART_RANKS, LAYER

SVG = "{http://www.w3.org/2000/svg}"


def expected_scene(gold: dict) -> dict:
    """Parents, depths and anchors of the scene tree, and the visual labels."""
    heads, depth, root = gold["heads"], gold["depths"], gold["root"]
    phrases = [p for p in gold["phrases"] if p["region_ids"]]
    anchor = [min(range(p["start"], p["end"]), key=lambda t: (depth[t], t)) for p in phrases]
    parents, depths, occupant = [-1] + [0] * len(phrases), [0] * (len(phrases) + 1), {}
    for i in sorted(range(len(phrases)), key=lambda i: (depth[anchor[i]], i)):
        t = anchor[i]
        while t not in occupant and t != root:
            t = int(heads[t])
        parents[i + 1] = occupant.get(t, 0)
        depths[i + 1] = depths[parents[i + 1]] + 1
        occupant.setdefault(anchor[i], i + 1)

    def ancestors(v):
        out = [v]
        while v:
            v = parents[v]
            out.append(v)
        return out

    seq = [0] + [i + 1 for i, p in enumerate(phrases) for _ in p["region_ids"]]
    paths = {v: ancestors(v) for v in set(seq)}
    dist = np.array([[len(set(paths[a]) ^ set(paths[b])) for b in seq] for a in seq], dtype=np.int64)
    return {"parents": parents, "depths": depths, "phrase_to_text": {p["phrase_id"]: a for p, a in zip(phrases, anchor)},
            "distances": dist, "seq_depths": np.array([depths[v] for v in seq], dtype=np.int64),
            "phrases": len(phrases)}


def expectations(golds: list[dict]) -> list[dict]:
    return [expected_scene(g) for g in golds]


def check_results(res: dict, golds: list[dict], scenes: list[dict]) -> list[str]:
    """Compare what one repetition returned with the gold answers."""
    problems = []
    for what in ("trees", "labels", "captions", "scenes", "visual", "headers", "embeddings"):
        if len(res[what]) != len(golds):
            problems.append(f"{what}: {len(res[what])} records, expected {len(golds)}")
    if problems:
        return problems
    for i, g in enumerate(golds):
        tree, lab, cap, scene, vis, head, emb = (res[k][i] for k in (
            "trees", "labels", "captions", "scenes", "visual", "headers", "embeddings"))
        want = scenes[i]
        sid = g["id"]
        if tree.sent_id != sid or list(tree.heads) != g["heads"].tolist():
            problems.append(f"{sid}: parsed tree differs from the CoNLL written")
        if (lab.id != sid or lab.root != g["root"] or not np.array_equal(lab.distances, g["distances"])
                or not np.array_equal(lab.depths, g["depths"])):
            problems.append(f"{sid}: gold labels differ from the tree's path lengths")
        if cap.sentence_id != sid or cap.image_id != g["image_id"] or len(cap.phrases) != want["phrases"]:
            problems.append(f"{sid}: grounding record read wrongly")
        if (list(scene.parents) != want["parents"] or list(scene.depths) != want["depths"]
                or dict(scene.phrase_to_text) != want["phrase_to_text"]):
            problems.append(f"{sid}: scene tree differs from the expected attachment")
        if (vis.id != sid or vis.root is not None or not np.array_equal(vis.distances, want["distances"])
                or not np.array_equal(vis.depths, want["seq_depths"])):
            problems.append(f"{sid}: visual labels differ from the expected scene distances")
        if tuple(head) != (sid, LAYER, *g["values"].shape):
            problems.append(f"{sid}: embedding header {head} is wrong")
        if emb.id != sid or emb.layer != LAYER or not np.array_equal(emb.values, g["values"]):
            problems.append(f"{sid}: decoded embedding differs from the one written")
        if len(problems) >= 10:
            break
    return problems


def check_files(out: Path, golds: list[dict], scenes: list[dict]) -> list[str]:
    """Read the written labels, scene records and charts back independently."""
    problems = []
    labels = [json.loads(x) for x in (out / "labels.jsonl").read_text(encoding="utf-8").splitlines()]
    records = [json.loads(x) for x in (out / "scene.jsonl").read_text(encoding="utf-8").splitlines()]
    if len(labels) != len(golds) or len(records) != len(golds):
        return [f"labels.jsonl has {len(labels)} and scene.jsonl {len(records)} records, expected {len(golds)}"]
    for lab, rec, g, want in zip(labels, records, golds, scenes):
        if lab != {"id": g["id"], "n": len(g["heads"]), "depths": g["depths"].tolist(),
                   "distances": g["distances"].tolist(), "root": g["root"]}:
            problems.append(f"labels.jsonl: record {g['id']} is wrong")
        if rec != {"id": g["id"], "n": len(want["seq_depths"]), "depths": want["seq_depths"].tolist(),
                   "distances": want["distances"].tolist(), "parents": want["parents"],
                   "phrase_to_text": want["phrase_to_text"]}:
            problems.append(f"scene.jsonl: record {g['id']} is wrong")
    for metric in CHART_METRICS:
        svg = ET.parse(out / f"{metric}.svg").getroot()
        lines = svg.findall(f".//{SVG}polyline")
        points = [len(p.get("points", "").split()) for p in lines]
        if svg.tag != f"{SVG}svg" or points != [len(CHART_LAYERS)] * len(CHART_RANKS):
            problems.append(f"{metric}.svg: expected {len(CHART_RANKS)} curves of {len(CHART_LAYERS)} points, "
                            f"found {points}")
    return problems[:10]


def output_hashes(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.is_file()}
