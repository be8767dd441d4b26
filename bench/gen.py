"""Seeded benchmark inputs in the package's documented file formats.

Everything here is drawn from ``numpy.random.default_rng(seed)`` and does
not import the package under test, so a change to the package can never
change what a workload feeds it. Sentence lengths and region counts cycle
through their whole range before shuffling, so every seed gives the same
amount of work. Besides the files, the generator returns the gold answers
the outputs are checked against.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

# Per workload: sentence count and length range, regions per caption, and
# embedding width m. Text rows are tokens; visual rows are the full image
# plus one row per region.
SHAPES = {
    "text": {"sentences": 46, "min_len": 5, "max_len": 50, "max_regions": 3, "m": 768, "rows": "tokens"},
    "visual": {"sentences": 100, "min_len": 6, "max_len": 20, "max_regions": 16, "m": 2048, "rows": "regions"},
}
# Report rows the charts are drawn from: numeric layers, one baseline, two ranks.
CHART_LAYERS = tuple(range(13))
CHART_RANKS = (32, 128)
CHART_METRICS = ("dspr", "uuas", "nspr", "root_acc")
DEPRELS = ("nsubj", "obj", "det", "amod", "case", "nmod", "advmod", "conj", "cc", "punct")
LAYER = 7  # the model layer tag written into every EMB-JSONL record


def random_tree(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(heads, order): a random recursive tree over shuffled positions.

    ``heads[root] == -1``; every node appears in ``order`` after its head.
    """
    order = rng.permutation(n)
    heads = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        heads[order[i]] = order[rng.integers(0, i)]
    return heads, order


def tree_gold(heads: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distances, depths) of a tree, exactly.

    Node v's row holds a 1 for every edge on its root path (edge v enters
    v), so squared row distances are path lengths.
    """
    n = len(heads)
    x = np.zeros((n, n))
    for v in order[1:]:
        x[v] = x[heads[v]]
        x[v, v] = 1.0
    sq = x.sum(axis=1)
    return np.rint(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)).astype(np.int64), sq.astype(np.int64)


def conll_block(sent_id: str, tokens, heads, rng) -> str:
    lines = [f"# sent_id = {sent_id}"]
    for i, (tok, head) in enumerate(zip(tokens, heads)):
        rel = "root" if head < 0 else DEPRELS[rng.integers(len(DEPRELS))]
        lines.append(f"{i + 1}\t{tok}\t_\tX\t_\t_\t{int(head) + 1}\t{rel}\t_\t_")
    return "\n".join(lines) + "\n\n"


def emb_line(seq_id: str, layer: int, values: np.ndarray) -> str:
    n, m = values.shape
    rec = {"id": seq_id, "layer": layer, "n": n, "m": m, "dtype": "f32le",
           "data": base64.b64encode(values.astype("<f4").tobytes()).decode("ascii")}
    return json.dumps(rec, separators=(",", ":")) + "\n"


def phrases_for(rng, n: int, regions: int, image_id: str) -> list[dict]:
    """Disjoint phrase spans over n tokens that name ``regions`` regions between them.

    A phrase may get no region; the reader drops such phrases.
    """
    n_phrases = int(rng.integers(1, min(6, (n - 1) // 2) + 1))
    cuts = np.sort(rng.choice(np.arange(1, n), size=2 * n_phrases, replace=False))
    phrases, first = [], 0
    for p, want in enumerate(rng.multinomial(regions, [1.0 / n_phrases] * n_phrases)):
        phrases.append({"phrase_id": f"p{p}", "start": int(cuts[2 * p]), "end": int(cuts[2 * p + 1]),
                        "region_ids": [f"{image_id}-r{first + j}" for j in range(want)]})
        first += want
    return phrases


class Inventory:
    """Writes generated files and records their sizes, counts and sha256."""

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[str, dict] = {}

    def write(self, name: str, text: str, **counts) -> None:
        data = text.encode("utf-8")
        (self.root / name).write_bytes(data)
        self.files[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(), **counts}

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(f"{name}\0{self.files[name]['sha256']}\n".encode())
        return h.hexdigest()


def make_inputs(out: Path, seed: int, shape: dict) -> tuple[Inventory, list[dict], list[dict]]:
    """Write corpus.conll, grounding.jsonl, emb.jsonl and report_rows.json under ``out``.

    Returns the inventory, the gold record of every sentence (heads,
    distances, depths, root, image id, phrases, embedding rows) and the
    report rows.
    """
    rng = np.random.default_rng(seed)
    inv = Inventory(out)
    count = shape["sentences"]
    lengths = rng.permutation(np.resize(np.arange(shape["min_len"], shape["max_len"] + 1), count))
    n_regions = rng.permutation(np.resize(np.arange(shape["max_regions"] + 1), count))
    conll, ground, emb, golds = [], [], [], []
    for i in range(count):
        n, sid, image_id = int(lengths[i]), f"s{i}", f"img{i}"
        heads, order = random_tree(rng, n)
        tokens = [f"w{int(t)}" for t in rng.integers(0, 5000, size=n)]
        phrases = phrases_for(rng, n, int(n_regions[i]), image_id)
        rows = n if shape["rows"] == "tokens" else 1 + int(n_regions[i])
        values = rng.standard_normal((rows, shape["m"]), dtype=np.float32)
        conll.append(conll_block(sid, tokens, heads, rng))
        ground.append(json.dumps({"image_id": image_id, "sentence_id": sid, "tokens": tokens, "phrases": phrases},
                                 separators=(",", ":")) + "\n")
        emb.append(emb_line(sid, LAYER, values))
        distances, depths = tree_gold(heads, order)
        golds.append({"id": sid, "image_id": image_id, "heads": heads, "root": int(order[0]),
                      "distances": distances, "depths": depths, "phrases": phrases, "values": values})
    tokens = int(lengths.sum())
    rows = sum(g["values"].shape[0] for g in golds)
    inv.write("corpus.conll", "".join(conll), sequences=count, tokens=tokens)
    inv.write("grounding.jsonl", "".join(ground), sequences=count, regions=int(n_regions.sum()))
    inv.write("emb.jsonl", "".join(emb), sequences=count, rows=rows, m=shape["m"])
    report = [{"layer": layer_, "rank": rank, "metric": metric, "value": float(rng.uniform(0.05, 0.95))}
              for metric in CHART_METRICS for rank in CHART_RANKS for layer_ in CHART_LAYERS + ("random",)]
    inv.write("report_rows.json", json.dumps(report) + "\n", rows=len(report))
    return inv, golds, report
