"""The scene-tree oracle: `scene-tree` then `eval` on visual rows that encode the scene exactly.

A seeded generator draws each caption's scene tree first and then writes a
dependency tree and grounded phrases that project onto it: phrase ``v`` is
``det_v head_v`` followed, for each child ``c``, by ``prep_c`` and ``c``'s
own phrase. Its span covers either ``det_v head_v`` or the whole of that,
so spans nest; it names one to three regions, so phrases are plural. Each
region's embedding row is the path indicator of its scene node (a 1 at each
node on the path from the image down to it), so the squared distance of two
rows is their tree distance and a row's squared norm its depth. The image
row is zero. An identity probe must then score every visual metric exactly 1.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from structprobe.cli import main
from structprobe.embed_io import EmbeddingSequence, write_embeddings
from structprobe.metrics import read_report_tsv
from structprobe.probe import identity_probe, save_probe
from structprobe.trees import ROOT

MAX_PHRASES = 7


def scene_oracle(seed: int, n_captions: int):
    """CoNLL text, grounding lines and the embedding sequences that encode each scene."""
    rng = np.random.default_rng(seed)
    conll, grounding, embeddings, scene_parents = [], [], [], []
    for c in range(n_captions):
        k = int(rng.integers(1, MAX_PHRASES + 1))
        # phrase node v (1..k) hangs under an earlier node; node 0 is the image
        parents = [ROOT] + [int(rng.integers(0, v)) for v in range(1, k + 1)]
        children = {v: [u for u in range(1, k + 1) if parents[u] == v] for v in range(k + 1)}

        # tokens as (kind, node): the root verb, then a prep and a phrase per child
        def phrase_tokens(v):
            out = [("det", v), ("head", v)]
            for u in children[v]:
                out += [("prep", u)] + phrase_tokens(u)
            return out

        tokens = [("root", 0)]
        for u in children[0]:
            tokens += [("prep", u)] + phrase_tokens(u)
        at = {tok: i for i, tok in enumerate(tokens)}
        heads = []
        for kind, v in tokens:
            if kind == "root":
                heads.append(ROOT)
            elif kind == "det":
                heads.append(at[("head", v)])
            elif kind == "head":
                heads.append(at[("prep", v)])
            else:  # a prep hangs under its phrase's parent: a head, or the root verb
                heads.append(at[("head", parents[v])] if parents[v] > 0 else at[("root", 0)])

        phrases, rows, n_regions = [], [np.zeros(MAX_PHRASES)], 0
        for v in range(1, k + 1):
            start = at[("det", v)]
            end = start + (len(phrase_tokens(v)) if rng.random() < 0.5 else 2)
            named = int(rng.integers(1, 4))
            region_ids = [f"r{n_regions + j}" for j in range(named)]
            n_regions += named
            phrases.append({"phrase_id": f"p{v}", "start": start, "end": end,
                            "region_ids": region_ids})
            path = np.zeros(MAX_PHRASES)
            u = v
            while u > 0:
                path[u - 1] = 1.0
                u = parents[u]
            rows += [path] * named  # regions of one node share its row

        words = [f"{kind}{v}" for kind, v in tokens]
        conll.append(f"# sent_id = c{c}\n" + "".join(
            f"{i + 1}\t{w}\t_\tX\t_\t_\t{h + 1}\t{'root' if h == ROOT else 'dep'}\t_\t_\n"
            for i, (w, h) in enumerate(zip(words, heads))
        ))
        grounding.append(json.dumps({"image_id": f"img{c}", "sentence_id": f"c{c}",
                                     "tokens": words, "phrases": phrases}))
        embeddings.append(EmbeddingSequence(id=f"c{c}", layer=0, values=np.array(rows)))
        scene_parents.append(parents)
    return "\n".join(conll), "".join(line + "\n" for line in grounding), embeddings, scene_parents


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_identity_probe_scores_the_scene_oracle_one(tmp_path, seed):
    conll_text, grounding_text, embeddings, scene_parents = scene_oracle(seed, n_captions=40)
    conll, grounding, scene = tmp_path / "c.conll", tmp_path / "g.jsonl", tmp_path / "scene.jsonl"
    emb = tmp_path / "emb.jsonl"
    conll.write_text(conll_text)
    grounding.write_text(grounding_text)
    write_embeddings(embeddings, emb)
    assert main(["--quiet", "scene-tree", "--conll", str(conll), "--grounding", str(grounding),
                 "--out", str(scene)]) == 0
    records = [json.loads(line) for line in scene.read_text().splitlines()]
    assert [r["parents"] for r in records] == scene_parents

    values = {}
    for task in ("distance", "depth"):
        probe, out = tmp_path / f"{task}.json", tmp_path / f"{task}.tsv"
        save_probe(identity_probe(task, MAX_PHRASES), probe)
        assert main(["--quiet", "eval", "--probe", str(probe), "--labels", str(scene),
                     "--emb", str(emb), "--out", str(out)]) == 0
        values.update({r["metric"]: (r["value"], r["n_sequences"]) for r in read_report_tsv(out)})
    # visual labels have no root, so there is no root_acc row
    assert set(values) == {"dspr", "uuas", "nspr"}
    for metric, (value, n) in values.items():
        assert value == 1.0, metric
        assert n > 0, metric
