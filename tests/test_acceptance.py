"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen; without -s they appear in pytest's captured output.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from structprobe.cli import main
from structprobe.embed_io import EmbeddingSequence, read_embeddings, write_embeddings
from structprobe.grid import rank_cells
from structprobe.metrics import (
    decode_mst_edges,
    evaluate_probe,
    read_report_tsv,
    uuas_counts,
    write_report_tsv,
)
from structprobe.probe import (
    Probe,
    TrainConfig,
    identity_probe,
    load_probe,
    loss_gradient,
    save_probe,
    train_probe,
)
from structprobe.scenetree import construct_scene_tree
from structprobe.synth import oracle_dataset, random_tree
from structprobe.trees import (
    read_labels,
    tree_depths,
    tree_distances,
    tree_labels,
    write_labels,
)

from test_cli import write_grid_inputs, write_manifest
from test_metrics import exhaustive_min_spanning_tree
from test_probe import finite_difference, labelled_pair
from test_scenetree import (
    FIXTURES,
    expected_scene_parent,
    make_phrases,
    make_tree,
    random_instance,
)
from test_trees import floyd_warshall


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {number} PASS  {description}")

        return run

    return wrap


@criterion(1, "oracle exactness: identity probe scores 1.0 on 500 noiseless trees")
def test_criterion_1_oracle_exactness():
    start = time.monotonic()
    data = oracle_dataset(500, 5, 50, extra_dims=16, noise_sigma=0.0, seed=7)
    pairs = data.pairs()
    m = data.embeddings[0].m
    dist = evaluate_probe(identity_probe("distance", m), pairs)
    depth = evaluate_probe(identity_probe("depth", m), pairs)
    for value in (
        dist.aggregates["dspr"],
        dist.aggregates["uuas"],
        depth.aggregates["nspr"],
        depth.aggregates["root_acc"],
    ):
        assert value is not None and abs(value - 1.0) <= 1e-9, value
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion(2, "trained-probe recovery at default hyperparameters on held-out trees")
def test_criterion_2_trained_probe_recovery():
    start = time.monotonic()
    data = oracle_dataset(500, 5, 50, extra_dims=16, noise_sigma=0.0, seed=7)
    pairs = data.pairs()
    train, held_out = pairs[:400], pairs[400:]
    cfg = TrainConfig(seed=1)  # batch 32, 40 epochs, patience 5, rank 128

    dist_probe = train_probe("distance", train, held_out, cfg)
    dist = evaluate_probe(dist_probe, held_out)
    assert dist.aggregates["dspr"] >= 0.95, dist.aggregates
    assert dist.aggregates["uuas"] >= 0.90, dist.aggregates

    depth_probe = train_probe("depth", train, held_out, cfg)
    depth = evaluate_probe(depth_probe, held_out)
    assert depth.aggregates["nspr"] >= 0.95, depth.aggregates
    assert depth.aggregates["root_acc"] >= 0.90, depth.aggregates

    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


@criterion(3, "analytic gradient matches central finite differences")
def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(31)
    for case in range(50):
        task = "distance" if case % 2 == 0 else "depth"
        k = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        batch = [
            labelled_pair(rng, int(rng.integers(2, 7)), m, seq_id=f"s{i}")
            for i in range(int(rng.integers(1, 4)))
        ]
        probe = Probe(task=task, transform=rng.standard_normal((k, m)))
        analytic = loss_gradient(probe, batch)
        numeric = finite_difference(probe, batch, step=1e-5)
        denom = max(np.linalg.norm(numeric), 1e-12)
        rel = np.linalg.norm(analytic - numeric) / denom
        assert rel <= 1e-4, f"case {case}: relative error {rel:.2e}"


@criterion(4, "tree labels equal Floyd-Warshall distances and root-row depths")
def test_criterion_4_label_oracle_equivalence():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        tree = random_tree(n, rng)
        dist = tree_distances(tree)
        assert np.array_equal(dist, floyd_warshall(tree.heads))
        assert np.array_equal(tree_depths(tree), dist[tree.root])


@criterion(5, "MST decode equals exhaustive minimization; gold UUAS is 1.0")
def test_criterion_5_uuas_decoder():
    rng = np.random.default_rng(51)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        w = rng.uniform(0.0, 1.0, size=(n, n))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        mine = decode_mst_edges(w)
        best_total, best_edges = exhaustive_min_spanning_tree(w)
        assert sum(w[a, b] for a, b in mine) <= best_total + 1e-12
        assert mine == best_edges
    for _ in range(200):
        labels = tree_labels(random_tree(int(rng.integers(2, 13)), rng), "s")
        assert uuas_counts(labels.distances.astype(float), labels) == (labels.n - 1, labels.n - 1)


@criterion(6, "scene-tree construction: 20 hand traces exact; ancestor property holds")
def test_criterion_6_scene_tree_fidelity():
    assert len(FIXTURES) == 20
    names = {c["name"] for c in FIXTURES}
    # the required coverage classes are all present
    assert "root_phrase_then_pp_object" in names
    assert "two_branches_with_nested_siblings" in names
    assert "shared_highest_node" in names
    assert "phrase_at_root_child" in names
    for case in FIXTURES:
        tree = make_tree(case["heads"])
        scene = construct_scene_tree(tree, make_phrases(case["phrases"]), "img")
        assert list(scene.parents) == case["expected_parents"], case["name"]
        assert list(scene.depths) == case["expected_depths"], case["name"]
        assert scene.phrase_to_text == case["expected_anchor"], case["name"]
    rng = np.random.default_rng(61)
    for _ in range(1000):
        tree, phrases = random_instance(rng)
        scene = construct_scene_tree(tree, phrases, "img")
        depths_t = tree_depths(tree)
        for idx in range(len(phrases)):
            want = expected_scene_parent(
                idx, phrases, scene.phrase_to_text, depths_t, tree.heads, tree.root
            )
            assert scene.parents[idx + 1] == want


@criterion(7, "rank sweep over {32,64,128,256} stays within a 0.02 DSpr spread")
def test_criterion_7_rank_insensitivity():
    data = oracle_dataset(200, 5, 33, extra_dims=0, noise_sigma=0.0, seed=17)
    pairs = data.pairs()
    assert data.embeddings[0].m == 32
    cfg = TrainConfig(seed=3)
    splits = {"train": pairs[:150], "val": pairs[150:], "eval": pairs[150:]}
    cells = list(rank_cells("distance", splits, cfg, [32, 64, 128, 256]))
    reports = [report for _, _, report in cells]
    assert [rank for rank, _, _ in cells] == [r.rank for r in reports] == [32, 64, 128, 256]
    values = [r.aggregates["dspr"] for r in reports]
    assert all(v is not None for v in values)
    spread = max(values) - min(values)
    assert spread < 0.02, f"spread {spread:.4f} over {values}"


@criterion(8, "all four on-disk formats round-trip bit-exactly on random payloads")
def test_criterion_8_format_roundtrips(tmp_path):
    rng = np.random.default_rng(81)

    seqs = []
    for i in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 7))
        raw = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4)
        seqs.append(
            EmbeddingSequence(
                id=f"e{i}", layer=int(rng.integers(0, 13)), values=raw.astype(np.float32)
            )
        )
    epath = tmp_path / "emb.jsonl"
    write_embeddings(seqs, epath)
    for a, b in zip(seqs, read_embeddings(epath)):
        assert a.id == b.id and a.layer == b.layer
        assert a.values.tobytes() == b.values.tobytes()

    labels = [tree_labels(random_tree(int(rng.integers(1, 14)), rng), f"l{i}") for i in range(1000)]
    lpath = tmp_path / "labels.jsonl"
    write_labels(labels, lpath)
    for a, b in zip(labels, read_labels(lpath)):
        assert a.id == b.id and a.root == b.root
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.depths, b.depths)

    ppath = tmp_path / "probe.json"
    for i in range(1000):
        probe = Probe(
            task="distance" if i % 2 == 0 else "depth",
            transform=rng.standard_normal((int(rng.integers(1, 5)), int(rng.integers(1, 5)))),
            meta={"seed": i},
        )
        save_probe(probe, ppath)
        back = load_probe(ppath)
        assert back.task == probe.task and back.meta == probe.meta
        assert back.transform.tobytes() == probe.transform.tobytes()

    rows = []
    for i in range(1000):
        layer: int | str = int(rng.integers(0, 13)) if i % 3 else "baseline"
        rows.append(
            {
                "layer": layer,
                "rank": int(rng.integers(1, 512)),
                "task": "distance",
                "metric": rng.choice(["dspr", "uuas", "nspr", "root_acc"]),
                "value": float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-12, 3)),
                "n_sequences": int(rng.integers(0, 10_000)),
            }
        )
    tpath = tmp_path / "report.tsv"
    write_report_tsv(rows, tpath)
    assert read_report_tsv(tpath) == rows


@criterion(9, "grid runs are byte-identical for a fixed manifest and seed")
def test_criterion_9_grid_determinism(tmp_path):
    paths = write_grid_inputs(tmp_path, n_trees=30, seed=91)
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    manifest_a = write_manifest(tmp_path, paths, out_a)
    assert main(["--quiet", "grid", "--manifest", str(manifest_a)]) == 0
    doc = json.loads(manifest_a.read_text())
    doc["out_dir"] = str(out_b)
    manifest_b = tmp_path / "manifest_b.json"
    manifest_b.write_text(json.dumps(doc, indent=1))
    assert main(["--quiet", "grid", "--manifest", str(manifest_b)]) == 0
    assert (out_a / "report.tsv").read_bytes() == (out_b / "report.tsv").read_bytes()
    for svg in ("chart_dspr.svg", "chart_uuas.svg"):
        assert (out_a / svg).read_bytes() == (out_b / svg).read_bytes()
