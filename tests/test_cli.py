"""End-to-end CLI runs over small synthetic data."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from structprobe import cli as cli_mod
from structprobe import grid as grid_mod
from structprobe.cli import build_parser, main
from structprobe.embed_io import (
    EmbeddingSequence,
    read_embeddings,
    scan_embedding_headers,
    write_embeddings,
)
from structprobe.metrics import read_report_tsv, write_report_tsv
from structprobe.probe import TrainConfig, identity_probe, load_probe, save_probe
from structprobe.synth import oracle_dataset, oracle_embed_tree
from structprobe.trees import read_conllu, read_labels, write_labels

CONLL = """\
# sent_id = c1
1\ta\t_\tDET\t_\t_\t2\tdet\t_\t_
2\tman\t_\tNOUN\t_\t_\t0\troot\t_\t_
3\ton\t_\tADP\t_\t_\t2\tprep\t_\t_
4\ta\t_\tDET\t_\t_\t5\tdet\t_\t_
5\tbench\t_\tNOUN\t_\t_\t3\tpobj\t_\t_
"""

GROUNDING = {
    "image_id": "img9",
    "sentence_id": "c1",
    "tokens": ["a", "man", "on", "a", "bench"],
    "phrases": [
        {"phrase_id": "p1", "start": 0, "end": 2, "region_ids": ["r1"]},
        {"phrase_id": "p2", "start": 3, "end": 5, "region_ids": ["r2", "r3"]},
    ],
}


def test_build_labels(tmp_path):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    out = tmp_path / "labels.jsonl"
    assert main(["--quiet", "build-labels", "--conll", str(conll), "--out", str(out)]) == 0
    (lab,) = read_labels(out)
    assert lab.id == "c1"
    assert lab.root == 1
    assert lab.depths.tolist() == [1, 0, 1, 3, 2]


def test_scene_tree_command(tmp_path):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    grounding = tmp_path / "g.jsonl"
    grounding.write_text(json.dumps(GROUNDING) + "\n")
    out = tmp_path / "scene.jsonl"
    report = tmp_path / "overlaps.json"
    code = main(
        [
            "--quiet",
            "scene-tree",
            "--conll", str(conll),
            "--grounding", str(grounding),
            "--out", str(out),
            "--report", str(report),
        ]
    )
    assert code == 0
    rec = json.loads(out.read_text())
    # image -> p1 -> p2; sequence: image, r1, r2, r3
    assert rec["parents"] == [-1, 0, 1]
    assert rec["phrase_to_text"] == {"p1": 1, "p2": 4}
    assert rec["depths"] == [0, 1, 2, 2]
    assert rec["distances"][1][2] == 1
    assert rec["distances"][2][3] == 0
    assert "root" not in rec
    assert json.loads(report.read_text()) == {"overlapping_spans": []}


def test_scene_tree_token_mismatch_is_data_error(tmp_path):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    grounding = tmp_path / "g.jsonl"
    bad = dict(GROUNDING, tokens=["totally", "different", "words", "here", "now"])
    grounding.write_text(json.dumps(bad) + "\n")
    code = main(
        [
            "--quiet",
            "scene-tree",
            "--conll", str(conll),
            "--grounding", str(grounding),
            "--out", str(tmp_path / "scene.jsonl"),
        ]
    )
    assert code == 2


def test_synth_train_eval_pipeline(tmp_path):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    assert (
        main(
            [
                "--quiet",
                "synth",
                "--n-trees", "60",
                "--min-n", "5",
                "--max-n", "12",
                "--extra-dims", "2",
                "--seed", "3",
                "--out-labels", str(labels),
                "--out-emb", str(emb),
            ]
        )
        == 0
    )
    probe_path = tmp_path / "probe.json"
    code = main(
        [
            "--quiet",
            "train",
            "--task", "distance",
            "--labels", str(labels),
            "--emb", str(emb),
            "--val-labels", str(labels),
            "--val-emb", str(emb),
            "--rank", "13",
            "--epochs", "8",
            "--patience", "8",
            "--seed", "1",
            "--out", str(probe_path),
        ]
    )
    assert code == 0
    probe = load_probe(probe_path)
    assert probe.rank == 13
    assert probe.meta["layer"] == 0

    report = tmp_path / "report.tsv"
    detail = tmp_path / "report.json"
    code = main(
        [
            "--quiet",
            "eval",
            "--probe", str(probe_path),
            "--labels", str(labels),
            "--emb", str(emb),
            "--out", str(report),
            "--json", str(detail),
        ]
    )
    assert code == 0
    rows = read_report_tsv(report)
    metrics = {r["metric"]: r["value"] for r in rows}
    assert set(metrics) == {"dspr", "uuas"}
    assert 0.0 <= metrics["uuas"] <= 1.0
    doc = json.loads(detail.read_text())
    assert len(doc["sequences"]) == 60


def test_train_seed_flag_wins_over_global(tmp_path):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "10", "--min-n", "4", "--max-n", "8",
          "--seed", "3", "--out-labels", str(labels), "--out-emb", str(emb)])
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    base = ["--quiet", "train", "--task", "depth", "--labels", str(labels),
            "--emb", str(emb), "--val-labels", str(labels), "--val-emb", str(emb),
            "--rank", "4", "--epochs", "2", "--patience", "2"]
    assert main(base + ["--seed", "9", "--out", str(out_a)]) == 0
    assert main(["--seed", "9"] + base[1:] + ["--out", str(out_b)]) == 0
    a, b = load_probe(out_a), load_probe(out_b)
    assert np.array_equal(a.transform, b.transform)
    assert a.meta["seed"] == b.meta["seed"] == 9


def test_train_seed_flag_wins_over_a_different_global_seed(tmp_path):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "10", "--min-n", "4", "--max-n", "8",
          "--seed", "3", "--out-labels", str(labels), "--out-emb", str(emb)])
    base = ["train", "--task", "depth", "--labels", str(labels), "--emb", str(emb),
            "--val-labels", str(labels), "--val-emb", str(emb),
            "--rank", "4", "--epochs", "2", "--patience", "2"]
    out_local, out_both = tmp_path / "local.json", tmp_path / "both.json"
    assert main(["--quiet"] + base + ["--seed", "9", "--out", str(out_local)]) == 0
    assert main(["--quiet", "--seed", "5"] + base + ["--seed", "9", "--out", str(out_both)]) == 0
    local, both = load_probe(out_local), load_probe(out_both)
    assert both.meta["seed"] == 9
    assert np.array_equal(local.transform, both.transform)


def test_sweep_counts_sequences_as_eval_does(tmp_path):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "20", "--min-n", "2", "--max-n", "7",
          "--seed", "4", "--out-labels", str(labels), "--out-emb", str(emb)])
    flags = ["--task", "distance", "--labels", str(labels), "--emb", str(emb),
             "--val-labels", str(labels), "--val-emb", str(emb),
             "--epochs", "2", "--patience", "2", "--seed", "0"]
    sweep, probe, report = tmp_path / "sweep.tsv", tmp_path / "p.json", tmp_path / "r.tsv"
    assert main(["--quiet", "sweep"] + flags + ["--ranks", "4", "--out", str(sweep)]) == 0
    assert main(["--quiet", "train"] + flags + ["--rank", "4", "--out", str(probe)]) == 0
    assert main(["--quiet", "eval", "--probe", str(probe), "--labels", str(labels),
                 "--emb", str(emb), "--out", str(report)]) == 0
    swept = {r["metric"]: r for r in read_report_tsv(sweep)}
    evaluated = {r["metric"]: r for r in read_report_tsv(report)}
    assert evaluated["dspr"]["n_sequences"] < 20
    for metric, row in evaluated.items():
        assert swept[metric]["n_sequences"] == row["n_sequences"]
        assert swept[metric]["value"] == row["value"]
    assert swept["val_loss"]["n_sequences"] == 20


def test_eval_exclude_deprels_requires_conll(tmp_path):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "6", "--min-n", "4", "--max-n", "6",
          "--seed", "2", "--out-labels", str(labels), "--out-emb", str(emb)])
    probe_path = tmp_path / "probe.json"
    main(["--quiet", "train", "--task", "distance", "--labels", str(labels),
          "--emb", str(emb), "--val-labels", str(labels), "--val-emb", str(emb),
          "--rank", "3", "--epochs", "1", "--patience", "1", "--seed", "0",
          "--out", str(probe_path)])
    code = main(["--quiet", "eval", "--probe", str(probe_path), "--labels", str(labels),
                 "--emb", str(emb), "--out", str(tmp_path / "r.tsv"),
                 "--exclude-deprels", "punct"])
    assert code == 1


def test_sweep_command(tmp_path):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "30", "--min-n", "5", "--max-n", "9",
          "--extra-dims", "0", "--seed", "5", "--out-labels", str(labels),
          "--out-emb", str(emb)])
    out = tmp_path / "sweep.tsv"
    code = main(["--quiet", "sweep", "--task", "depth", "--labels", str(labels),
                 "--emb", str(emb), "--val-labels", str(labels), "--val-emb", str(emb),
                 "--ranks", "2,4", "--epochs", "3", "--patience", "3", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    rows = read_report_tsv(out)
    assert {r["rank"] for r in rows} == {2, 4}
    assert {r["metric"] for r in rows} >= {"nspr", "root_acc", "val_loss"}


# the last five are not JSON integers, as a manifest's ranks must be; int()
# read the first two of them as ranks 10 and 3
@pytest.mark.parametrize(
    "ranks", ["0,2", "2.5", ",", " ", "2,-3", "4,x", "1_0", "\u0663", "1e2", "true", "4,1.0"]
)
def test_sweep_bad_ranks_rejected_before_any_read(tmp_path, monkeypatch, capsys, ranks):
    from structprobe import cli

    read: list[str] = []
    monkeypatch.setattr(cli, "read_embeddings", lambda path: read.append(path) or [])
    monkeypatch.setattr(cli, "read_labels", lambda path: read.append(path) or [])
    out = tmp_path / "sweep.tsv"
    code = main(["--quiet", "sweep", "--task", "distance", "--labels", "l.jsonl",
                 "--emb", "e.jsonl", "--val-labels", "vl.jsonl", "--val-emb", "ve.jsonl",
                 "--ranks", ranks, "--out", str(out)])
    assert code == 1
    assert "--ranks" in capsys.readouterr().err
    assert read == []
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--seed", "-1", "seed"),
        ("--n-trees", "0", "n_trees"),
        ("--min-n", "0", "min_n"),
        ("--max-n", "2", "max_n"),
        ("--noise", "-1", "noise_sigma"),
        ("--noise", "nan", "noise_sigma"),
        ("--extra-dims", "-1", "extra_dims"),
    ],
)
def test_synth_bad_option_exits_one_naming_it(tmp_path, capsys, option, value, named):
    labels, emb = tmp_path / "labels.jsonl", tmp_path / "emb.jsonl"
    code = main(["--quiet", "synth", "--n-trees", "3", "--min-n", "3", "--max-n", "5",
                 f"{option}={value}", "--out-labels", str(labels), "--out-emb", str(emb)])
    assert code == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not labels.exists() and not emb.exists()


def test_missing_file_exits_two(tmp_path):
    code = main(["--quiet", "build-labels", "--conll", str(tmp_path / "none.conll"),
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 2


def test_build_labels_on_non_utf8_conll_names_file_and_line(tmp_path, capsys):
    conll = tmp_path / "x.conll"
    conll.write_bytes(b"1 a 2 x\n2 \xff 0 root\n")
    code = main(["--quiet", "build-labels", "--conll", str(conll),
                 "--out", str(tmp_path / "labels.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{conll}:2: not valid UTF-8" in err
    assert "Traceback" not in err


def test_malformed_records_exit_two(tmp_path):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "4", "--min-n", "4", "--max-n", "6",
          "--seed", "2", "--out-labels", str(labels), "--out-emb", str(emb)])
    bad_emb = tmp_path / "bad_emb.jsonl"
    bad_emb.write_text(emb.read_text() + "[1, 2]\n")
    code = main(["--quiet", "train", "--task", "depth", "--labels", str(labels),
                 "--emb", str(bad_emb), "--val-labels", str(labels), "--val-emb", str(emb),
                 "--rank", "2", "--epochs", "1", "--patience", "1",
                 "--out", str(tmp_path / "probe.json")])
    assert code == 2

    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    grounding = tmp_path / "g.jsonl"
    grounding.write_text(json.dumps(dict(GROUNDING, phrases=[5])) + "\n")
    code = main(["--quiet", "scene-tree", "--conll", str(conll),
                 "--grounding", str(grounding), "--out", str(tmp_path / "scene.jsonl")])
    assert code == 2


def test_overflowing_and_non_utf8_records_exit_two_without_traceback(tmp_path, capsys):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "4", "--min-n", "4", "--max-n", "6",
          "--seed", "2", "--out-labels", str(labels), "--out-emb", str(emb)])
    bad_labels = tmp_path / "bad_labels.jsonl"
    first, rest = labels.read_text().split("\n", 1)
    bad_labels.write_text(first + "\n" + rest.replace('"depths":[', '"depths":[1e999,', 1))
    code = main(["--quiet", "train", "--task", "depth", "--labels", str(bad_labels),
                 "--emb", str(emb), "--val-labels", str(labels), "--val-emb", str(emb),
                 "--rank", "2", "--epochs", "1", "--patience", "1",
                 "--out", str(tmp_path / "probe.json")])
    assert code == 2
    assert f"{bad_labels}:2: bad labels record" in capsys.readouterr().err

    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    grounding = tmp_path / "g.jsonl"
    grounding.write_bytes(json.dumps(GROUNDING).encode().replace(b"bench", b"b\xffnch") + b"\n")
    code = main(["--quiet", "scene-tree", "--conll", str(conll),
                 "--grounding", str(grounding), "--out", str(tmp_path / "scene.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{grounding}:1: bad grounding record: not valid UTF-8" in err
    assert "Traceback" not in err


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as err:
        main(["train", "--task", "nonsense"])
    assert err.value.code == 1


def write_grid_inputs(
    tmp_path: Path, n_trees=36, seed=11, min_n=5, max_n=10, extra_dims=2, noise=0.3
) -> dict:
    """Oracle data split three ways, with two layers of embedding files.

    Layer 0 holds the exact embeddings; layer 1 adds Gaussian noise of the
    given scale (zero noise makes the layers identical up to the tag).
    """
    data = oracle_dataset(n_trees, min_n, max_n, extra_dims=extra_dims, seed=seed)
    pairs = data.pairs()
    cut1, cut2 = int(n_trees * 0.6), int(n_trees * 0.8)
    splits = {
        "train": pairs[:cut1],
        "val": pairs[cut1:cut2],
        "eval": pairs[cut2:],
    }
    rng = np.random.default_rng(99)
    paths: dict = {"out": tmp_path}
    for split, items in splits.items():
        lpath = tmp_path / f"{split}_labels.jsonl"
        write_labels([lab for lab, _ in items], lpath)
        paths[f"{split}_labels"] = lpath
        clean = [seq for _, seq in items]
        layer1 = [
            EmbeddingSequence(
                id=seq.id,
                layer=1,
                values=seq.values
                + rng.normal(0, noise, seq.values.shape).astype(np.float32),
            )
            for seq in clean
        ]
        for tag, seqs in (("0", clean), ("1", layer1)):
            epath = tmp_path / f"{split}_emb_l{tag}.jsonl"
            write_embeddings(seqs, epath)
            paths[f"{split}_emb_l{tag}"] = epath
    return paths


def write_manifest(tmp_path: Path, paths: dict, out_dir: Path, ranks=(6,), train=None) -> Path:
    manifest = {
        "task": "distance",
        "train_labels": str(paths["train_labels"]),
        "val_labels": str(paths["val_labels"]),
        "eval_labels": str(paths["eval_labels"]),
        "layers": [
            {
                "tag": 0,
                "train_emb": str(paths["train_emb_l0"]),
                "val_emb": str(paths["val_emb_l0"]),
                "eval_emb": str(paths["eval_emb_l0"]),
            },
            {
                "tag": 1,
                "train_emb": str(paths["train_emb_l1"]),
                "val_emb": str(paths["val_emb_l1"]),
                "eval_emb": str(paths["eval_emb_l1"]),
            },
        ],
        "ranks": list(ranks),
        "train": train
        or {"batch_size": 8, "max_epochs": 3, "patience": 3, "lr": 1e-3, "seed": 2},
        "out_dir": str(out_dir),
    }
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=1))
    return mpath


def test_grid_runs_and_charts(tmp_path):
    paths = write_grid_inputs(tmp_path)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    rows = read_report_tsv(out_dir / "report.tsv")
    assert {r["layer"] for r in rows} == {0, 1}
    assert (out_dir / "chart_dspr.svg").exists()
    assert (out_dir / "chart_uuas.svg").exists()
    assert (out_dir / "probe_layer0_rank6.json").exists()
    assert (out_dir / "report_layer1_rank6.json").exists()


def test_grid_determinism_and_out_dir_override(tmp_path, monkeypatch):
    paths = write_grid_inputs(tmp_path)
    out_a = tmp_path / "run_a"
    mpath = write_manifest(tmp_path, paths, out_a)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    out_b = tmp_path / "run_b"
    monkeypatch.setenv("STRUCTPROBE_OUT_DIR", str(out_b))
    assert main(["--quiet", "--jobs", "2", "grid", "--manifest", str(mpath)]) == 0
    assert (out_a / "report.tsv").read_bytes() == (out_b / "report.tsv").read_bytes()
    assert (out_a / "chart_dspr.svg").read_bytes() == (out_b / "chart_dspr.svg").read_bytes()


def test_grid_resolves_relative_manifest_paths_against_the_manifest(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    paths = {k: Path(v.name) for k, v in write_grid_inputs(data).items() if k != "out"}
    mpath = write_manifest(data, paths, Path("run"))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    assert {r["layer"] for r in read_report_tsv(data / "run" / "report.tsv")} == {0, 1}
    assert os.listdir(elsewhere) == []
    # --manifest and STRUCTPROBE_OUT_DIR stay relative to the current directory
    monkeypatch.setenv("STRUCTPROBE_OUT_DIR", "override")
    assert main(["--quiet", "grid", "--manifest", os.path.join("..", "data", "manifest.json")]) == 0
    assert (elsewhere / "override" / "report.tsv").read_bytes() == (data / "run" / "report.tsv").read_bytes()


def test_grid_on_exact_layers_recovers_gold_everywhere(tmp_path):
    # two noiseless layers: every cell's probe should read the labels back
    paths = write_grid_inputs(
        tmp_path, n_trees=200, seed=29, min_n=6, max_n=18, extra_dims=0, noise=0.0
    )
    out_dir = tmp_path / "run"
    mpath = write_manifest(
        tmp_path,
        paths,
        out_dir,
        ranks=(24,),
        train={"batch_size": 8, "max_epochs": 20, "patience": 20, "seed": 2},
    )
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    rows = read_report_tsv(out_dir / "report.tsv")
    dspr = {r["layer"]: r["value"] for r in rows if r["metric"] == "dspr"}
    assert set(dspr) == {0, 1}
    assert all(v >= 0.95 for v in dspr.values()), dspr


def test_eval_exclusions_with_conll_source(tmp_path):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    labels = tmp_path / "labels.jsonl"
    assert main(["--quiet", "build-labels", "--conll", str(conll), "--out", str(labels)]) == 0
    # exact tree embeddings for the one sentence, so the decode is perfect
    from structprobe.probe import identity_probe, save_probe
    from structprobe.synth import oracle_embed_tree
    from structprobe.trees import read_conllu

    (tree,) = read_conllu(conll)
    emb = tmp_path / "emb.jsonl"
    write_embeddings([oracle_embed_tree(tree, seq_id="c1")], emb)
    probe_path = tmp_path / "probe.json"
    save_probe(identity_probe("distance", 4), probe_path)
    out = tmp_path / "report.tsv"
    code = main(
        [
            "--quiet",
            "eval",
            "--probe", str(probe_path),
            "--labels", str(labels),
            "--emb", str(emb),
            "--out", str(out),
            "--exclude-deprels", "det",
            "--conll", str(conll),
        ]
    )
    assert code == 0
    rows = {r["metric"]: r for r in read_report_tsv(out)}
    # both determiners are dropped: 2 of the 4 gold edges remain
    assert rows["uuas"]["value"] == 1.0
    assert rows["uuas"]["n_sequences"] == 1


def test_grid_baseline_cells_tagged_in_report_and_chart(tmp_path):
    paths = write_grid_inputs(tmp_path, n_trees=20)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    doc = json.loads(mpath.read_text())
    # reuse the noisy layer's files as two baseline embedding sources
    doc["layers"] = doc["layers"][:1]
    doc["baselines"] = [
        {
            "tag": tag,
            "train_emb": str(paths["train_emb_l1"]),
            "val_emb": str(paths["val_emb_l1"]),
            "eval_emb": str(paths["eval_emb_l1"]),
        }
        for tag in ("baseline", "rcnn-baseline")
    ]
    mpath.write_text(json.dumps(doc))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    rows = read_report_tsv(out_dir / "report.tsv")
    assert {r["layer"] for r in rows} == {0, "baseline", "rcnn-baseline"}
    svg = (out_dir / "chart_dspr.svg").read_text()
    assert "rcnn-baseline" in svg and 'stroke-dasharray="5,3"' in svg


def test_grid_all_cells_failing_exits_nonzero(tmp_path, capsys):
    paths = write_grid_inputs(tmp_path, n_trees=12)
    out_dir = tmp_path / "run"
    mpath = write_manifest(
        tmp_path,
        paths,
        out_dir,
        train={"batch_size": 4, "max_epochs": 5, "patience": 5,
               "optimizer": "sgd", "lr": 1e30, "seed": 2},
    )
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert "structprobe: all grid cells failed" in err and "Traceback" not in err
    # every cell diverged: TrainingDiverged (exit 3) in a cell is a failed cell
    assert "layer0_rank6: non-finite" in err and "layer1_rank6: non-finite" in err
    assert not (out_dir / "report.tsv").exists()


def test_grid_empty_layers_is_validation_error(tmp_path):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run")
    doc = json.loads(mpath.read_text())
    doc["layers"] = []
    mpath.write_text(json.dumps(doc))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1


def test_grid_mismatched_ids_rejected_before_training(tmp_path):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    # corrupt one embedding file: drop a record
    target = paths["val_emb_l0"]
    lines = target.read_text().splitlines()
    target.write_text("\n".join(lines[1:]) + "\n")
    mpath = write_manifest(tmp_path, paths, tmp_path / "run")
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    assert not (tmp_path / "run" / "report.tsv").exists()


def test_chart_command(tmp_path):
    paths = write_grid_inputs(tmp_path, n_trees=12)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    chart = tmp_path / "dspr.svg"
    code = main(["--quiet", "chart", "--report", str(out_dir / "report.tsv"),
                 "--metric", "dspr", "--out", str(chart)])
    assert code == 0
    assert chart.read_text().startswith("<svg")
    code = main(["--quiet", "chart", "--report", str(out_dir / "report.tsv"),
                 "--metric", "bogus", "--out", str(chart)])
    assert code == 1


CHART_ROWS = [
    {"layer": 0, "rank": 8, "task": "depth", "metric": "nspr", "value": 0.4, "n_sequences": 5},
    {"layer": 1, "rank": 8, "task": "depth", "metric": "nspr", "value": 0.6, "n_sequences": 5},
]


@pytest.mark.parametrize("title", ["a\x01b", "a\x0bb", "a\x1fb", "a\udcffb", "a\ufffeb"])
def test_chart_title_xml_cannot_hold_is_validation_error_and_nothing_written(
    tmp_path, capsys, title
):
    report, chart = tmp_path / "r.tsv", tmp_path / "c.svg"
    write_report_tsv(CHART_ROWS, report)
    code = main(["--quiet", "chart", "--report", str(report), "--metric", "nspr",
                 "--out", str(chart), "--title", title])
    assert code == 1
    assert "XML cannot hold" in capsys.readouterr().err
    assert not chart.exists()


def test_chart_title_that_is_not_utf8_exits_one(tmp_path):
    report, chart = tmp_path / "r.tsv", tmp_path / "c.svg"
    write_report_tsv(CHART_ROWS, report)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "structprobe.cli", "--quiet", "chart", "--report", str(report),
            "--metric", "nspr", "--out", str(chart), "--title", b"a\xffb"]
    done = subprocess.run(argv, env=env, capture_output=True)
    assert done.returncode == 1, done.stderr
    assert b"XML cannot hold" in done.stderr and b"Traceback" not in done.stderr
    assert not chart.exists()


@pytest.mark.parametrize("column", [0, 3], ids=["layer", "metric"])
def test_chart_report_row_xml_cannot_hold_is_data_error_at_its_line(tmp_path, capsys, column):
    report, chart = tmp_path / "r.tsv", tmp_path / "c.svg"
    write_report_tsv(CHART_ROWS, report)
    lines = report.read_text().split("\n")
    parts = lines[2].split("\t")
    parts[column] = "base\x0bline" if column == 0 else "nspr\x0b"
    report.write_text("\n".join(lines[:2] + ["\t".join(parts)] + lines[3:]))
    code = main(["--quiet", "chart", "--report", str(report), "--metric", "nspr",
                 "--out", str(chart)])
    assert code == 2
    assert f"{report}:3: " in capsys.readouterr().err
    assert not chart.exists()


def test_grid_with_failed_cells_exits_two_and_keeps_survivors(tmp_path):
    paths = write_grid_inputs(tmp_path, n_trees=20)
    # layer 1's validation embeddings get three more columns than its train split
    target = paths["val_emb_l1"]
    widened = [
        EmbeddingSequence(id=s.id, layer=1, values=np.pad(s.values, ((0, 0), (0, 3))))
        for s in read_embeddings(target)
    ]
    write_embeddings(widened, target)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir, ranks=(2, 3))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 2
    rows = read_report_tsv(out_dir / "report.tsv")
    assert {(r["layer"], r["rank"]) for r in rows} == {(0, 2), (0, 3)}
    assert (out_dir / "probe_layer0_rank3.json").exists()
    assert not list(out_dir.glob("*layer1*"))


def test_grid_decodes_each_embedding_file_once(tmp_path, monkeypatch):
    paths = write_grid_inputs(tmp_path, n_trees=15)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run", ranks=(2, 3))
    doc = json.loads(mpath.read_text())
    doc["baselines"] = [dict(doc["layers"].pop(), tag="baseline")]
    mpath.write_text(json.dumps(doc))
    decoded: list[str] = []
    real_read = grid_mod.read_embeddings

    def counting_read(path):
        decoded.append(str(path))
        return real_read(path)

    monkeypatch.setattr(grid_mod, "read_embeddings", counting_read)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    expected = [
        str(paths[f"{split}_emb_l{tag}"]) for tag in "01" for split in ("train", "val", "eval")
    ]
    assert sorted(decoded) == sorted(expected)


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_grid_jobs_below_one_rejected_before_the_manifest_is_read(
    tmp_path, monkeypatch, capsys, jobs
):
    paths = write_grid_inputs(tmp_path)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    read: list = []
    load = grid_mod.load_manifest
    monkeypatch.setattr(grid_mod, "load_manifest", lambda *a, **k: read.append(a) or load(*a, **k))
    assert main(["--quiet", "--jobs", jobs, "grid", "--manifest", str(mpath)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert read == []
    assert not out_dir.exists()
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        grid_mod.run_layer_grid(load(mpath), jobs=int(jobs))
    assert not out_dir.exists()


def test_grid_rank_below_one_rejected_before_any_decode(tmp_path, monkeypatch):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run", ranks=(2, 0))
    decoded: list[str] = []
    monkeypatch.setattr(grid_mod, "read_embeddings", lambda path: decoded.append(path) or [])
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    assert decoded == []
    assert not (tmp_path / "run").exists()


def test_grid_layer_with_mismatched_widths_fails_before_decode(tmp_path, monkeypatch, caplog):
    paths = write_grid_inputs(tmp_path, n_trees=15)
    target = paths["eval_emb_l1"]
    widened = [
        EmbeddingSequence(id=s.id, layer=1, values=np.pad(s.values, ((0, 0), (0, 2))))
        for s in read_embeddings(target)
    ]
    write_embeddings(widened, target)
    decoded: list[str] = []
    real_read = grid_mod.read_embeddings

    def counting_read(path):
        decoded.append(str(path))
        return real_read(path)

    monkeypatch.setattr(grid_mod, "read_embeddings", counting_read)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir, ranks=(2, 3))
    assert main(["grid", "--manifest", str(mpath)]) == 2
    assert not [p for p in decoded if "_l1" in p]
    assert "layer 1: embedding widths differ" in caplog.text
    rows = read_report_tsv(out_dir / "report.tsv")
    assert {(r["layer"], r["rank"]) for r in rows} == {(0, 2), (0, 3)}


@pytest.mark.parametrize(
    "key, raw",
    [("ranks", "[2.7]"), ("ranks", '"12"'), ("ranks", "[true]"), ("ranks", "[1e999]"),
     ("batch_size", "2.5"), ("seed", "1.5"), ("tag", '"7"'), ("tag", '"a\\tb"'),
     ("tag", '"a\\nb"'), ("tag", '"a\\rb"'), ("lr", "true"), ("lr", "NaN"), ("lr", "Infinity"),
     ("lr", "1e999"), ("lr", "-0.5"), ("lr", '"0.1"'), ("lr", "null"),
     pytest.param("lr", "1" + "0" * 400, id="lr-int-beyond-float"), ("chart_metrics", '"dspr"'),
     ("chart_metrics", '["nspr"]'), ("chart_metrics", '["dspr", 1]'),
     ("chart_metrics", '[["dspr"]]'), ("chart_metrics", "null"), ("tag", '"a\\u000bb"'),
     ("tag", '"a\\u0001b"'), ("tag", '"a\\ud800b"'), ("tag", '"a\\uffffb"')],
)
def test_grid_bad_manifest_value_is_validation_error_before_any_decode(
    tmp_path, monkeypatch, capsys, key, raw
):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run")
    doc = json.loads(mpath.read_text())
    target = {"ranks": doc, "chart_metrics": doc, "tag": doc["layers"][1]}.get(key, doc["train"])
    target[key] = "@VALUE@"
    mpath.write_text(json.dumps(doc).replace('"@VALUE@"', raw))
    decoded: list = []
    monkeypatch.setattr(grid_mod, "read_embeddings", lambda path: decoded.append(path) or [])
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    err = capsys.readouterr().err
    assert f"{mpath}: bad manifest" in err and "Traceback" not in err
    assert decoded == []
    assert not (tmp_path / "run").exists()


def test_grid_non_utf8_manifest_is_validation_error_naming_it(tmp_path, capsys):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run")
    mpath.write_bytes(mpath.read_bytes().replace(b'"distance"', b'"dist\xffance"'))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    assert f"{mpath}: cannot read manifest" in capsys.readouterr().err


def test_eval_probe_with_overflowing_k_exits_two_naming_file(tmp_path, capsys):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "3", "--min-n", "4", "--max-n", "5",
          "--extra-dims", "0", "--out-labels", str(labels), "--out-emb", str(emb)])
    probe = tmp_path / "probe.json"
    save_probe(identity_probe("depth", 4), probe)
    probe.write_text(probe.read_text().replace('"k":4,', '"k":1e999,'))
    code = main(["--quiet", "eval", "--probe", str(probe), "--labels", str(labels),
                 "--emb", str(emb), "--out", str(tmp_path / "r.tsv")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{probe}: bad probe file" in err and "Traceback" not in err


def test_grid_charts_are_written_by_the_chart_command_writer(tmp_path, monkeypatch):
    paths = write_grid_inputs(tmp_path, n_trees=12)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    written: list[str] = []
    real_emit = grid_mod.emit_chart

    def recording_emit(rows, metric, out_path):
        written.append(metric)
        real_emit(rows, metric, out_path)

    monkeypatch.setattr(grid_mod, "emit_chart", recording_emit)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    assert written == ["dspr", "uuas"]
    for metric in written:
        chart = tmp_path / f"{metric}.svg"
        assert main(["--quiet", "chart", "--report", str(out_dir / "report.tsv"),
                     "--metric", metric, "--out", str(chart)]) == 0
        assert chart.read_bytes() == (out_dir / f"chart_{metric}.svg").read_bytes()


def test_negative_seed_is_a_validation_error_for_train_and_grid(tmp_path, capsys):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "4", "--min-n", "3", "--max-n", "4",
          "--out-labels", str(labels), "--out-emb", str(emb)])
    code = main(["--quiet", "train", "--task", "depth", "--labels", str(labels),
                 "--emb", str(emb), "--val-labels", str(labels), "--val-emb", str(emb),
                 "--rank", "2", "--seed", "-1", "--out", str(tmp_path / "p.json")])
    assert code == 1
    assert "seed" in capsys.readouterr().err

    paths = write_grid_inputs(tmp_path, n_trees=10)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run")
    assert main(["--quiet", "--seed", "-1", "grid", "--manifest", str(mpath)]) == 1
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_grid_chart_metrics_may_name_some_of_the_task_metrics(tmp_path):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run")
    doc = json.loads(mpath.read_text())
    for chosen in (["uuas"], []):
        doc["chart_metrics"] = chosen
        mpath.write_text(json.dumps(doc))
        assert grid_mod.load_manifest(mpath).chart_metrics == tuple(chosen)


def write_synth(tmp_path: Path, n_trees=10) -> tuple[Path, Path]:
    labels, emb = tmp_path / "labels.jsonl", tmp_path / "emb.jsonl"
    assert main(["--quiet", "synth", "--n-trees", str(n_trees), "--min-n", "4", "--max-n", "8",
                 "--seed", "3", "--out-labels", str(labels), "--out-emb", str(emb)]) == 0
    return labels, emb


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_diverging_training_exits_three_without_traceback(tmp_path, capsys, command):
    labels, emb = write_synth(tmp_path)
    out = tmp_path / "out"
    extra = ["--rank", "3"] if command == "train" else ["--ranks", "3,4"]
    code = main(["--quiet", command, "--task", "distance", "--labels", str(labels),
                 "--emb", str(emb), "--val-labels", str(labels), "--val-emb", str(emb),
                 "--optimizer", "sgd", "--lr", "1e200", "--batch", "2", "--epochs", "2",
                 "--patience", "2", "--seed", "0", "--out", str(out)] + extra)
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite gradient in epoch 1" in err and "Traceback" not in err
    assert not out.exists()


def test_grid_duplicate_embedding_id_is_validation_error_before_any_decode(
    tmp_path, monkeypatch, capsys
):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    target = paths["val_emb_l1"]
    first = target.read_text().splitlines()[0]
    with target.open("a") as fh:
        fh.write(first + "\n")
    decoded: list = []
    monkeypatch.setattr(grid_mod, "read_embeddings", lambda path: decoded.append(path) or [])
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    err = capsys.readouterr().err
    assert f"{target}: duplicate embedding id" in err and "Traceback" not in err
    assert decoded == []
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["train_labels", "eval_emb"])
def test_grid_path_naming_a_directory_is_validation_error(tmp_path, monkeypatch, capsys, key):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    doc = json.loads(mpath.read_text())
    # "" names the manifest's own directory
    (doc if key == "train_labels" else doc["layers"][1])[key] = ""
    mpath.write_text(json.dumps(doc))
    decoded: list = []
    monkeypatch.setattr(grid_mod, "read_embeddings", lambda path: decoded.append(path) or [])
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path} is missing or not a file" in err and "Traceback" not in err
    assert decoded == []
    assert not out_dir.exists()


def test_eval_pairing_error_names_the_embeddings_file(tmp_path, capsys):
    labels, emb = write_synth(tmp_path)
    probe = tmp_path / "probe.json"
    save_probe(identity_probe("depth", next(read_embeddings(emb)).m), probe)
    short = tmp_path / "short.jsonl"
    short.write_text("".join(emb.read_text().splitlines(keepends=True)[1:]))
    first_id = read_labels(labels)[0].id
    code = main(["--quiet", "eval", "--probe", str(probe), "--labels", str(labels),
                 "--emb", str(short), "--out", str(tmp_path / "r.tsv")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{short}: no embeddings for sequence {first_id!r}" in err
    assert "Traceback" not in err


def write_widths(tmp_path: Path, name: str, max_ns: tuple[int, ...]) -> tuple[Path, Path]:
    """Labels and embeddings of 4 oracle trees per entry; each entry's width is max_n - 1 + 16."""
    labels, embeddings = [], []
    for part, max_n in enumerate(max_ns):
        data = oracle_dataset(4, 4, max_n, extra_dims=16, seed=part)
        for lab, seq in data.pairs():
            seq_id = f"{name}{part}_{seq.id}"
            labels.append(dataclasses.replace(lab, id=seq_id))
            embeddings.append(EmbeddingSequence(id=seq_id, layer=0, values=seq.values))
    lpath, epath = tmp_path / f"{name}_labels.jsonl", tmp_path / f"{name}_emb.jsonl"
    write_labels(labels, lpath)
    write_embeddings(embeddings, epath)
    return lpath, epath


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "train_max_ns, val_max_ns, widths",
    [((8,), (9,), "train m=[23], val m=[24]"), ((8, 9), (8,), "train m=[23, 24], val m=[23]")],
    ids=["val-of-another-width", "train-mixing-widths"],
)
def test_train_and_sweep_exit_two_naming_each_splits_widths(
    tmp_path, capsys, command, train_max_ns, val_max_ns, widths
):
    labels, emb = write_widths(tmp_path, "train", train_max_ns)
    val_labels, val_emb = write_widths(tmp_path, "val", val_max_ns)
    out = tmp_path / "out"
    extra = ["--rank", "3"] if command == "train" else ["--ranks", "3,4"]
    code = main(["--quiet", command, "--task", "depth", "--labels", str(labels),
                 "--emb", str(emb), "--val-labels", str(val_labels), "--val-emb", str(val_emb),
                 "--epochs", "1", "--patience", "1", "--out", str(out)] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert f"structprobe: embedding widths differ: {widths}\n" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_train_flag_defaults_are_the_train_config_defaults(command):
    extra = ["--ranks", "2"] if command == "sweep" else []
    args = build_parser().parse_args(
        [command, "--task", "depth", "--labels", "l", "--emb", "e", "--val-labels", "l",
         "--val-emb", "e", "--out", "o"] + extra
    )
    assert cli_mod._train_config(args) == TrainConfig()


def test_grid_manifest_without_ranks_trains_at_the_default_rank(tmp_path):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    doc = json.loads(mpath.read_text())
    del doc["ranks"], doc["layers"][1]
    doc["train"] = {"max_epochs": 1, "patience": 1}
    mpath.write_text(json.dumps(doc))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    rank = TrainConfig().rank
    assert load_probe(out_dir / f"probe_layer0_rank{rank}.json").rank == rank
    assert {r["rank"] for r in read_report_tsv(out_dir / "report.tsv")} == {rank}


@pytest.mark.parametrize("with_ranks", [False, True], ids=["no-ranks", "ranks"])
def test_grid_rank_inside_train_is_validation_error_before_any_decode(
    tmp_path, monkeypatch, capsys, with_ranks
):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run")
    doc = json.loads(mpath.read_text())
    doc["train"]["rank"] = 64
    if not with_ranks:
        del doc["ranks"]
    mpath.write_text(json.dumps(doc))
    decoded: list = []
    monkeypatch.setattr(grid_mod, "read_embeddings", lambda path: decoded.append(path) or [])
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    err = capsys.readouterr().err
    assert f'{mpath}: bad manifest: "train" has no "rank"; list the ranks in the top-level "ranks"' in err
    assert "Traceback" not in err
    assert decoded == []
    assert not (tmp_path / "run").exists()


def test_eval_exclude_deprels_with_a_depth_probe_is_validation_error(tmp_path, capsys):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    labels = tmp_path / "labels.jsonl"
    assert main(["--quiet", "build-labels", "--conll", str(conll), "--out", str(labels)]) == 0
    (tree,) = read_conllu(conll)
    emb = tmp_path / "emb.jsonl"
    write_embeddings([oracle_embed_tree(tree, seq_id="c1")], emb)
    probe_path = tmp_path / "probe.json"
    save_probe(identity_probe("depth", 4), probe_path)
    out, detail = tmp_path / "report.tsv", tmp_path / "detail.json"
    code = main(["--quiet", "eval", "--probe", str(probe_path), "--labels", str(labels),
                 "--emb", str(emb), "--out", str(out), "--json", str(detail),
                 "--exclude-deprels", "det", "--conll", str(conll)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--exclude-deprels needs a distance probe, not depth" in err
    assert "Traceback" not in err
    assert not out.exists() and not detail.exists()


def test_synth_labels_do_not_depend_on_noise_or_layer(tmp_path):
    outputs = []
    for noise, layer in (("0", "0"), ("0.1", "1")):
        labels, emb = tmp_path / f"labels_{layer}.jsonl", tmp_path / f"emb_{layer}.jsonl"
        assert main(["--quiet", "synth", "--n-trees", "12", "--seed", "1", "--noise", noise,
                     "--layer", layer, "--out-labels", str(labels), "--out-emb", str(emb)]) == 0
        outputs.append((labels.read_bytes(), emb.read_bytes()))
    (labels_0, emb_0), (labels_1, emb_1) = outputs
    assert labels_0 == labels_1
    assert emb_0 != emb_1
    headers_0 = [(h.id, h.n, h.m) for h in scan_embedding_headers(tmp_path / "emb_0.jsonl")]
    headers_1 = [(h.id, h.n, h.m) for h in scan_embedding_headers(tmp_path / "emb_1.jsonl")]
    assert headers_0 == headers_1


def test_eval_option_error_comes_before_the_embeddings_are_read(tmp_path, capsys):
    labels, emb = write_synth(tmp_path)
    probe = tmp_path / "probe.json"
    save_probe(identity_probe("distance", next(read_embeddings(emb)).m), probe)
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "t0000", "n": 1}\n')
    code = main(["--quiet", "eval", "--probe", str(probe), "--labels", str(labels),
                 "--emb", str(bad), "--out", str(tmp_path / "r.tsv"), "--exclude-deprels", "det"])
    assert code == 1
    assert "--exclude-deprels needs --conll" in capsys.readouterr().err
