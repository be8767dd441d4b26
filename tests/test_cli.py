"""End-to-end CLI runs over small synthetic data."""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from structprobe import cli as cli_mod
from structprobe import grid as grid_mod
from structprobe import io_utils
from structprobe.cli import build_parser, main
from structprobe.errors import TrainingDiverged
from structprobe.embed_io import (
    EmbeddingSequence,
    read_embeddings,
    scan_embedding_headers,
    write_embeddings,
)
from structprobe.metrics import read_report_tsv, uuas_counts, write_report_tsv
from structprobe.probe import (
    Probe,
    TrainConfig,
    identity_probe,
    load_probe,
    pair_records,
    predict_distances,
    save_probe,
)
from structprobe.synth import oracle_dataset, oracle_embed_tree
from structprobe.trees import TreeLabels, read_conllu, read_labels, write_labels

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


def test_build_labels_on_a_crlf_copy_writes_the_same_labels(tmp_path):
    # plain 10-column blocks take the block parser, and their CRLF copy the line loop
    plain, crlf = tmp_path / "plain.conll", tmp_path / "crlf.conll"
    plain.write_text(CONLL + "\n" + CONLL.replace("c1", "c2"))
    crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
    written = []
    for conll in (plain, crlf):
        out = tmp_path / f"{conll.stem}_labels.jsonl"
        assert main(["--quiet", "build-labels", "--conll", str(conll), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert [lab.id for lab in read_labels(tmp_path / "plain_labels.jsonl")] == ["c1", "c2"]
    assert written[0] == written[1]


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


def test_scene_tree_on_region_ids_that_are_no_json_list_exits_two_and_writes_nothing(
    tmp_path, capsys
):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    grounding = tmp_path / "g.jsonl"
    out = tmp_path / "scene.jsonl"
    argv = ["--quiet", "scene-tree", "--conll", str(conll), "--grounding", str(grounding),
            "--out", str(out)]
    # "r12" is no list of the three regions r, 1 and 2
    phrase = dict(GROUNDING["phrases"][0], region_ids="r12")
    grounding.write_text(json.dumps(dict(GROUNDING, phrases=[phrase])) + "\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{grounding}:1: bad grounding record: phrase 'p1': region_ids must be a JSON list" in err
    assert "Traceback" not in err
    assert not out.exists()
    phrase["region_ids"] = ["r12"]
    grounding.write_text(json.dumps(dict(GROUNDING, phrases=[phrase])) + "\n")
    assert main(argv) == 0
    assert json.loads(out.read_text())["phrase_to_text"] == {"p1": 1}


@pytest.mark.parametrize(
    "key, phrase",
    [("phrase_id", "phrases[1]"), ("start", "phrase 'p2'"), ("end", "phrase 'p2'"),
     ("region_ids", "phrase 'p2'")],
)
def test_scene_tree_on_a_phrase_without_a_key_names_the_phrase_and_writes_nothing(
    tmp_path, capsys, key, phrase
):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    grounding = tmp_path / "g.jsonl"
    second = {k: v for k, v in GROUNDING["phrases"][1].items() if k != key}
    grounding.write_text(
        json.dumps(dict(GROUNDING, phrases=[GROUNDING["phrases"][0], second])) + "\n"
    )
    out, report = tmp_path / "scene.jsonl", tmp_path / "overlaps.json"
    argv = ["--quiet", "scene-tree", "--conll", str(conll), "--grounding", str(grounding),
            "--out", str(out), "--report", str(report)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{grounding}:1: bad grounding record: {phrase}: missing key {key!r}\n" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.jsonl", "x.conll"]


@pytest.mark.parametrize("phrases", [{}, "", 5, None, {"p1": GROUNDING["phrases"][0]}])
def test_scene_tree_on_phrases_that_are_no_json_list_exits_two_and_writes_nothing(
    tmp_path, capsys, phrases
):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    grounding = tmp_path / "g.jsonl"
    grounding.write_text(json.dumps(dict(GROUNDING, phrases=phrases)) + "\n")
    out, report = tmp_path / "scene.jsonl", tmp_path / "overlaps.json"
    argv = ["--quiet", "scene-tree", "--conll", str(conll), "--grounding", str(grounding),
            "--out", str(out), "--report", str(report)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (
        f"{grounding}:1: bad grounding record: phrases must be a JSON list, got {phrases!r}"
        in err
    )
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.jsonl", "x.conll"]


def test_scene_tree_on_a_repeated_phrase_id_names_the_grounding_line_and_writes_nothing(
    tmp_path, capsys
):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    grounding = tmp_path / "g.jsonl"
    phrases = [GROUNDING["phrases"][0], dict(GROUNDING["phrases"][1], phrase_id="p1")]
    grounding.write_text(
        json.dumps(GROUNDING) + "\n" + json.dumps(dict(GROUNDING, phrases=phrases)) + "\n"
    )
    out, report = tmp_path / "scene.jsonl", tmp_path / "overlaps.json"
    argv = ["--quiet", "scene-tree", "--conll", str(conll), "--grounding", str(grounding),
            "--out", str(out), "--report", str(report)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{grounding}:2: bad grounding record: phrase 'p1': duplicate phrase id" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.jsonl", "x.conll"]
    # a dropped phrase (no region ids) shares its id with a kept one, as before
    phrases[1]["region_ids"] = []
    grounding.write_text(json.dumps(dict(GROUNDING, phrases=phrases)) + "\n")
    assert main(argv) == 0
    assert json.loads(out.read_text())["phrase_to_text"] == {"p1": 1}


@pytest.mark.parametrize("n_sentences, n_captions", [(1, 2), (2, 1)])
def test_scene_tree_on_files_of_different_lengths_names_both_and_writes_nothing(
    tmp_path, capsys, n_sentences, n_captions
):
    conll, grounding = tmp_path / "x.conll", tmp_path / "g.jsonl"
    conll.write_text("\n".join([CONLL.replace("c1", f"c{i}") for i in range(n_sentences)]))
    grounding.write_text(
        "".join(json.dumps(dict(GROUNDING, sentence_id=f"c{i}")) + "\n" for i in range(n_captions))
    )
    out, report = tmp_path / "scene.jsonl", tmp_path / "overlaps.json"
    argv = ["--quiet", "scene-tree", "--conll", str(conll), "--grounding", str(grounding),
            "--out", str(out), "--report", str(report)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"structprobe: {conll} has {n_sentences} sentence(s) but {grounding} has "
        f"{n_captions} caption record(s) (the files pair by order)\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.jsonl", "x.conll"]


P1, P2 = GROUNDING["phrases"]

# (phrases, tokens, message): one case per way a phrase breaks a grounding
# rule, each phrase named the one way, and a token that is no JSON string
PHRASE_ERRORS = {
    "empty-span": (
        [P1, dict(P2, start=4, end=4)], None, "phrase 'p2': empty or negative span [4,4)"
    ),
    "span-end": ([P1, dict(P2, end=9)], None, "phrase 'p2': span end 9 beyond 5 tokens"),
    # a phrase without regions is dropped, but only once its span is possible
    "dropped-negative-start": (
        [P1, dict(P2, start=-1, region_ids=[])], None, "phrase 'p2': empty or negative span [-1,5)"
    ),
    "dropped-empty-span": (
        [P1, dict(P2, start=5, end=-2, region_ids=[])], None,
        "phrase 'p2': empty or negative span [5,-2)",
    ),
    "dropped-span-end": (
        [P1, dict(P2, end=9, region_ids=[])], None, "phrase 'p2': span end 9 beyond 5 tokens"
    ),
    "duplicate-id": ([P1, dict(P2, phrase_id="p1")], None, "phrase 'p1': duplicate phrase id"),
    "region-id": (
        [dict(P1, region_ids=["r1", 1.5]), P2], None,
        "phrase 'p1': region id 1.5 is not a JSON string or integer",
    ),
    "phrase_id": (
        [dict(P1, phrase_id=1.5), P2], None,
        "phrases[0]: phrase_id 1.5 is not a JSON string or integer",
    ),
    "non-object": ([P1, "x"], None, "phrases[1]: 'x' is not a JSON object"),
    "token": (
        [P1, P2], ["a", None, "on", "a", "bench"], "tokens[1]: None is not a JSON string"
    ),
}


@pytest.mark.parametrize("phrases, tokens, message", PHRASE_ERRORS.values(), ids=PHRASE_ERRORS)
def test_scene_tree_on_a_bad_phrase_or_token_names_it_one_way_and_writes_nothing(
    tmp_path, capsys, phrases, tokens, message
):
    conll = tmp_path / "x.conll"
    # FORM "None" is str(None): a null token read as text would pair with it
    conll.write_text(CONLL.replace("\tman\t", "\tNone\t"))
    grounding = tmp_path / "g.jsonl"
    tokens = tokens or ["a", "None", "on", "a", "bench"]
    grounding.write_text(json.dumps(dict(GROUNDING, tokens=tokens, phrases=phrases)) + "\n")
    out, report = tmp_path / "scene.jsonl", tmp_path / "overlaps.json"
    argv = ["--quiet", "scene-tree", "--conll", str(conll), "--grounding", str(grounding),
            "--out", str(out), "--report", str(report)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"structprobe: {grounding}:1: bad grounding record: {message}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.jsonl", "x.conll"]


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


@pytest.mark.parametrize(
    "conll_text, sid",
    [
        (CONLL + "\n" + CONLL, "c1"),
        # a sentence without a sent_id is s<i>, here the first sentence's id
        (CONLL.replace("c1", "s1") + "\n" + CONLL.replace("# sent_id = c1\n", ""), "s1"),
    ],
    ids=["sent_id-twice", "sent_id-of-a-fallback"],
)
def test_build_labels_on_a_conll_naming_a_sentence_id_twice_exits_two_and_writes_nothing(
    tmp_path, capsys, conll_text, sid
):
    conll = tmp_path / "x.conll"
    conll.write_text(conll_text)
    assert len(read_conllu(conll)) == 2
    out = tmp_path / "labels.jsonl"
    assert main(["--quiet", "build-labels", "--conll", str(conll), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{conll}: sentence id {sid!r} is named by more than one record" in err
    assert list(tmp_path.iterdir()) == [conll]


def test_scene_tree_on_a_grounding_naming_a_sentence_id_twice_exits_two_and_writes_nothing(
    tmp_path, capsys
):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL + "\n" + CONLL.replace("c1", "c2"))
    grounding = tmp_path / "g.jsonl"
    grounding.write_text((json.dumps(GROUNDING) + "\n") * 2)
    out, report = tmp_path / "scene.jsonl", tmp_path / "overlaps.json"
    argv = ["--quiet", "scene-tree", "--conll", str(conll), "--grounding", str(grounding),
            "--out", str(out), "--report", str(report)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{grounding}: sentence id 'c1' is named by more than one record" in err
    assert not out.exists() and not report.exists()
    # with a sentence id of its own, the second caption is written
    second = dict(GROUNDING, sentence_id="c2")
    grounding.write_text("".join(json.dumps(cap) + "\n" for cap in (GROUNDING, second)))
    assert main(argv) == 0
    assert [lab.id for lab in read_labels(out)] == ["c1", "c2"]


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


def test_eval_writes_the_same_report_through_pipes_and_from_a_crlf_copy(tmp_path):
    labels, emb = tmp_path / "labels.jsonl", tmp_path / "emb.jsonl"
    assert main(["--quiet", "synth", "--n-trees", "20", "--seed", "3", "--out-labels", str(labels),
                 "--out-emb", str(emb)]) == 0
    # the plain file is mapped, a pipe cannot be and is read line by line, and a
    # CRLF copy takes the same payload slices
    assert emb.stat().st_size >= io_utils._MAP_MIN
    crlf = tmp_path / "emb_crlf.jsonl"
    crlf.write_bytes(emb.read_bytes().replace(b"\n", b"\r\n"))
    for source in (labels, emb):
        pipe = tmp_path / f"{source.stem}.pipe"
        os.mkfifo(pipe)
        threading.Thread(target=pipe.write_bytes, args=(source.read_bytes(),), daemon=True).start()
    probe = tmp_path / "probe.json"
    m = next(read_embeddings(emb)).m
    save_probe(Probe(task="distance", transform=np.random.default_rng(0).normal(size=(4, m))), probe)
    reports = []
    for lpath, epath in ((labels, emb), (tmp_path / "labels.pipe", tmp_path / "emb.pipe"),
                         (labels, crlf)):
        out = tmp_path / f"{epath.name}.tsv"
        assert main(["--quiet", "eval", "--probe", str(probe), "--labels", str(lpath),
                     "--emb", str(epath), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert {r["metric"] for r in read_report_tsv(tmp_path / "emb.jsonl.tsv")} == {"dspr", "uuas"}
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_train_seed_flag_seeds_the_probe(tmp_path):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "10", "--min-n", "4", "--max-n", "8",
          "--seed", "3", "--out-labels", str(labels), "--out-emb", str(emb)])
    out_a, out_b, out_0 = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "0.json"
    base = ["--quiet", "train", "--task", "depth", "--labels", str(labels),
            "--emb", str(emb), "--val-labels", str(labels), "--val-emb", str(emb),
            "--rank", "4", "--epochs", "2", "--patience", "2"]
    assert main(base + ["--seed", "9", "--out", str(out_a)]) == 0
    assert main(base + ["--seed", "9", "--out", str(out_b)]) == 0
    assert main(base + ["--out", str(out_0)]) == 0
    a, b, default = load_probe(out_a), load_probe(out_b), load_probe(out_0)
    assert np.array_equal(a.transform, b.transform)
    assert a.meta["seed"] == b.meta["seed"] == 9
    assert default.meta["seed"] == 0
    assert not np.array_equal(a.transform, default.transform)


def test_seed_before_the_subcommand_is_a_usage_error_and_writes_nothing(tmp_path):
    labels = tmp_path / "labels.jsonl"
    emb = tmp_path / "emb.jsonl"
    main(["--quiet", "synth", "--n-trees", "10", "--min-n", "4", "--max-n", "8",
          "--seed", "3", "--out-labels", str(labels), "--out-emb", str(emb)])
    base = ["train", "--task", "depth", "--labels", str(labels), "--emb", str(emb),
            "--val-labels", str(labels), "--val-emb", str(emb),
            "--rank", "4", "--epochs", "2", "--patience", "2"]
    out = tmp_path / "both.json"
    # the flag, a prefix of it and its = form are argparse's usage error before the subcommand
    for seed in (["--seed", "5"], ["--seed", "9"], ["--se", "1"], ["--seed=1"]):
        for argv in (seed + base + ["--seed", "9"], seed + base):
            with pytest.raises(SystemExit) as err:
                main(["--quiet"] + argv + ["--out", str(out)])
            assert err.value.code == 1
            assert not out.exists()
    paths = write_grid_inputs(tmp_path, n_trees=10)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    for jobs in (["--jobs", "2"], ["--jobs=2"], ["--j", "2"]):
        with pytest.raises(SystemExit) as err:
            main(["--quiet"] + jobs + ["grid", "--manifest", str(mpath)])
        assert err.value.code == 1
    assert not out_dir.exists()


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


def test_sweep_writes_the_rows_of_rank_cells_reports_in_rank_order(tmp_path):
    labels, emb = write_synth(tmp_path, n_trees=12)
    # the last 4 records are the validation split
    val_labels, val_emb = tmp_path / "val_labels.jsonl", tmp_path / "val_emb.jsonl"
    val_labels.write_text("".join(labels.read_text().splitlines(keepends=True)[8:]))
    val_emb.write_text("".join(emb.read_text().splitlines(keepends=True)[8:]))
    out = tmp_path / "sweep.tsv"
    assert main(["--quiet", "sweep", "--task", "depth", "--labels", str(labels),
                 "--emb", str(emb), "--val-labels", str(val_labels), "--val-emb", str(val_emb),
                 "--batch", "4", "--epochs", "2", "--patience", "2", "--seed", "1",
                 "--ranks", "4,2", "--out", str(out)]) == 0
    pairs = pair_records(read_labels(labels), read_embeddings(emb))
    val = pair_records(read_labels(val_labels), read_embeddings(val_emb))
    cfg = TrainConfig(batch_size=4, max_epochs=2, patience=2, seed=1)
    splits = {"train": pairs, "val": val, "eval": val}
    cells = list(grid_mod.rank_cells("depth", splits, cfg, [4, 2], layer=0))
    assert [rank for rank, _, _ in cells] == [r.rank for _, _, r in cells] == [4, 2]
    rows = []
    for _, probe, report in cells:
        # the sweep's val_loss row: the probe's best loss, over every validation sequence
        report.aggregates["val_loss"] = probe.meta["val_loss"]
        report.counters["n_val_loss"] = len(val)
        rows += report.tsv_rows()
    write_report_tsv(rows, tmp_path / "library.tsv")
    assert out.read_bytes() == (tmp_path / "library.tsv").read_bytes()
    assert [r["rank"] for r in read_report_tsv(out)] == [4] * 3 + [2] * 3
    assert [r["n_sequences"] for r in read_report_tsv(out) if r["metric"] == "val_loss"] == [4, 4]


@pytest.mark.parametrize(
    "old",
    [["--exclude-deprels", "punct"], ["--conll", "x.conll"],
     ["--exclude-deprels", "det", "--conll", "x.conll"]],
    ids=["exclude-deprels", "conll", "both"],
)
def test_eval_takes_no_exclusion_flags_and_reads_nothing(tmp_path, capsys, monkeypatch, old):
    # exclusions travel with the labels: build-labels --exclude-deprels
    labels, emb = write_synth(tmp_path)
    probe = tmp_path / "probe.json"
    save_probe(identity_probe("distance", next(read_embeddings(emb)).m), probe)
    before = sorted(tmp_path.iterdir())
    read: list = []
    monkeypatch.setattr(cli_mod, "load_probe", read.append)
    with pytest.raises(SystemExit) as exit_:
        main(["--quiet", "eval", "--probe", str(probe), "--labels", str(labels),
              "--emb", str(emb), "--out", str(tmp_path / "r.tsv"), *old])
    assert exit_.value.code == 1
    assert f"unrecognized arguments: {' '.join(old)}" in capsys.readouterr().err
    assert read == [] and sorted(tmp_path.iterdir()) == before


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


# "1_0" to "4,1.0" are not JSON integers, as a manifest's ranks must be; int()
# read the first two of them as ranks 10 and 3; "2,2" names a rank twice
@pytest.mark.parametrize(
    "ranks",
    ["0,2", "2.5", ",", " ", "2,-3", "4,x", "1_0", "\u0663", "1e2", "true", "4,1.0", "2,2"],
)
def test_sweep_bad_ranks_rejected_before_any_read(tmp_path, monkeypatch, capsys, ranks):
    read: list[str] = []
    for name in ("read_labels", "scan_embedding_headers", "read_embeddings"):
        monkeypatch.setattr(grid_mod, name, lambda path: read.append(path) or [])
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


@pytest.mark.parametrize("command", ["build-labels", "scene-tree"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("1 a 2 x\n2 b x root\n", "line 2: non-integer ID or HEAD field"),
        ("1 a 2 x\n2 b 5 root\n\n", "sentence ending at line 3: token 2 has head 5 outside 0..2"),
        ("# sent_id = c1\n1 a 0 x\n2 b 0 root\n", "sentence c1 (ending at line 3): a tree has"),
    ],
    ids=["line", "sentence", "tree"],
)
def test_a_bad_conll_exits_two_naming_the_conll_file_and_writes_nothing(
    tmp_path, capsys, command, text, message
):
    conll, grounding = tmp_path / "bad.conll", tmp_path / "g.jsonl"
    conll.write_text(text)
    grounding.write_text(json.dumps(GROUNDING) + "\n")
    inputs = sorted(tmp_path.iterdir())
    out = tmp_path / "out"
    argv = {
        "build-labels": ["--conll", str(conll), "--out", str(out), "--exclude-deprels", "det"],
        "scene-tree": ["--conll", str(conll), "--grounding", str(grounding), "--out", str(out),
                       "--report", str(tmp_path / "report.json")],
    }[command]
    assert main(["--quiet", command, *argv]) == 2
    err = capsys.readouterr().err
    assert f"structprobe: {conll}: {message}" in err
    assert str(grounding) not in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == inputs


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


# sweep has no --rank, and takes no prefix of --ranks for it; Adam is the one
# update rule, so --optimizer is an unknown option
@pytest.mark.parametrize(
    "argv",
    [["train", "--task", "nonsense"],
     ["sweep", "--task", "depth", "--labels", "l", "--emb", "e", "--val-labels", "l",
      "--val-emb", "e", "--ranks", "2,4", "--rank", "4", "--out", "o"],
     ["train", "--task", "distance", "--labels", "l", "--emb", "e", "--val-labels", "l",
      "--val-emb", "e", "--rank", "4", "--optimizer", "adam", "--out", "o"]],
    ids=["bad-choice", "sweep-rank", "optimizer"],
)
def test_usage_error_exits_one(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    assert list(tmp_path.iterdir()) == []


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


def test_grid_whose_eval_sentences_are_all_shorter_than_five_skips_the_dspr_chart(
    tmp_path, caplog
):
    # DSpr scores sentences of 5 to 50 tokens only: no row for it, so no chart
    paths = write_grid_inputs(tmp_path, n_trees=15, min_n=3, max_n=4)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    assert main(["grid", "--manifest", str(mpath)]) == 0
    assert "no rows for chart metric dspr; skipping chart" in caplog.text
    assert {r["metric"] for r in read_report_tsv(out_dir / "report.tsv")} == {"uuas"}
    assert (out_dir / "chart_uuas.svg").exists()
    assert not (out_dir / "chart_dspr.svg").exists()


def test_grid_determinism_and_out_dir_override(tmp_path):
    paths = write_grid_inputs(tmp_path)
    out_a = tmp_path / "run_a"
    mpath = write_manifest(tmp_path, paths, out_a)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    # a copy of the manifest with its own out_dir is the one way to move a grid's outputs
    out_b = tmp_path / "run_b"
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(dict(json.loads(mpath.read_text()), out_dir=str(out_b))))
    assert main(["--quiet", "grid", "--manifest", str(copy)]) == 0
    assert (out_a / "report.tsv").read_bytes() == (out_b / "report.tsv").read_bytes()
    assert (out_a / "chart_dspr.svg").read_bytes() == (out_b / "chart_dspr.svg").read_bytes()
    # the manifest's train.seed is the one seed of every cell
    for out_dir in (out_a, out_b):
        assert load_probe(out_dir / "probe_layer1_rank6.json").meta["seed"] == 2


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


def test_grid_writes_only_under_the_manifests_out_dir_whatever_the_environment(
    tmp_path, monkeypatch
):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    plain_dir = tmp_path / "plain"
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(dict(json.loads(mpath.read_text()), out_dir=str(plain_dir))))
    assert main(["--quiet", "grid", "--manifest", str(plain)]) == 0
    before = set(tmp_path.rglob("*"))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    monkeypatch.setenv("STRUCTPROBE_OUT_DIR", str(tmp_path / "override"))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    written = set(tmp_path.rglob("*")) - before - {elsewhere}
    assert written and all(path.is_relative_to(out_dir) for path in written)
    assert (out_dir / "report.tsv").exists()
    # and it writes the files a run without the variable writes
    files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
    assert files == {path.name: path.read_bytes() for path in sorted(plain_dir.iterdir())}


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


def test_build_labels_exclusions_are_scored_by_eval(tmp_path):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    labels = tmp_path / "labels.jsonl"
    argv = ["--quiet", "build-labels", "--conll", str(conll), "--out", str(labels)]
    assert main(argv + ["--exclude-deprels", "det"]) == 0
    assert json.loads(labels.read_text())["excluded"] == [0, 3]
    # exact tree embeddings for the one sentence, so the decode is perfect
    (tree,) = read_conllu(conll)
    emb = tmp_path / "emb.jsonl"
    write_embeddings([oracle_embed_tree(tree, seq_id="c1")], emb)
    probe_path = tmp_path / "probe.json"
    save_probe(identity_probe("distance", 4), probe_path)
    out = tmp_path / "report.tsv"
    code = main(["--quiet", "eval", "--probe", str(probe_path), "--labels", str(labels),
                 "--emb", str(emb), "--out", str(out)])
    assert code == 0
    rows = {r["metric"]: r for r in read_report_tsv(out)}
    # both determiners are dropped: 2 of the 4 gold edges remain
    assert rows["uuas"]["value"] == 1.0
    assert rows["uuas"]["n_sequences"] == 1


@pytest.mark.parametrize("given", ["", ",", " , ", "amod", "PUNCT,det "], ids=repr)
def test_build_labels_with_exclusions_that_match_no_token_writes_the_same_bytes(tmp_path, given):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL.replace("\tdet\t", "\tamod2\t"))
    plain, excluded = tmp_path / "plain.jsonl", tmp_path / "excluded.jsonl"
    argv = ["--quiet", "build-labels", "--conll", str(conll)]
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--out", str(excluded), "--exclude-deprels", given]) == 0
    assert excluded.read_bytes() == plain.read_bytes()


def test_build_labels_splits_and_strips_the_deprel_list(tmp_path):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    out = tmp_path / "labels.jsonl"
    argv = ["--quiet", "build-labels", "--conll", str(conll), "--out", str(out)]
    assert main(argv + ["--exclude-deprels", " pobj ,, det,"]) == 0
    assert json.loads(out.read_text())["excluded"] == [0, 3, 4]


def test_build_labels_that_would_exclude_a_root_exits_one_and_writes_nothing(tmp_path, capsys):
    conll = tmp_path / "x.conll"
    # the second sentence's root is a determiner
    conll.write_text(CONLL + "\n# sent_id = c2\n1\tthe\t_\tDET\t_\t_\t0\tdet\t_\t_\n")
    out = tmp_path / "labels.jsonl"
    code = main(["--quiet", "build-labels", "--conll", str(conll), "--out", str(out),
                 "--exclude-deprels", "punct,det"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"structprobe: {conll}: sentence 'c2': deprel 'det' would exclude the root" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [conll]


def test_eval_root_accuracy_is_the_argmin_over_the_kept_tokens(tmp_path):
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    (tree,) = read_conllu(conll)
    # a one-column identity depth probe predicts h**2: the first determiner is the shallowest
    emb = tmp_path / "emb.jsonl"
    values = np.sqrt(np.array([[0.5], [1.0], [2.0], [3.0], [2.5]], dtype=np.float32))
    write_embeddings([EmbeddingSequence(id="c1", layer=0, values=values)], emb)
    probe = tmp_path / "probe.json"
    save_probe(identity_probe("depth", 1), probe)
    root_acc = {}
    for given in ("", "det"):
        labels, out = tmp_path / f"labels{given}.jsonl", tmp_path / f"r{given}.tsv"
        assert main(["--quiet", "build-labels", "--conll", str(conll), "--out", str(labels),
                     "--exclude-deprels", given]) == 0
        assert main(["--quiet", "eval", "--probe", str(probe), "--labels", str(labels),
                     "--emb", str(emb), "--out", str(out)]) == 0
        (row,) = [r for r in read_report_tsv(out) if r["metric"] == "root_acc"]
        root_acc[given] = row["value"]
    assert tree.root == 1 and root_acc == {"": 0.0, "det": 1.0}


def test_grid_scores_uuas_without_the_tokens_its_labels_exclude(tmp_path):
    paths = write_grid_inputs(tmp_path, n_trees=20)
    eval_labels = read_labels(paths["eval_labels"])
    # leave out every token two levels below the root
    records = []
    for line in paths["eval_labels"].read_text().splitlines():
        rec = json.loads(line)
        rec["excluded"] = [i for i, d in enumerate(rec["depths"]) if d == 2]
        records.append(json.dumps(rec, separators=(",", ":")))
    paths["eval_labels"].write_text("\n".join(records) + "\n")
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    uuas = {r["layer"]: r["value"] for r in read_report_tsv(out_dir / "report.tsv")
            if r["metric"] == "uuas"}
    for tag in (0, 1):
        # the reference: uuas_counts of the matrices restricted to the kept tokens
        probe = load_probe(out_dir / f"probe_layer{tag}_rank6.json")
        seqs = {s.id: s for s in read_embeddings(paths[f"eval_emb_l{tag}"])}
        correct = total = 0
        for lab, rec in zip(eval_labels, map(json.loads, records)):
            kept = [i for i in range(lab.n) if i not in rec["excluded"]]
            restricted = TreeLabels(lab.id, lab.distances[np.ix_(kept, kept)],
                                    lab.depths[kept], kept.index(lab.root))
            pred = predict_distances(probe, seqs[lab.id])[np.ix_(kept, kept)]
            c, t = uuas_counts(pred, restricted)
            correct, total = correct + c, total + t
        assert total < sum(lab.n - 1 for lab in eval_labels)
        assert uuas[tag] == correct / total


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
        train={"batch_size": 4, "max_epochs": 5, "patience": 5, "lr": 1e200, "seed": 2},
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
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 2
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


def write_two_row_report(path: Path, layers=("0", "1"), values=("0.4", "0.6")) -> None:
    header = "layer\trank\ttask\tmetric\tvalue\tn_sequences\n"
    rows = "".join(f"{layer}\t2\tdistance\tdspr\t{value}\t5\n"
                   for layer, value in zip(layers, values))
    path.write_text(header + rows)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_chart_report_value_that_is_not_finite_is_data_error_at_its_line(
    tmp_path, capsys, value
):
    report, chart = tmp_path / "r.tsv", tmp_path / "c.svg"
    write_two_row_report(report, values=(value, "0.5"))
    code = main(["--quiet", "chart", "--report", str(report), "--metric", "dspr",
                 "--out", str(chart)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"structprobe: {report}:2: bad report row: value {value!r} is not a finite number\n"
    assert not chart.exists()


@pytest.mark.parametrize(
    "layers, values, axis",
    [(("0", "1"), ("1e308", "-1e308"), "value"), (("0", "1"), ("1e300", "1e300"), "value"),
     (("100000000000000000", "100000000000000001"), ("0.4", "0.6"), "layer")],
    ids=["overflowing-values", "equal-huge-values", "layers-equal-in-float64"],
)
def test_chart_whose_axis_has_no_finite_span_is_validation_error(
    tmp_path, capsys, layers, values, axis
):
    report, chart = tmp_path / "r.tsv", tmp_path / "c.svg"
    write_two_row_report(report, layers, values)
    code = main(["--quiet", "chart", "--report", str(report), "--metric", "dspr",
                 "--out", str(chart)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"structprobe: cannot chart 'dspr': the {axis} axis from ")
    assert err.count("\n") == 1 and "Traceback" not in err
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


def test_grid_cell_that_fails_scoring_leaves_no_file(tmp_path, monkeypatch):
    paths = write_grid_inputs(tmp_path, n_trees=15)
    clean_dir, failed_dir = tmp_path / "clean", tmp_path / "failed"
    mpath = write_manifest(tmp_path, paths, clean_dir, ranks=(2, 3))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    real_evaluate = grid_mod.evaluate_probe

    def evaluate_failing_rank_3(probe, pairs):
        if probe.transform.shape[0] == 3:
            raise ValueError("scoring failed")
        return real_evaluate(probe, pairs)

    monkeypatch.setattr(grid_mod, "evaluate_probe", evaluate_failing_rank_3)
    mpath.write_text(json.dumps(dict(json.loads(mpath.read_text()), out_dir=str(failed_dir))))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 2
    assert not list(failed_dir.glob("*rank3*"))
    for name in ("probe_layer0_rank2.json", "report_layer0_rank2.json",
                 "probe_layer1_rank2.json", "report_layer1_rank2.json"):
        assert (failed_dir / name).read_bytes() == (clean_dir / name).read_bytes()
    clean_rows = [r for r in read_report_tsv(clean_dir / "report.tsv") if r["rank"] == 2]
    assert read_report_tsv(failed_dir / "report.tsv") == clean_rows


def test_grid_cell_whose_report_write_fails_leaves_no_file(tmp_path, monkeypatch, caplog):
    paths = write_grid_inputs(tmp_path, n_trees=15)
    clean_dir, failed_dir = tmp_path / "clean", tmp_path / "failed"
    mpath = write_manifest(tmp_path, paths, clean_dir, ranks=(2, 3))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    real_write = grid_mod.write_report_json

    def write_failing_rank_3(report, path):
        if "rank3" in path.name:
            raise OSError(28, "No space left on device")
        real_write(report, path)

    monkeypatch.setattr(grid_mod, "write_report_json", write_failing_rank_3)
    mpath.write_text(json.dumps(dict(json.loads(mpath.read_text()), out_dir=str(failed_dir))))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 2
    assert "cell layer0_rank3 failed: [Errno 28] No space left on device" in caplog.text
    # the probe written before the failed report is removed with it
    assert not list(failed_dir.glob("*rank3*"))
    for name in ("probe_layer0_rank2.json", "report_layer0_rank2.json",
                 "probe_layer1_rank2.json", "report_layer1_rank2.json"):
        assert (failed_dir / name).read_bytes() == (clean_dir / name).read_bytes()
    clean_rows = [r for r in read_report_tsv(clean_dir / "report.tsv") if r["rank"] == 2]
    assert read_report_tsv(failed_dir / "report.tsv") == clean_rows


@pytest.mark.parametrize("failing", ["training", "report write"])
def test_a_failed_cell_frees_its_layer_before_the_next_layer_loads(tmp_path, monkeypatch, failing):
    # the live EmbeddingSequence objects at each load: a failure kept as an error would hold,
    # through its traceback, the frame and so the splits of its layer. The collector is off,
    # so that a collection cannot hide a reference cycle
    paths = write_grid_inputs(tmp_path, n_trees=15)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run", ranks=(2, 3),
                           train={"max_epochs": 1, "patience": 1})
    live: list[int] = []
    load, train, write = grid_mod.load_splits, grid_mod.train_probe, grid_mod.write_report_json

    def load_counted(*args):
        live.append(sum(isinstance(obj, EmbeddingSequence) for obj in gc.get_objects()))
        return load(*args)

    def train_failing_layer_0(task, train_pairs, val_pairs, cfg, layer):
        if layer == 0:
            raise ValueError("training failed")
        return train(task, train_pairs, val_pairs, cfg, layer)

    def write_failing_layer_0(report, path):
        if "layer0" in path.name:
            raise OSError(28, "No space left on device")
        write(report, path)

    monkeypatch.setattr(grid_mod, "load_splits", load_counted)
    if failing == "training":
        monkeypatch.setattr(grid_mod, "train_probe", train_failing_layer_0)
    else:
        monkeypatch.setattr(grid_mod, "write_report_json", write_failing_layer_0)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 2
    finally:
        if enabled:
            gc.enable()
    assert len(live) == 2 and live[1] == live[0]


def test_a_grid_loads_each_layer_after_the_layer_before_wrote_its_files(tmp_path, monkeypatch):
    # one layer's splits are held at a time: layers load in manifest order (here not the tag
    # order), each once every cell of the layer before it has written its probe and report
    paths = write_grid_inputs(tmp_path, n_trees=15)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir, ranks=(2, 3),
                           train={"max_epochs": 1, "patience": 1})
    doc = json.loads(mpath.read_text())
    mpath.write_text(json.dumps(dict(doc, layers=doc["layers"][::-1])))
    events: list = []
    load, save, write = grid_mod.load_splits, grid_mod.save_probe, grid_mod.write_report_json

    def load_recorded(split_labels, emb, *args):
        events.append(("load", emb["train"].name, sorted(p.name for p in out_dir.iterdir())))
        return load(split_labels, emb, *args)

    def recorded(real):
        def write_recorded(obj, path):
            real(obj, path)
            events.append(("wrote", path.name))
        return write_recorded

    monkeypatch.setattr(grid_mod, "load_splits", load_recorded)
    monkeypatch.setattr(grid_mod, "save_probe", recorded(save))
    monkeypatch.setattr(grid_mod, "write_report_json", recorded(write))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    expected: list = []
    written: list[str] = []
    for tag in (1, 0):
        expected.append(("load", paths[f"train_emb_l{tag}"].name, sorted(written)))
        for rank in (2, 3):
            for kind in ("probe", "report"):
                written.append(f"{kind}_layer{tag}_rank{rank}.json")
                expected.append(("wrote", written[-1]))
    assert events == expected


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
     ("tag", '"a\\u0001b"'), ("tag", '"a\\ud800b"'), ("tag", '"a\\uffffb"'),
     ("tag", '"rand/init"'), ("ranks", "[2, 2]")],
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
    train = {"max_epochs": 1, "patience": 1, "seed": -1}
    mpath = write_manifest(tmp_path, paths, tmp_path / "run", train=train)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    err = capsys.readouterr().err
    assert f"{mpath}: bad manifest: seed cannot be negative" in err and "Traceback" not in err
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
                 "--lr", "1e200", "--batch", "2", "--epochs", "2",
                 "--patience", "2", "--seed", "0", "--out", str(out)] + extra)
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite gradient in epoch 1" in err and "Traceback" not in err
    assert not out.exists()


def test_train_whose_validation_loss_is_not_finite_exits_three(tmp_path, capsys):
    labels, emb = write_synth(tmp_path)
    out = tmp_path / "out"
    code = main(["--quiet", "train", "--task", "depth", "--labels", str(labels),
                 "--emb", str(emb), "--val-labels", str(labels), "--val-emb", str(emb),
                 "--lr", "1e300", "--batch", "10", "--epochs", "2", "--patience", "2",
                 "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "structprobe: non-finite validation loss in epoch 1\n"
    assert not out.exists()


def test_grid_malformed_embedding_line_is_data_error_naming_it_before_out_dir_is_made(
    tmp_path, monkeypatch, capsys
):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    target = paths["eval_emb_l1"]
    with target.open("a") as fh:
        fh.write('{"id": "broken", "layer": 1\n')
    decoded: list = []
    monkeypatch.setattr(grid_mod, "read_embeddings", lambda path: decoded.append(path) or [])
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"structprobe: {target}:3: bad embedding record: ")
    assert "Traceback" not in err
    assert decoded == []
    assert not out_dir.exists()


def test_grid_duplicate_embedding_id_is_data_error_before_any_decode(
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
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 2
    err = capsys.readouterr().err
    named = f"{target}: embedding id {json.loads(first)['id']!r} is named by more than one record"
    assert named in err and "Traceback" not in err
    assert decoded == []
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["train", "sweep", "eval", "grid"])
def test_a_labels_file_naming_an_id_twice_exits_two_and_writes_nothing(
    tmp_path, monkeypatch, capsys, command
):
    if command == "grid":
        paths = write_grid_inputs(tmp_path, n_trees=10)
        labels, out = paths["eval_labels"], tmp_path / "run"
        argv = ["--manifest", str(write_manifest(tmp_path, paths, out))]
        monkeypatch.setattr(grid_mod, "train_probe", lambda *a, **k: pytest.fail("a cell trained"))
    else:
        labels, emb = write_synth(tmp_path)
        probe, out = tmp_path / "probe.json", tmp_path / "out"
        save_probe(identity_probe("depth", next(read_embeddings(emb)).m), probe)
        argv = {
            "train": ["--rank", "3"],
            "sweep": ["--ranks", "3,4"],
            "eval": ["--probe", str(probe), "--labels", str(labels), "--emb", str(emb)],
        }[command] + ["--out", str(out)]
        if command != "eval":
            argv += ["--task", "depth", "--labels", str(labels), "--emb", str(emb),
                     "--val-labels", str(labels), "--val-emb", str(emb), "--epochs", "1",
                     "--patience", "1"]
    first = labels.read_text().splitlines()[0]
    with labels.open("a") as fh:
        fh.write(first + "\n")
    assert main(["--quiet", command] + argv) == 2
    err = capsys.readouterr().err
    named = f"{labels}: labels id {json.loads(first)['id']!r} is named by more than one record"
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [("train", "--labels"), ("train", "--val-labels"), ("sweep", "--labels"), ("eval", "--labels")],
    ids=["train-labels", "train-val-labels", "sweep", "eval"],
)
def test_an_empty_labels_file_exits_two_naming_it_before_its_embeddings_are_decoded(
    tmp_path, monkeypatch, capsys, command, flag
):
    labels, emb = write_synth(tmp_path)
    empty, val_emb = tmp_path / "empty.jsonl", tmp_path / "val_emb.jsonl"
    empty.write_text("")
    val_emb.write_bytes(emb.read_bytes())
    probe, out = tmp_path / "probe.json", tmp_path / "out"
    save_probe(identity_probe("depth", next(read_embeddings(emb)).m), probe)
    files = {"--labels": labels, "--emb": emb, "--val-labels": labels, "--val-emb": val_emb}
    files[flag] = empty
    argv = {
        "train": ["--task", "depth", "--rank", "3", "--epochs", "1", "--patience", "1"],
        "sweep": ["--task", "depth", "--ranks", "3,4", "--epochs", "1", "--patience", "1"],
        "eval": ["--probe", str(probe)],
    }[command] + ["--out", str(out)]
    for key, path in list(files.items())[: 2 if command == "eval" else 4]:
        argv += [key, str(path)]
    decoded: list = []
    monkeypatch.setattr(grid_mod, "read_embeddings",
                        lambda path: decoded.append(path) or read_embeddings(path))
    assert main(["--quiet", command] + argv) == 2
    err = capsys.readouterr().err
    assert f"structprobe: {empty}: no label records\n" in err and "Traceback" not in err
    # every labels file is read before any embeddings file is decoded
    assert decoded == []
    assert not out.exists()


def test_grid_with_an_empty_labels_file_exits_two_naming_it_before_out_dir_is_made(
    tmp_path, monkeypatch, capsys
):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    paths["eval_labels"].write_text("")
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir)
    decoded: list = []
    monkeypatch.setattr(grid_mod, "read_embeddings", lambda path: decoded.append(path) or [])
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert f"structprobe: {paths['eval_labels']}: no label records\n" in err
    assert "Traceback" not in err
    assert decoded == []
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["build-labels", "eval", "chart"])
@pytest.mark.parametrize(
    "where, error", [("nodir/out", "No such file or directory"), ("adir", "Is a directory")],
    ids=["in-a-missing-directory", "a-directory"],
)
def test_an_output_path_that_cannot_be_written_is_named_as_given(
    tmp_path, capsys, command, where, error
):
    labels, emb = write_synth(tmp_path)
    probe, report, conll = tmp_path / "probe.json", tmp_path / "r.tsv", tmp_path / "x.conll"
    save_probe(identity_probe("depth", next(read_embeddings(emb)).m), probe)
    write_report_tsv(CHART_ROWS, report)
    conll.write_text(CONLL)
    (tmp_path / "adir").mkdir()
    out = tmp_path / where
    before = sorted(tmp_path.rglob("*"))
    argv = {
        "build-labels": ["--conll", str(conll)],
        "eval": ["--probe", str(probe), "--labels", str(labels), "--emb", str(emb)],
        "chart": ["--report", str(report), "--metric", "nspr"],
    }[command]
    assert main(["--quiet", command] + argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("structprobe: [Errno ") and err.endswith(f"] {error}: '{out}'\n")
    assert f".{out.name}." not in err and "Traceback" not in err
    # the temp file is removed
    assert sorted(tmp_path.rglob("*")) == before


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


@pytest.mark.parametrize(
    "where, key, raw, message",
    [
        (None, "layers", "5", "layers in the manifest must be a JSON list, got 5"),
        (None, "baselines", '"ab"', "baselines in the manifest must be a JSON list, got 'ab'"),
        (None, "ranks", '"12"', "ranks in the manifest must be a JSON list, got '12'"),
        (None, "train_labels", "5", "train_labels in the manifest must be a JSON string, got 5"),
        (None, "out_dir", "null", "out_dir in the manifest must be a JSON string, got None"),
        ("layers", "train_emb", "5", "train_emb in layers[1] must be a JSON string, got 5"),
        ("layers", "eval_emb", "[]", "eval_emb in layers[1] must be a JSON string, got []"),
    ],
)
def test_grid_manifest_member_of_the_wrong_type_is_named_before_any_file_is_read(
    tmp_path, monkeypatch, capsys, where, key, raw, message
):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run")
    doc = json.loads(mpath.read_text())
    target = {None: doc, "layers": doc["layers"][1]}[where]
    target[key] = "@VALUE@"
    mpath.write_text(json.dumps(doc).replace('"@VALUE@"', raw))
    read: list = []
    for name in ("read_labels", "scan_embedding_headers", "read_embeddings"):
        monkeypatch.setattr(grid_mod, name, lambda path, name=name: read.append((name, path)))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    assert capsys.readouterr().err == f"structprobe: {mpath}: bad manifest: {message}\n"
    assert read == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "where, key",
    [(None, "rank"), (None, "chart_metric"), ("layers", "evel_emb"), ("train", "optimizer")],
)
def test_grid_unknown_manifest_key_is_validation_error_before_any_file_is_read(
    tmp_path, monkeypatch, capsys, where, key
):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    mpath = write_manifest(tmp_path, paths, tmp_path / "run")
    doc = json.loads(mpath.read_text())
    target = {None: doc, "layers": doc["layers"][1], "train": doc["train"]}[where]
    target[key] = {"evel_emb": target.get("eval_emb"), "optimizer": "adam"}.get(key, [2, 4])
    mpath.write_text(json.dumps(doc))
    read: list = []
    for name in ("read_labels", "scan_embedding_headers", "read_embeddings"):
        monkeypatch.setattr(grid_mod, name, lambda path, name=name: read.append((name, path)))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    err = capsys.readouterr().err
    place = {None: "the manifest", "layers": "layers[1]", "train": '"train"'}[where]
    assert f"{mpath}: bad manifest: unknown key {key!r} in {place}" in err
    assert "Traceback" not in err and "unexpected keyword" not in err
    assert read == []
    assert not (tmp_path / "run").exists()


def test_eval_with_a_probe_of_another_width_exits_two_naming_both_files(tmp_path, capsys):
    labels, emb = write_synth(tmp_path)
    m = next(read_embeddings(emb)).m
    probe = tmp_path / "probe.json"
    save_probe(identity_probe("distance", m + 13), probe)
    out, detail = tmp_path / "r.tsv", tmp_path / "d.json"
    code = main(["--quiet", "eval", "--probe", str(probe), "--labels", str(labels),
                 "--emb", str(emb), "--out", str(out), "--json", str(detail)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"structprobe: {probe}: probe width {m + 13} does not match {emb} width {m}\n" in err
    assert "Traceback" not in err
    assert not out.exists() and not detail.exists()


@pytest.mark.parametrize("source", ["file", "pipe"])
def test_eval_checks_the_probe_width_before_it_decodes_a_regular_file(
    tmp_path, monkeypatch, capsys, source
):
    labels, emb = write_synth(tmp_path)
    m = next(read_embeddings(emb)).m
    probe, out = tmp_path / "probe.json", tmp_path / "r.tsv"
    save_probe(identity_probe("depth", m + 1), probe)
    if source == "pipe":  # a pipe can be read only once: its widths are checked after the decode
        pipe = tmp_path / "emb.pipe"
        os.mkfifo(pipe)
        threading.Thread(target=pipe.write_bytes, args=(emb.read_bytes(),), daemon=True).start()
        emb = pipe
    decoded: list = []
    monkeypatch.setattr(grid_mod, "read_embeddings",
                        lambda path: decoded.append(path) or read_embeddings(path))
    code = main(["--quiet", "eval", "--probe", str(probe), "--labels", str(labels),
                 "--emb", str(emb), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"structprobe: {probe}: probe width {m + 1} does not match {emb} width {m}\n"
    assert decoded == ([] if source == "file" else [str(emb)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_file_named_for_both_splits_is_scanned_and_decoded_once(
    tmp_path, monkeypatch, command
):
    labels, emb = write_synth(tmp_path)
    read: list = []
    monkeypatch.setattr(grid_mod, "scan_embedding_headers",
                        lambda path: read.append(("scan", path)) or scan_embedding_headers(path))
    monkeypatch.setattr(grid_mod, "read_embeddings",
                        lambda path: read.append(("decode", path)) or read_embeddings(path))
    extra = ["--rank", "3"] if command == "train" else ["--ranks", "3,4"]
    assert main(["--quiet", command, "--task", "depth", "--labels", str(labels),
                 "--emb", str(emb), "--val-labels", str(labels), "--val-emb", str(emb),
                 "--epochs", "2", "--patience", "2", *extra, "--out", str(tmp_path / "out")]) == 0
    assert read == [("scan", str(emb)), ("decode", str(emb))]


def test_a_pipe_named_for_both_splits_is_read_once(tmp_path):
    labels, emb = write_synth(tmp_path)
    pipe = tmp_path / "emb.pipe"
    os.mkfifo(pipe)
    threading.Thread(target=pipe.write_bytes, args=(emb.read_bytes(),), daemon=True).start()

    def end_a_second_read():  # a second open of the pipe would wait for a writer for ever
        try:
            os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # no reader waits
            pass

    guard = threading.Timer(10, end_a_second_read)
    guard.start()
    probes = []
    try:
        for source in (emb, pipe):
            out = tmp_path / f"{source.name}.json"
            assert main(["--quiet", "train", "--task", "depth", "--labels", str(labels),
                         "--emb", str(source), "--val-labels", str(labels),
                         "--val-emb", str(source), "--rank", "3", "--epochs", "2",
                         "--patience", "2", "--out", str(out)]) == 0
            probes.append(out.read_bytes())
    finally:
        guard.cancel()
    assert probes[1] == probes[0]


@pytest.mark.parametrize("command", ["eval", "scene-tree", "synth"])
def test_a_failed_second_write_leaves_neither_output(tmp_path, capsys, command):
    out, second = tmp_path / "out", tmp_path / "nodir" / "second.json"
    out_flag = "--out-labels" if command == "synth" else "--out"
    if command == "synth":  # the labels, then the embeddings
        argv = ["--n-trees", "3", "--out-emb", str(second)]
    elif command == "eval":
        labels, emb = write_synth(tmp_path)
        probe = tmp_path / "probe.json"
        save_probe(identity_probe("depth", next(read_embeddings(emb)).m), probe)
        argv = ["--probe", str(probe), "--labels", str(labels), "--emb", str(emb),
                "--json", str(second)]
    else:
        conll, grounding = tmp_path / "x.conll", tmp_path / "g.jsonl"
        conll.write_text(CONLL)
        grounding.write_text(json.dumps(GROUNDING) + "\n")
        argv = ["--conll", str(conll), "--grounding", str(grounding), "--report", str(second)]
    before = set(tmp_path.iterdir())
    assert main(["--quiet", command, *argv, out_flag, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("structprobe: ") and "Traceback" not in err
    assert set(tmp_path.iterdir()) == before
    # the same command with a second output it can write writes both
    second = tmp_path / "second.json"
    assert main(["--quiet", command, *argv[:-1], str(second), out_flag, str(out)]) == 0
    assert out.exists() and second.exists()


@pytest.mark.parametrize("second", ["x", "./x", "d/../x"])
@pytest.mark.parametrize("command", ["eval", "scene-tree", "synth"])
def test_two_outputs_naming_one_file_exit_two_and_write_nothing(
    tmp_path, monkeypatch, capsys, command, second
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    if command == "synth":
        argv = ["--n-trees", "3", "--out-labels", "x", "--out-emb", second]
    elif command == "eval":
        labels, emb = write_synth(tmp_path)
        save_probe(identity_probe("depth", next(read_embeddings(emb)).m), tmp_path / "p.json")
        argv = ["--probe", "p.json", "--labels", str(labels), "--emb", str(emb),
                "--out", "x", "--json", second]
    else:
        (tmp_path / "x.conll").write_text(CONLL)
        (tmp_path / "g.jsonl").write_text(json.dumps(GROUNDING) + "\n")
        argv = ["--conll", "x.conll", "--grounding", "g.jsonl", "--out", "x", "--report", second]
    before = set(tmp_path.iterdir())
    assert main(["--quiet", command, *argv]) == 2
    assert capsys.readouterr().err == (
        f"structprobe: output path {second!r} names the same file as 'x'\n"
    )
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["eval", "scene-tree", "synth"])
def test_an_empty_output_path_exits_two_and_writes_nothing(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    if command == "synth":
        argv = ["--n-trees", "3", "--out-emb", "e.jsonl", "--out-labels", ""]
    elif command == "eval":
        labels, emb = write_synth(tmp_path)
        save_probe(identity_probe("depth", next(read_embeddings(emb)).m), tmp_path / "p.json")
        argv = ["--probe", "p.json", "--labels", str(labels), "--emb", str(emb), "--out", ""]
    else:
        (tmp_path / "x.conll").write_text(CONLL)
        (tmp_path / "g.jsonl").write_text(json.dumps(GROUNDING) + "\n")
        argv = ["--conll", "x.conll", "--grounding", "g.jsonl", "--out", ""]
    before = set(tmp_path.iterdir())
    assert main(["--quiet", command, *argv]) == 2
    assert capsys.readouterr().err == "structprobe: output path '' names no file\n"
    assert set(tmp_path.iterdir()) == before


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


@pytest.mark.parametrize("layer", ["true", "1.5", "[1]", '"a\\tb"'])
def test_eval_probe_whose_stored_layer_is_not_a_tag_exits_two_naming_it(
    tmp_path, capsys, layer
):
    labels, emb = write_synth(tmp_path)
    probe = tmp_path / "probe.json"
    m = next(read_embeddings(emb)).m
    save_probe(Probe(task="depth", transform=np.eye(m), meta={"layer": 0}), probe)
    probe.write_text(probe.read_text().replace('"layer":0', f'"layer":{layer}'))
    out, detail = tmp_path / "r.tsv", tmp_path / "r.json"
    code = main(["--quiet", "eval", "--probe", str(probe), "--labels", str(labels),
                 "--emb", str(emb), "--out", str(out), "--json", str(detail)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{probe}: bad probe file: layer tag" in err and "Traceback" not in err
    assert not out.exists() and not detail.exists()


@pytest.mark.parametrize("meta", [None, '[["layer", 0]]', '"ab"', "5", "null"])
def test_eval_reads_an_absent_probe_meta_as_empty_and_exits_two_on_one_not_an_object(
    tmp_path, capsys, meta
):
    labels, emb = write_synth(tmp_path)
    probe = tmp_path / "probe.json"
    save_probe(identity_probe("depth", next(read_embeddings(emb)).m), probe)
    rec = json.loads(probe.read_text())
    del rec["meta"]
    text = json.dumps(rec)
    probe.write_text(text if meta is None else f'{text[:-1]}, "meta": {meta}}}')
    out = tmp_path / "r.tsv"
    code = main(["--quiet", "eval", "--probe", str(probe), "--labels", str(labels),
                 "--emb", str(emb), "--out", str(out)])
    err = capsys.readouterr().err
    if meta is None:
        assert code == 0 and out.exists()
        return
    assert code == 2 and not out.exists()
    got = repr(json.loads(meta))
    assert err == f"structprobe: {probe}: bad probe file: meta must be a JSON object, got {got}\n"


# one command line per subcommand, and the flags among --seed and --jobs it reads (none
# reads --jobs)
SUBCOMMANDS = {
    "train": (["--task", "depth", "--labels", "l", "--emb", "e", "--val-labels", "l",
               "--val-emb", "e", "--out", "o"], {"--seed"}),
    "sweep": (["--task", "depth", "--labels", "l", "--emb", "e", "--val-labels", "l",
               "--val-emb", "e", "--ranks", "2", "--out", "o"], {"--seed"}),
    "synth": (["--n-trees", "2", "--out-labels", "l", "--out-emb", "e"], {"--seed"}),
    "grid": (["--manifest", "m"], set()),
    "eval": (["--probe", "p", "--labels", "l", "--emb", "e", "--out", "o"], set()),
    "build-labels": (["--conll", "c", "--out", "o"], set()),
    "scene-tree": (["--conll", "c", "--grounding", "g", "--out", "o"], set()),
    "chart": (["--report", "r", "--metric", "dspr", "--out", "o"], set()),
}


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_a_subcommand_takes_only_the_seed_and_jobs_it_reads(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    argv, reads = SUBCOMMANDS[command]
    for flag in ("--seed", "--jobs"):
        after = [command] + argv + [flag, "2"]
        if flag in reads:
            assert getattr(build_parser().parse_args(after), flag[2:]) == 2
        # before the subcommand, no flag but --quiet is taken
        for line in [[flag, "2", command] + argv] + ([] if flag in reads else [after]):
            with pytest.raises(SystemExit) as err:
                main(["--quiet"] + line)
            assert err.value.code == 1
    assert list(tmp_path.iterdir()) == []


def test_help_lists_each_flag_under_the_subcommand_that_reads_it(capsys):
    def options(*argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([*argv, "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out.split("\noptions:\n", 1)[1]
        return {word for word in text.split() if word.startswith("--")}

    assert options() == {"--help", "--quiet"}
    for command, (_, reads) in SUBCOMMANDS.items():
        assert options(command) & {"--seed", "--jobs"} == reads
    # no hidden flag: every option string a parser accepts is in its help
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(SUBCOMMANDS)
    for each in (parser, *commands.choices.values()):
        shown = {word.strip(",") for word in each.format_help().split()}
        for action in each._actions:
            assert set(action.option_strings) <= shown, (each.prog, action.option_strings)


@pytest.mark.parametrize("command", ["eval", "chart", "build-labels", "scene-tree", "grid"])
def test_seed_or_jobs_given_to_a_subcommand_that_reads_neither_writes_nothing(
    tmp_path, capsys, command
):
    labels, emb = write_synth(tmp_path)
    probe, report = tmp_path / "probe.json", tmp_path / "r.tsv"
    conll, grounding = tmp_path / "x.conll", tmp_path / "g.jsonl"
    save_probe(identity_probe("depth", next(read_embeddings(emb)).m), probe)
    write_report_tsv(CHART_ROWS, report)
    conll.write_text(CONLL)
    grounding.write_text(json.dumps(GROUNDING) + "\n")
    out = tmp_path / "out"
    # grid writes into its manifest's out_dir; the others take --out
    manifest = write_manifest(tmp_path, write_grid_inputs(tmp_path, n_trees=15), out,
                              ranks=(2,), train={"max_epochs": 1, "patience": 1})
    argv = {
        "eval": ["--probe", str(probe), "--labels", str(labels), "--emb", str(emb),
                 "--out", str(out)],
        "chart": ["--report", str(report), "--metric", "nspr", "--out", str(out)],
        "build-labels": ["--conll", str(conll), "--out", str(out)],
        "scene-tree": ["--conll", str(conll), "--grounding", str(grounding), "--out", str(out)],
        "grid": ["--manifest", str(manifest)],
    }[command]
    for line in (["--seed", "1", command] + argv, ["--jobs", "2", command] + argv,
                 [command] + argv + ["--seed", "1"], [command] + argv + ["--jobs", "2"]):
        with pytest.raises(SystemExit) as err:
            main(["--quiet"] + line)
        assert err.value.code == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()
    # the same run without the flag writes its output: only the flag stopped it
    assert main(["--quiet", command] + argv) == 0
    assert out.exists()


REPLACEMENTS = {
    "ranks-twice": lambda m: dataclasses.replace(m, ranks=(2, 2)),
    "no-ranks": lambda m: dataclasses.replace(m, ranks=()),
    "tags-twice": lambda m: dataclasses.replace(m, cells=(m.cells[0], m.cells[0])),
    "metric-of-another-task": lambda m: dataclasses.replace(m, chart_metrics=("nspr",)),
    "tag-with-slash": lambda m: dataclasses.replace(m, cells=(
        dataclasses.replace(m.cells[0], tag="a/b"), m.cells[1])),
}


@pytest.mark.parametrize("case", list(REPLACEMENTS))
def test_a_replaced_manifest_follows_the_manifest_rules_before_any_training(
    tmp_path, monkeypatch, case
):
    paths = write_grid_inputs(tmp_path, n_trees=10)
    out_dir = tmp_path / "run"
    manifest = grid_mod.load_manifest(write_manifest(tmp_path, paths, out_dir))
    monkeypatch.setattr(grid_mod, "read_split_labels", lambda paths: pytest.fail("grid entered"))
    monkeypatch.setattr(grid_mod, "train_probe", lambda *a, **k: pytest.fail("a cell trained"))
    with pytest.raises(ValueError):
        grid_mod.run_layer_grid(REPLACEMENTS[case](manifest))
    assert not out_dir.exists()


def _missing_key_argv(tmp_path: Path, reader: str) -> tuple[list[str], Path]:
    """A command line whose one reader meets a record or file without a required key."""
    conll = tmp_path / "x.conll"
    conll.write_text(CONLL)
    bad = tmp_path / "bad.json"
    if reader == "grounding":
        bad.write_text(json.dumps({k: v for k, v in GROUNDING.items() if k != "sentence_id"}) + "\n")
        return ["scene-tree", "--conll", str(conll), "--grounding", str(bad),
                "--out", str(tmp_path / "scene.jsonl")], bad
    if reader == "labels":
        bad.write_text('{"id": "s0", "n": 1, "depths": [0], "root": 0}\n')
        return ["train", "--task", "depth", "--labels", str(bad), "--emb", "e.jsonl",
                "--val-labels", str(bad), "--val-emb", "e.jsonl", "--out", "p.json"], bad
    if reader == "manifest":
        bad.write_text(json.dumps({"task": "distance", "out_dir": "run"}))
        return ["grid", "--manifest", str(bad)], bad
    save_probe(identity_probe("depth", 2), bad)
    bad.write_text(json.dumps({k: v for k, v in json.loads(bad.read_text()).items() if k != "k"}))
    return ["eval", "--probe", str(bad), "--labels", "l.jsonl", "--emb", "e.jsonl",
            "--out", str(tmp_path / "r.tsv")], bad


@pytest.mark.parametrize(
    "reader, code, message",
    [
        ("grounding", 2, "{}:1: bad grounding record: missing key 'sentence_id'"),
        ("labels", 2, "{}:1: bad labels record: missing key 'distances'"),
        ("manifest", 1, "{}: bad manifest: missing key 'layers'"),
        ("probe", 2, "{}: bad probe file: missing key 'k'"),
    ],
    ids=["grounding", "labels", "manifest", "probe"],
)
def test_a_missing_key_is_called_missing(tmp_path, monkeypatch, capsys, reader, code, message):
    monkeypatch.chdir(tmp_path)
    argv, bad = _missing_key_argv(tmp_path, reader)
    inputs = sorted(tmp_path.iterdir())
    assert main(["--quiet"] + argv) == code
    err = capsys.readouterr().err
    assert f"structprobe: {message.format(bad)}\n" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == inputs


def _snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_grid_rerun_into_its_out_dir_exits_one_reads_nothing_and_changes_nothing(
    tmp_path, monkeypatch, capsys
):
    paths = write_grid_inputs(tmp_path, n_trees=12)
    out_dir = tmp_path / "run"
    mpath = write_manifest(tmp_path, paths, out_dir, ranks=(2,))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    before = _snapshot(tmp_path)
    for name in ("read_labels", "scan_embedding_headers", "read_embeddings"):
        monkeypatch.setattr(grid_mod, name, lambda *a, _n=name: pytest.fail(f"{_n} called"))
    # the same manifest, and one that names fewer ranks, are both refused
    fewer = tmp_path / "fewer.json"
    fewer.write_text(json.dumps(dict(json.loads(mpath.read_text()), ranks=[3])))
    for manifest in (mpath, fewer):
        capsys.readouterr()
        assert main(["--quiet", "grid", "--manifest", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert f"out_dir {out_dir} exists and is not an empty directory" in err
        assert "Traceback" not in err
    after = _snapshot(tmp_path)
    del after["fewer.json"]
    assert after == before


def test_grid_into_an_existing_empty_directory_runs(tmp_path):
    paths = write_grid_inputs(tmp_path, n_trees=12)
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    mpath = write_manifest(tmp_path, paths, out_dir, ranks=(2,))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    assert {r["layer"] for r in read_report_tsv(out_dir / "report.tsv")} == {0, 1}


def test_grid_with_a_file_as_out_dir_exits_one_and_leaves_it(tmp_path, monkeypatch, capsys):
    paths = write_grid_inputs(tmp_path, n_trees=12)
    out_dir = tmp_path / "run"
    out_dir.write_text("not a directory\n")
    mpath = write_manifest(tmp_path, paths, out_dir, ranks=(2,))
    monkeypatch.setattr(grid_mod, "read_labels", lambda *a: pytest.fail("labels read"))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 1
    err = capsys.readouterr().err
    assert f"out_dir {out_dir} exists and is not an empty directory" in err
    assert "Traceback" not in err
    assert out_dir.read_text() == "not a directory\n"


def _train_diverging_at_rank_2(monkeypatch) -> list[int]:
    """``grid.train_probe`` raising TrainingDiverged at rank 2; the ranks it was called with."""
    calls: list[int] = []
    real_train = grid_mod.train_probe

    def diverging_train(task, train, val, cfg, layer=None):
        calls.append(cfg.rank)
        if cfg.rank == 2:
            raise TrainingDiverged("non-finite loss in epoch 1")
        return real_train(task, train, val, cfg, layer)

    monkeypatch.setattr(grid_mod, "train_probe", diverging_train)
    return calls


def test_sweep_stops_at_its_first_failed_rank_with_its_exit_code(tmp_path, monkeypatch, capsys):
    labels, emb = write_synth(tmp_path, n_trees=12)
    calls = _train_diverging_at_rank_2(monkeypatch)
    out = tmp_path / "sweep.tsv"
    code = main(["--quiet", "sweep", "--task", "depth", "--labels", str(labels),
                 "--emb", str(emb), "--val-labels", str(labels), "--val-emb", str(emb),
                 "--epochs", "2", "--patience", "2", "--ranks", "2,3,4", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "structprobe: non-finite loss in epoch 1" in err and "Traceback" not in err
    assert calls == [2]  # ranks 3 and 4 never train
    assert not out.exists()


def test_grid_records_a_failed_rank_and_writes_the_others(tmp_path, monkeypatch, caplog):
    paths = write_grid_inputs(tmp_path, n_trees=15)
    clean_dir, failed_dir = tmp_path / "clean", tmp_path / "failed"
    mpath = write_manifest(tmp_path, paths, clean_dir, ranks=(2, 3, 4))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 0
    calls = _train_diverging_at_rank_2(monkeypatch)
    mpath.write_text(json.dumps(dict(json.loads(mpath.read_text()), out_dir=str(failed_dir))))
    assert main(["--quiet", "grid", "--manifest", str(mpath)]) == 2
    assert sorted(calls) == [2, 2, 3, 3, 4, 4]  # each layer goes on after its failed rank
    assert "cell layer0_rank2 failed: non-finite loss in epoch 1" in caplog.text
    assert "cell layer1_rank2 failed: non-finite loss in epoch 1" in caplog.text
    written = {p.name for p in failed_dir.glob("*.json")}
    assert written == {f"{kind}_layer{tag}_rank{rank}.json"
                       for kind in ("probe", "report") for tag in (0, 1) for rank in (3, 4)}
    for name in written:
        assert (failed_dir / name).read_bytes() == (clean_dir / name).read_bytes(), name
    clean_rows = [r for r in read_report_tsv(clean_dir / "report.tsv") if r["rank"] != 2]
    assert read_report_tsv(failed_dir / "report.tsv") == clean_rows
