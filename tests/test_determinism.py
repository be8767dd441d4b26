"""What the README's "Determinism" section pins, checked on the console commands.

A rerun is byte-identical at one BLAS thread count. Across thread counts a
trained probe may differ in its last bits, and its metrics by at most 1e-9.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args, cwd, threads):
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
    )
    argv = [sys.executable, "-m", "structprobe.cli", "--quiet", *map(str, args)]
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("task, correlation, aggregates",
                         [("distance", "dspr", {"dspr", "uuas"}),
                          ("depth", "nspr", {"nspr", "root_acc"})], ids=["distance", "depth"])
def test_train_reruns_are_byte_identical_and_thread_counts_agree_within_1e9(
        tmp_path, task, correlation, aggregates):
    # m = (max_n - 1) + extra_dims = 749, a width at which the BLAS thread count
    # changes the bytes of a trained probe
    run(["synth", "--n-trees", "24", "--min-n", "5", "--max-n", "20", "--extra-dims", "730",
         "--noise", "0.01", "--seed", "3", "--out-labels", "labels.jsonl", "--out-emb", "emb.jsonl"],
        tmp_path, 1)
    data = ["--labels", "labels.jsonl", "--emb", "emb.jsonl"]
    outputs = {}
    for threads in (1, 2):
        for rerun in (0, 1):
            out = tmp_path / f"threads{threads}_run{rerun}"
            out.mkdir()
            # patience 40: all 40 epochs run
            run(["train", "--task", task, *data, "--val-labels", "labels.jsonl",
                 "--val-emb", "emb.jsonl", "--epochs", "40", "--patience", "40",
                 "--out", out / "probe.json"], tmp_path, threads)
            run(["eval", "--probe", out / "probe.json", *data, "--out", out / "report.tsv",
                 "--json", out / "detail.json"], tmp_path, threads)
            outputs[threads, rerun] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    for threads in (1, 2):
        assert outputs[threads, 0] == outputs[threads, 1], f"OPENBLAS_NUM_THREADS={threads}"
    assert json.loads(outputs[1, 0]["probe.json"])["meta"]["epochs_run"] == 40
    one, two = (json.loads(outputs[threads, 0]["detail.json"]) for threads in (1, 2))
    assert one["aggregates"].keys() == two["aggregates"].keys() == aggregates
    for metric, value in one["aggregates"].items():
        assert abs(value - two["aggregates"][metric]) <= 1e-9, metric
    for a, b in zip(one["sequences"], two["sequences"], strict=True):
        assert abs(a[correlation] - b[correlation]) <= 1e-9, a["id"]


def test_a_two_layer_grid_rerun_writes_the_same_files(tmp_path):
    # one seed gives one set of trees whatever the noise and layer, so the
    # noisy layer-1 file pairs with the layer-0 labels
    for layer, noise in ((0, 0), (1, 0.1)):
        run(["synth", "--n-trees", "20", "--seed", "3", "--noise", noise, "--layer", layer,
             "--out-labels", f"labels{layer}.jsonl", "--out-emb", f"emb{layer}.jsonl"],
            tmp_path, 1)
    layers = [{"tag": tag, **{f"{split}_emb": f"emb{tag}.jsonl"
                              for split in ("train", "val", "eval")}} for tag in (0, 1)]
    outputs = []
    for name in ("run_a", "run_b"):
        manifest = {"task": "depth", "train_labels": "labels0.jsonl", "val_labels": "labels0.jsonl",
                    "eval_labels": "labels0.jsonl", "layers": layers, "ranks": [2],
                    "train": {"max_epochs": 2, "patience": 2}, "out_dir": name}
        (tmp_path / f"{name}.json").write_text(json.dumps(manifest))
        run(["grid", "--manifest", f"{name}.json"], tmp_path, 1)
        out = tmp_path / name
        outputs.append({str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*")
                        if f.is_file()})
    assert {"probe_layer0_rank2.json", "probe_layer1_rank2.json"} <= outputs[0].keys()
    assert outputs[0] == outputs[1]
