"""Fast tests of the benchmark itself: python -m pytest -q bench/tests"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402

TINY = {
    "text": dict(gen.SHAPES["text"], sentences=6, max_len=12, m=16),
    "visual": dict(gen.SHAPES["visual"], sentences=9, m=16),
}


def _prepared(tmp_path: Path, workload: str, seed: int = 5):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    inv, golds, rows = gen.make_inputs(inputs, seed, TINY[workload])
    return inputs, out, inv, golds, rows


@pytest.fixture(scope="module")
def sp():
    return pipeline.load_package(ROOT / "src")


@pytest.mark.parametrize("workload", sorted(TINY))
def test_a_tiny_repetition_passes_every_check(tmp_path, sp, workload):
    inputs, out, _, golds, rows = _prepared(tmp_path, workload)
    scenes = check.expectations(golds)
    res = pipeline.repetition(sp, inputs, out, rows)
    assert check.check_results(res, golds, scenes) == []
    assert check.check_files(out, golds, scenes) == []


def test_the_checks_catch_wrong_outputs(tmp_path, sp):
    inputs, out, _, golds, rows = _prepared(tmp_path, "visual")
    scenes = check.expectations(golds)
    res = pipeline.repetition(sp, inputs, out, rows)
    emb = res["embeddings"][2]
    res["embeddings"][2] = type(emb)(emb.id, emb.layer, emb.values + 1.0)
    res["visual"].pop()
    assert check.check_results(res, golds, scenes) == ["visual: 8 records, expected 9"]
    res["visual"].append(res["visual"][0])
    assert [p.split(": ", 1)[1] for p in check.check_results(res, golds, scenes)] == [
        "decoded embedding differs from the one written",
        "visual labels differ from the expected scene distances"]
    text = (out / "labels.jsonl").read_text().replace('"depths":[', '"depths":[7,', 1)
    (out / "labels.jsonl").write_text(text)
    assert check.check_files(out, golds, scenes) == [f"labels.jsonl: record {golds[0]['id']} is wrong"]


def test_expected_scene_attaches_to_the_nearest_anchored_ancestor():
    # Chain 0 <- 1 <- 2 <- 3 <- 4 (token 0 is the root).
    gold = {"heads": np.array([-1, 0, 1, 2, 3]), "depths": np.arange(5), "root": 0, "phrases": [
        {"phrase_id": "a", "start": 3, "end": 5, "region_ids": ["r0", "r1"]},
        {"phrase_id": "b", "start": 1, "end": 2, "region_ids": ["r2"]},
        {"phrase_id": "c", "start": 0, "end": 1, "region_ids": []},
        {"phrase_id": "d", "start": 4, "end": 5, "region_ids": ["r3"]}]}
    want = check.expected_scene(gold)
    assert want["parents"] == [-1, 2, 0, 1]
    assert want["depths"] == [0, 2, 1, 3]
    assert want["phrase_to_text"] == {"a": 3, "b": 1, "d": 4}
    assert want["seq_depths"].tolist() == [0, 2, 2, 1, 3]
    assert want["distances"][1].tolist() == [2, 0, 0, 1, 1]


def test_the_generator_is_seeded(tmp_path):
    digests = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        (tmp_path / sub).mkdir()
        digests.append(gen.make_inputs(tmp_path / sub, seed, TINY["text"])[0].digest())
    assert digests[0] == digests[1] != digests[2]


def test_per_layer_scales_sums_spans_per_repetition_and_takes_medians():
    # The reference ran at twice its nominal time on the traced repetitions,
    # so their times are halved.
    ref = run.REFERENCE_S
    reps = [{"traced": False, "wall_s": w, "ref_s": ref} for w in (1.0, 2.0, 3.0)]
    for k in range(3):
        spans = [(name, 0.0, 0.002) for name in run.SPANS] + [("embed_io.decode", 0.5, 0.5 + 0.002 * k)]
        reps.append({"traced": True, "wall_s": 5.0 + 2 * k, "ref_s": 2 * ref, "spans": spans})
    values = run.per_layer(reps, emb_bytes=2_000_000)
    assert values["trees.parse_ms"] == pytest.approx(1.0)
    assert values["embed_io.decode_ms"] == pytest.approx(2.0)
    assert values["embed_io.decode_mb_per_s"] == pytest.approx(1000.0)
    assert values["trace.overhead_ms"] == pytest.approx(1500.0)


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(gen.SHAPES)
    assert [m["name"] for m in doc["per_layer"]] == [f"{s}_ms" for s in run.SPANS] + [
        "embed_io.decode_mb_per_s", "trace.overhead_ms"]
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    assert set(e2e) == {"setup_s", "seqs_per_s"}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])


def _checkout(tmp_path: Path, package: str | None) -> Path:
    """The benchmark and BENCHMARK.json, with the repo's package source, a
    broken one, or none."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if package == "repo":
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    elif package == "broken":
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / "src" / "structprobe" / "trees.py").write_text("break\n")
    return tmp_path


def _run(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "visual", "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace)], cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_the_command_prints_every_declared_metric(tmp_path, trace):
    proc = _run(_checkout(tmp_path, "repo"), trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (tmp_path / ".bench_work").exists() or not any((tmp_path / ".bench_work").iterdir())


def test_a_package_that_does_not_load_is_a_failed_run(tmp_path):
    proc = _run(_checkout(tmp_path, "broken"), 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["attempted"] == result["failed"] == 1
    assert "SyntaxError" in proc.stdout


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    proc = _run(_checkout(tmp_path, None), 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
