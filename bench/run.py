"""Seeded benchmark of structprobe's data-preparation layers.

    python3 bench/run.py --workload text --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. The benchmark writes the
workload's inputs from --seed (bench/gen.py): a CoNLL corpus, grounding
JSONL, EMB-JSONL embeddings and report rows. It loads the package from
src/ and, after warm-up, repeats one pass of bench/pipeline.py for about
--seconds seconds, one repetition after another (a closed loop, one
client). Every repetition is checked against the generator's gold answers
(bench/check.py); the first one's files are also read back independently,
and every later one must write the same bytes.

Every time is scaled by a host-speed reference timed beside it
(bench/reference.py), so it reads as seconds on a host on which the
reference takes its nominal time. The unscaled values are printed and
recorded too.

With --trace 0 the result line carries the end-to-end metrics: setup_s,
the median time a fresh interpreter takes to start and load the measured
modules, over loads spread across the run; and seqs_per_s, sequences per
second of the median repetition. With --trace 1 repetitions alternate
between untraced and traced; the result line carries each layer's median
time per traced repetition, the decode rate and trace.overhead_ms, the
difference of the traced and untraced median repetition times.

Every metric is printed with its unit before the last line, which is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A record
(environment, input files with sha256, per-repetition times, problems and,
when traced, the spans) goes to .bench_out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import pipeline
from reference import REFERENCE_S, START_REFERENCE_S, reference_time, start_reference_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0
SETUP_RUNS = 9
WARMUP_REPS = 3
SPANS = ("trees.parse", "trees.labels", "trees.labels_io", "scenetree.read", "scenetree.construct",
         "scenetree.visual_labels", "scenetree.write", "embed_io.scan", "embed_io.decode", "chart.render")


def environment() -> dict:
    """Machine and library record; BLAS threading is read, never set."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
           "blas_threads": None, "machine": platform.machine()}
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except OSError:
        return env
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        threads = getattr(lib, name, None)
        if threads is not None:
            threads.restype, threads.argtypes = ctypes.c_int, []
            env["blas_threads"] = threads()
            break
    return env


def fresh_load() -> dict:
    """Time a new interpreter starting and loading the measured modules."""
    code = (f"import sys, pathlib; sys.path.insert(0, {str(BENCH)!r}); import pipeline; "
            f"pipeline.load_package(pathlib.Path({str(SRC)!r}))")
    ref = start_reference_time()
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"loading the package failed: {proc.stderr.decode(errors='replace')[-400:]}")
    return {"load_s": elapsed, "ref_s": (ref + start_reference_time()) / 2}


def run_loop(args, inputs: Path, out: Path, golds: list[dict], rows: list[dict], started: float) -> dict:
    """Warm up, then repeat the pipeline for --seconds; check every repetition.

    The fresh-interpreter loads behind setup_s are spread evenly over the
    run, between repetitions, so that they see the same host as the
    repetitions do.
    """
    scenes = check.expectations(golds)
    setup = [fresh_load()]
    sp = pipeline.load_package(SRC)
    reps, problems, first_hashes = [], [], None
    loop_start = None
    while True:
        if loop_start is not None and len(setup) < SETUP_RUNS and \
                time.perf_counter() - loop_start >= len(setup) * args.seconds / SETUP_RUNS:
            setup.append(fresh_load())
        index = len(reps)
        traced = bool(args.trace) and index % 2 == 1
        spans = pipeline.Spans() if traced else None
        ref = reference_time()
        start = time.perf_counter()
        try:
            res = pipeline.repetition(sp, inputs, out, rows, spans or pipeline.untraced)
            wall = time.perf_counter() - start
            rep_problems = check.check_results(res, golds, scenes)
            del res
            hashes = check.output_hashes(out)
            if first_hashes is None:
                rep_problems += check.check_files(out, golds, scenes)
                first_hashes = hashes
            elif hashes != first_hashes:
                rep_problems.append(f"outputs differ from the first repetition: "
                                    f"{sorted(k for k in hashes if hashes[k] != first_hashes.get(k))}")
        except Exception as exc:  # a failing repetition is counted, not raised
            wall = time.perf_counter() - start
            rep_problems = [f"{type(exc).__name__}: {exc}"]
        problems += [f"rep {index}: {p}" for p in rep_problems]
        reps.append({"warmup": loop_start is None, "traced": traced, "wall_s": wall, "ref_s": ref,
                     "ok": not rep_problems,
                     "spans": [(n, s - start, e - start) for n, s, e in spans.spans] if spans else None})
        now = time.perf_counter()
        if loop_start is None and index + 1 >= WARMUP_REPS:
            loop_start = now
        if now - started > TIME_LIMIT_S - 10:
            break
        if loop_start is not None and now - loop_start >= args.seconds and len(setup) == SETUP_RUNS and any(
                r["traced"] for r in reps if not r["warmup"]) == bool(args.trace):
            break
    return {"reps": reps, "problems": problems, "setup": setup}


def end_to_end(setup: list[dict], timed: list[dict], sequences: int) -> dict[str, float]:
    plain = [r for r in timed if not r["traced"]]
    return {"setup_s": statistics.median(s["load_s"] * START_REFERENCE_S / s["ref_s"] for s in setup),
            "seqs_per_s": sequences / statistics.median(r["wall_s"] * REFERENCE_S / r["ref_s"] for r in plain)}


def unscaled(setup: list[dict], timed: list[dict], sequences: int) -> dict[str, float]:
    plain = [r for r in timed if not r["traced"]]
    return {"setup_s": statistics.median(s["load_s"] for s in setup),
            "seqs_per_s": sequences / statistics.median(r["wall_s"] for r in plain),
            "reference_ms": 1000.0 * statistics.median(r["ref_s"] for r in timed),
            "start_reference_s": statistics.median(s["ref_s"] for s in setup)}


def per_layer(timed: list[dict], emb_bytes: int) -> dict[str, float]:
    traced = [r for r in timed if r["traced"]]
    per_rep = []
    for r in traced:
        own = dict.fromkeys(SPANS, 0.0)
        for name, start, end in r["spans"]:
            own[name] += (end - start) * REFERENCE_S / r["ref_s"]
        per_rep.append(own)
    values = {f"{name}_ms": statistics.median(p[name] for p in per_rep) * 1000.0 for name in SPANS}
    values["embed_io.decode_mb_per_s"] = emb_bytes / 1e6 / (values["embed_io.decode_ms"] / 1000.0)
    values["trace.overhead_ms"] = 1000.0 * (
        statistics.median(r["wall_s"] * REFERENCE_S / r["ref_s"] for r in traced)
        - statistics.median(r["wall_s"] * REFERENCE_S / r["ref_s"] for r in timed if not r["traced"]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not all((SRC / "structprobe" / f"{name}.py").is_file() for name in pipeline.MODULES):
        print(f"bench: no package source at {SRC / 'structprobe'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shape = gen.SHAPES[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs, out = work / "inputs", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    inputs.mkdir(parents=True)
    out.mkdir()
    try:
        inv, golds, rows = gen.make_inputs(inputs, args.seed, shape)
        try:
            loop = run_loop(args, inputs, out, golds, rows, started)
        except Exception as exc:  # the package cannot be loaded: one failed operation
            loop = {"reps": [], "problems": [f"{type(exc).__name__}: {exc}"], "setup": []}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps, problems, setup = loop["reps"], loop["problems"], loop["setup"]
    attempted = max(1, len(reps))
    failed = attempted if not reps else sum(1 for r in reps if not r["ok"])
    timed = [r for r in reps if not r["warmup"]]
    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    if timed and setup:
        metrics = end_to_end(setup, timed, shape["sentences"])
        raw = unscaled(setup, timed, shape["sentences"])
        if args.trace:
            metrics = per_layer(timed, inv.files["emb.jsonl"]["bytes"])
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "why": {w["name"]: w["why"] for w in declared["workloads"]}[args.workload], "shape": shape,
              "environment": env, "inputs": {"digest": inv.digest(), "files": inv.files},
              "reference_s": REFERENCE_S, "metrics": metrics, "unscaled": raw, "problems": problems[:50],
              "setup": setup, "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps]}
    if args.trace:
        record["spans"] = [{"rep": i, "name": n, "start": s, "end": e}
                           for i, r in enumerate(reps) if r["spans"] for n, s, e in r["spans"]]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    print(f"workload {args.workload} seed {args.seed}: {attempted} repetitions ({len(timed)} timed, "
          f"{len(reps) - len(timed)} warm-up), {failed} failed; closed loop, 1 client, "
          f"{'alternating untraced/traced' if args.trace else 'untraced'}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs: {shape}, {len(inv.files)} files, {sum(f['bytes'] for f in inv.files.values())} bytes, "
          f"sha256 digest {inv.digest()}")
    print(f"times scaled to references of {REFERENCE_S * 1000:g} ms and {START_REFERENCE_S:g} s; unscaled: "
          + ", ".join(f"{k} = {v!r}" for k, v in raw.items()))
    for m in wanted:
        print(f"  {m['name']} = {metrics.get(m['name'], 0.0)!r} {m['unit']}")
    for problem in problems[:10]:
        print(f"problem: {problem}")
    print(f"record: {record_path.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
