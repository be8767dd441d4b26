"""The measured work: one pass of data preparation through the package.

A repetition does what ``structprobe build-labels`` and ``structprobe
scene-tree`` do, reads the written labels and the EMB-JSONL embeddings back
as training and evaluation do, and renders the report charts as the layer
grid does. It calls only the public functions of the modules it loads.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.machinery
import importlib.util
import sys
import time
from pathlib import Path
from types import SimpleNamespace

MODULES = ("trees", "scenetree", "embed_io", "chart", "io_utils")


def load_package(src: Path) -> SimpleNamespace:
    """Import the measured modules of ``structprobe`` from ``src``.

    The package's ``__init__`` is not run: it imports every module, and the
    benchmark measures only the data layers above, which import nothing
    but each other and ``errors``.
    """
    spec = importlib.machinery.ModuleSpec("structprobe", None, is_package=True)
    spec.submodule_search_locations = [str(src / "structprobe")]
    sys.modules["structprobe"] = importlib.util.module_from_spec(spec)
    return SimpleNamespace(**{name: importlib.import_module(f"structprobe.{name}") for name in MODULES})


class Spans:
    """Spans of one traced repetition, kept in memory: (name, start, end).

    Every span is a child of the repetition and none nests in another, so a
    span's self time is its duration.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))


def untraced(name: str):
    return contextlib.nullcontext()


def repetition(sp: SimpleNamespace, inputs: Path, out: Path, rows: list[dict], span=untraced) -> dict:
    """Run the pipeline once, writing into ``out``; return what it produced."""
    with span("trees.parse"):
        trees = sp.trees.read_conllu(inputs / "corpus.conll")
    with span("trees.labels"):
        labels = [sp.trees.tree_labels(t, t.sent_id) for t in trees]
    with span("trees.labels_io"):
        sp.trees.write_labels(labels, out / "labels.jsonl")
        labels = sp.trees.read_labels(out / "labels.jsonl")
    with span("scenetree.read"):
        captions = list(sp.scenetree.read_grounding(inputs / "grounding.jsonl"))
    with span("scenetree.construct"):
        scenes = [sp.scenetree.construct_scene_tree(t, c.phrases, c.image_id) for t, c in zip(trees, captions)]
    with span("scenetree.visual_labels"):
        visual = [sp.scenetree.visual_labels(s, sp.scenetree.region_sequence(c.phrases), c.sentence_id)
                  for s, c in zip(scenes, captions)]
    with span("scenetree.write"):
        sp.io_utils.atomic_write_text(out / "scene.jsonl", "".join(
            sp.trees.labels_record(v, extra=sp.scenetree.scene_record_extra(s)) + "\n"
            for v, s in zip(visual, scenes)))
    with span("embed_io.scan"):
        headers = sp.embed_io.scan_embedding_headers(inputs / "emb.jsonl")
    with span("embed_io.decode"):
        embeddings = list(sp.embed_io.read_embeddings(inputs / "emb.jsonl"))
    with span("chart.render"):
        for metric in dict.fromkeys(r["metric"] for r in rows):
            sp.chart.emit_chart(rows, metric, out / f"{metric}.svg", title=metric)
    return {"trees": trees, "labels": labels, "captions": captions, "scenes": scenes, "visual": visual,
            "headers": headers, "embeddings": embeddings}
