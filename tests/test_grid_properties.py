"""Property: the cells of a grid are independent of each other.

Adding or removing a layer, a baseline or a rank leaves every other cell's
probe and report JSON byte for byte, and ``report.tsv`` holds exactly the
rows of the grid's cells, in its sort order.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structprobe.embed_io import EmbeddingSequence, write_embeddings
from structprobe.grid import SPLITS, ExperimentManifest, GridCell, run_layer_grid
from structprobe.metrics import read_report_tsv
from structprobe.probe import TrainConfig
from structprobe.synth import oracle_dataset
from structprobe.trees import write_labels

TAGS = (0, 1, "shuffled")
RANKS = (1, 2, 4)


def grid(base: Path, tags, ranks, out_dir: Path) -> list[dict]:
    """Run the grid of ``tags`` x ``ranks`` into ``out_dir``; the rows of its cells' reports."""
    cells = tuple(
        GridCell(tag, {s: base / f"{s}_emb_{tag}.jsonl" for s in SPLITS}) for tag in tags
    )
    manifest = ExperimentManifest(
        task="distance",
        labels={s: base / f"{s}_labels.jsonl" for s in SPLITS},
        cells=cells,
        ranks=tuple(ranks),
        train=TrainConfig(batch_size=4, max_epochs=3, patience=3, seed=2),
        out_dir=out_dir,
    )
    reports, failures = run_layer_grid(manifest)
    assert failures == []
    return [row for report in reports for row in report.tsv_rows()]


def tsv_order(row: dict):
    layer = row["layer"]
    return (isinstance(layer, str), str(layer) if isinstance(layer, str) else layer,
            row["rank"], row["metric"])


@pytest.fixture(scope="module")
def full_grid(tmp_path_factory):
    """Inputs of 12 trees (m=6) for two layers and a baseline, and the full grid's outputs."""
    base = tmp_path_factory.mktemp("grid")
    pairs = oracle_dataset(12, 3, 6, extra_dims=1, seed=4).pairs()
    rng = np.random.default_rng(8)
    for split, items in zip(SPLITS, (pairs[:8], pairs[8:10], pairs[10:])):
        write_labels([lab for lab, _ in items], base / f"{split}_labels.jsonl")
        for layer, tag in enumerate(TAGS):
            seqs = [
                EmbeddingSequence(
                    id=seq.id,
                    layer=layer,
                    values=seq.values if tag == 0 else (
                        seq.values * (tag == 1) + rng.normal(0, 0.3, seq.values.shape)
                    ).astype(np.float32),
                )
                for _, seq in items
            ]
            write_embeddings(seqs, base / f"{split}_emb_{tag}.jsonl")
    rows = grid(base, TAGS, RANKS, base / "full")
    assert read_report_tsv(base / "full" / "report.tsv") == sorted(rows, key=tsv_order)
    return base


@settings(max_examples=6, deadline=None)
@given(
    tags=st.lists(st.sampled_from(TAGS), min_size=1, unique=True),
    ranks=st.lists(st.sampled_from(RANKS), min_size=1, unique=True),
)
def test_adding_or_removing_cells_leaves_every_other_cell_unchanged(full_grid, tags, ranks):
    full = full_grid / "full"
    with tempfile.TemporaryDirectory(dir=full_grid) as tmp:
        out = Path(tmp)
        rows = grid(full_grid, tags, ranks, out)
        cells = {f"layer{tag}_rank{rank}" for tag in tags for rank in ranks}
        written = {p.name for p in out.iterdir() if p.suffix == ".json"}
        assert written == {f"{kind}_{c}.json" for kind in ("probe", "report") for c in cells}
        for name in written:
            assert (out / name).read_bytes() == (full / name).read_bytes(), name
        # report.tsv: the full grid's lines of these cells, in the same order
        lines = (full / "report.tsv").read_text().splitlines(keepends=True)
        kept = [line for line, row in zip(lines[1:], read_report_tsv(full / "report.tsv"))
                if row["layer"] in tags and row["rank"] in ranks]
        assert (out / "report.tsv").read_text() == lines[0] + "".join(kept)
        assert read_report_tsv(out / "report.tsv") == sorted(rows, key=tsv_order)
