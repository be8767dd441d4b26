"""The README is run: every command of its "Quick start" and "Real data" blocks, its
``rank_cells`` loop and its "File formats" JSON examples, changed only by the substitution
table that the README itself states. A fenced block that is neither run here nor listed in
``NOT_RUN``, with the reason the README gives, fails."""

from __future__ import annotations

import base64
import json
import re
import shlex
from pathlib import Path
from typing import NamedTuple

import pytest

from structprobe import grid
from structprobe.cli import build_parser, main
from structprobe.embed_io import read_embeddings
from structprobe.probe import TrainConfig
from structprobe.scenetree import read_grounding
from structprobe.trees import read_labels

README = Path(__file__).resolve().parents[1] / "README.md"
QUICK_START = "Quick start (synthetic end-to-end)"
REAL_DATA = "Real data"
FILE_FORMATS = "File formats"
# the blocks not run, each with the reason the README gives: 'The "<section>" block is not
# run: <reason>'
NOT_RUN = {("Install and test", "", "sh"): "it installs the package and runs the tests themselves"}
# the options that name each command's output files; a grid's are in its manifest's out_dir
OUTPUTS = {
    "build-labels": ("out",),
    "scene-tree": ("out", "report"),
    "synth": ("out_labels", "out_emb"),
    "train": ("out",),
    "sweep": ("out",),
    "eval": ("out", "json"),
    "grid": (),
    "chart": ("out",),
}

CORPUS = """\
# sent_id = w1
1\tthe\t_\tDET\t_\t_\t2\tdet\t_\t_
2\tdog\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\truns\t_\tVERB\t_\t_\t0\troot\t_\t_
4\thome\t_\tADV\t_\t_\t3\tadvmod\t_\t_
5\t.\t_\tPUNCT\t_\t_\t3\tpunct\t_\t_

# sent_id = w2
1\tbirds\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsing\t_\tVERB\t_\t_\t0\troot\t_\t_
3\t,\t_\tPUNCT\t_\t_\t2\tpunct\t_\t_
4\tloudly\t_\tADV\t_\t_\t2\tadvmod\t_\t_
"""

CAPTIONS = """\
# sent_id = c1
1\ta\t_\tDET\t_\t_\t2\tdet\t_\t_
2\tman\t_\tNOUN\t_\t_\t0\troot\t_\t_
3\ton\t_\tADP\t_\t_\t2\tprep\t_\t_
4\ta\t_\tDET\t_\t_\t5\tdet\t_\t_
5\tbench\t_\tNOUN\t_\t_\t3\tpobj\t_\t_

# sent_id = c2
1\ttwo\t_\tNUM\t_\t_\t2\tnummod\t_\t_
2\tdogs\t_\tNOUN\t_\t_\t0\troot\t_\t_
3\tnear\t_\tADP\t_\t_\t2\tprep\t_\t_
4\ttrees\t_\tNOUN\t_\t_\t3\tpobj\t_\t_
"""

GROUNDING = [
    {"image_id": "img1", "sentence_id": "c1", "tokens": ["a", "man", "on", "a", "bench"],
     "phrases": [{"phrase_id": "p1", "start": 0, "end": 2, "region_ids": ["r1"]},
                 {"phrase_id": "p2", "start": 3, "end": 5, "region_ids": ["r2", "r3"]}]},
    {"image_id": "img2", "sentence_id": "c2", "tokens": ["two", "dogs", "near", "trees"],
     "phrases": [{"phrase_id": "p1", "start": 0, "end": 2, "region_ids": ["r1", "r2"]},
                 {"phrase_id": "p2", "start": 3, "end": 4, "region_ids": ["r3", "r4"]}]},
]


class Block(NamedTuple):
    section: str  # the "## " heading it sits under
    lead: str  # the bold lead of the last paragraph before it in its section, or ""
    lang: str
    text: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.section, self.lead, self.lang)


def readme_blocks() -> list[Block]:
    """Every fenced block of the README, in order."""
    blocks: list[Block] = []
    section = lead = ""
    fence: tuple[str, list[str]] | None = None
    for line in README.read_text(encoding="utf-8").splitlines(keepends=True):
        if fence is not None:
            if line.rstrip("\n") == "```":
                blocks.append(Block(section, lead, fence[0], "".join(fence[1])))
                fence = None
            else:
                fence[1].append(line)
        elif line.startswith("```"):
            fence = (line[3:].strip(), [])
        elif line.startswith("## "):
            section, lead = line[3:].strip(), ""
        elif match := re.match(r"\*\*(.+?)\*\*", line):
            lead = match[1]
    assert fence is None, "an unclosed fenced block"
    return blocks


def block(section: str, lang: str, lead: str = "") -> Block:
    (found,) = [b for b in readme_blocks() if b.key == (section, lead, lang)]
    return found


def substitutions() -> list[tuple[str, str]]:
    """The rows of the README's table of what the tests change in its commands."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| in the README | in the tests |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$", table, flags=re.MULTILINE)
    assert len(rows) == len(table.splitlines())
    return rows


def commands(section: str) -> list[list[str]]:
    """The argv after ``structprobe`` of each command of a section's ``sh`` block.

    Lines continued by ``\\`` are joined and comments dropped; the substitution table is the
    only change.
    """
    text = block(section, "sh").text.replace("\\\n", " ")
    for old, new in substitutions():
        text = text.replace(old, new)
    argvs = []
    for line in text.splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "structprobe", line
            argvs.append(words[1:])
    return argvs


def run(argv: list[str]) -> None:
    """Run one command: it exits 0 and writes each file it names, none of which was there."""
    args = build_parser().parse_args(argv)
    outputs = [Path(path) for path in (getattr(args, name) for name in OUTPUTS[args.command])
               if path is not None]
    if args.command == "grid":
        outputs.append(grid.load_manifest(args.manifest).out_dir / "report.tsv")
    assert not [path for path in outputs if path.exists()]
    assert main(argv) == 0, argv
    assert [path for path in outputs if not path.is_file()] == []


def write_splits(emb_labels: dict[str, str]) -> None:
    """Each embeddings file with ``synth``, paired with its labels file.

    Files paired with one labels file come from one seed, so their labels are one; each
    embeddings file takes its own noise.
    """
    seeds = {labels: seed for seed, labels in enumerate(dict.fromkeys(emb_labels.values()))}
    Path("synth").mkdir()
    for i, (emb, labels) in enumerate(emb_labels.items()):
        out_labels = Path("synth") / emb if Path(labels).exists() else labels
        assert main(["--quiet", "synth", "--n-trees", "24", "--max-n", "12", "--extra-dims", "4",
                     "--noise", f"{0.1 * (i + 1):.1f}", "--seed", str(seeds[labels]),
                     "--out-labels", str(out_labels), "--out-emb", emb]) == 0


def sweep_splits(argv: list[str]) -> dict[str, str]:
    args = build_parser().parse_args(argv)
    return {args.emb: args.labels, args.val_emb: args.val_labels}


def test_every_fenced_block_is_run_or_says_why_not():
    keys = [b.key for b in readme_blocks()]
    assert len(keys) == len(set(keys))  # a second block of one kind would go unrun
    run_here = {(QUICK_START, "", "sh"), (REAL_DATA, "", "sh"), (REAL_DATA, "", "python")}
    run_here |= {(FILE_FORMATS, lead, "json") for lead in FORMAT_CHECKS}
    assert set(keys) == run_here | set(NOT_RUN)
    prose = " ".join(README.read_text(encoding="utf-8").split())
    for (section, _, _), reason in NOT_RUN.items():
        assert f'The "{section}" block is not run: {reason}.' in prose


def test_every_substitution_changes_a_command():
    text = "".join(block(s, "sh").text.replace("\\\n", " ") for s in (QUICK_START, REAL_DATA))
    assert substitutions()
    for old, new in substitutions():
        assert old in text and new not in text


def test_the_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in commands(QUICK_START):
        run(argv)


def test_real_data_runs_on_the_inputs_it_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argvs = commands(REAL_DATA)
    Path("corpus.conll").write_text(CORPUS, encoding="utf-8")
    Path("captions.conll").write_text(CAPTIONS, encoding="utf-8")
    Path("grounding.jsonl").write_text("".join(json.dumps(rec) + "\n" for rec in GROUNDING))
    manifest = block(FILE_FORMATS, "json", "Manifest").text
    Path("manifest.json").write_text(manifest, encoding="utf-8")
    doc = json.loads(manifest)
    (sweep,) = [argv for argv in argvs if argv[0] == "sweep"]
    emb_labels = sweep_splits(sweep)
    for cell in doc["layers"] + doc["baselines"]:
        emb_labels.update((cell[f"{s}_emb"], doc[f"{s}_labels"]) for s in grid.SPLITS)
    write_splits(emb_labels)
    for argv in argvs:
        run(argv)


def test_the_rank_cells_loop_writes_what_sweep_writes(tmp_path, monkeypatch):
    # "`sweep` is this loop, with `eval` = `val`"
    monkeypatch.chdir(tmp_path)
    (sweep,) = [argv for argv in commands(REAL_DATA) if argv[0] == "sweep"]
    write_splits(sweep_splits(sweep))
    run(sweep)
    args = build_parser().parse_args(sweep)
    labels = grid.read_split_labels({"train": args.labels, "val": args.val_labels})
    splits = grid.load_splits(labels, {"train": args.emb, "val": args.val_emb})
    (layer,) = {seq.layer for _, seq in splits["train"]}
    cfg = TrainConfig(batch_size=args.batch, max_epochs=args.epochs, patience=args.patience,
                      lr=args.lr, seed=args.seed)
    bound = {"task": args.task, "train": splits["train"], "val": splits["val"], "cfg": cfg,
             "ranks": json.loads(f"[{args.ranks}]"), "layer": layer}
    (tmp_path / "loop").mkdir()
    monkeypatch.chdir(tmp_path / "loop")
    exec(block(REAL_DATA, "python").text, bound)
    assert Path("sweep.tsv").read_bytes() == (tmp_path / args.out).read_bytes()


def check_labels(path: Path) -> None:
    records = read_labels(path)
    assert [(r.id, r.root, r.excluded) for r in records] == [("s0", 0, ()), ("s1", 1, (2,))]


def check_embeddings(path: Path) -> None:
    (seq,) = read_embeddings(path)
    assert (seq.id, seq.layer, seq.values.shape) == ("s0", 7, (3, 768))
    assert not seq.values.any()


def check_grounding(path: Path) -> None:
    (caption,) = read_grounding(path)
    assert (caption.sentence_id, caption.tokens) == ("s0", ("a", "man"))
    assert [(p.phrase_id, p.region_ids) for p in caption.phrases] == [("p1", ("r3",))]


def check_manifest(path: Path) -> None:
    manifest = grid.load_manifest(path)
    assert (manifest.task, manifest.ranks, manifest.train.seed) == ("distance", (128,), 1)
    assert [cell.tag for cell in manifest.cells] == [0, "baseline"]
    assert manifest.out_dir == path.parent / "out"


# each "File formats" example, by its paragraph's bold lead, read by the package's reader
FORMAT_CHECKS = {
    "Labels": check_labels,
    "Embeddings (EMB-JSONL)": check_embeddings,
    "Grounding": check_grounding,
    "Manifest": check_manifest,
}


@pytest.mark.parametrize("lead", FORMAT_CHECKS)
def test_each_file_format_example_reads_back(tmp_path, lead):
    text = block(FILE_FORMATS, "json", lead).text
    if "<base64>" in text:  # the README's stand-in: the payload of n*m float32 zeros
        header = json.loads(text)
        zeros = bytes(4 * header["n"] * header["m"])
        text = text.replace("<base64>", base64.b64encode(zeros).decode("ascii"))
    path = tmp_path / "example"
    path.write_text(text, encoding="utf-8")
    FORMAT_CHECKS[lead](path)
