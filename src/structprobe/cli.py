"""Command-line interface.

Subcommands: build-labels, scene-tree, synth, train, sweep, eval, grid,
chart. Exit codes: 0 success, 1 usage or validation problem, 2 data
problem or a failed grid cell, 3 training divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import chart as chart_mod
from . import grid as grid_mod
from .embed_io import write_embeddings
from .errors import DataError, StructProbeError, ValidationError
from .io_utils import atomic_write_text, index_ids, write_outputs
from .metrics import (
    check_layer_tag,
    evaluate_probe,
    read_report_tsv,
    write_report_json,
    write_report_tsv,
)
from .probe import TASKS, TrainConfig, embedding_width, load_probe, save_probe, train_probe
from .scenetree import (
    construct_scene_tree,
    overlapping_phrase_pairs,
    read_grounding,
    region_sequence,
    scene_record_extra,
    visual_labels,
)
from .synth import oracle_dataset
from .trees import labels_record, read_conllu, tree_labels, write_labels

log = logging.getLogger("structprobe")


class CliParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def cmd_build_labels(args) -> int:
    trees = read_conllu(args.conll)
    ids = (t.sent_id if t.sent_id is not None else f"s{i}" for i, t in enumerate(trees))
    tree_of = index_ids(zip(ids, trees), "sentence", args.conll)
    wanted = [r.strip() for r in args.exclude_deprels.split(",") if r.strip()]

    def all_labels():
        for sid, tree in tree_of.items():
            try:
                labels = tree_labels(tree, sid, wanted)
            except ValueError as exc:  # a deprel that would exclude the root
                raise ValidationError(f"{args.conll}: sentence {sid!r}: {exc}") from exc
            yield labels

    write_labels(all_labels(), args.out)
    log.info("wrote %d label records to %s", len(tree_of), args.out)
    return 0


def cmd_scene_tree(args) -> int:
    trees = read_conllu(args.conll)
    captions = list(read_grounding(args.grounding))
    if len(trees) != len(captions):
        raise DataError(
            f"{args.conll} has {len(trees)} sentence(s) but {args.grounding} has "
            f"{len(captions)} caption record(s) (the files pair by order)"
        )
    index_ids(((cap.sentence_id, cap) for cap in captions), "sentence", args.grounding)
    flagged = []
    lines = []
    for tree, cap in zip(trees, captions):
        if tuple(tree.tokens) != cap.tokens:
            raise DataError(
                f"caption {cap.sentence_id}: tokens differ between the tree and "
                "the grounding record"
            )
        overlaps = overlapping_phrase_pairs(cap.phrases)
        if overlaps:
            flagged.append({"sentence_id": cap.sentence_id, "overlapping_phrases": overlaps})
        scene = construct_scene_tree(tree, cap.phrases, cap.image_id)
        labels = visual_labels(scene, region_sequence(cap.phrases), cap.sentence_id)
        lines.append(labels_record(labels, extra=scene_record_extra(scene)))
    records = "".join(line + "\n" for line in lines)
    report = json.dumps({"overlapping_spans": flagged}, separators=(",", ":")) + "\n"
    write_outputs(
        (args.out, lambda path: atomic_write_text(path, records)),
        (args.report, lambda path: atomic_write_text(path, report)),
    )
    if flagged:
        log.warning("%d caption(s) have overlapping phrase spans", len(flagged))
    log.info("wrote %d scene records to %s", len(lines), args.out)
    return 0


def cmd_synth(args) -> int:
    try:
        data = oracle_dataset(
            n_trees=args.n_trees,
            min_n=args.min_n,
            max_n=args.max_n,
            extra_dims=args.extra_dims,
            noise_sigma=args.noise,
            seed=args.seed,
            layer=args.layer,
        )
    except ValueError as exc:
        raise ValidationError(f"bad synth options: {exc}") from exc
    write_outputs(
        (args.out_labels, lambda path: write_labels(data.labels, path)),
        (args.out_emb, lambda path: write_embeddings(data.embeddings, path)),
    )
    log.info(
        "wrote %d synthetic trees (labels: %s, embeddings: %s)",
        args.n_trees,
        args.out_labels,
        args.out_emb,
    )
    return 0


def _train_config(args) -> TrainConfig:
    try:
        return TrainConfig(
            batch_size=args.batch,
            max_epochs=args.epochs,
            patience=args.patience,
            rank=getattr(args, "rank", TrainConfig.rank),  # sweep has --ranks instead
            lr=args.lr,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ValidationError(f"bad training options: {exc}") from exc


def _emb_layer_tag(splits):
    layers = {seq.layer for _, seq in splits["train"]}
    return layers.pop() if len(layers) == 1 else None


def cmd_train(args) -> int:
    cfg = _train_config(args)
    labels = grid_mod.read_split_labels({"train": args.labels, "val": args.val_labels})
    splits = grid_mod.load_splits(labels, {"train": args.emb, "val": args.val_emb}, embedding_width)
    probe = train_probe(args.task, splits["train"], splits["val"], cfg, _emb_layer_tag(splits))
    save_probe(probe, args.out)
    log.info(
        "trained %s probe (rank %d) for %d epochs; best val loss %.6f -> %s",
        args.task,
        cfg.rank,
        probe.meta["epochs_run"],
        probe.meta["val_loss"],
        args.out,
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = _train_config(args)
    # the items of a JSON list, under a grid manifest's rule for its ranks
    try:
        ranks = grid_mod.rank_list(json.loads(f"[{args.ranks}]"))
    except ValueError as exc:
        raise ValidationError(f"bad --ranks {args.ranks!r}: {exc}") from exc
    labels = grid_mod.read_split_labels({"train": args.labels, "val": args.val_labels})
    splits = grid_mod.load_splits(labels, {"train": args.emb, "val": args.val_emb}, embedding_width)
    splits["eval"] = splits["val"]
    layer = _emb_layer_tag(splits)
    rows = []
    for _, probe, outcome in grid_mod.rank_cells(args.task, splits, cfg, ranks, layer):
        if probe is None:  # the first error ends the sweep: later ranks never train
            raise outcome
        outcome.aggregates["val_loss"] = probe.meta["val_loss"]
        outcome.counters["n_val_loss"] = len(splits["val"])
        rows += outcome.tsv_rows()
    write_report_tsv(rows, args.out)
    log.info("swept ranks %s -> %s", ranks, args.out)
    return 0


def cmd_eval(args) -> int:
    probe = load_probe(args.probe)
    layer = probe.meta.get("layer")
    if layer is not None:
        try:
            check_layer_tag(layer)
        except ValueError as exc:
            raise DataError(f"{args.probe}: bad probe file: {exc}") from exc

    def check_width(splits):
        m = next((head.m for _, head in splits["eval"] if head.m != probe.m), probe.m)
        if m != probe.m:
            raise DataError(
                f"{args.probe}: probe width {probe.m} does not match {args.emb} width {m}"
            )

    labels = grid_mod.read_split_labels({"eval": args.labels})
    splits = grid_mod.load_splits(labels, {"eval": args.emb}, check_width)
    report = evaluate_probe(probe, splits["eval"])
    write_outputs(
        (args.out, lambda path: write_report_tsv(report.tsv_rows(), path)),
        (args.json, lambda path: write_report_json(report, path)),
    )
    for metric in sorted(report.aggregates):
        value = report.aggregates[metric]
        log.info("%s = %s", metric, "absent" if value is None else f"{value:.4f}")
    return 0


def cmd_grid(args) -> int:
    manifest = grid_mod.load_manifest(args.manifest)
    reports, failures = grid_mod.run_layer_grid(manifest)
    log.info(
        "grid finished: %d cell(s) succeeded, %d failed; outputs in %s",
        len(reports),
        len(failures),
        manifest.out_dir,
    )
    return 2 if failures else 0


def cmd_chart(args) -> int:
    rows = read_report_tsv(args.report)
    chart_mod.emit_chart(rows, args.metric, args.out, title=args.title)
    log.info("wrote %s", args.out)
    return 0


def _add_train_flags(p: CliParser) -> None:
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--labels", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--val-labels", required=True)
    p.add_argument("--val-emb", required=True)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)


def build_parser() -> CliParser:
    parser = CliParser(prog="structprobe", description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="only warnings and errors")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)

    p = sub.add_parser("build-labels", help="gold labels from CoNLL")
    p.add_argument("--conll", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--exclude-deprels", default="", help="comma-separated DEPRELs to leave out")
    p.set_defaults(func=cmd_build_labels)

    p = sub.add_parser("scene-tree", help="scene trees and visual labels")
    p.add_argument("--conll", required=True)
    p.add_argument("--grounding", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="write span-overlap report JSON here")
    p.set_defaults(func=cmd_scene_tree)

    p = sub.add_parser("synth", help="synthetic oracle data")
    p.add_argument("--n-trees", type=int, default=500)
    p.add_argument("--min-n", type=int, default=5)
    p.add_argument("--max-n", type=int, default=50)
    p.add_argument("--extra-dims", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--out-emb", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one probe")
    _add_train_flags(p)
    p.add_argument("--rank", type=int, default=TrainConfig.rank)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    # no prefix matching, so a --rank is an unknown option and not --ranks
    p = sub.add_parser("sweep", help="train probes across ranks", allow_abbrev=False)
    _add_train_flags(p)
    p.add_argument("--ranks", required=True, help="comma-separated distinct JSON integer ranks")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a saved probe")
    p.add_argument("--probe", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", default=None, help="also write per-sequence detail JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="run a manifest of cells")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("chart", help="SVG chart from a report TSV")
    p.add_argument("--report", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--title", default=None)
    p.set_defaults(func=cmd_chart)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except StructProbeError as exc:
        print(f"structprobe: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"structprobe: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
