"""Command-line interface.

Subcommands: build-labels, scene-tree, synth, train, sweep, eval, grid,
chart. Exit codes: 0 success, 1 usage or validation problem, 2 data
problem or a failed grid cell, 3 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import chart as chart_mod
from . import grid as grid_mod
from .embed_io import read_embeddings, write_embeddings
from .errors import DataError, StructProbeError, ValidationError
from .io_utils import atomic_write_text
from .metrics import (
    evaluate_probe,
    read_report_tsv,
    write_report_json,
    write_report_tsv,
)
from .probe import TASKS, TrainConfig, load_probe, pair_records, save_probe, train_probe
from .scenetree import (
    construct_scene_tree,
    overlapping_phrase_pairs,
    read_grounding,
    region_sequence,
    scene_record_extra,
    visual_labels,
)
from .synth import oracle_dataset
from .trees import labels_record, read_conllu, read_labels, tree_labels, write_labels

log = logging.getLogger("structprobe")


class CliParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sentence_ids(trees) -> list[str]:
    return [t.sent_id if t.sent_id is not None else f"s{i}" for i, t in enumerate(trees)]


def cmd_build_labels(args) -> int:
    trees = read_conllu(args.conll)
    ids = _sentence_ids(trees)
    write_labels((tree_labels(t, sid) for t, sid in zip(trees, ids)), args.out)
    log.info("wrote %d label records to %s", len(trees), args.out)
    return 0


def cmd_scene_tree(args) -> int:
    trees = read_conllu(args.conll)
    captions = list(read_grounding(args.grounding))
    if len(trees) != len(captions):
        raise DataError(
            f"{args.conll} has {len(trees)} sentences but {args.grounding} has "
            f"{len(captions)} caption records (the files pair by order)"
        )
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
    atomic_write_text(args.out, "".join(line + "\n" for line in lines))
    if flagged:
        log.warning("%d caption(s) have overlapping phrase spans", len(flagged))
    if args.report:
        atomic_write_text(
            args.report,
            json.dumps({"overlapping_spans": flagged}, separators=(",", ":")) + "\n",
        )
    log.info("wrote %d scene records to %s", len(lines), args.out)
    return 0


def _effective_seed(args, default: int) -> int:
    local = getattr(args, "seed", None)
    if local is not None:
        return local
    if args.global_seed is not None:
        return args.global_seed
    return default


def cmd_synth(args) -> int:
    try:
        data = oracle_dataset(
            n_trees=args.n_trees,
            min_n=args.min_n,
            max_n=args.max_n,
            extra_dims=args.extra_dims,
            noise_sigma=args.noise,
            seed=_effective_seed(args, 7),
            layer=args.layer,
        )
    except ValueError as exc:
        raise ValidationError(f"bad synth options: {exc}") from exc
    write_labels(data.labels, args.out_labels)
    write_embeddings(data.embeddings, args.out_emb)
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
            rank=args.rank,
            lr=args.lr,
            optimizer=args.optimizer,
            seed=_effective_seed(args, TrainConfig.seed),
        )
    except ValueError as exc:
        raise ValidationError(f"bad training options: {exc}") from exc


def _load_pairs(labels_path, emb_path):
    labels = read_labels(labels_path)
    # decoded first: a bad line's file:line message is not prefixed again
    embeddings = list(read_embeddings(emb_path))
    try:
        return pair_records(labels, embeddings)
    except DataError as exc:
        raise DataError(f"{emb_path}: {exc}") from exc


def _emb_layer_tag(pairs):
    layers = {seq.layer for _, seq in pairs}
    return layers.pop() if len(layers) == 1 else None


def cmd_train(args) -> int:
    cfg = _train_config(args)
    train_pairs = _load_pairs(args.labels, args.emb)
    val_pairs = _load_pairs(args.val_labels, args.val_emb)
    probe = train_probe(args.task, train_pairs, val_pairs, cfg, layer=_emb_layer_tag(train_pairs))
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
    # each entry is a JSON integer, as in a grid manifest; TrainConfig's own
    # rule checks each rank, before any input is read
    try:
        ranks = [json.loads(r) for r in args.ranks.split(",") if r.strip()]
        for rank in ranks:
            dataclasses.replace(cfg, rank=rank)
    except ValueError as exc:
        raise ValidationError(
            f"bad --ranks {args.ranks!r}: not JSON integers of at least 1: {exc}"
        ) from exc
    if not ranks:
        raise ValidationError(f"--ranks {args.ranks!r} names no rank")
    train_pairs = _load_pairs(args.labels, args.emb)
    val_pairs = _load_pairs(args.val_labels, args.val_emb)
    layer = _emb_layer_tag(train_pairs)
    reports = grid_mod.sweep_reports(ranks, train_pairs, val_pairs, cfg, args.task, layer)
    write_report_tsv([row for report in reports for row in report.tsv_rows()], args.out)
    log.info("swept ranks %s -> %s", ranks, args.out)
    return 0


def cmd_eval(args) -> int:
    probe = load_probe(args.probe)
    excluded = None
    if args.exclude_deprels:
        if probe.task != "distance":
            raise ValidationError(f"--exclude-deprels needs a distance probe, not {probe.task}")
        if not args.conll:
            raise ValidationError("--exclude-deprels needs --conll to supply relation labels")
        wanted = {r.strip() for r in args.exclude_deprels.split(",") if r.strip()}
        trees = read_conllu(args.conll)
        ids = _sentence_ids(trees)
        excluded = {
            sid: [i for i, rel in enumerate(tree.deprels or ()) if rel in wanted]
            for tree, sid in zip(trees, ids)
        }
    pairs = _load_pairs(args.labels, args.emb)
    report = evaluate_probe(
        probe,
        pairs,
        tag=probe.meta.get("layer"),
        excluded_tokens=excluded,
        dspr_mode=args.dspr_mode,
    )
    write_report_tsv(report.tsv_rows(), args.out)
    if args.json:
        write_report_json(report, args.json)
    for metric in sorted(report.aggregates):
        value = report.aggregates[metric]
        log.info("%s = %s", metric, "absent" if value is None else f"{value:.4f}")
    return 0


def cmd_grid(args) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
    out_dir = os.environ.get("STRUCTPROBE_OUT_DIR")
    manifest = grid_mod.load_manifest(args.manifest, out_dir_override=out_dir)
    if args.global_seed is not None:
        try:
            train = dataclasses.replace(manifest.train, seed=args.global_seed)
        except ValueError as exc:
            raise ValidationError(f"bad --seed: {exc}") from exc
        manifest = dataclasses.replace(manifest, train=train)
    reports, failures = grid_mod.run_layer_grid(manifest, jobs=args.jobs)
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
    p.add_argument("--rank", type=int, default=TrainConfig.rank)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--optimizer", choices=["adam", "sgd"], default=TrainConfig.optimizer)
    p.add_argument("--seed", type=int, default=None, help="wins over the global --seed")


def build_parser() -> CliParser:
    parser = CliParser(prog="structprobe", description=__doc__)
    parser.add_argument("--quiet", action="store_true", help="only warnings and errors")
    parser.add_argument("--jobs", type=int, default=1, help="number of grid layers trained at once")
    parser.add_argument(
        "--seed",
        dest="global_seed",
        type=int,
        default=None,
        help="seed of any subcommand not given its own --seed; replaces a grid manifest's seed",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CliParser)

    p = sub.add_parser("build-labels", help="gold labels from CoNLL")
    p.add_argument("--conll", required=True)
    p.add_argument("--out", required=True)
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
    p.add_argument("--seed", type=int, default=None, help="wins over the global --seed")
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--out-labels", required=True)
    p.add_argument("--out-emb", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one probe")
    _add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="train probes across ranks")
    _add_train_flags(p)
    p.add_argument("--ranks", required=True, help="comma-separated JSON integer ranks")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a saved probe")
    p.add_argument("--probe", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", default=None, help="also write per-sequence detail JSON")
    p.add_argument(
        "--exclude-deprels",
        default=None,
        help="comma-separated relation labels to drop from attachment scoring",
    )
    p.add_argument("--conll", default=None, help="source of relation labels for exclusion")
    p.add_argument("--dspr-mode", choices=["rows", "matrix"], default="rows")
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
