"""Property tests of the report aggregates and of visual UUAS."""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structprobe import metrics
from structprobe.embed_io import EmbeddingSequence
from structprobe.metrics import (
    distance_sequence_score,
    evaluate_probe,
    length_binned_spearman,
    uuas_counts,
)
from structprobe.probe import Probe, identity_probe, predict_distances
from structprobe.scenetree import (
    PhraseAnnotation,
    construct_scene_tree,
    region_sequence,
    visual_labels,
)
from structprobe.synth import oracle_dataset, random_tree
from structprobe.trees import ROOT, DepTree, TreeLabels, labels_record, tree_labels

LABELS = {n: tree_labels(random_tree(n, n), f"s{n}") for n in range(1, 61)}
SCORE = st.none() | st.floats(-1.0, 1.0)
# one sequence: its length, its drawn correlation, whether its labels have a
# root, and two edge counts whose smaller is read as recovered, larger as gold
EDGES = st.integers(0, 5)
SEQUENCE = st.tuples(st.integers(1, 60), SCORE, st.booleans(), EDGES, EDGES)


@settings(max_examples=150, deadline=None)
@given(
    task=st.sampled_from(["distance", "depth"]),
    seqs=st.lists(SEQUENCE, min_size=1, max_size=30),
)
def test_correlation_aggregate_and_count_follow_the_length_window(task, seqs):
    lengths = [n for n, *_ in seqs]
    scores = [s for _, s, *_ in seqs]
    pairs = [
        (
            LABELS[n] if rooted else dataclasses.replace(LABELS[n], root=None),
            EmbeddingSequence(id=f"s{n}", layer=0, values=np.zeros((n, 1))),
        )
        for n, _, rooted, *_ in seqs
    ]
    # evaluate_probe scores each sequence by the next drawn score and edge counts
    drawn = iter(scores)
    edges = iter([(min(a, b), max(a, b)) for *_, a, b in seqs])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "spearman", lambda pred, gold: next(drawn))
        mp.setattr(metrics, "distance_sequence_score", lambda pred, gold: (next(drawn), 0))
        mp.setattr(metrics, "uuas_counts", lambda pred, gold: next(edges))
        report = evaluate_probe(identity_probe(task, 1), pairs)
    corr = "dspr" if task == "distance" else "nspr"
    records = report.records
    assert [(r["n"], r[corr]) for r in records] == list(zip(lengths, scores))
    aggregate = report.aggregates[corr]
    assert aggregate == length_binned_spearman(scores, lengths)

    # every aggregate and count follows from the records alone, by the README rules
    by_length: dict[int, list[float]] = {}
    for r in records:
        if r[corr] is not None and 5 <= r["n"] <= 50:
            by_length.setdefault(r["n"], []).append(r[corr])
    assert report.counters[f"n_{corr}"] == sum(map(len, by_length.values()))
    if not by_length:
        assert aggregate is None
    else:
        means = [statistics.fmean(v) for v in by_length.values()]
        assert aggregate == pytest.approx(statistics.fmean(means), rel=1e-12, abs=1e-12)
    if task == "distance":
        total = sum(r["uuas_total"] for r in records)
        correct = sum(r["uuas_correct"] for r in records)
        assert report.aggregates["uuas"] == (correct / total if total else None)
        assert report.counters["n_uuas"] == sum(1 for r in records if r["uuas_total"])
    else:
        has_root = [rooted for _, _, rooted, *_ in seqs]
        assert [r["root_correct"] is not None for r in records] == has_root
        hits = [r["root_correct"] for r in records if r["root_correct"] is not None]
        assert report.aggregates["root_acc"] == (statistics.fmean(hits) if hits else None)
        assert report.counters["n_root_acc"] == len(hits)


REGIONS = [f"r{i}" for i in range(6)]


@st.composite
def captions(draw):
    """A random dependency tree and grounded phrases over it.

    Spans may nest or overlap, a phrase may name several regions, and a
    region may be named by several phrases.
    """
    n = draw(st.integers(2, 12))
    tree = random_tree(n, draw(st.integers(0, 2**32 - 1)))
    phrases = []
    for k in range(draw(st.integers(1, 5))):
        start = draw(st.integers(0, n - 1))
        end = draw(st.integers(start + 1, n))
        named = draw(st.lists(st.sampled_from(REGIONS), min_size=1, max_size=3, unique=True))
        phrases.append(PhraseAnnotation(f"p{k}", start, end, tuple(named)))
    return tree, phrases


# "two dogs chase a ball", with "two dogs" naming r1 and r2: one scene node, two regions
TWO_DOGS = (
    DepTree(tokens=("two", "dogs", "chase", "a", "ball"), heads=(1, 2, ROOT, 4, 2)),
    [PhraseAnnotation("p1", 0, 2, ("r1", "r2")), PhraseAnnotation("p2", 3, 5, ("r3",))],
)


@settings(max_examples=200, deadline=None)
@given(captions())
@example(TWO_DOGS)
def test_visual_gold_distances_score_uuas_and_dspr_one(caption):
    tree, phrases = caption
    scene = construct_scene_tree(tree, phrases, "img")
    labels = visual_labels(scene, region_sequence(phrases), "v")
    gold = labels.distances.astype(np.float64)
    correct, total = uuas_counts(gold, labels)
    assert correct == total
    score, _ = distance_sequence_score(gold, gold)
    assert score is None or score == pytest.approx(1.0, abs=1e-12)


# noisy oracle sequences of 2 to 20 tokens, some outside the 5-50 length window,
# for relations between reports of one random probe that need no training
NOISY_DATA = oracle_dataset(120, 2, 20, extra_dims=4, noise_sigma=0.3, seed=5)
NOISY = NOISY_DATA.pairs()
# NOISY's trees with a deprel per token: "root" for the root, one of DEPRELS for any other
DEPRELS = ("det", "punct", "nsubj", "obj")
NOISY_TREES = [
    dataclasses.replace(t, deprels=["root" if i == t.root else DEPRELS[i % 4] for i in range(t.n)])
    for t in NOISY_DATA.trees
]
PROBES = st.tuples(
    st.sampled_from(["distance", "depth"]), st.integers(1, 8), st.integers(0, 2**32 - 1)
)


@settings(max_examples=25, deadline=None)
@given(spec=PROBES, k=st.integers(-20, 20))
def test_a_power_of_two_in_the_transform_or_moved_into_the_embeddings_changes_no_report_value(
    spec, k
):
    task, rank, seed = spec
    transform = np.random.default_rng(seed).normal(size=(rank, NOISY[0][1].m))
    report = evaluate_probe(Probe(task, transform), NOISY)
    scaled = evaluate_probe(Probe(task, transform * 2.0**k), NOISY)
    moved = evaluate_probe(
        Probe(task, transform * 2.0**-k),
        [(lab, dataclasses.replace(seq, values=seq.values * np.float32(2.0**k)))
         for lab, seq in NOISY],
    )
    for other in (scaled, moved):
        assert other.records == report.records
        assert other.aggregates == report.aggregates
        assert other.counters == report.counters


@settings(max_examples=25, deadline=None)
@given(spec=PROBES, order=st.permutations(range(len(NOISY))))
def test_permuting_the_dataset_permutes_the_records_and_keeps_every_aggregate(spec, order):
    task, rank, seed = spec
    probe = Probe(task, np.random.default_rng(seed).normal(size=(rank, NOISY[0][1].m)))
    report = evaluate_probe(probe, NOISY)
    permuted = evaluate_probe(probe, [NOISY[i] for i in order])
    assert permuted.records == [report.records[i] for i in order]
    assert permuted.counters == report.counters
    corr = "dspr" if task == "distance" else "nspr"
    assert permuted.aggregates.keys() == report.aggregates.keys()
    for metric, value in report.aggregates.items():
        if metric == corr and value is not None:
            # the length bins' means are summed in another order
            assert abs(permuted.aggregates[metric] - value) <= 1e-12
        else:
            assert permuted.aggregates[metric] == value


@settings(max_examples=25, deadline=None)
@given(rank=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), at=st.integers(0, len(NOISY) - 1),
       data=st.data())
def test_permuting_one_sequences_nodes_keeps_its_dspr_and_its_untied_uuas(rank, seed, at, data):
    labels, seq = NOISY[at]
    order = data.draw(st.permutations(range(labels.n)))
    permuted = (
        TreeLabels(labels.id, labels.distances[np.ix_(order, order)], labels.depths[order],
                   order.index(labels.root)),
        dataclasses.replace(seq, values=seq.values[order]),
    )
    probe = Probe("distance", np.random.default_rng(seed).normal(size=(rank, seq.m)))
    (record,) = evaluate_probe(probe, [(labels, seq)]).records
    (moved,) = evaluate_probe(probe, [permuted]).records
    if record["dspr"] is None:
        assert moved["dspr"] is None
    else:
        assert abs(moved["dspr"] - record["dspr"]) <= 1e-12
    upper = np.triu_indices(labels.n, k=1)
    pred = predict_distances(probe, seq)[upper]
    if np.unique(pred).size == pred.size and labels.distances[upper].all():
        assert moved["uuas_correct"] == record["uuas_correct"]
        assert moved["uuas_total"] == record["uuas_total"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-3, 3), max_size=60)
    | st.lists(st.floats(allow_nan=False), max_size=60)
)
@example([])
@example([2, 2, 2])
@example([0.0, -0.0, 1.0])
def test_average_ranks_are_scipy_rankdata_average(values):
    from scipy.stats import rankdata  # the test oracle; src/ never imports scipy

    got = metrics.average_ranks(values)
    assert got.dtype == np.float64
    assert got.tolist() == rankdata(values, method="average").tolist()


def same_report(a, b) -> bool:
    return (a.records, a.aggregates, a.counters) == (b.records, b.aggregates, b.counters)


@settings(max_examples=25, deadline=None)
@given(spec=PROBES, unmatched=st.lists(st.sampled_from(["amod", "PUNCT", "det ", ""]), max_size=3))
def test_excluding_nothing_changes_no_labels_byte_and_no_report(spec, unmatched):
    task, rank, seed = spec
    probe = Probe(task, np.random.default_rng(seed).normal(size=(rank, NOISY[0][1].m)))
    # deprels that no token has, and an empty list as a labels file may hold it
    derived = [tree_labels(t, lab.id, unmatched) for t, (lab, _) in zip(NOISY_TREES, NOISY)]
    read = [dataclasses.replace(lab, excluded=[]) for lab, _ in NOISY]
    report = evaluate_probe(probe, NOISY)
    for labels in (derived, read):
        assert all(lab.excluded == () for lab in labels)
        assert [labels_record(lab) for lab in labels] == [labels_record(lab) for lab, _ in NOISY]
        other = evaluate_probe(probe, [(lab, seq) for lab, (_, seq) in zip(labels, NOISY)])
        assert same_report(other, report)
        assert other.tsv_rows() == report.tsv_rows()


@settings(max_examples=100, deadline=None)
@given(at=st.integers(0, len(NOISY) - 1), data=st.data())
def test_excluding_every_token_but_the_root_gives_root_accuracy_one_for_any_prediction(at, data):
    tree = NOISY_TREES[at]
    labels = tree_labels(tree, "s", DEPRELS)
    assert labels.excluded == tuple(i for i in range(tree.n) if i != tree.root)
    # predicted depths with ties and with the root's the largest; a one-column
    # identity depth probe predicts h**2 for a row h
    predicted = data.draw(st.lists(st.sampled_from([0.0, 1.0, 4.0, 9.0]) | st.floats(0, 1e6),
                                   min_size=tree.n, max_size=tree.n))
    seq = EmbeddingSequence(id="s", layer=0, values=np.sqrt(np.array(predicted))[:, None])
    report = evaluate_probe(identity_probe("depth", 1), [(labels, seq)])
    assert report.aggregates["root_acc"] == 1.0 and report.counters["n_root_acc"] == 1


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 14), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_uuas_with_exclusions_is_uuas_of_the_matrices_restricted_to_the_kept_tokens(n, seed, data):
    full = tree_labels(random_tree(n, seed), "s")
    others = [i for i in range(n) if i != full.root]
    excluded = sorted(data.draw(st.sets(st.sampled_from(others)))) if others else []
    labels = dataclasses.replace(full, excluded=excluded)
    # small integer weights, so the spanning tree meets ties
    weights = np.random.default_rng(seed).integers(0, 4, size=(n, n)).astype(np.float64)
    pred = weights + weights.T
    np.fill_diagonal(pred, 0.0)
    kept = [i for i in range(n) if i not in excluded]
    restricted = TreeLabels(
        "s", full.distances[np.ix_(kept, kept)], full.depths[kept], kept.index(full.root)
    )
    assert uuas_counts(pred, labels) == uuas_counts(pred[np.ix_(kept, kept)], restricted)
