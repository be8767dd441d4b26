"""Property tests of the length window that DSpr and NSpr average over."""

from __future__ import annotations

import statistics

import pytest

pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from structprobe import metrics
from structprobe.embed_io import EmbeddingSequence
from structprobe.metrics import evaluate_probe, length_binned_spearman
from structprobe.probe import identity_probe
from structprobe.synth import random_tree
from structprobe.trees import tree_labels

LABELS = {n: tree_labels(random_tree(n, n), f"s{n}") for n in range(1, 61)}
SCORE = st.none() | st.floats(-1.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    task=st.sampled_from(["distance", "depth"]),
    seqs=st.lists(st.tuples(st.integers(1, 60), SCORE), min_size=1, max_size=30),
)
def test_correlation_aggregate_and_count_follow_the_length_window(task, seqs):
    lengths = [n for n, _ in seqs]
    scores = [s for _, s in seqs]
    pairs = [
        (LABELS[n], EmbeddingSequence(id=f"s{n}", layer=0, values=np.zeros((n, 1))))
        for n in lengths
    ]
    # evaluate_probe scores each sequence by the next drawn score
    drawn = iter(scores)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "spearman", lambda pred, gold: next(drawn))
        mp.setattr(metrics, "distance_sequence_score", lambda pred, gold: (next(drawn), 0))
        mp.setattr(metrics, "uuas_counts", lambda pred, gold, exclude: (0, 0))
        report = evaluate_probe(identity_probe(task, 1), pairs)
    corr = "dspr" if task == "distance" else "nspr"

    by_length: dict[int, list[float]] = {}
    for n, s in seqs:
        if s is not None and 5 <= n <= 50:
            by_length.setdefault(n, []).append(s)
    assert report.counters[f"n_{corr}"] == sum(map(len, by_length.values()))
    aggregate = report.aggregates[corr]
    assert aggregate == length_binned_spearman(scores, lengths)
    if not by_length:
        assert aggregate is None
    else:
        means = [statistics.fmean(v) for v in by_length.values()]
        assert aggregate == pytest.approx(statistics.fmean(means), rel=1e-12, abs=1e-12)
