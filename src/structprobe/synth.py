"""Synthetic trees with exact isometric embeddings.

Each tree edge gets its own coordinate; a node's vector is the 0/1
indicator of the edges on its root path. Squared Euclidean distances
between rows then equal tree path lengths exactly, and squared norms equal
depths exactly, so an identity-transform probe scores perfectly and a
trained probe has a known-achievable optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .embed_io import EmbeddingSequence
from .trees import ROOT, DepTree, TreeLabels, ancestors, tree_labels


def random_tree(n: int, seed: int | np.random.Generator = 0) -> DepTree:
    """Uniform random attachment tree with uniformly relabelled nodes.

    Node i attaches to a uniform parent among 0..i-1, then all labels are
    permuted so the root lands at a uniform position and parents do not
    systematically precede children.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)  # a Generator passes through
    parents = [ROOT] + [int(rng.integers(0, i)) for i in range(1, n)]
    perm = rng.permutation(n)
    heads = [0] * n
    for i, p in enumerate(parents):
        heads[perm[i]] = ROOT if p == ROOT else int(perm[p])
    return DepTree(
        tokens=tuple(f"w{i}" for i in range(n)),
        heads=tuple(heads),
    )


def oracle_embed_tree(
    tree: DepTree,
    extra_dims: int = 0,
    noise_sigma: float = 0.0,
    seed: int | np.random.Generator = 0,
    seq_id: str = "oracle",
    layer: int = 0,
) -> EmbeddingSequence:
    """Path-indicator embedding of a tree, optionally padded and noised.

    Each non-root token, in token order, owns the coordinate of the edge to
    its head, so row v is v's ancestor-indicator row without the root's
    column: the edges on v's root path. Width is (n - 1) + extra_dims,
    floored at 1 so single-node trees still produce a valid sequence. Noise
    is i.i.d. Gaussian with the given scale; at zero the label identities
    are exact.
    """
    if extra_dims < 0:
        raise ValueError("extra_dims cannot be negative")
    if not (noise_sigma >= 0 and np.isfinite(noise_sigma)):
        raise ValueError(f"noise_sigma must be a finite number >= 0, got {noise_sigma!r}")
    n = tree.n
    vectors = np.zeros((n, max(n - 1 + extra_dims, 1)))
    vectors[:, : n - 1] = np.delete(ancestors(tree.heads, tree.order), tree.root, axis=1)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)  # a Generator passes through
        vectors = vectors + rng.normal(0.0, noise_sigma, size=vectors.shape)
    return EmbeddingSequence(id=seq_id, layer=layer, values=vectors)


@dataclass(frozen=True)
class OracleDataset:
    """Aligned trees, gold labels, and embeddings for pipeline checks."""

    trees: tuple[DepTree, ...]
    labels: tuple[TreeLabels, ...]
    embeddings: tuple[EmbeddingSequence, ...]
    construction: str
    noise_sigma: float

    def pairs(self) -> list[tuple[TreeLabels, EmbeddingSequence]]:
        return list(zip(self.labels, self.embeddings))


def oracle_dataset(
    n_trees: int,
    min_n: int,
    max_n: int,
    extra_dims: int = 0,
    noise_sigma: float = 0.0,
    seed: int = 0,
    layer: int = 0,
) -> OracleDataset:
    """Generate a dataset of random trees with shared embedding width.

    All sequences are padded to width (max_n - 1) + extra_dims so they can
    train a single probe. Noise has its own generator spawned from the
    seed, so the trees and labels depend on the seed alone.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be at least 1")
    if not 1 <= min_n <= max_n:
        raise ValueError(f"bad size range [{min_n}, {max_n}]: need 1 <= min_n <= max_n")
    if extra_dims < 0:
        raise ValueError("extra_dims cannot be negative")
    if seed < 0:
        raise ValueError("seed cannot be negative")
    rng = np.random.default_rng(seed)
    noise_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    width = max(max_n - 1 + extra_dims, 1)
    trees = []
    labels = []
    embeddings = []
    for i in range(n_trees):
        n = int(rng.integers(min_n, max_n + 1))
        tree = random_tree(n, rng)
        seq_id = f"t{i:04d}"
        trees.append(tree)
        labels.append(tree_labels(tree, seq_id))
        embeddings.append(
            oracle_embed_tree(
                tree,
                extra_dims=width - (n - 1),
                noise_sigma=noise_sigma,
                seed=noise_rng,
                seq_id=seq_id,
                layer=layer,
            )
        )
    return OracleDataset(
        trees=tuple(trees),
        labels=tuple(labels),
        embeddings=tuple(embeddings),
        construction="path-indicator",
        noise_sigma=noise_sigma,
    )
