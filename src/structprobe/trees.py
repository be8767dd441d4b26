"""Dependency trees, gold tree labels, and their JSONL serialization.

Trees are stored as per-token head arrays. The root token's head is the
sentinel ``ROOT`` (-1), never a token index, so index 0 stays unambiguous.
Each tree is walked once, when ``DepTree`` checks its heads, and the walk
is kept as ``DepTree.order``. Gold labels, the all-pairs path-length matrix
and the depth vector (root 0, +1 per level), read that order: a node's
ancestors are its head's plus itself, and a path runs through the deepest
common ancestor of its ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .io_utils import atomic_open, read_jsonl

ROOT = -1


class ConllError(DataError):
    """Malformed or structurally invalid CoNLL input."""


@dataclass(frozen=True, eq=False)
class DepTree:
    """A rooted dependency tree; ``order`` lists its tokens root first, each after its head."""

    tokens: tuple[str, ...]
    heads: tuple[int, ...]
    deprels: tuple[str, ...] | None = None
    sent_id: str | None = None
    order: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "heads", tuple(int(h) for h in self.heads))
        if self.deprels is not None:
            object.__setattr__(self, "deprels", tuple(self.deprels))
        n = len(self.tokens)
        if n == 0:
            raise ValueError("a tree needs at least one token")
        if len(self.heads) != n:
            raise ValueError(f"{n} tokens but {len(self.heads)} heads")
        if self.deprels is not None and len(self.deprels) != n:
            raise ValueError(f"{n} tokens but {len(self.deprels)} deprels")
        object.__setattr__(self, "order", tuple(_parent_order(self.heads)))

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def root(self) -> int:
        return self.order[0]


def _whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; ValueError if any is not a whole number >= 0."""
    arr = np.asarray(values)
    if arr.dtype != np.int64:
        with np.errstate(invalid="ignore"):  # NaN and infinities fail the comparison
            ints = arr.astype(np.int64)
        if not np.array_equal(ints, arr):
            raise ValueError(f"{what} must be whole numbers")
        arr = ints
    if arr.size and arr.min() < 0:
        raise ValueError(f"{what} must not be negative")
    return arr


@dataclass(frozen=True, eq=False)
class TreeLabels:
    """Gold path-length matrix and depth vector for one node sequence.

    ``root`` is the index with depth zero for textual sequences and None
    for visual sequences, where the root is always sequence position 0.
    """

    id: str
    distances: np.ndarray
    depths: np.ndarray
    root: int | None

    def __post_init__(self):
        object.__setattr__(self, "distances", _whole_numbers(self.distances, "distances"))
        object.__setattr__(self, "depths", _whole_numbers(self.depths, "depths"))
        if self.depths.ndim != 1:
            raise ValueError(f"depths must be 1-D, got {self.depths.ndim}-D")
        n = self.depths.shape[0]
        if self.distances.shape != (n, n):
            raise ValueError(
                f"distances shape {self.distances.shape} does not match {n} depths"
            )
        if self.distances.diagonal().any():
            raise ValueError("distance matrix has a nonzero diagonal")
        if not (self.distances == self.distances.T).all():
            raise ValueError("distance matrix is not symmetric")
        if self.root is not None:
            if isinstance(self.root, bool) or not isinstance(self.root, (int, np.integer)):
                raise ValueError(f"root index {self.root!r} is not an integer")
            if not 0 <= self.root < n:
                raise ValueError(f"root index {self.root} out of range for n={n}")
            if self.depths[self.root] != 0:
                raise ValueError("root does not have depth zero")

    @property
    def n(self) -> int:
        return int(self.depths.shape[0])


def _parent_order(heads: Sequence[int]) -> list[int]:
    """Node indices ordered so that each node comes after its head.

    Raises ValueError unless ``heads`` is one tree: exactly one ROOT, every
    other head a node index, and every node reachable from the root.
    """
    n = len(heads)
    children: list[list[int]] = [[] for _ in range(n)]
    order = []
    for i, h in enumerate(heads):
        if h == ROOT:
            order.append(i)
        elif 0 <= h < n:
            children[h].append(i)
        else:
            raise ValueError(f"node {i} has out-of-range head {h}")
    if len(order) != 1:
        raise ValueError(f"a tree has exactly one root, but {len(order)} nodes have head ROOT")
    for node in order:  # grows while it is read: a breadth-first order
        order.extend(children[node])
    if len(order) != n:
        raise ValueError("head relation is cyclic or disconnected")
    return order


def ancestors(heads: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """0/1 float64 matrix whose row v marks v and its ancestors; ``order`` is a parent order."""
    anc = np.zeros((len(heads), len(heads)))
    for v in order:
        if heads[v] != ROOT:
            anc[v] = anc[heads[v]]
        anc[v, v] = 1.0
    return anc


def _path_lengths(anc: np.ndarray) -> np.ndarray:
    """Edge counts between node pairs, from the ancestor matrix ``anc``.

    ``(anc @ anc.T)[i, j]`` counts the common ancestors of i and j, one more
    than the depth of their deepest common ancestor; exact in float64.
    """
    common = anc @ anc.T
    own = common.diagonal()
    return (own[:, None] + own[None, :] - 2.0 * common).astype(np.int64)


def all_pairs_path_lengths(heads: Sequence[int]) -> np.ndarray:
    """Edge counts between every node pair of the tree a head array encodes."""
    return _path_lengths(ancestors(heads, _parent_order(heads)))


def tree_distances(tree: DepTree) -> np.ndarray:
    """n-by-n matrix of undirected path lengths between tokens."""
    return _path_lengths(ancestors(tree.heads, tree.order))


def tree_depths(tree: DepTree) -> np.ndarray:
    """Per-token edge count to the root; the root itself gets 0."""
    depths = [0] * tree.n
    for v in tree.order[1:]:
        depths[v] = depths[tree.heads[v]] + 1
    return np.array(depths, dtype=np.int64)


def tree_labels(tree: DepTree, seq_id: str) -> TreeLabels:
    """Bundle gold distances and depths for one sentence.

    A token's depth is its distance to the root.
    """
    distances = tree_distances(tree)
    return TreeLabels(
        id=seq_id, distances=distances, depths=distances[tree.root].copy(), root=tree.root
    )


def parse_conllu(text: str) -> list[DepTree]:
    """Parse CoNLL-formatted text into one DepTree per sentence block.

    Two column layouts are accepted per line: the full CoNLL-U/CoNLL-X
    layout (>= 8 columns, HEAD and DEPREL in columns 7-8) and a compact
    4-column layout (ID FORM HEAD DEPREL). Columns beyond the required
    ones are ignored. Multiword-token lines (ID "i-j") and empty-node
    lines (ID "i.j") are skipped; HEAD 0 marks the root.
    """
    trees: list[DepTree] = []
    block: list[tuple[int, str, int, str]] = []
    sent_id: str | None = None
    pending_id = None

    def flush(end_line: int) -> None:
        nonlocal block, pending_id
        if not block:
            return
        ids = [row[0] for row in block]
        if ids != list(range(1, len(block) + 1)):
            raise ConllError(
                f"sentence ending at line {end_line}: token ids {ids} are not 1..n"
            )
        n = len(block)
        heads = []
        for tid, _, head, _ in block:
            if head == 0:
                heads.append(ROOT)
            elif 1 <= head <= n:
                heads.append(head - 1)
            else:
                raise ConllError(
                    f"sentence ending at line {end_line}: token {tid} has head {head} "
                    f"outside 0..{n}"
                )
        label = pending_id if pending_id is not None else f"#{len(trees)}"
        try:
            tree = DepTree(
                tokens=tuple(row[1] for row in block),
                heads=tuple(heads),
                deprels=tuple(row[3] for row in block),
                sent_id=pending_id,
            )
        except ValueError as exc:
            raise ConllError(f"sentence {label} (ending at line {end_line}): {exc}") from exc
        trees.append(tree)
        block = []
        pending_id = None

    # only "\n" ends a line (splitlines() would also break at U+2028 and the
    # other Unicode separators a FORM may hold); strip() drops a CRLF's "\r"
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            flush(lineno)
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("sent_id"):
                _, _, value = body.partition("=")
                pending_id = value.strip() or None
            continue
        cols = line.split("\t") if "\t" in line else line.split()
        if len(cols) < 4:
            raise ConllError(f"line {lineno}: expected at least 4 columns, got {len(cols)}")
        tok_id = cols[0]
        if "-" in tok_id or "." in tok_id:
            continue
        head_col, deprel_col = (6, 7) if len(cols) >= 8 else (2, 3)
        try:
            parsed_id = int(tok_id)
            head = int(cols[head_col])
        except ValueError as exc:
            raise ConllError(f"line {lineno}: non-integer ID or HEAD field: {exc}") from exc
        block.append((parsed_id, cols[1], head, cols[deprel_col]))
    flush(lineno if text else 0)
    return trees


def read_conllu(path: str | Path) -> list[DepTree]:
    """Parse a UTF-8 CoNLL file; bytes that are not UTF-8 are a ConllError."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConllError(f"{path}:{line}: not valid UTF-8: {exc.reason}") from exc
    return parse_conllu(text)


def write_labels(labels: Iterable[TreeLabels], path: str | Path) -> None:
    """Atomically write gold labels as JSON Lines, one record per sequence."""
    with atomic_open(path) as fh:
        for lab in labels:
            fh.write(labels_record(lab) + "\n")


# the members labels_record writes itself; an extra member with one of these
# keys replaces that member in place, so such a record is built as a dict
_BASE_KEYS = frozenset(("id", "n", "depths", "distances", "root"))
_DECIMAL = {i: str(i) for i in range(1024)}
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _ints(values: list[int]) -> str:
    """``values`` as comma-separated decimals, from the cache where it has them all."""
    try:
        return ",".join(map(_DECIMAL.__getitem__, values))
    except KeyError:
        return ",".join(map(str, values))


def labels_record(lab: TreeLabels, extra: dict | None = None) -> str:
    """Serialize one TreeLabels to its JSONL line (without newline).

    The line is ``json.dumps`` with compact separators of the record
    ``{"id", "n", "depths", "distances", "root"}`` (no ``root`` when it is
    None) updated with ``extra``. The integer arrays are joined from cached
    decimal strings, which is the text ``json.dumps`` gives an int.
    """
    extra = dict(extra) if extra else {}
    if not _BASE_KEYS.isdisjoint(extra):
        rec: dict = {
            "id": lab.id,
            "n": lab.n,
            "depths": lab.depths.tolist(),
            "distances": lab.distances.tolist(),
        }
        if lab.root is not None:
            rec["root"] = int(lab.root)
        rec.update(extra)
        return _compact(rec)
    rows = lab.distances.tolist()
    parts = [
        '{"id":', _compact(lab.id), ',"n":', str(lab.n),
        ',"depths":[', _ints(lab.depths.tolist()),
        '],"distances":', "[[" + "],[".join(map(_ints, rows)) + "]]" if rows else "[]",
    ]
    if lab.root is not None:
        parts += [',"root":', str(int(lab.root))]
    if extra:
        parts += [",", _compact(extra)[1:-1]]
    parts.append("}")
    return "".join(parts)


def _decode_labels(rec: dict) -> TreeLabels:
    lab = TreeLabels(
        id=str(rec["id"]),
        distances=rec["distances"],
        depths=rec["depths"],
        root=rec.get("root"),
    )
    if lab.n != int(rec["n"]):
        raise ValueError(f"declared n={rec['n']} but found {lab.n} depths")
    return lab


def read_labels(path: str | Path) -> list[TreeLabels]:
    """Read a labels JSONL file; extra record keys are ignored."""
    return list(read_jsonl(path, "labels", _decode_labels))
