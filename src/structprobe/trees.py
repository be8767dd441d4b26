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

import functools
import json
import mmap
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from .errors import DataError
from .io_utils import atomic_open, index_ids, read_jsonl, record_id

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
    """``values`` as an int64 array; ValueError if any is not a whole number >= 0.

    ``True`` and ``False`` are not numbers here, although numpy reads them as 1 and 0,
    and nor are ``None``, strings and mappings; nested lists must be of equal length.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy's message for ragged lists names no member
        raise ValueError(f"{what} must be whole numbers in lists of equal length") from None
    if arr.dtype == np.bool_:
        raise ValueError(f"{what} must be numbers, not true or false")
    if arr.dtype != np.int64:
        try:
            with np.errstate(invalid="ignore"):  # NaN and infinities fail the comparison
                ints = arr.astype(np.int64)
        except (TypeError, ValueError, OverflowError):  # None, a mapping, text, beyond int64
            raise ValueError(f"{what} must be whole numbers") from None
        if not np.array_equal(ints, arr):
            raise ValueError(f"{what} must be whole numbers")
        arr = ints
    if arr.size and arr.min() < 0:
        raise ValueError(f"{what} must not be negative")
    if arr.ndim and not isinstance(values, np.ndarray):  # a bool among ints reads as an int
        for _ in range(arr.ndim - 1):
            values = chain.from_iterable(values)
        if not {bool, np.bool_}.isdisjoint(map(type, values)):
            raise ValueError(f"{what} must be numbers, not true or false")
    return arr


@dataclass(frozen=True, eq=False)
class TreeLabels:
    """Gold path-length matrix and depth vector for one node sequence.

    ``root`` is the index with depth zero for textual sequences and None
    for visual sequences, where the root is always sequence position 0.
    ``excluded`` holds the increasing positions, never the root, that UUAS
    and root accuracy leave out (``tree_labels``' ``exclude_deprels``).

    ``TreeLabels(...)`` checks its arrays as outside input: a labels file,
    or a caller's own arrays. Labels the package derives from a tree it has
    checked (``tree_labels``, ``scenetree.visual_labels``) are built by
    ``derived_labels``, whose matrix holds by construction and is not
    checked again.
    """

    id: str
    distances: np.ndarray
    depths: np.ndarray
    root: int | None
    excluded: tuple[int, ...] = ()

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
        if type(self.excluded) is not tuple or self.excluded:
            excluded = _whole_numbers(self.excluded, "excluded positions")
            if excluded.ndim != 1 or (np.diff(excluded) <= 0).any() or (excluded >= n).any():
                raise ValueError(f"excluded must be a strictly increasing list below n={n}")
            object.__setattr__(self, "excluded", tuple(excluded.tolist()))
            if self.root in self.excluded:
                raise ValueError(f"the root {self.root} cannot be excluded")

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


def derived_labels(
    seq_id: str, distances: np.ndarray, root: int | None, excluded: tuple[int, ...] = ()
) -> TreeLabels:
    """A TreeLabels of a checked tree's path lengths, without ``TreeLabels``' checks.

    ``distances`` is the int64 path-length matrix of a tree whose heads
    were checked (``tree_distances``, ``all_pairs_path_lengths``), or its
    rows and columns gathered at one index list: square, symmetric, zero
    on the diagonal and non-negative by construction. A depth is the path
    length to the root, so the depths are row ``root`` of the matrix, or
    row 0 when ``root`` is None; that row must belong to the tree's root.
    ``excluded`` must be increasing positions other than the root.
    """
    depths = distances[0 if root is None else root].copy()
    labels = object.__new__(TreeLabels)
    vars(labels).update(id=seq_id, distances=distances, depths=depths, root=root, excluded=excluded)
    return labels


def tree_labels(tree: DepTree, seq_id: str, exclude_deprels: Collection[str] = ()) -> TreeLabels:
    """Bundle gold distances and depths for one sentence.

    Both arrays are derived from the checked ``tree`` by ``derived_labels``
    and not checked again. The tokens whose DEPREL is in ``exclude_deprels`` are
    ``excluded``; a ValueError if the tree has no deprels or the root's is one.
    """
    excluded = ()
    if exclude_deprels:
        if tree.deprels is None:
            raise ValueError("the tree has no deprels to exclude tokens by")
        excluded = tuple(i for i, rel in enumerate(tree.deprels) if rel in exclude_deprels)
        if tree.root in excluded:
            raise ValueError(f"deprel {tree.deprels[tree.root]!r} would exclude the root")
    return derived_labels(seq_id, tree_distances(tree), tree.root, excluded)


def parse_conllu(text: str) -> list[DepTree]:
    """Parse CoNLL-formatted text into one DepTree per sentence block.

    Two column layouts are accepted per line: the full CoNLL-U/CoNLL-X
    layout (>= 8 columns, HEAD and DEPREL in columns 7-8) and a compact
    4-column layout (ID FORM HEAD DEPREL). Columns beyond the required
    ones are ignored. Multiword-token lines (ID "i-j") and empty-node
    lines (ID "i.j") are skipped; HEAD 0 marks the root.

    Each line is stripped and read on its own, in one pass; an empty line
    ends a sentence, and a ``# sent_id`` comment names the next one. A
    ConllError names its line, or the line that ends its sentence;
    ``read_conllu`` puts the file's path in front.
    """
    trees: list[DepTree] = []
    block: list[tuple[int, str, int, str]] = []
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
                tokens=[row[1] for row in block],
                heads=heads,
                deprels=[row[3] for row in block],
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
    if not lines[-1]:  # the text's last "\n" ends a line and starts none
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
    flush(len(lines))
    return trees


def read_conllu(path: str | Path) -> list[DepTree]:
    """Parse a UTF-8 CoNLL file; every ConllError names the file.

    Bytes that are not UTF-8 are a ConllError naming ``path:line``; any other
    is ``parse_conllu``'s, with ``path`` in front.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConllError(f"{path}:{line}: not valid UTF-8: {exc.reason}") from exc
    try:
        return parse_conllu(text)
    except ConllError as exc:
        raise ConllError(f"{path}: {exc}") from exc


def write_labels(labels: Iterable[TreeLabels], path: str | Path) -> None:
    """Atomically write gold labels as JSON Lines, one record per sequence."""
    with atomic_open(path) as fh:
        for lab in labels:
            fh.write(labels_record(lab) + "\n")


# the members labels_record writes itself; an extra member with one of these
# keys replaces that member in place, so such a record is built as a dict
_BASE_KEYS = frozenset(("id", "n", "depths", "distances", "root", "excluded"))
# labels_record renders the integers below _TABLE from _digits() for a
# sequence of _TABLE_MIN_N nodes or more; json's C encoder is as fast for 6
# nodes and faster for fewer (about 6 against 11 us for one node)
_TABLE = 1024
_TABLE_MIN_N = 6
_compact = json.JSONEncoder(separators=(",", ":")).encode
# the separators of the depths and the matrix, as np.fromstring(sep=" ") takes them
_SPACED = bytes.maketrans(b",[]", b"   ")
# a shorter line is left to json.loads, which reads it as fast or faster: the
# exact path is about as fast for a 150-200 byte labels line, and for a
# 300-400 byte scene-tree line, whose extras it also parses and renders
_EXACT_MIN = 256


@functools.cache
def _digits() -> np.ndarray:
    """8-byte NUL-padded cells: ``"i,"`` at i, then ``"i],["`` at _TABLE + i, for i < _TABLE.

    Built on first use, not at import.
    """
    cells = [f"{i}," for i in range(_TABLE)] + [f"{i}],[" for i in range(_TABLE)]
    return np.frombuffer("".join(c.ljust(8, "\0") for c in cells).encode("ascii"), np.uint64)


def labels_record(lab: TreeLabels, extra: dict | None = None) -> str:
    """Serialize one TreeLabels to its JSONL line (without newline).

    The line is ``json.dumps`` with compact separators of the record
    ``{"id", "n", "depths", "distances", "root", "excluded"}`` (no ``root``
    when it is None, no ``excluded`` when it is empty) updated with
    ``extra``. When every integer is below ``_TABLE``, ``n`` is at least
    ``_TABLE_MIN_N`` and no extra key is a base key, the depths and the
    matrix rows are rendered as rows of one index array into ``_digits()``,
    a row's last column from the ``"i],["`` half; the cells' bytes less
    their NUL padding are the text ``json.dumps`` gives those lists.
    """
    extra = dict(extra) if extra else {}
    n = lab.n
    if n >= _TABLE_MIN_N and _BASE_KEYS.isdisjoint(extra):
        idx = np.empty((n + 1, n), np.int64)
        idx[0] = lab.depths
        idx[1:] = lab.distances
        if idx.view(np.uint64).max() < _TABLE:  # a negative value reads as a huge one
            idx[:, -1] += _TABLE
            text = _digits()[idx].tobytes().translate(None, b"\0").decode("ascii")
            k = text.index("],[")  # the end of the depths row
            parts = [
                '{"id":', _compact(lab.id), ',"n":', str(n), ',"depths":[', text[:k],
                '],"distances":[[', text[k + 3 : -3], "]]",
            ]
            if lab.root is not None:
                parts += [',"root":', str(int(lab.root))]
            if lab.excluded:
                parts += [',"excluded":', _compact(lab.excluded)]
            if extra:
                parts += [",", _compact(extra)[1:-1]]
            parts.append("}")
            return "".join(parts)
    rec: dict = {
        "id": lab.id,
        "n": n,
        "depths": lab.depths.tolist(),
        "distances": lab.distances.tolist(),
    }
    if lab.root is not None:
        rec["root"] = int(lab.root)
    if lab.excluded:
        rec["excluded"] = list(lab.excluded)
    rec.update(extra)
    return _compact(rec)


def _decode_labels(rec: dict) -> TreeLabels:
    distances = rec["distances"]
    if isinstance(distances, list) and not distances:  # how JSON writes a 0-by-0 matrix
        distances = np.zeros((0, 0), np.int64)
    lab = TreeLabels(
        id=record_id(rec["id"]),
        distances=distances,
        depths=rec["depths"],
        root=rec.get("root"),
        excluded=rec.get("excluded", ()),
    )
    n = rec["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n {n!r} is not an integer")
    if lab.n != n:
        raise ValueError(f"declared n={n} but found {lab.n} depths")
    return lab


def _exact_labels(buf: bytes | mmap.mmap, start: int, stop: int) -> TreeLabels | None:
    """The labels of the line ``buf[start:stop]`` if ``labels_record`` writes it so, else None.

    A line of fewer than ``_EXACT_MIN`` bytes is left to the full parse. Its
    ``"depths":[...]`` and ``"distances":[[...]]`` members, if they hold
    nothing but digits, commas and brackets, are read by one
    ``np.fromstring`` with the three as spaces, which it takes as
    separators in any number. The rest of the line, less its ``\\n``, is
    read as the full parse reads a line, by ``json.loads`` of its UTF-8
    text, and the labels by ``_decode_labels`` with the two arrays in
    place of those members. The result is kept only if ``labels_record``
    gives back the line exactly from it and the members that are not base
    members. Such a line is the ``json.dumps`` of a record with no
    duplicate key, so ``json.loads`` and ``_decode_labels`` give the same
    TreeLabels. Never raises, and never warns: a line that fails any step
    is left to the full parse.
    """
    if stop - start < _EXACT_MIN:
        return None
    if buf[stop - 1] == 0x0A:
        stop -= 1
    line = buf[start:stop]
    d0 = line.find(b',"depths":[') + 11
    d1 = line.find(b'],"distances":[[', d0)
    m1 = line.find(b"]]", d1)
    if min(d0 - 11, d1, m1) < 0:
        return None
    numbers = line[d0:d1] + b"," + line[d1 + 16 : m1]
    if numbers.translate(None, b"0123456789,[]"):
        return None
    values = np.fromstring(numbers.translate(_SPACED), np.int64, sep=" ")
    try:  # RecursionError: members nested too deep for json
        rec = json.loads((line[: d0 - 11] + line[m1 + 2 :]).decode("utf-8"))
        n = rec["n"]
        lab = _decode_labels({**rec, "depths": values[:n], "distances": values[n:].reshape(n, n)})
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
        return None
    extra = {k: v for k, v in rec.items() if k not in _BASE_KEYS}
    return lab if labels_record(lab, extra).encode() == line else None


def read_labels(path: str | Path) -> list[TreeLabels]:
    """Read a labels JSONL file; extra record keys are ignored.

    A line exactly as ``labels_record`` writes it is read by
    ``_exact_labels``; any other line by ``json.loads`` and gives the same
    TreeLabels or the same error. An id named by two records is a DataError.
    """
    labels = list(read_jsonl(path, "labels", _decode_labels, fast=_exact_labels))
    index_ids(((lab.id, lab) for lab in labels), "labels", path)
    return labels
