"""Properties: ``parse_conllu`` against an independent line parser, kept here as the reference."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structprobe.trees import ROOT, ConllError, DepTree, parse_conllu


def reference_parse_conllu(text: str) -> list[DepTree]:
    """The line-by-line parser: every line is stripped, split and read on its own."""
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


def outcome(parse, text: str):
    """The trees' fields, or the error's type and text."""
    try:
        return [(t.tokens, t.heads, t.deprels, t.sent_id, t.order) for t in parse(text)]
    except ConllError as exc:
        return type(exc), str(exc)


COMMENTS = [
    "# sent_id = s1", "#sent_id=s2", "# sent_id =", "# sent_id = a b ", "# text = a b",
    "#", "## sent_id = s3", "  # sent_id = s4", "# sent_id = s5\r", "# sent_id = x y",
]
# FORM characters: Unicode whitespace and line separators that split() and
# strip() see but "\n" splitting does not, and the ID markers "-" and "."
FORM_CHARS = "abé#-. \xa0 　\x0b\x0c\x85"
DEPRELS = ["root", "nsubj", "obj", "_"]
# line ends, all but the first taken off by str.strip: CRLF, a space, a tab, Unicode whitespace
LINE_ENDS = ["", "\r", " ", "\t", "　"]


def number(draw, value: int) -> str:
    """``value`` as written, or now and then as ``int`` reads it but a plain ID does not."""
    return draw(st.sampled_from([str(value)] * 6 + [f"0{value}", f"+{value}", f" {value}", f"{value} "]))


@st.composite
def heads_of(draw, n: int) -> list[int]:
    """1-based HEADs (0 for the root): mostly a tree, sometimes two roots, a cycle or out of range."""
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for j in range(1, n):
        heads[order[j]] = order[draw(st.integers(0, j - 1))] + 1
    fault = draw(st.sampled_from([None] * 6 + ["two roots", "cycle", "range", "negative"]))
    i = draw(st.integers(0, n - 1))
    if fault == "two roots":
        heads[i] = 0
    elif fault == "cycle" and n > 1:
        heads[order[0]] = order[-1] + 1
    elif fault == "range":
        heads[i] = n + draw(st.integers(1, 3))
    elif fault == "negative":
        heads[i] = -draw(st.integers(1, 3))
    return heads


EXTRA_LINES = [
    "1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_", "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_", "2-3 x _ _",
    "# sent_id = inside", "# note", "bad", "1\tshort",
]
# one change to a plain block (10 tab-separated columns, IDs 1..n as written) that a parser can misread
NEAR_MISSES = ["id", "head", "line end", "blank columns", "columns", "extra line", "swap ids"]


@st.composite
def messy_lines(draw, n: int, heads: list[int]) -> list[str]:
    """Compact, plain or mixed lines, each of them perhaps not plain."""
    layout = draw(st.sampled_from(["plain", "compact", "compact-tabs", "mixed"]))
    lines = []
    for i in range(1, n + 1):
        tid, head = number(draw, i), number(draw, heads[i - 1])
        if draw(st.integers(0, 40)) == 0:
            head = draw(st.sampled_from(["x", "", "1.5", "٣"]))  # "٣": an Arabic-Indic 3
        form = draw(st.text(FORM_CHARS, min_size=1, max_size=3))
        deprel = draw(st.sampled_from(DEPRELS + ["", " "]))
        if layout == "plain" or (layout == "mixed" and draw(st.booleans())):
            # blank last columns: str.strip can take a tab off, and with it a column
            deps, last = draw(st.sampled_from(["_", "", " "])), draw(st.sampled_from(["_", "", " ", "_ ", "_　"]))
            cols = [tid, form, "_", "X", "_", "_", head, deprel, deps, last]
            if draw(st.integers(0, 20)) == 0:  # a column too many or too few
                cols = cols + ["_"] if draw(st.booleans()) else cols[:-1]
            line = "\t".join(cols)
        else:
            line = ("\t" if layout == "compact-tabs" else " ").join([tid, form, head, deprel])
        lines.append(line + draw(st.sampled_from(LINE_ENDS)))
    for extra in draw(st.lists(st.sampled_from(EXTRA_LINES), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return lines


@st.composite
def token_lines(draw) -> list[str]:
    """A plain block (perhaps with a HEAD out of range), one near miss of it, or messy lines."""
    n = draw(st.integers(1, 6))
    heads = draw(heads_of(n))
    kind = draw(st.sampled_from(["plain"] * 3 + NEAR_MISSES + ["messy"] * 2))
    if kind == "messy":
        return draw(messy_lines(n, heads))
    rows = [
        [str(i), draw(st.text(FORM_CHARS, min_size=1, max_size=3)), "_", "X", "_", "_", str(heads[i - 1]),
         draw(st.sampled_from(DEPRELS)), "_", draw(st.sampled_from(["_", "SpaceAfter=No"]))]
        for i in range(1, n + 1)
    ]
    at = draw(st.integers(0, n - 1))
    if kind == "id":
        rows[at][0] = number(draw, at + 1)
    elif kind == "head":
        rows[at][6] = draw(st.sampled_from([number(draw, heads[at]), "x", "", "1.5", "٣", "-0"]))
    elif kind == "blank columns":  # str.strip takes a run of blank last columns off with their tabs
        blank = draw(st.sampled_from(["", " "]))
        # blank from DEPREL on, a line the line loop cuts to 7 columns and reads as compact
        for col in range(draw(st.sampled_from([7, 7, 8, 9])), 10):
            rows[at][col] = blank
    elif kind == "columns":  # one line a column short or long, or two lines that even out
        rows[at] = rows[at] + ["_"] if draw(st.booleans()) else rows[at][:-1]
        if n > 1 and draw(st.booleans()):
            other = (at + 1) % n
            rows[other] = rows[other][:-1] if len(rows[at]) > 10 else rows[other] + ["_"]
    elif kind == "swap ids" and n > 1:
        rows[at][0], rows[(at + 1) % n][0] = rows[(at + 1) % n][0], rows[at][0]
    lines = ["\t".join(row) for row in rows]
    if kind == "line end":
        lines[at] += draw(st.sampled_from(LINE_ENDS[1:]))
    elif kind == "extra line":
        lines.insert(draw(st.integers(0, n)), draw(st.sampled_from(EXTRA_LINES)))
    return lines


@st.composite
def conll_texts(draw) -> str:
    """Whole files: blocks with comments, comment-only blocks, blank and whitespace-only separators."""
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 4))):
        lines += draw(st.lists(st.sampled_from(COMMENTS), max_size=2))
        if draw(st.integers(0, 5)):  # else a block of comments only
            lines += draw(token_lines())
        lines += draw(st.lists(st.sampled_from([""] * 6 + [" ", "\r", "\t"]), min_size=1, max_size=2))
    if lines and draw(st.booleans()):
        lines.pop()  # the last block ends the text
    text = "\n".join(lines)
    return text + draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(conll_texts())
def test_parse_conllu_matches_the_line_parser(text):
    assert outcome(parse_conllu, text) == outcome(reference_parse_conllu, text)


@settings(max_examples=200, deadline=None)
@given(st.text(st.sampled_from("1203\t \n\r#_-.=x"), max_size=60))
def test_parse_conllu_matches_the_line_parser_on_any_text(text):
    assert outcome(parse_conllu, text) == outcome(reference_parse_conllu, text)


PLAIN = "# sent_id = a\n1\tI\t_\t_\t_\t_\t2\tnsubj\t_\t_\n2\tran\t_\t_\t_\t_\t0\troot\t_\tSpaceAfter=No"


@pytest.mark.parametrize(
    "block",
    [
        PLAIN,
        PLAIN.split("\n", 1)[1],
        PLAIN.replace("\n", "\r\n"),  # CRLF
        PLAIN.replace("\t_\tSpaceAfter=No", "\t_\t_ "),  # whitespace at the end
        PLAIN.replace("\t_\tSpaceAfter=No", "\t_\t"),  # an empty last column
        PLAIN.replace("\n2\t", "\n02\t"),
        PLAIN.replace("\t2\tnsubj", "\t+2\tnsubj"),  # int reads a HEAD with its sign
        PLAIN.replace("\t2\tnsubj", "\t3\tnsubj"),  # HEAD out of range
        PLAIN.replace("\n2\t", "\n# c\n2\t"),  # a comment between token lines
        PLAIN.replace("\t_\tSpaceAfter=No", "\t_\tSpaceAfter=No\t_"),  # 11 columns
        "1 I 2 nsubj\n2 ran 0 root",
        "# sent_id = only",
    ],
)
def test_hand_picked_blocks_parse_as_the_line_parser_reads_them(block):
    assert outcome(parse_conllu, block) == outcome(reference_parse_conllu, block)


def test_a_sentence_of_1025_tokens_parses_as_the_line_parser_reads_it():
    text = "".join(f"{i}\tw\t_\t_\t_\t_\t{i - 1}\tdep\t_\t_\n" for i in range(1, 1026))
    assert outcome(parse_conllu, text) == outcome(reference_parse_conllu, text)
