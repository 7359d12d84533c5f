"""The front door pinned: `parse_drawing`, `parse_lists`, the crossing sweep
and `o1p validate` output.

Every drawing the paper's claims are checked on enters through these, so
their results and their errors (class, message and line number) are pinned
byte for byte, and compared with per-line reference parsers kept here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outer1planar import Drawing, DrawingFormatError, InvalidDrawingError, cli, cycle, parse_drawing
from outer1planar.coloring import parse_lists
from outer1planar.drawing import emit_drawing

from .conftest import polygon_drawing


def _reference_sweep(n: int, edges: frozenset) -> frozenset:
    """Every crossing pair (e, f), e < f, by a boundary sweep over 4-tuple
    events; raises on the first edge the sweep finds crossed twice, with its
    count from a pairwise interleaving scan."""
    events = sorted([(b, 0, -a, (a, b)) for a, b in edges] + [(a, 1, -b, (a, b)) for a, b in edges])
    stack: list = []
    pairs = []
    crossed: set = set()
    for _, opening, _, e in events:
        if opening:
            stack.append(e)
            continue
        i = len(stack) - 1
        while stack[i] != e:
            pair = (e, stack[i])
            for x in pair:
                if x in crossed:
                    a, b = x
                    count = sum(
                        len({a, b, c, d}) == 4 and (0 < (c - a) % n < (b - a) % n) != (0 < (d - a) % n < (b - a) % n)
                        for c, d in edges
                    )
                    raise InvalidDrawingError(
                        f"edge {x} is crossed {count} times: not outer-1-plane in given order"
                    )
                crossed.add(x)
            pairs.append(pair)
            i -= 1
        del stack[i]
    return frozenset(pairs)


def _reference_parse(text: str) -> tuple[int, frozenset, frozenset]:
    """The drawing file format read line by line: (n, edges, crossing pairs)."""
    n = None
    edges: set = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise DrawingFormatError(f"line {ln}: expected 'n <count>', got {raw.strip()!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise DrawingFormatError(f"line {ln}: vertex count is not an integer") from None
            if n < 1:
                raise DrawingFormatError(f"line {ln}: vertex count must be at least 1")
            if n > sys.maxsize:
                raise DrawingFormatError(f"line {ln}: vertex count must be at most {sys.maxsize}")
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise DrawingFormatError(f"line {ln}: expected 'e <u> <v>', got {raw.strip()!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise DrawingFormatError(f"line {ln}: edge endpoints must be integers") from None
        if u == v:
            raise InvalidDrawingError(f"line {ln}: loop at vertex {u}")
        if not (1 <= u < v <= n):
            raise DrawingFormatError(f"line {ln}: edge ({u},{v}) must satisfy 1 <= u < v <= {n}")
        if (u, v) in edges:
            raise InvalidDrawingError(f"line {ln}: duplicate edge ({u},{v})")
        edges.add((u, v))
    if n is None:
        raise DrawingFormatError("line 1: missing 'n <count>' header")
    edges = frozenset(edges)
    return n, edges, _reference_sweep(n, edges)


def _reference_lists(text: str) -> dict:
    """The list-assignment format read line by line."""
    lists = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "l" or len(parts) < 2:
            raise ValueError(f"line {ln}: expected 'l <v> <colors...>', got {line!r}")
        try:
            v = int(parts[1])
            colors = [int(c) for c in parts[2:]]
        except ValueError:
            raise ValueError(f"line {ln}: non-integer token") from None
        if v in lists:
            raise ValueError(f"line {ln}: duplicate list for vertex {v}")
        lists[v] = frozenset(colors)
    return lists


def _outcome(parse, text):
    """What parse does with text: ("ok", result) or (exception class, message)."""
    try:
        result = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, Drawing):
        return "ok", (result.n, result.edges, result.crossing_pairs)
    return "ok", result


# -- o1p validate output ------------------------------------------------------


def _validate_stdout(path: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(["validate", path]) == 0
    return out.getvalue()


def _layouts(d: Drawing, rng: random.Random) -> str:
    """The drawing's file with its edge lines shuffled and, by turns, comments,
    blank lines, tabs and CRLF line ends."""
    lines = emit_drawing(d).splitlines()
    body = lines[1:]
    rng.shuffle(body)
    style = rng.randrange(4)
    if style == 1:
        body = [f"e\t{line[2:]}  " for line in body]
    if style == 2:
        for _ in range(3):
            body.insert(rng.randint(0, len(body)), rng.choice(["# note", "", "   ", "#e 1 1"]))
    sep = "\r\n" if style == 3 else "\n"
    return sep.join(["# drawing", lines[0], *body]) + sep


def _validate_drawings():
    for n in range(4, 41):
        yield polygon_drawing(n, n, keep=1.0)
        yield polygon_drawing(n, n + 100, keep=0.5)
    for n in (64, 100, 128, 250, 333, 500, 777, 1000):
        yield polygon_drawing(n, n, keep=1.0)
        yield polygon_drawing(n, n + 1, keep=0.7)
    yield cycle(4)
    yield cycle(1000)
    yield Drawing(7, frozenset())


def test_validate_stdout_digest(tmp_path):
    # 94 drawings with n from 4 to 1000, crossings included, each in a
    # different file layout; the digest covers every byte o1p validate prints
    rng = random.Random(17)
    digest = hashlib.sha256()
    crossings = 0
    for k, d in enumerate(_validate_drawings()):
        path = tmp_path / f"d{k}.txt"
        path.write_text(_layouts(d, rng), encoding="utf-8", newline="")
        digest.update(_validate_stdout(str(path)).encode())
        crossings += len(d.crossing_pairs)
    assert crossings > 1000
    assert digest.hexdigest() == "29d5cc14d199d4f33bf8de92cf15bdceda0f69f4217abdc2ddaee9725c8272f4"


# -- rejected files -------------------------------------------------------------

F, I = DrawingFormatError, InvalidDrawingError
_DRAWING_ERRORS = [
    ("", F, "line 1: missing 'n <count>' header"),
    ("# only a comment\n\n   \n", F, "line 1: missing 'n <count>' header"),
    ("x 3\n", F, "line 1: expected 'n <count>', got 'x 3'"),
    ("# c\n\n  n 3 4  \n", F, "line 3: expected 'n <count>', got 'n 3 4'"),
    ("n\n", F, "line 1: expected 'n <count>', got 'n'"),
    ("e 1 2\nn 3\n", F, "line 1: expected 'n <count>', got 'e 1 2'"),
    ("N 3\n", F, "line 1: expected 'n <count>', got 'N 3'"),
    ("n three\n", F, "line 1: vertex count is not an integer"),
    ("n 2.0\n", F, "line 1: vertex count is not an integer"),
    ("n 0\n", F, "line 1: vertex count must be at least 1"),
    ("\r\nn -4\r\n", F, "line 2: vertex count must be at least 1"),
    (f"n {sys.maxsize + 1}\n", F, f"line 1: vertex count must be at most {sys.maxsize}"),
    ("n 3\nn 3\n", F, "line 2: expected 'e <u> <v>', got 'n 3'"),
    ("n 3\ne 1\n", F, "line 2: expected 'e <u> <v>', got 'e 1'"),
    ("n 3\ne\n", F, "line 2: expected 'e <u> <v>', got 'e'"),
    ("n 3\r\n# c\r\n\r\ne 1 2 3\r\n", F, "line 4: expected 'e <u> <v>', got 'e 1 2 3'"),
    ("n 3\ne 1 2 # trailing\n", F, "line 2: expected 'e <u> <v>', got 'e 1 2 # trailing'"),
    ("n 3\nE 1 2\n", F, "line 2: expected 'e <u> <v>', got 'E 1 2'"),
    ("n 3\ne 1 x\n", F, "line 2: edge endpoints must be integers"),
    ("n 3\ne 1.0 2\n", F, "line 2: edge endpoints must be integers"),
    ("n 3\nf one 2\n", F, "line 2: expected 'e <u> <v>', got 'f one 2'"),
    ("n 3\ne 2 2\n", I, "line 2: loop at vertex 2"),
    ("n 3\ne 9 9\n", I, "line 2: loop at vertex 9"),
    ("n 3\ne 0 1\n", F, "line 2: edge (0,1) must satisfy 1 <= u < v <= 3"),
    ("n 3\ne 2 1\n", F, "line 2: edge (2,1) must satisfy 1 <= u < v <= 3"),
    ("n 3\ne 1 4\n", F, "line 2: edge (1,4) must satisfy 1 <= u < v <= 3"),
    ("n 3\ne -1 2\n", F, "line 2: edge (-1,2) must satisfy 1 <= u < v <= 3"),
    ("n 3\ne 1 2\n\ne 2 3\ne +1 02\n", I, "line 5: duplicate edge (1,2)"),
    ("n 3\ne 1 2\ne 1 2\ne 1 x\n", I, "line 3: duplicate edge (1,2)"),
    ("n 5\ne 1 3\ne 1 4\ne 2 5\n", I, "edge (2, 5) is crossed 2 times: not outer-1-plane in given order"),
    ("n 6\ne 1 4\ne 2 6\ne 3 5\n", I, "edge (1, 4) is crossed 2 times: not outer-1-plane in given order"),
    ("n 6\ne 1 4\ne 2 5\ne 2 6\ne 3 5\n# end\n", I, "edge (1, 4) is crossed 3 times: not outer-1-plane in given order"),
]


@pytest.mark.parametrize("text, cls, message", _DRAWING_ERRORS)
def test_bad_drawing_files(text, cls, message):
    with pytest.raises(cls) as info:
        parse_drawing(text)
    assert type(info.value) is cls and str(info.value) == message


_GOOD_DRAWINGS = [
    ("n 1\n", 1, set()),
    ("n 3", 3, set()),
    ("#c\n\n n 4 \r\n e 1 2\r\n\te\t3\t4\n# e 9 9\ne 1 3\x0be 2 4\r", 4, {(1, 2), (3, 4), (1, 3), (2, 4)}),
    ("n 5\ne +1 0002\ne 3 5\n", 5, {(1, 2), (3, 5)}),
    ("n 3 e 1\xa02 e 2 3\x1c", 3, {(1, 2), (2, 3)}),
]


@pytest.mark.parametrize("text, n, edges", _GOOD_DRAWINGS)
def test_good_drawing_layouts(text, n, edges):
    d = parse_drawing(text)
    assert (d.n, d.edges) == (n, frozenset(edges))


_LIST_ERRORS = [
    ("x 1 2\n", "line 1: expected 'l <v> <colors...>', got 'x 1 2'"),
    ("# c\n\n  l  \n", "line 3: expected 'l <v> <colors...>', got 'l'"),
    ("l 1 2\r\nl a 2\r\n", "line 2: non-integer token"),
    ("l 1 2 b\n", "line 1: non-integer token"),
    ("l 1 2\nl 2 3\n\nl 1 4\nq\n", "line 4: duplicate list for vertex 1"),
    ("l 1 1.5\n", "line 1: non-integer token"),
]


@pytest.mark.parametrize("text, message", _LIST_ERRORS)
def test_bad_list_files(text, message):
    with pytest.raises(ValueError) as info:
        parse_lists(text)
    assert type(info.value) is ValueError and str(info.value) == message


def test_list_layouts():
    text = "# lists\n\nl 1 1 2 3\r\n  l\t2  3 2 2\nl 3\nl -4 +5 0006\n#l 1\n"
    assert parse_lists(text) == {1: {1, 2, 3}, 2: {2, 3}, 3: set(), -4: {5, 6}}


# -- the parsers against the per-line references ------------------------------

_SPACE = st.sampled_from([" ", " ", " ", "  ", "\t", "\xa0", "\x0c"])
_SEP = st.sampled_from(["\n"] * 8 + ["\r\n", "\r", "\x0b", "\x1e", " "])
_NUMBER = st.one_of(
    st.integers(1, 8).map(str),
    st.integers(1, 8).map(str),
    st.integers(-1, 10).map(str),
    st.sampled_from(["+3", "03", "1_0", "x", "2.0", "#", "٣", "99999999999999999999"]),
)
_TWO_NUMBERS = st.lists(_NUMBER, min_size=2, max_size=2)
_NUMBERS = st.one_of(_TWO_NUMBERS, _TWO_NUMBERS, _TWO_NUMBERS, st.lists(_NUMBER, max_size=4))


def _line(head):
    return st.builds(
        lambda lead, tag, sep, nums, trail: lead + tag + "".join(sep + x for x in nums) + trail,
        st.sampled_from(["", "", "", " ", "\t"]),
        head,
        _SPACE,
        _NUMBERS,
        st.sampled_from(["", "", "", " ", "\t"]),
    )


_EDGE = st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda e: f"e {min(e)} {max(e)}")
_ODD_LINE = st.one_of(
    _line(st.sampled_from(["e"] * 12 + ["n", "E", "#", "#e", "e#", "l"])),
    st.sampled_from(["", "   ", "# comment", "n 8", "n 5", "n 0"]),
)
_DRAWING_LINE = st.integers(0, 9).flatmap(lambda k: _EDGE if k < 8 else _ODD_LINE)


@given(st.lists(_DRAWING_LINE, max_size=14), st.lists(_SEP, min_size=14, max_size=14), st.integers(0, 3))
@settings(max_examples=400, deadline=None)
def test_parse_drawing_matches_reference(lines, seps, header):
    if header:  # most soups start with a header
        lines = ["n 8", *lines]
    text = "".join(line + sep for line, sep in zip(lines, seps + ["\n"]))
    assert _outcome(parse_drawing, text) == _outcome(_reference_parse, text)


_LIST_LINE = st.one_of(
    _line(st.sampled_from(["l"] * 6 + ["e", "#", "#l", "l#"])),
    st.sampled_from(["", "   ", "# comment", "l 1 2 3"]),
)


@given(st.lists(_LIST_LINE, max_size=10), st.lists(_SEP, min_size=10, max_size=10))
@settings(max_examples=200, deadline=None)
def test_parse_lists_matches_reference(lines, seps):
    text = "".join(line + sep for line, sep in zip(lines, seps))
    assert _outcome(parse_lists, text) == _outcome(_reference_lists, text)


def test_parse_drawing_matches_reference_on_large_files():
    # valid files and files with one planted fault, at sizes where a sweep or
    # a parser that only looks near the start would differ
    rng = random.Random(5)
    for n in (50, 200, 1000):
        d = polygon_drawing(n, n, keep=0.9)
        lines = emit_drawing(d).splitlines()
        faults = [
            None,
            f"e 1 {n // 2}",
            f"e {n} {n}",
            f"e 1 {n + 1}",
            lines[len(lines) // 2],
            "e 1",
            "n 4",
        ]
        for fault in faults:
            body = lines[1:]
            rng.shuffle(body)
            if fault is not None:
                body.insert(rng.randint(len(body) // 2, len(body)), fault)
            text = "\n".join([lines[0], *body]) + "\n"
            assert _outcome(parse_drawing, text) == _outcome(_reference_parse, text)
