"""Drawing representation, parsing, and combinatorial predicates."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outer1planar import (
    AbstractGraph,
    Drawing,
    DrawingFormatError,
    InvalidDrawingError,
    cycle,
    delete_vertices,
    parse_drawing,
    random_outer_1_planar,
)
from outer1planar.drawing import emit_drawing, interleave, iter_all_pairs, normalize_edge
from outer1planar.oracle import _trusted_drawing

from .conftest import brute_crossing_pairs


def test_parse_triangle():
    d = parse_drawing("n 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert d.n == 3
    assert d.crossing_pairs == set()


def test_parse_comments_and_blanks():
    d = parse_drawing("# cycle\n\nn 4\ne 1 2\n# chord below\ne 3 4\ne 1 3\ne 2 4\n")
    assert d.crossing_pairs == {((1, 3), (2, 4))}


def test_parse_rejects_crossing_overload():
    with pytest.raises(InvalidDrawingError, match="crossed 2 times"):
        parse_drawing("n 5\ne 1 3\ne 1 4\ne 2 5\n")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(InvalidDrawingError, match="line 3: duplicate"):
        parse_drawing("n 3\ne 1 2\ne 1 2\n")


def test_parse_rejects_loop():
    with pytest.raises(InvalidDrawingError, match="loop"):
        parse_drawing("n 3\ne 2 2\n")


@pytest.mark.parametrize(
    "n, edges, message",
    [(3, [(2, 2)], "loop at vertex 2"), (3, [(1, 4)], "edge (1,4) out of range for n=3"), (0, [], "at least one vertex")],
    ids=["loop", "out-of-range", "no-vertices"],
)
def test_constructor_refuses_bad_graphs(n, edges, message):
    with pytest.raises(InvalidDrawingError, match=re.escape(message)):
        Drawing.from_edges(n, edges)


def test_only_known_edges_skip_the_edge_check(monkeypatch):
    # the parser, and is_maximal's and check_d1's one-edge supersets of a
    # valid drawing, build with no second edge check; the public
    # constructors keep it
    from outer1planar import check_d1, find_matches, get_pattern, is_maximal

    for cls in (AbstractGraph, Drawing):
        with pytest.raises(InvalidDrawingError, match="loop at vertex 2"):
            cls(3, frozenset({(2, 2)}))
        with pytest.raises(InvalidDrawingError, match=re.escape("edge (1,4) out of range for n=3")):
            cls(3, frozenset({(1, 4)}))
    checked = []
    check = AbstractGraph.__post_init__
    monkeypatch.setattr(AbstractGraph, "__post_init__", lambda self: checked.append(self) or check(self))
    # check_d1 asks the oracle about the edge 2-4, which d lacks
    d = parse_drawing("n 5\ne 1 3\ne 2 5\ne 2 3\ne 3 4\ne 4 5\n")
    assert not is_maximal(d) and check_d1(d, find_matches(d, get_pattern(3))[0]) and checked == []
    assert Drawing(d.n, d.edges) == d and AbstractGraph(d.n, d.edges) and len(checked) == 2
    with pytest.raises(InvalidDrawingError, match="crossed 2 times"):
        parse_drawing("n 6\ne 1 4\ne 2 6\ne 3 5\n")


def test_parse_reports_line_numbers():
    with pytest.raises(DrawingFormatError, match="line 2"):
        parse_drawing("n 3\ne 1\n")
    with pytest.raises(DrawingFormatError, match="line 1"):
        parse_drawing("x 3\n")


def test_emit_roundtrip_sorted():
    d = Drawing.from_edges(4, [(2, 4), (1, 2), (1, 3), (3, 4)])
    text = emit_drawing(d)
    assert text.splitlines()[0] == "n 4"
    assert text.splitlines()[1:] == ["e 1 2", "e 1 3", "e 2 4", "e 3 4"]
    assert parse_drawing(text) == d


def test_degrees_examples():
    assert Drawing.from_edges(3, [(1, 2), (2, 3), (1, 3)]).degrees == {1: 2, 2: 2, 3: 2}
    d4 = Drawing.from_edges(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
    assert d4.degrees == {1: 2, 2: 2, 3: 2, 4: 2}
    assert cycle(6).degrees == {v: 2 for v in range(1, 7)}
    assert d4.min_degree == 2


def test_crossing_pairs_examples():
    assert Drawing.from_edges(3, [(1, 2), (2, 3), (1, 3)]).crossing_pairs == set()
    d4 = Drawing.from_edges(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
    assert d4.crossing_pairs == {((1, 3), (2, 4))}


def test_crossing_pairs_against_brute_oracle():
    rng = random.Random(20240)
    for trial in range(1000):
        n = rng.randint(3, 12)
        d = random_outer_1_planar(n, rng.random(), seed=trial)
        assert d.crossing_pairs == brute_crossing_pairs(d)


def test_every_edge_crossed_at_most_once():
    rng = random.Random(7)
    for trial in range(200):
        d = random_outer_1_planar(rng.randint(3, 12), rng.random(), seed=trial)
        counts = {e: 0 for e in d.edges}
        for e, f in d.crossing_pairs:
            counts[e] += 1
            counts[f] += 1
        assert all(c <= 1 for c in counts.values())


def test_delete_vertices_examples():
    tri = Drawing.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    d = delete_vertices(tri, {3})
    assert d.n == 2 and d.edges == frozenset({(1, 2)})
    d4 = Drawing.from_edges(4, [(1, 2), (3, 4), (1, 3), (2, 4)])
    d = delete_vertices(d4, {4})
    assert d.n == 3 and d.edges == frozenset({(1, 2), (1, 3)})
    assert d.crossing_pairs == set()
    assert delete_vertices(d4, set()) == d4


def test_delete_vertices_refuses_what_it_cannot_delete():
    tri = Drawing.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError, match="^can only delete existing vertices$"):
        delete_vertices(tri, {2, 4})
    with pytest.raises(ValueError, match="^deleting every vertex would leave an empty drawing$"):
        delete_vertices(tri, {1, 2, 3})


def test_delete_never_raises_crossing_degree():
    rng = random.Random(3)
    for trial in range(200):
        n = rng.randint(4, 12)
        d = random_outer_1_planar(n, rng.random(), seed=trial)
        remove = set(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        sub = delete_vertices(d, remove)  # construction validates
        counts = {e: 0 for e in sub.edges}
        for e, f in sub.crossing_pairs:
            counts[e] += 1
            counts[f] += 1
        assert all(c <= 1 for c in counts.values())


@given(st.integers(3, 9), st.data())
@settings(max_examples=120, deadline=None)
def test_valid_subsets_construct_and_agree(n, data):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = data.draw(st.sets(st.sampled_from(pairs)))
    counts = {e: 0 for e in chosen}
    for e in chosen:
        for f in chosen:
            if e < f and interleave(n, e, f):
                counts[e] += 1
                counts[f] += 1
    if all(c <= 1 for c in counts.values()):
        d = Drawing.from_edges(n, chosen)
        assert d.crossing_pairs == brute_crossing_pairs(d)
    else:
        with pytest.raises(InvalidDrawingError):
            Drawing.from_edges(n, chosen)


@given(st.integers(4, 10))
@settings(max_examples=30, deadline=None)
def test_interleave_symmetric(n):
    rng = random.Random(n)
    for _ in range(30):
        a, b, c, d = rng.sample(range(1, n + 1), 4)
        assert interleave(n, (a, b), (c, d)) == interleave(n, (c, d), (a, b))


def _brute_counts(n: int, edges) -> dict:
    """Crossings per edge by the conftest pairwise scan, with no validation."""
    g = AbstractGraph.from_edges(n, edges)
    counts = {e: 0 for e in g.edges}
    for e, f in brute_crossing_pairs(g):
        counts[e] += 1
        counts[f] += 1
    return counts


def _named_count(error: InvalidDrawingError) -> tuple:
    """The edge and crossing count a rejection message names."""
    found = re.search(r"edge \((\d+), (\d+)\) is crossed (\d+) times", str(error))
    u, v, k = map(int, found.groups())
    return (u, v), k


def _check_against_brute(n: int, edges) -> None:
    counts = _brute_counts(n, edges)
    if all(c <= 1 for c in counts.values()):
        d = Drawing.from_edges(n, edges)
        assert d.crossing_pairs == brute_crossing_pairs(d)
        return
    with pytest.raises(InvalidDrawingError) as info:
        Drawing.from_edges(n, edges)
    e, k = _named_count(info.value)
    assert counts[e] == k >= 2


def test_complete_graph_rejected_with_exact_count():
    n = 300
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    with pytest.raises(InvalidDrawingError) as info:
        Drawing.from_edges(n, edges)
    (a, b), k = _named_count(info.value)
    # a chord (c, d) crosses (a, b) iff exactly one endpoint is strictly inside
    brute = sum((a < c < b) != (a < d < b) for c, d in edges if len({a, b, c, d}) == 4)
    assert k == brute >= 2


def test_validation_cost_does_not_scale_with_n():
    d = parse_drawing("n 1000000000\ne 1 2\ne 5 999999999\n")
    assert d.crossing_pairs == set()


def test_fans_and_shared_endpoints_match_brute():
    # several chords closing at 4, a chord opening there, and one crossing (2, 4)
    d = Drawing.from_edges(7, [(1, 4), (2, 4), (3, 4), (1, 3), (4, 7), (4, 6), (5, 7)])
    assert d.crossing_pairs == brute_crossing_pairs(d) == {((1, 3), (2, 4)), ((4, 6), (5, 7))}
    _check_against_brute(7, [(1, 5), (2, 5), (3, 5), (4, 6)])
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(4, 14)
        edges = set()
        for hub in rng.sample(range(1, n + 1), rng.randint(1, 3)):
            others = [w for w in range(1, n + 1) if w != hub]
            edges |= {normalize_edge(hub, w) for w in rng.sample(others, rng.randint(1, n - 1))}
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges |= set(rng.sample(pairs, rng.randint(0, 3)))
        _check_against_brute(n, edges)


def test_planted_chord_verdict_matches_brute():
    rng = random.Random(29)
    for trial in range(300):
        n = rng.randint(4, 40)
        d = random_outer_1_planar(n, rng.choice((0.05, 0.2, 0.5, 1.0)), seed=trial)
        missing = [e for e in iter_all_pairs(n) if e not in d.edges]
        if missing:
            _check_against_brute(n, set(d.edges) | {rng.choice(missing)})


def test_drawing_is_swept_once(monkeypatch):
    calls = []
    sweep = Drawing._interleaving_pairs

    def counted(self):
        calls.append(self)
        return sweep(self)

    monkeypatch.setattr(Drawing, "_interleaving_pairs", counted)
    d = Drawing.from_edges(7, [(1, 4), (2, 4), (3, 4), (1, 3), (4, 7), (4, 6), (5, 7)])
    assert d.crossing_pairs == brute_crossing_pairs(d)
    assert len(calls) == 1
    # the enumerator's drawings skip validation and sweep on first read
    calls.clear()
    t = _trusted_drawing(d.n, d.edges)
    assert t.crossing_pairs == d.crossing_pairs and len(calls) == 1
    calls.clear()
    message = "edge (1, 4) is crossed 2 times: not outer-1-plane in given order"
    with pytest.raises(InvalidDrawingError, match=re.escape(message)):
        Drawing.from_edges(6, [(1, 4), (2, 6), (3, 5)])
    assert len(calls) == 1
