"""Verifier and the reduce-and-extend coloring engine."""

import hashlib
import json
import random

import pytest

from outer1planar import (
    Drawing,
    ExtensionFailure,
    ListTooSmall,
    color_list_3_dynamic,
    cycle,
    extend_step,
    find_reduction,
    h_family,
    parse_lists,
    random_outer_1_planar,
    sharp_example,
    solve_list_r_dynamic,
    uniform_lists,
    verify_dynamic,
)
from outer1planar.coloring import Verdict, Violation, coloring_to_json, parse_coloring_json
from outer1planar.structure import ReductionStep

from .conftest import delete_with_map, double_g10, double_g11, g3_flip_host, polygon_drawing


def test_verify_c6_valid():
    c6 = cycle(6)
    colors = {1: 1, 2: 2, 3: 3, 4: 1, 5: 2, 6: 3}
    assert verify_dynamic(c6, colors, 3).valid


def test_verify_c6_monochromatic_neighbors():
    c6 = cycle(6)
    colors = {1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 6: 2}
    verdict = verify_dynamic(c6, colors, 3)
    assert not verdict.valid
    assert any(v.kind == "dynamic" for v in verdict.violations)


def test_verify_r1_is_properness():
    rng = random.Random(9)
    for trial in range(100):
        d = random_outer_1_planar(rng.randint(3, 9), rng.random(), seed=trial)
        colors = {v: rng.randint(1, 4) for v in d.vertices}
        proper = all(colors[u] != colors[v] for u, v in d.edges)
        assert verify_dynamic(d, colors, 1).valid == proper


def test_verify_reports_proper_violation():
    verdict = verify_dynamic(cycle(3), {1: 1, 2: 1, 3: 2}, 3)
    assert not verdict.valid
    assert any(v.kind == "proper" and v.edge == (1, 2) for v in verdict.violations)


def _reference_verify(d, colors, r):
    """verify_dynamic as it was before its one-pass answer for valid
    colorings: the report is always built."""
    violations = []
    for v in d.vertices:
        if v not in colors:
            violations.append(Violation("missing-color", vertex=v, detail="uncolored vertex"))
    if violations:
        return Verdict(False, tuple(violations))
    for u, v in sorted([(u, v) for u, v in d.edges if colors[u] == colors[v]]):
        violations.append(
            Violation("proper", edge=(u, v), detail=f"both endpoints colored {colors[u]}")
        )
    for v in d.vertices:
        need = min(r, d.degrees[v])
        got = len({colors[w] for w in d.adjacency[v]})
        if got < need:
            violations.append(
                Violation(
                    "dynamic",
                    vertex=v,
                    detail=f"neighbors show {got} colors, need {need}",
                )
            )
    return Verdict(not violations, tuple(violations))


def test_verify_matches_reference(classes):
    # whole verdicts, violations and their order included, on random
    # colorings with 1-4 colors, with and without an uncolored vertex
    rng = random.Random(1919)
    valid = 0
    for n in range(1, 7):
        for d in classes(n, "all"):
            for k in (1, 2, 3, 4):
                colors = {v: rng.randint(1, k) for v in d.vertices}
                holed = dict(colors)
                del holed[rng.choice(d.vertices)]
                for r in (1, 2, 3):
                    for c in (colors, holed):
                        verdict = verify_dynamic(d, c, r)
                        assert verdict == _reference_verify(d, c, r), (sorted(d.edges), c, r)
                        valid += verdict.valid
    assert valid > 100


def test_verify_monotone_in_r():
    rng = random.Random(31)
    for trial in range(500):
        d = random_outer_1_planar(rng.randint(3, 10), rng.random(), seed=trial)
        colors = {v: rng.randint(1, 6) for v in d.vertices}
        for r in range(3, 1, -1):
            if verify_dynamic(d, colors, r).valid:
                assert verify_dynamic(d, colors, r - 1).valid


def test_single_vertex_gets_smallest():
    d = Drawing.from_edges(1, [])
    assert color_list_3_dynamic(d, {1: frozenset(range(1, 7))}) == {1: 1}


def test_list_too_small():
    d = cycle(4)
    with pytest.raises(ListTooSmall):
        color_list_3_dynamic(d, {v: frozenset({1, 2, 3}) for v in d.vertices})


SIX = frozenset(range(1, 7))


@pytest.mark.parametrize(
    "lists, message",
    [
        # vertex 1 is short and vertex 4 has no list: the coverage error wins
        ({1: frozenset({1}), 2: SIX, 3: SIX}, "lists must cover exactly the vertices 1..4"),
        ({1: frozenset({1}), 2: SIX, 3: SIX, 5: SIX}, "lists must cover exactly the vertices 1..4"),
        ({1: SIX, 2: SIX, 3: SIX, 4: SIX, 5: SIX}, "lists must cover exactly the vertices 1..4"),
        ({1: SIX, 2: SIX, 3: frozenset({1}), 4: frozenset()}, "list of vertex 3 has fewer than 6 colors"),
    ],
)
def test_list_check_names_what_is_wrong(lists, message):
    with pytest.raises(ListTooSmall) as err:
        color_list_3_dynamic(cycle(4), lists)
    assert str(err.value) == message


def test_uniform_lists_share_one_palette():
    lists = uniform_lists(cycle(50), 2000)
    assert lists[1] == frozenset(range(1, 2001))
    assert len({id(palette) for palette in lists.values()}) == 1


def test_sharp_example_colors_with_six():
    d = sharp_example()
    c = color_list_3_dynamic(d, uniform_lists(d, 6))
    assert verify_dynamic(d, c, 3).valid


def test_random_drawings_color_and_verify():
    rng = random.Random(9001)
    for i in range(200):
        n = rng.randint(3, 14)
        d = random_outer_1_planar(n, rng.random(), seed=i)
        lists = {v: frozenset(rng.sample(range(1, 13), 6)) for v in d.vertices}
        c = color_list_3_dynamic(d, lists)
        assert verify_dynamic(d, c, 3).valid
        assert all(c[v] in lists[v] for v in d.vertices)


def test_engine_matches_oracle_existence(classes):
    # the engine succeeds wherever the exhaustive oracle says a coloring
    # exists (it always does, for six-color lists on valid drawings)
    rng = random.Random(55)
    for n in range(1, 6):
        for d in classes(n, "all"):
            lists = {v: frozenset(rng.sample(range(1, 13), 6)) for v in d.vertices}
            c = color_list_3_dynamic(d, lists)
            assert verify_dynamic(d, c, 3).valid
            assert solve_list_r_dynamic(d, lists, 3) is not None


def test_determinism_byte_identical():
    d = sharp_example()
    lists = uniform_lists(d, 6)
    a = coloring_to_json(color_list_3_dynamic(d, lists), 3, True)
    b = coloring_to_json(color_list_3_dynamic(d, lists), 3, True)
    assert a == b


def test_deeper_kinds_color():
    rng = random.Random(81)
    for d in (double_g10(), double_g11(), g3_flip_host()):
        for trial in range(30):
            lists = {v: frozenset(rng.sample(range(1, 13), 6)) for v in d.vertices}
            c = color_list_3_dynamic(d, lists)
            assert verify_dynamic(d, c, 3).valid


def test_locality_outside_recolor_branch(classes):
    # non-deleted vertices keep their colors except through the recoloring
    # envelope (anchors z, a, w, v), which only engages for the 10th and
    # 11th configurations
    import outer1planar.coloring as col

    rng = random.Random(6)
    seen_kinds = set()
    for n in range(2, 7):
        for d in classes(n, "connected"):
            step = find_reduction(d)
            if len(step.deleted) == d.n:
                continue
            sub, relabel = delete_with_map(d, step.deleted)
            lists = {v: frozenset(rng.sample(range(1, 13), 6)) for v in d.vertices}
            sub_lists = {new: lists[old] for old, new in relabel.items()}
            sub_colors = col._color(sub, sub_lists)
            inv = {new: old for old, new in relabel.items()}
            partial = {inv[nv]: c for nv, c in sub_colors.items()}
            out = extend_step(d, step, partial, lists)
            allowed = set(step.deleted) | {
                step.anchors[l] for l in ("z", "a", "w", "v") if l in step.anchors
            }
            changed = {v for v in partial if partial[v] != out[v]}
            assert changed <= allowed, (step.kind, changed, allowed)
            seen_kinds.add(step.kind)
    assert "P2-adjacent-deg2" in seen_kinds and "P3-triangle-deg2" in seen_kinds


def test_p2_shared_neighbor_bowtie():
    # adjacent degree-2 pair whose other neighbors coincide (degree-4 hub)
    bow = Drawing.from_edges(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
    s = find_reduction(bow)
    assert s.kind == "P2-adjacent-deg2"
    c = color_list_3_dynamic(bow, uniform_lists(bow, 6))
    assert verify_dynamic(bow, c, 3).valid


def test_g11_rainbow_recoloring_branch():
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 5), (3, 7), (1, 8), (7, 9)]
    d = Drawing.from_edges(9, edges)
    step = ReductionStep(
        "P10-G11",
        (4, 5, 6),
        {"x": 1, "z": 2, "w": 3, "u": 4, "v": 5, "a": 6, "y": 7, "x1": 8, "y1": 9},
    )
    partial = {1: 1, 2: 2, 3: 3, 7: 6, 8: 5, 9: 2}
    lists = {v: frozenset(range(1, 7)) for v in d.vertices}
    c = extend_step(d, step, partial, lists)
    assert verify_dynamic(d, c, 3).valid
    # z and a pulled onto w's old color; w, v, u recolored in order
    assert c[2] == 3 and c[6] == 3 and c[3] == 4 and c[5] == 2 and c[4] == 5


def _g10_gap_case():
    # a reduced coloring with anchors z and y equal: the case in which the
    # 10th configuration's rule recolors z before it colors w and u
    d = double_g10()
    step = find_reduction(d)
    assert step.kind == "P9-G10"
    z, y = step.anchors["z"], step.anchors["y"]
    sub, relabel = delete_with_map(d, step.deleted)
    inv = {new: old for old, new in relabel.items()}
    rng = random.Random(0)
    for _ in range(100000):
        cand = {v: rng.randint(1, 6) for v in sub.vertices}
        if verify_dynamic(sub, cand, 3).valid:
            lifted = {inv[nv]: c for nv, c in cand.items()}
            if lifted[z] == lifted[y]:
                return d, step, lifted
    raise AssertionError("no reduced coloring with z and y equal")


def test_g10_gap_rule_stays_in_envelope():
    # the rule's recoloring of z closes the gap while only touching the
    # sanctioned envelope
    d, step, partial = _g10_gap_case()
    lists = uniform_lists(d, 6)
    out = extend_step(d, step, partial, lists)
    assert verify_dynamic(d, out, 3).valid
    changed = {v for v in partial if partial[v] != out[v]}
    allowed = set(step.deleted) | {
        step.anchors[l] for l in ("z", "a", "w", "v") if l in step.anchors
    }
    assert changed <= allowed


def test_first_sorts_each_distinct_list_once():
    import outer1planar.coloring as col

    d = cycle(60)
    col._sorted.cache_clear()
    assert color_list_3_dynamic(d, uniform_lists(d, 6))
    info = col._sorted.cache_info()
    assert info.misses == 1 and info.hits >= d.n - 1


def test_rule_leaving_a_violation_raises(monkeypatch, tmp_path, capsys):
    # the local check catches a rule that leaves an improper edge; the
    # failure names the shape, and o1p color exits 3 with a JSON error
    import outer1planar.coloring as col
    from outer1planar import emit_drawing
    from outer1planar.cli import run

    def improper(d, a, colors, lists):
        colors[a["u"]] = colors[a["v"]] if "v" in a else 1

    monkeypatch.setitem(col._HANDLERS, "P1-pendant", improper)
    d = Drawing.from_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(ExtensionFailure, match="P1-pendant"):
        color_list_3_dynamic(d, uniform_lists(d, 6))
    path = tmp_path / "path.txt"
    path.write_text(emit_drawing(d), encoding="utf-8")
    assert run(["color", str(path)]) == 3
    assert "P1-pendant" in json.loads(capsys.readouterr().out)["error"]


def test_parse_lists_roundtrip():
    lists = parse_lists("l 1 1 2 3 4 5 6\nl 2 2 3 4 5 6 7\n")
    assert lists == {1: frozenset({1, 2, 3, 4, 5, 6}), 2: frozenset({2, 3, 4, 5, 6, 7})}
    with pytest.raises(ValueError, match="line 2"):
        parse_lists("l 1 1 2\nq 2\n")


def test_coloring_json_roundtrip():
    text = coloring_to_json({1: 3, 2: 4}, 3, True)
    assert parse_coloring_json(text) == {1: 3, 2: 4}


def test_coloring_json_refuses_a_non_integer_vertex():
    with pytest.raises(ValueError, match="^coloring key 'a' is not an integer$"):
        parse_coloring_json('{"colors": {"1": 2, "a": 3}}')


# SHA-256 over every coloring below.  The engine's tie-breaks are fixed, so
# any change of a coloring, by design or by accident, shows up here.
GOLDEN_COLORINGS_SHA256 = "a46be421b05bf08e85ecb0819d6da0c77479ae411dd57fb2b081f230d596200f"


def test_colorings_golden_digest(classes):
    drawings = [d for n in range(1, 7) for d in classes(n, "all")]
    drawings += [double_g10(), double_g11(), g3_flip_host(), sharp_example()]
    drawings += [h_family(i) for i in range(2, 18)]
    rng = random.Random(2019)
    digest = hashlib.sha256()
    for d in drawings:
        random_lists = {v: frozenset(rng.sample(range(1, 10), 6)) for v in d.vertices}
        for lists in (uniform_lists(d, 6), random_lists):
            colors = color_list_3_dynamic(d, lists)
            digest.update(f"{sorted(d.edges)} {coloring_to_json(colors, 3, True)}\n".encode())
    assert digest.hexdigest() == GOLDEN_COLORINGS_SHA256


def test_deep_peel_past_recursion_limit():
    # 1250 peel levels, past CPython's default recursion limit of 1000
    d = cycle(2500)
    c = color_list_3_dynamic(d, uniform_lists(d, 6))
    assert verify_dynamic(d, c, 3).valid
    fresh = Drawing(d.n, d.edges)
    assert d.adjacency == fresh.adjacency and d.degrees == fresh.degrees


def test_off_list_color_caught_at_the_end(monkeypatch):
    import outer1planar.coloring as col

    monkeypatch.setattr(col, "_pick", lambda lists, v, forbidden: 100 + v)
    d = sharp_example()
    with pytest.raises(ExtensionFailure):
        color_list_3_dynamic(d, uniform_lists(d, 6))


def test_local_check_agrees_with_full_verify(classes):
    # with the partial coloring valid on d minus the shape, the check around
    # the touched vertices gives verify_dynamic's verdict on all of d
    import outer1planar.coloring as col

    rng = random.Random(12)
    verdicts = set()
    for n in range(2, 7):
        for d in classes(n, "all"):
            step = find_reduction(d)
            if len(step.deleted) == d.n:
                continue
            sub, relabel = delete_with_map(d, step.deleted)
            sub_colors = col._color(sub, uniform_lists(sub, 6))
            partial = {old: sub_colors[new] for old, new in relabel.items()}
            for _ in range(5):
                colors = dict(partial)
                colors.update({v: rng.randint(1, 4) for v in step.deleted})
                anchor = rng.choice(sorted(step.anchors.values()))
                colors[anchor] = rng.randint(1, 4)
                full = verify_dynamic(d, colors, 3).valid
                assert col._valid_around(d, step, partial, colors) == full
                verdicts.add(full)
    assert verdicts == {True, False}


def test_local_check_rejects_uncolored(classes):
    # a deleted vertex, a neighbor of T or a vertex two steps from T
    # without a color fails the check, as it fails verify_dynamic.  A
    # neighbor that partial colors joins T (its color changed); one that
    # partial leaves out is read as a neighbor only, so both ways are tried.
    import outer1planar.coloring as col

    cases = 0
    for n in range(2, 7):
        for d in classes(n, "all"):
            step = find_reduction(d)
            colors = color_list_3_dynamic(d, uniform_lists(d, 6))
            partial = {v: c for v, c in colors.items() if v not in step.deleted}
            ring = set().union(*(d.adjacency[v] for v in step.deleted)) - set(step.deleted)
            far = set().union(*(d.adjacency[v] for v in ring)) - ring - set(step.deleted)
            for v in (*step.deleted, *sorted(ring), *sorted(far)):
                missing = {w: c for w, c in colors.items() if w != v}
                assert not verify_dynamic(d, missing, 3).valid
                for before in (partial, {w: c for w, c in partial.items() if w != v}):
                    assert not col._valid_around(d, step, before, missing), (sorted(d.edges), v)
                    cases += 1
    assert cases > 1000

# SHA-256 over colorings of three large drawings, first computed with the
# full-scan reduction search before the incremental one replaced it.  Both
# colorings of the second drawing changed when the 10th configuration's
# rule began to recolor z, at the steps where the rule used to fail.
LARGE_COLORINGS_SHA256 = "d13f56887887853f2144a00a77b77a60a91648b5adaa7d8c6f1db018bfc212ab"


def test_large_colorings_digest():
    rng = random.Random(2021)
    digest = hashlib.sha256()
    for d in (polygon_drawing(1000, 1), polygon_drawing(1000, 2, keep=0.8), polygon_drawing(2000, 3)):
        random_lists = {v: frozenset(rng.sample(range(1, 10), 6)) for v in d.vertices}
        digest.update(f"{sorted(d.edges)}\n".encode())
        for lists in (uniform_lists(d, 6), random_lists):
            colors = color_list_3_dynamic(d, lists)
            digest.update(f"{coloring_to_json(colors, 3, True)}\n".encode())
    assert digest.hexdigest() == LARGE_COLORINGS_SHA256
