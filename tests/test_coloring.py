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
from outer1planar.coloring import Verdict, Violation, _extend, _is_dynamic, _peel, coloring_to_json, parse_coloring_json
from outer1planar.structure import _SHAPES, ReductionStep, _Peeler

from .conftest import (
    delete_with_map,
    double_g10,
    double_g11,
    fan,
    g3_flip_host,
    polygon_drawing,
    two_hubs,
    windmill,
)


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


def test_verify_reports_a_stray_vertex():
    # a key outside 1..n makes a coloring of another vertex set: each one is
    # reported, beside any uncolored vertex, and the one-pass check agrees
    c5 = cycle(5)
    colors = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 9: 1}
    verdict = verify_dynamic(c5, colors, 3)
    assert not verdict.valid and not _is_dynamic(c5, colors, 3)
    assert [(v.kind, v.vertex) for v in verdict.violations] == [("stray-vertex", 9)]
    verdict = verify_dynamic(c5, {1: 1, 2: 2, 3: 3, 4: 4, 0: 5, -1: 1}, 3)
    kinds = [(v.kind, v.vertex) for v in verdict.violations]
    assert kinds == [("missing-color", 5), ("stray-vertex", -1), ("stray-vertex", 0)]


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
                        assert _is_dynamic(d, c, r) == verdict.valid
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
    # the local check catches a pick that leaves an improper edge; the
    # failure names the shape, and o1p color exits 3 with a JSON error.
    # The pendant rule picks through _first, here a first that takes a
    # forbidden color: on the path 3 comes back first, then 2 copies its color.
    import outer1planar.coloring as col
    from outer1planar import emit_drawing
    from outer1planar.cli import run

    monkeypatch.setattr(col, "_first", lambda lists, v, forbidden: min(forbidden, default=1))
    d = Drawing.from_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(ExtensionFailure, match="P1-pendant left a violation"):
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
    # after the classes, drawings with hubs, whose neighbors the check skips
    hubs = (fan(9), fan(14), fan(13, crossing=True), fan(16, crossing=True), two_hubs(16))
    for population in (*(classes(n, "all") for n in range(2, 7)), hubs):
        for d in population:
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
                assert col._valid_around(d.adjacency, step, partial, colors) == full
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
                    assert not col._valid_around(d.adjacency, step, before, missing), (sorted(d.edges), v)
                    cases += 1
    assert cases > 1000


def _record_parts(rec):
    """The deleted vertices of a record of a peel, and their neighbor
    sets as popped."""
    if isinstance(rec[0], ReductionStep):  # configurations 7-11: (step, popped)
        return rec[0].deleted, list(rec[1])
    k = len(rec) // 2  # a configuration 3 or 6 record, (u, v, us), deletes one vertex
    return rec[:k], list(rec[-k:])


def _record_step(rec, adj):
    """(kind, deleted, anchors) of the step a record of a peel stands
    for, read off adj (a degree is a set's size) while the record's
    vertices are present: as pop reads them before the deletion and as the
    extension reads them once the record is put back."""
    if isinstance(rec[0], ReductionStep):
        return rec[0].kind, rec[0].deleted, rec[0].anchors
    u, deleted = rec[0], _record_parts(rec)[0]
    if len(rec) == 3:
        # configuration 3 (v apart from u) or 6 (v next to u): pop's least
        # key puts the lesser of u's other neighbors on x unless the greater
        # one's degree passes y's cap of 7; then the mirror swap, and the
        # third neighbors besides u and v
        v = rec[1]
        x, y = sorted(rec[2] - {v})
        if len(adj[y]) > 7 or len(adj[x]) == 3 and len(adj[y]) >= 4:
            x, y = y, x
        anchors = {"u": u, "v": v, "x": x, "y": y}
        for label, h in (("x1", x), ("y1", y)):
            if len(adj[h]) == 3:
                (anchors[label],) = adj[h] - {u, v}
        return "P5-G6" if v in rec[2] else "P4-G3", deleted, anchors
    if len(rec) == 4:
        v = rec[1]
        return "P2-adjacent-deg2", deleted, {"u": u, "v": v, "x": min(adj[u] - {v}), "y": min(adj[v] - {u})}
    if len(adj[u]) <= 1:
        return "P1-pendant", deleted, {"u": u, "v": min(adj[u])} if len(adj[u]) else {"u": u}
    x, y = sorted(adj[u])
    anchors = {"u": u, "x": x, "y": y}
    for label, h, o in (("x1", x, y), ("y1", y, x)):
        if len(adj[h]) == 3:
            (anchors[label],) = adj[h] - {u, o}
    return "P3-triangle-deg2", deleted, anchors


def _state(g):
    """The degrees and neighbor sets of g's survivors (a drawing or a peeler)."""
    return {v: len(ns) for v, ns in g.adjacency.items()}, {v: set(ns) for v, ns in g.adjacency.items()}


def test_restore_undoes_remove(classes):
    # peel to empty, then put the records back last first, one extension
    # call each: each must give back the survivors' degrees and neighbor
    # sets from just before that record's deletion, in every record form
    # (a pendant, a pair, a triangle, configurations 3 and 6, and a step of
    # 7-11), adjacent deletions too.  A lockstep peeler takes each
    # record's deletion alone to see the state before it.
    drawings = [d for n in range(1, 8) for d in classes(n, "all")]
    drawings += [h_family(i) for i in range(2, 18)]
    drawings += [double_g10(), double_g11(), g3_flip_host()]
    kinds = set()
    for d in drawings:
        peeler, lockstep = _Peeler(d), _Peeler(d)
        run = _peel(peeler)
        assert not peeler.adjacency
        before = []
        for rec in run:
            before.append(_state(lockstep))
            kinds.add(_record_step(rec, lockstep.adjacency)[0])
            lockstep.remove(_record_parts(rec)[0])
        colors, lists = {}, uniform_lists(d, 6)
        for rec, state in zip(reversed(run), reversed(before)):
            _extend(peeler.adjacency, [rec], colors, lists)
            assert _state(peeler) == state, (sorted(d.edges), rec)
        assert _state(peeler) == _state(d)
    assert kinds == {"P1-pendant", "P2-adjacent-deg2", "P3-triangle-deg2"} | {row[1] for row in _SHAPES}


def test_primitive_check_gives_the_generic_verdict(classes, monkeypatch):
    # at every shape of a peel but configurations 7-11, a pick of a random
    # color (at times none) that at times also recolors a neighbor the rule
    # must keep (a pendant's v, a pair's or a triangle's x or y,
    # configuration 3's or 6's v, x or y) is refused exactly when
    # _valid_around refuses the same state, and always when such a
    # neighbor changed.  Each trial puts the record back alone and takes it
    # off again.  The pendants of h_family hang off vertices of degree 6
    # and 8, where v's neighbors are not read.
    import outer1planar.coloring as col

    rng = random.Random(24)
    extend, first, peel = col._extend, col._first, col._peel
    trial = []  # (the coloring being scrambled, the neighbors to keep) while a trial runs
    seen, peelers = set(), []

    def keeping(p):  # the probe takes each record off again through the peeler's remove
        peelers.append(p)
        return peel(p)

    def scramble(lists, u, forbidden):
        if not trial:
            return first(lists, u, forbidden)
        colors, kept = trial[0]
        if kept and rng.random() < 0.2:
            colors[rng.choice(kept)] = rng.randint(1, 4)
        return rng.randint(1, 4) if rng.random() < 0.9 else None

    def probe(adj, run, colors, lists):
        p = peelers.pop()
        for rec in reversed(run):
            if isinstance(rec[0], ReductionStep):  # configurations 7-11 get _valid_around itself
                extend(adj, [rec], colors, lists)
                continue
            deleted, sets = _record_parts(rec)
            # a pendant keeps v, a pair and a triangle keep x and y, and
            # configurations 3 and 6 keep v, x and y
            kept = sorted((rec[2] - {rec[1]}) | rec[3]) if len(rec) == 4 else sorted(sets[0] | set(rec[1:-1]))
            for _ in range(4):
                t = dict(colors)
                trial.append((t, kept))
                try:
                    extend(adj, [rec], t, lists)
                    refused = ""
                except ExtensionFailure as exc:
                    refused = str(exc)
                trial.clear()
                step = ReductionStep(*_record_step(rec, adj))
                kind = step.kind
                assert not refused or kind in refused, (kind, refused)
                recolored = any(t[w] != colors[w] for w in kept)
                if recolored:
                    assert refused
                else:
                    assert bool(refused) != col._valid_around(adj, step, colors, t)
                wide = kind == "P1-pendant" and bool(kept) and len(adj[kept[0]]) >= 4
                seen.add((kind, recolored, bool(refused), wide))
                assert p.remove(deleted) == sets
            extend(adj, [rec], colors, lists)

    monkeypatch.setattr(col, "_first", scramble)
    monkeypatch.setattr(col, "_peel", keeping)
    monkeypatch.setattr(col, "_extend", probe)
    hosts = [h_family(i) for i in range(2, 18)]
    for d in [d for n in range(1, 7) for d in classes(n, "all")] + hosts:
        color_list_3_dynamic(d, uniform_lists(d, 6))
    pendant = "P1-pendant"
    assert {(pendant, True, True, False), (pendant, True, True, True)} <= seen
    assert {(pendant, False, r, w) for r in (True, False) for w in (True, False)} <= seen
    for kind in ("P2-adjacent-deg2", "P3-triangle-deg2", "P4-G3", "P5-G6"):
        assert {(kind, True, True, False), (kind, False, True, False), (kind, False, False, False)} <= seen


def _lean_population(classes):
    """Every class with n <= 7, the minimality witnesses, a fan and a windmill."""
    drawings = [d for n in range(1, 8) for d in classes(n, "all")]
    return drawings + [h_family(i) for i in range(2, 18)] + [fan(40), windmill(41)]


def _peel_steps(d, runs):
    """(kind, deleted, anchors) of each step of d's peel, by pop alone or by
    one peel.  A lockstep peeler q holds the state before each record's
    deletion, and its sets must be the record's."""
    p, q, steps = _Peeler(d), _Peeler(d), []
    for rec in _peel(p) if runs else ():
        deleted, sets = _record_parts(rec)
        steps.append(_record_step(rec, q.adjacency))
        assert q.remove(deleted) == sets
    while p.adjacency:
        step = p.pop()
        p.remove(step.deleted)
        steps.append((step.kind, step.deleted, step.anchors))
    return steps


def test_primitive_runs_give_the_steps_of_pop(classes):
    kinds = {}
    for d in _lean_population(classes):
        steps = _peel_steps(d, runs=True)
        assert steps == _peel_steps(d, runs=False), sorted(d.edges)
        for kind, _, _ in steps:
            kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["P1-pendant"] > 30000
    assert kinds["P2-adjacent-deg2"] > 5000 and kinds["P3-triangle-deg2"] > 3000, kinds
    assert kinds["P4-G3"] > 200 and kinds["P5-G6"] > 500, kinds
    assert kinds["P6-G7"] + kinds["P7-G8"] > 20, kinds


@pytest.mark.parametrize(
    "kind, rule, edges, u, x",
    [  # the pendant 1 off 2 of a path; the pair 1, 2 between 5 and 3 of a
        # 5-cycle; 2 on the triangle 1, 2, 3 of a diamond; u = 1 of K(2, 3)
        # with its x = 2 (v = 3, y = 4, all three degree-2 vertices on 2 and
        # 4); u = 1 and its v = 2 of K4, which the peel takes before a pair
        # and a pendant
        ("P1-pendant", "_extend", [(1, 2), (2, 3)], 1, 2),
        ("P2-adjacent-deg2", "_color_p2", [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 1, 5),
        ("P3-triangle-deg2", "_color_g6", [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)], 2, 1),
        ("P4-G3", "_color_g6", [(1, 2), (2, 3), (2, 5), (1, 4), (3, 4), (4, 5)], 1, 2),
        ("P5-G6", "_color_g6", [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4)], 1, 2),
    ],
    ids=["P1", "P2", "P3", "P4-G3", "P5-G6"],
)
def test_pair_and_triangle_faults_name_their_shape(kind, rule, edges, u, x, monkeypatch, tmp_path, capsys):
    # a run shape's rule colors its deleted vertices only, so a pick that
    # also recolors a kept neighbor x (a pendant's v, a pair's or a
    # triangle's x or y, configuration 3's x, configuration 6's v) is
    # refused, here where the whole coloring stays valid, and so is a pick
    # that leaves a violation: through a peel, through extend_step and by
    # o1p color with exit 3.  The faults ride on _first, which reaches the
    # coloring being extended through the rule.
    import outer1planar.coloring as col
    from outer1planar import emit_drawing
    from outer1planar.cli import run

    first, extend = col._first, getattr(col, rule)
    extending = []

    def holding(*args):
        extending.append(args[-2])
        extend(*args)

    def recolor(lists, v, forbidden):
        if v == u:
            extending[-1][x] = 6
        return first(lists, v, forbidden)

    def improper(lists, v, forbidden):
        return min(forbidden) if v == u else first(lists, v, forbidden)

    d = Drawing.from_edges(max(map(max, edges)), edges)
    lists = uniform_lists(d, 6)
    step = find_reduction(d)
    assert step.kind == kind and step.deleted[0] == u and x in step.anchors.values()
    partial = {v: c for v, c in color_list_3_dynamic(d, lists).items() if v not in step.deleted}
    out = extend_step(d, step, partial, lists)
    out[x] = 6
    assert verify_dynamic(d, out, 3).valid
    path = tmp_path / "host.txt"
    path.write_text(emit_drawing(d), encoding="utf-8")
    monkeypatch.setattr(col, rule, holding)
    for bad in (recolor, improper):
        monkeypatch.setattr(col, "_first", bad)
        with pytest.raises(ExtensionFailure, match=kind):
            extend_step(d, step, partial, lists)
        with pytest.raises(ExtensionFailure, match=kind):
            color_list_3_dynamic(d, lists)
        assert run(["color", str(path)]) == 3
        assert kind in json.loads(capsys.readouterr().out)["error"]


def test_extend_step_rejects_a_partial_with_stray_keys(classes):
    # the local check counts colors to see every vertex colored, so a
    # partial that leaves out a vertex of d but names one outside it must
    # be refused before the rule runs.  So must a partial that already
    # colors a deleted vertex: the P1 and P3 rules would avoid that color.
    cases = 0
    for n in range(2, 7):
        for d in classes(n, "connected"):
            step = find_reduction(d)
            colors = color_list_3_dynamic(d, uniform_lists(d, 6))
            partial = {v: c for v, c in colors.items() if v not in step.deleted}
            for v in sorted(partial):
                stray = {w: c for w, c in partial.items() if w != v} | {d.n + 1: 1}
                with pytest.raises(ExtensionFailure, match="outside the drawing"):
                    extend_step(d, step, stray, uniform_lists(d, 6))
                cases += 1
            for v in step.deleted:
                with pytest.raises(ExtensionFailure, match="colors a deleted vertex"):
                    extend_step(d, step, partial | {v: colors[v]}, uniform_lists(d, 6))
    assert cases > 100


@pytest.mark.parametrize("kind", ["P1-pendant", "P5-G6"])
def test_extend_step_refuses_a_step_outside_the_drawing(kind):
    # a step that deletes a vertex d lacks, or whose anchors name one, is
    # refused before its rule runs, not by a bare KeyError from the peeler
    # or the local check; the lists name that vertex too, so the rule could
    # color it in place of a deleted vertex
    d = cycle(5)
    lists = dict.fromkeys(range(1, 10), frozenset(range(1, 7)))
    for deleted, u in (((9,), 1), ((1,), 9)):
        step = ReductionStep(kind, deleted, {"u": u, "x": 2, "y": 5, "v": 3})
        with pytest.raises(ExtensionFailure, match=f"{kind} step: .* outside the drawing"):
            extend_step(d, step, {2: 1, 3: 2, 4: 1, 5: 2}, lists)


@pytest.mark.parametrize(
    "kind, deleted, anchors, chords, partial, match",
    [
        ("nope", (1,), {"u": 1}, [], {2: 1, 3: 2, 4: 3, 5: 1}, " failed: missing 'nope'"),
        ("P6-G7", (1,), {"u": 1}, [], {2: 1, 3: 2, 4: 3, 5: 1}, " failed: missing 'x'"),
        ("P5-G6", (1,), {"u": 1}, [], {2: 1, 3: 2, 4: 3, 5: 1}, " failed: missing 'v'"),
        ("P8-G9", (1, 1), {"u": 1}, [], {2: 1, 3: 2, 4: 3, 5: 1}, " failed: deleted"),
        ("P1-pendant", (1,), {"u": 1, "v": 2}, [], {2: 1, 3: 2, 4: 3, 5: 1}, ""),
        ("P1-pendant", (), {"u": 1}, [], {1: 1, 2: 2, 3: 3, 4: 4, 5: 5}, ""),
        ("P2-adjacent-deg2", (1, 3), {"u": 1, "v": 3, "x": 5, "y": 4}, [], {2: 1, 4: 1, 5: 2}, ""),
        ("P3-triangle-deg2", (1,), {"u": 1, "x": 2, "y": 3}, [(1, 3)], {2: 1, 3: 2, 4: 3, 5: 1}, ""),
        ("P4-G3", (1,), {"u": 1, "v": 2, "x": 5, "y": 3}, [], {2: 1, 3: 2, 4: 3, 5: 1}, ""),
        ("P5-G6", (1,), {"u": 1, "v": 3, "x": 2, "y": 5}, [], {2: 1, 3: 2, 4: 3, 5: 1}, ""),
    ],
    ids=[
        "no-rule", "no-x-anchor", "no-v-anchor", "repeated-vertex", "P1-degree-2", "P1-empty",
        "P2-not-adjacent", "P3-degree-3", "P4-G3-next-to-v", "P5-G6-degree-2",
    ],
)
def test_extend_step_names_a_shape_it_cannot_run(kind, deleted, anchors, chords, partial, match):
    # a kind with no rule, anchors that miss a label the rule reads, a step
    # that deletes a vertex twice, or a P1-P3 or configuration 3 or 6 step
    # whose deleted vertices are not its kind's shape on the 5-cycle (plus
    # chords) is refused by name, not by a bare KeyError or IndexError, and
    # not with an invalid coloring.  Each partial is a valid coloring of d
    # minus the deleted vertices.
    d = Drawing.from_edges(5, [*cycle(5).edges, *chords])
    with pytest.raises(ExtensionFailure, match=f"rule for {kind}{match}"):
        extend_step(d, ReductionStep(kind, deleted, anchors), partial, uniform_lists(d, 6))


@pytest.mark.parametrize(
    "d",
    [fan(2000), fan(2000, crossing=True), windmill(2001), two_hubs(2000)],
    ids=["fan", "crossing-fan", "windmill", "two-hubs"],
)
def test_hub_neighborhoods_are_not_reread(d, monkeypatch):
    # the rules and the local checks read neighbor sets through the peeler's
    # adjacency; summed over a coloring, the elements they read stay linear
    # in n, though the hub is next to almost every shape: reading it once
    # per shape would take about n^2 / 2.  Putting a pendant back adds it to
    # its neighbor's set, which reads no element.
    import outer1planar.coloring as col

    taken = [0]

    class Elements:
        """A neighbor set that counts the elements read from it."""

        def __init__(self, vs):
            self.vs = vs

        def __iter__(self):
            taken[0] += len(self.vs)
            return iter(self.vs)

        def __sub__(self, other):
            taken[0] += len(self.vs)
            return self.vs - other

        def __len__(self):  # a degree: reads no element
            return len(self.vs)

        def add(self, v):
            self.vs.add(v)

    class Counted:
        def __init__(self, adj):
            self._adj = adj

        def __getitem__(self, v):
            return Elements(self._adj[v])

        def __setitem__(self, v, vs):
            self._adj[v] = vs

        def __len__(self):  # the survivor count: reads no element
            return len(self._adj)

    extend = col._extend
    monkeypatch.setattr(col, "_extend", lambda adj, run, c, ls: extend(Counted(adj), run, c, ls))
    color_list_3_dynamic(d, uniform_lists(d, 6))
    assert 0 < taken[0] < 10 * d.n


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
