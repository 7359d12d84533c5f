"""Structure finder, light edges, reductions, and the edge-addition check."""

import hashlib
import io

import pytest

from outer1planar import (
    Drawing,
    cli,
    check_d1,
    color_list_3_dynamic,
    cycle,
    delete_vertices,
    emit_drawing,
    find_light_edge,
    find_matches,
    find_reduction,
    find_structure,
    get_pattern,
    h_family,
    is_maximal,
    random_outer_1_planar,
    sharp_example,
    uniform_lists,
)
from outer1planar import coloring, oracle, structure
from outer1planar.catalog import Match
from outer1planar.drawing import InvalidDrawingError, iter_all_pairs, normalize_edge
from outer1planar.structure import ReductionStep, StructureNotFound, _Peeler

from .conftest import double_g10, double_g11, g3_flip_host, polygon_drawing


def test_cycle_yields_g1():
    assert find_structure(cycle(7)).pattern_id == 1


def test_h13_yields_g13():
    assert find_structure(h_family(13)).pattern_id == 13


def test_triangle_yields_g1():
    tri = Drawing.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    assert find_structure(tri).pattern_id == 1


def test_k4_drawing_yields_g6():
    k4 = Drawing.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4)])
    assert find_structure(k4).pattern_id == 6


def test_excluded_n5_case():
    # path plus the two crossing chords of the five-vertex excluded case:
    # the scan hits the 3rd configuration first, and the 7th (the one the
    # end-block argument names for this shape) is present as well
    d = Drawing.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (2, 5)])
    m = find_structure(d)
    assert m.pattern_id == 3
    sevens = find_matches(d, get_pattern(7))
    assert sevens and sevens[0].assignment == {"x": 1, "v": 2, "u": 3, "w": 4, "y": 5}


def test_structure_not_found_on_edgeless():
    with pytest.raises(StructureNotFound):
        find_structure(Drawing.from_edges(2, []))


def test_light_edge_triangle():
    tri = Drawing.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    assert find_light_edge(tri).degree_sum == 4


def test_light_edge_c9():
    le = find_light_edge(cycle(9))
    assert le.degree_sum == 4


def test_light_edge_sharp_regression():
    le = find_light_edge(sharp_example())
    assert le.degree_sum <= 9
    # frozen: the 8th configuration's 3+3 edge in the sharp example
    assert le.endpoints == (4, 5) and le.degree_sum == 6


def min_edge_degree_sum(d):
    degs = d.degrees
    return min(degs[u] + degs[v] for u, v in d.edges)


def hub_witness():
    """12 vertices: hubs 1, 4, 7, 10 form a K4, and between each hub h and
    the next hub sit h + 1 and h + 2, joined to both so that h-(h + 2) and
    (h + 1)-(next hub) cross.  Hubs have degree 7, the rest degree 2."""
    hubs = (1, 4, 7, 10)
    edges = [(1, 4), (4, 7), (7, 10), (1, 10), (1, 7), (4, 10)]
    for h, nxt in zip(hubs, hubs[1:] + hubs[:1]):
        edges += [(h, h + 1), (h + 1, nxt), (h, h + 2), (h + 2, nxt)]
    return Drawing.from_edges(12, edges)


def test_light_edge_bound_9_is_sharp():
    d = hub_witness()
    assert (len(d.edges), len(d.crossing_pairs), d.min_degree) == (22, 5, 2)
    assert d.is_connected() and min_edge_degree_sum(d) == 9
    le = find_light_edge(d)
    assert le.endpoints in d.edges and le.degree_sum == min_edge_degree_sum(d)


def test_light_edge_bound_7_is_sharp_for_maximal_drawings():
    d = Drawing.from_edges(
        8,
        [(1, 2), (1, 8), (2, 3), (2, 4), (2, 6), (2, 8), (3, 4), (4, 5), (4, 6), (4, 8), (5, 6), (6, 7), (6, 8), (7, 8)],
    )
    assert is_maximal(d) and min_edge_degree_sum(d) == 7
    le = find_light_edge(d, maximal_mode=True)
    assert le.endpoints in d.edges and le.degree_sum == min_edge_degree_sum(d)


def test_maximal_drawings_never_carry_configuration_3(classes):
    # In a maximal drawing a degree-2 vertex is joined to both its boundary
    # neighbors: a missing boundary edge crosses nothing, so it could be
    # added.  Configuration 3's u and v have degree 2 and the neighbors x
    # and y, so both would sit between x and y, forcing n = 4, where a chord
    # can still be added.  So every drawing that carries it accepts an edge.
    p3 = get_pattern(3)
    carriers = 0
    for n in range(4, 8):
        for d in classes(n, "all"):
            if not find_matches(d, p3):
                continue
            carriers += 1
            twos = [v for v, k in d.degrees.items() if k == 2]
            missing = {normalize_edge(v, w) for v in twos for w in (v % n + 1, (v - 2) % n + 1)}
            missing |= {(1, 3), (2, 4)} if n == 4 else set()
            assert any(_accepts(d, e) for e in missing - d.edges), sorted(d.edges)
    assert carriers == 1602


def _accepts(d, e):
    try:
        Drawing(d.n, d.edges | {e})
    except InvalidDrawingError:
        return False
    return True


def test_reduction_single_vertex():
    s = find_reduction(Drawing.from_edges(1, []))
    assert s.kind == "P1-pendant" and s.deleted == (1,)


def test_reduction_c4():
    s = find_reduction(cycle(4))
    assert s.kind == "P2-adjacent-deg2" and s.deleted == (1, 2)


def test_reduction_sharp_regression():
    s = find_reduction(sharp_example())
    assert s.kind == "P1-pendant" and s.deleted == (1,)


def test_reduction_triangle_with_deg2():
    # diamond: triangle rule fires after the adjacent-deg-2 rule misses
    d = Drawing.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    s = find_reduction(d)
    assert s.kind == "P3-triangle-deg2"
    assert s.anchors["u"] == 2 and {s.anchors["x"], s.anchors["y"]} == {1, 3}


def test_reduction_deeper_kinds():
    s10 = find_reduction(double_g10())
    assert s10.kind == "P9-G10"
    s11 = find_reduction(double_g11())
    assert s11.kind == "P10-G11"
    assert len(s11.deleted) == 3


def test_reduction_flip_normalization():
    d = g3_flip_host()
    s = find_reduction(d)
    assert s.kind == "P4-G3"
    # the mirror puts x on the degree-4 side so the rule's cases apply
    assert d.degrees[s.anchors["x"]] >= 4
    assert d.degrees[s.anchors["y"]] == 3
    assert "y1" in s.anchors


def test_shapes_table_fits_the_catalog():
    from outer1planar.coloring import _HANDLERS
    from outer1planar.structure import _SHAPES

    for pid, kind, deletes, swaps, avoid in _SHAPES:
        p = get_pattern(pid)
        assert {*deletes, *(l for pair in (*swaps, *avoid) for l in pair)} <= set(p.labels), kind
        # the mirror used for the degree cases is an automorphism of the
        # edges; pop swaps pair by pair, so the pairs must be disjoint
        assert len({l for pair in swaps for l in pair}) == 2 * len(swaps), kind
        sigma = {l: m for a, b in swaps for l, m in ((a, b), (b, a))}
        edges = {frozenset(e) for e in p.edges}
        assert {frozenset(sigma.get(l, l) for l in e) for e in edges} == edges, kind
    # the reducible configurations of catalog fact (d), in priority order
    assert [row[0] for row in _SHAPES] == [3, 6, 7, 8, 9, 10, 11]
    # the primitive shapes and configurations 3 and 6 have no handler:
    # coloring._extend plays their records itself
    assert [row[1] for row in _SHAPES[2:]] == list(_HANDLERS)


def test_reduction_delete_keeps_drawing_valid(classes):
    for n in range(1, 7):
        for d in classes(n, "all"):
            s = find_reduction(d)
            assert s.deleted
            if len(s.deleted) < d.n:
                delete_vertices(d, s.deleted)  # validates on construction


def test_check_d1_on_subcase_host():
    # the five-vertex host whose reorder 1,3,2,4,5 witnesses the added edge
    d = Drawing.from_edges(5, [(1, 3), (2, 5), (2, 3), (3, 4), (4, 5)])
    m = find_matches(d, get_pattern(3))[0]
    assert sorted((m.assignment["u"], m.assignment["v"])) == [2, 4]
    assert check_d1(d, m) is True


def test_check_d1_trivial_small():
    c4 = cycle(4)
    m = find_matches(c4, get_pattern(3))[0]
    assert check_d1(c4, m) is True


def test_check_d1_needs_u_and_v_and_accepts_a_present_edge(monkeypatch):
    c4 = cycle(4)
    with pytest.raises(ValueError, match="^check_d1 needs a match with u and v anchors$"):
        check_d1(c4, Match(3, {"u": 1, "x": 2}))
    # an edge the drawing already has is answered without the oracle
    monkeypatch.setattr(oracle, "is_outer_1_planar", lambda g: pytest.fail("the oracle was asked"))
    assert check_d1(c4, Match(3, {"u": 2, "v": 1})) is True


def test_check_d1_d1_holds_under_structure_hypotheses(classes):
    # whenever the structure search returns the 3rd configuration on a
    # small host, the promised edge addition keeps outer-1-planarity
    checked = 0
    for n in range(4, 8):
        for d in classes(n, "connected-min-deg-2"):
            m = find_structure(d)
            if m.pattern_id == 3:
                assert check_d1(d, m)
                checked += 1
    assert checked > 0


def _peel_disagreements(d: Drawing) -> int:
    """Peel d, counting the steps where the long-lived peeler's pop differs
    from a fresh search over the same survivors."""
    peeler = _Peeler(d)
    bad = 0
    while peeler.degrees:
        step = peeler.pop()
        bad += step != find_reduction(peeler)
        peeler.remove(step.deleted)
    return bad


def test_incremental_peel_matches_fresh_search(classes):
    drawings = [d for n in range(1, 8) for d in classes(n, "all")]
    drawings += [h_family(i) for i in range(2, 18)]
    drawings += [double_g10(), double_g11(), g3_flip_host()]
    drawings += [random_outer_1_planar(200, density, seed) for density, seed in ((0.3, 1), (0.6, 2), (0.9, 3))]
    bad = [d for d in drawings if _peel_disagreements(d)]
    assert not bad, f"{len(bad)} of {len(drawings)} peels disagree, first {sorted(bad[0].edges)}"


def test_third_neighbors_are_named_exactly_at_degree_3(classes):
    # the extension rules read x1 (y1) exactly when x (y) has degree 3, and
    # state their cases for d(x) >= d(y) on every shape with a mirror swap
    from outer1planar.structure import _SHAPES

    mirrored = {kind for _, kind, _, swaps, _ in _SHAPES if swaps}
    drawings = [d for n in range(1, 8) for d in classes(n, "all")]
    drawings += [double_g10(), double_g11(), g3_flip_host()]
    seen = set()
    for d in drawings:
        peeler = _Peeler(d)
        while peeler.degrees:
            step = peeler.pop()
            a, degs = step.anchors, peeler.degrees
            if step.kind not in ("P1-pendant", "P2-adjacent-deg2"):
                seen.add(step.kind)
                for label in ("x", "y"):
                    assert (label + "1" in a) == (degs[a[label]] == 3), (sorted(d.edges), step)
                if step.kind in mirrored:
                    assert not degs[a["x"]] == 3 < degs[a["y"]], (sorted(d.edges), step)
            peeler.remove(step.deleted)
    assert seen == {"P3-triangle-deg2"} | {kind for _, kind, *_ in _SHAPES}


def test_peeler_never_writes_to_the_drawing(classes):
    # the peeler shares the drawing's neighbor sets and copies one only
    # before its first write: a fresh peeler's pop copies nothing, its first
    # remove copies the sets of exactly the survivors that lost a neighbor,
    # and neither a query nor a whole coloring changes the drawing's
    # adjacency, by value or by object
    drawings = [d for n in range(1, 7) for d in classes(n, "all")]
    drawings += [h_family(i) for i in range(2, 18)]
    for d in drawings:
        adjacency = d.adjacency
        sets = dict(adjacency)
        values = {v: set(ns) for v, ns in adjacency.items()}
        peeler = _Peeler(d)
        step = peeler.pop()
        assert all(peeler.adjacency[v] is ns for v, ns in sets.items())
        peeler.remove(step.deleted)
        lost = {w for v in step.deleted for w in sets[v]} - set(step.deleted)
        assert {v for v, ns in peeler.adjacency.items() if ns is not sets[v]} == lost
        find_reduction(d)
        color_list_3_dynamic(d, uniform_lists(d, 6))
        assert d.adjacency is adjacency and d.adjacency == values
        assert all(d.adjacency[v] is ns for v, ns in sets.items())
        assert d.degrees == {v: len(ns) for v, ns in values.items()}


def test_rooted_search_schedule_is_pinned(monkeypatch):
    # the peel's re-searches around the vertices whose degree fell, by
    # (configuration, root label): a change to the peel's bookkeeping must
    # start exactly these searches and find exactly these occurrences
    searches, found = {}, []
    rooted = structure._rooted_occurrences

    def counted(p, degs, adj, label, roots):
        out = rooted(p, degs, adj, label, roots)
        searches[p.id, label] = searches.get((p.id, label), 0) + 1
        found.extend(out)
        return out

    monkeypatch.setattr(structure, "_rooted_occurrences", counted)
    for seed, keep in ((1, 0.3), (2, 0.6), (3, 0.9)):
        d = polygon_drawing(200, seed, keep)
        color_list_3_dynamic(d, uniform_lists(d, 6))
    assert searches == {
        (3, "u"): 14,
        (3, "v"): 14,
        (3, "y"): 23,
        (6, "u"): 91,
        (6, "v"): 91,
        (6, "y"): 23,
        (7, "u"): 2,
        (7, "v"): 6,
        (7, "w"): 6,
        (7, "y"): 2,
        (8, "w"): 1,
    }
    assert sum(searches.values()) == 273 and len(found) == 91


def _state(g):
    return dict(g.degrees), {v: set(ns) for v, ns in g.adjacency.items()}


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
    forms = set()
    for d in drawings:
        peeler, lockstep = _Peeler(d), _Peeler(d)
        run = peeler.peel()
        assert not peeler.degrees
        before = []
        for rec in run:
            before.append(_state(lockstep))
            config = isinstance(rec[0], ReductionStep)
            lockstep.remove(rec[0].deleted if config else rec[: 2 if len(rec) == 4 else 1])
            forms.add(_record_form(rec))
        colors, lists = {}, uniform_lists(d, 6)
        for rec, state in zip(reversed(run), reversed(before)):
            coloring._extend(peeler, [rec], colors, lists)
            assert _state(peeler) == state, (sorted(d.edges), rec)
        assert _state(peeler) == _state(d)
    assert forms == {"pendant", "pair", "triangle", "P4-G3", "P5-G6"} | {row[1] for row in structure._SHAPES[2:]}


def _record_form(rec):
    """The form of a record of _Peeler.peel: a primitive shape's, the kind of
    configuration 3 or 6, or the kind of a step of 7-11."""
    if isinstance(rec[0], ReductionStep):
        return rec[0].kind
    if len(rec) == 3:
        return "P5-G6" if rec[1] in rec[2] else "P4-G3"
    return "pair" if len(rec) == 4 else "pendant" if len(rec[1]) <= 1 else "triangle"


def test_peel_without_a_reducible_shape_is_refused():
    # K6 has every degree 5, so none of the ten shapes fits: only an input
    # that is not outer-1-planar reaches this exit
    k6 = oracle._trusted_drawing(6, frozenset(iter_all_pairs(6)))
    message = "no reducible configuration: the input is not outer-1-planar, or the catalog is wrong"
    with pytest.raises(StructureNotFound, match=message):
        find_reduction(k6)
    with pytest.raises(StructureNotFound, match=message):
        color_list_3_dynamic(k6, uniform_lists(k6, 6))


# SHA-256 over the structure layer's answers below: find_structure,
# find_light_edge in both modes, the first match of `o1p find-config
# --check-d2` and find_reduction.  Their tie-breaks are fixed, so any change
# of an answer, by design or by accident, shows up here.
GOLDEN_STRUCTURE_SHA256 = "727b9d1e967b9c7fa85a25a644f80033ec208d74071acd56cf3632c60bbb5fde"


def test_structure_layer_golden_digest(classes, monkeypatch, capsys):
    drawings = [d for n in range(1, 7) for d in classes(n, "all")]
    drawings += [h_family(i) for i in range(2, 18)] + [sharp_example()]
    drawings += [double_g10(), double_g11(), g3_flip_host()]
    drawings += [
        polygon_drawing(n, seed, keep) for n, seed, keep in ((12, 1, 0.4), (20, 2, 0.7), (30, 3, 0.5), (40, 4, 0.9))
    ]

    def answer(fn, d) -> str:
        try:
            return repr(fn(d))
        except StructureNotFound:
            return "StructureNotFound"

    def first_d2_match(d) -> str:
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_drawing(d)))
        code = cli.run(["find-config", "--check-d2", "-"])
        out = capsys.readouterr()[0]
        return out if code == 0 else f"exit {code}"

    digest = hashlib.sha256()
    for d in drawings:
        digest.update(f"{sorted(d.edges)}\n".encode())
        for fn in (find_structure, find_light_edge, lambda d: find_light_edge(d, True), find_reduction):
            digest.update(f"{answer(fn, d)}\n".encode())
        digest.update(first_d2_match(d).encode())
    assert digest.hexdigest() == GOLDEN_STRUCTURE_SHA256


def _carries_p2_or_p3(d: Drawing, occurrence) -> bool:
    """Do the occurrence's own vertices hold two adjacent degree-2 vertices
    (P2), or a degree-2 vertex whose two neighbors are adjacent (P3)?"""
    degs, adj = d.degrees, d.adjacency
    own = set(occurrence)
    for u in own:
        if degs[u] == 2:
            x, y = adj[u]
            if any(w in own and degs[w] == 2 for w in (x, y)):
                return True
            if x in own and y in own and y in adj[x]:
                return True
    return False


def test_unreducible_configurations_carry_p2_or_p3_in_their_hosts(classes):
    # The chain from the structural theorem to a peel that cannot fail: every
    # configuration outside the reducible set carries P2 or P3 on its own
    # vertices, in the host's degrees, so the host always has a reduction.
    hosts = [h_family(i) for i in range(2, 18)]
    hosts += [d for n in range(1, 8) for d in classes(n, "all")]
    hosts += classes(8, "connected-min-deg-2")
    seen = dict.fromkeys((1, 2, 4, 5, 12, 13, 14, 15, 16, 17), 0)
    for d in hosts:
        found = False
        for pid in seen:
            for m in find_matches(d, get_pattern(pid)):
                assert _carries_p2_or_p3(d, m.assignment.values()), (sorted(d.edges), pid, m.assignment)
                seen[pid] += 1
                found = True
        if found:
            find_reduction(d)  # raises StructureNotFound on failure
    assert all(seen.values()), seen
