"""Configuration catalog: transcription facts and containment matching."""

import random
import math
from functools import lru_cache
from importlib import resources

import pytest

from outer1planar import (
    Drawing,
    contains,
    cycle,
    find_matches,
    get_pattern,
    h_family,
    load_catalog,
    random_outer_1_planar,
)
from outer1planar.catalog import (
    MARKED,
    SOLID,
    CatalogError,
    _check_catalog,
    _d2_holds,
    _degree_range,
    _occurrences,
    _parse_catalog,
    _rooted_occurrences,
    light_edge_labels,
    tight_edge_labels,
)

from .conftest import brute_orbit, naive_matches, population


def test_catalog_loads_17():
    cat = load_catalog()
    assert [p.id for p in cat] == list(range(1, 18))


def test_fact_a_light_edge_with_degree_7_partner():
    # every configuration except the 6th has an edge (solid degree 2,
    # endpoint forced to degree <= 7)
    for p in load_catalog():
        if p.id == 6:
            assert light_edge_labels(p) is None or p.id != 6
            continue
        labels = light_edge_labels(p)
        assert labels is not None, p.id
        s, t = labels
        assert p.roles[s].kind == SOLID and p.roles[s].drawn_degree == 2


def test_fact_a_sixth_configuration_has_no_degree_2():
    p = get_pattern(6)
    assert all(
        not (r.kind == SOLID and r.drawn_degree == 2) for r in p.roles.values()
    )


def test_fact_b_tight_edges():
    # every configuration except the 3rd has an edge that is solid-2 against
    # a forced <= 5 endpoint, or solid-3 against solid-3
    for p in load_catalog():
        if p.id == 3:
            assert tight_edge_labels(p) is None
            continue
        assert tight_edge_labels(p) is not None, p.id


def test_fact_c_marked_vertices():
    for p in load_catalog():
        marked = [l for l, r in p.roles.items() if r.kind == MARKED]
        if p.id in (3, 6, 7, 12):
            assert marked == ["y"]
            assert p.roles["y"].degree_cap == 7
        else:
            assert marked == []


def test_drawn_degree_at_least_edge_count():
    stubs = {}
    for p in load_catalog():
        for l in p.labels:
            drawn = p.roles[l].drawn_degree
            assert drawn >= p.edge_count(l)
            if drawn > p.edge_count(l):
                stubs[(p.id, l)] = drawn - p.edge_count(l)
    # stub edges appear exactly where the pictures have half-edges
    assert stubs == {(1, "u"): 1, (1, "v"): 1, (2, "x"): 1, (5, "x"): 1}


def test_g3_anchor_semantics():
    p = get_pattern(3)
    assert p.neighbors("v") == frozenset({"x", "y"})
    assert p.neighbors("u") == frozenset({"x", "y"})
    assert ("u", "v") not in p.edges and ("v", "u") not in p.edges


def test_g6_has_3_3_edge():
    p = get_pattern(6)
    assert tight_edge_labels(p) == ("u", "v")
    assert p.roles["u"].drawn_degree == p.roles["v"].drawn_degree == 3


def test_c5_g1_matches():
    ms = find_matches(cycle(5), get_pattern(1))
    pairs = sorted(tuple(sorted(m.assignment.values())) for m in ms)
    assert pairs == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]


def test_c5_g2_empty():
    assert find_matches(cycle(5), get_pattern(2)) == []


def test_cycle_contains_only_g1():
    c = cycle(9)
    assert [i for i in range(1, 18) if contains(c, i)] == [1]


def test_h7_contains_exactly_g7():
    h = h_family(7)
    assert find_matches(h, get_pattern(7))
    for j in range(1, 18):
        if j != 7:
            assert not find_matches(h, get_pattern(j)), j


def test_matching_invariant_under_rotation_reflection():
    rng = random.Random(77)
    for trial in range(40):
        n = rng.randint(4, 9)
        d = random_outer_1_planar(n, rng.random(), seed=trial)
        rot = rng.randrange(n)
        flip = rng.random() < 0.5
        if flip:
            relabel = {v: ((rot - (v - 1)) % n) + 1 for v in d.vertices}
        else:
            relabel = {v: ((v - 1 + rot) % n) + 1 for v in d.vertices}
        d2 = Drawing.from_edges(n, [(relabel[u], relabel[v]) for u, v in d.edges])
        for pid in range(1, 18):
            assert bool(find_matches(d, get_pattern(pid))) == bool(
                find_matches(d2, get_pattern(pid))
            )


def test_matcher_agrees_with_naive_exhaustively_small(classes):
    for n in range(1, 6):
        for d in classes(n, "all"):
            for pid in range(1, 18):
                p = get_pattern(pid)
                mine = [tuple(m.assignment[l] for l in p.labels) for m in find_matches(d, p)]
                assert mine == naive_matches(d, p)


def test_matcher_agrees_with_naive_on_witnesses():
    # h_family(i) holds configuration i, so every configuration is compared
    # here, including the rare ones that a small random sample can miss
    for i in range(2, 18):
        d = h_family(i)
        for pid in range(1, 18):
            p = get_pattern(pid)
            mine = [tuple(m.assignment[l] for l in p.labels) for m in find_matches(d, p)]
            assert mine == naive_matches(d, p), (i, pid)


@lru_cache(maxsize=None)
def _reference_plan(pid, root):
    """The labels of configuration pid in breadth-first order from root, as
    (label, positions of earlier neighbors) per step, and where each of its
    labels sits in that order."""
    p = get_pattern(pid)
    order = [root]
    for l in order:
        order += [m for m in sorted(p.neighbors(l)) if m not in order]
    at = {l: k for k, l in enumerate(order)}
    steps = [(l, [at[m] for m in p.neighbors(l) if at[m] < k]) for k, l in enumerate(order)]
    return steps, [at[l] for l in p.labels]


def _reference_occurrences(p, d, admitted) -> list[tuple[int, ...]]:
    """Every occurrence of p in d, as tuples in labels order, by plain
    backtracking over the labels in breadth-first order from the label
    that admits the fewest vertices; admitted maps a role to the vertices
    of d it admits."""
    admits = {l: admitted[p.roles[l]] for l in p.labels}
    steps, positions = _reference_plan(p.id, min(p.labels, key=lambda l: len(admits[l])))
    placed: list[int] = []
    found = []

    def grow(k):
        if k == len(steps):
            found.append(tuple(placed[i] for i in positions))
            return
        label, before = steps[k]
        pool = admits[label]
        if before:
            pool = pool.intersection(*(d.adjacency[placed[i]] for i in before))
        for w in pool.difference(placed):
            placed.append(w)
            grow(k + 1)
            placed.pop()

    grow(0)
    return found


def _least_image(p, t) -> tuple[int, ...]:
    """The least image of occurrence t (in labels order) under p's automorphisms."""
    at = {l: k for k, l in enumerate(p.labels)}
    return min(tuple(t[at[sigma[l]]] for l in p.labels) for sigma in p.automorphisms)


def _admitted(d) -> dict:
    """Each role of the catalog, mapped to the vertices of d it admits."""
    by_degree: dict[int, set[int]] = {}
    for w, k in d.degrees.items():
        by_degree.setdefault(k, set()).add(w)
    roles = {r for p in load_catalog() for r in p.roles.values()}
    return {r: set().union(*(ws for k, ws in by_degree.items() if r.admits(k))) for r in roles}


@lru_cache(maxsize=None)
def _reference_scan(n) -> tuple[tuple[Drawing, dict[int, list[tuple[int, ...]]]], ...]:
    """Each class on n vertices with every occurrence of each configuration in it."""
    scan = []
    for d in population(n, "all"):
        admitted = _admitted(d)
        scan.append((d, {p.id: _reference_occurrences(p, d, admitted) for p in load_catalog()}))
    return tuple(scan)


def test_leader_scan_equals_representatives():
    # the full scan keeps only orbit leaders: exactly the least images of
    # the occurrences that plain backtracking finds
    for n in range(1, 8):
        for d, every in _reference_scan(n):
            for p in load_catalog():
                leaders = _occurrences(p, d.degrees, d.adjacency, d.vertices)
                assert len(set(leaders)) == len(leaders)
                assert set(leaders) == {_least_image(p, t) for t in every[p.id]}, (n, sorted(d.edges), p.id)


def test_rooted_leader_search_equals_representatives():
    # The peeler searches from a vertex v under each bounded label that newly
    # admits v, and an automorphism preserves roles, so those labels are a
    # union of label orbits.  Over an orbit, the leader-bounded rooted
    # searches from v find exactly the leaders of the occurrences through v.
    # A search with every vertex as a root is the union of those from each
    # vertex, so the comparison is on (v, occurrence) pairs.
    for pid in (3, 6, 7, 8, 9, 10, 11):  # the configurations the peeler re-searches
        p = get_pattern(pid)
        at = {l: k for k, l in enumerate(p.labels)}
        orbits = {frozenset(sigma[l] for sigma in p.automorphisms) for l in p.labels}
        orbits = [[at[m] for m in o] for o in orbits if _degree_range(p.roles[min(o)])[1] != math.inf]
        for n in range(1, 8):
            for d, every in _reference_scan(n):
                degs, adj = d.degrees, d.adjacency
                for orbit in orbits:
                    leaders = {
                        (t[k], t) for k in orbit for t in _rooted_occurrences(p, degs, adj, p.labels[k], d.vertices)
                    }
                    through = {(t[k], _least_image(p, t)) for k in orbit for t in every[pid]}
                    assert leaders == through, (sorted(d.edges), p.id, orbit)


def test_every_rooted_plan_finds_exactly_the_leaders():
    # rooted at every vertex, a label's search finds every leader, since a
    # leader puts the label on some vertex; this runs every compiled plan,
    # hollow roots too, where the peel runs only those of bounded labels
    for n in range(1, 8):
        for d, every in _reference_scan(n):
            for p in load_catalog():
                want = {_least_image(p, t) for t in every[p.id]}
                for label in p.labels:
                    got = _rooted_occurrences(p, d.degrees, d.adjacency, label, d.vertices)
                    assert len(set(got)) == len(got) and set(got) == want, (sorted(d.edges), p.id, label)


def test_fact_e_unreducible_configurations_carry_p2_or_p3():
    # read off the catalog: configuration 1 is P2; the others outside the
    # reducible set have a solid degree-2 vertex whose two neighbors are adjacent
    for p in load_catalog():
        if p.id in (3, 6, 7, 8, 9, 10, 11):
            continue
        twos = [l for l in p.labels if p.roles[l].kind == SOLID and p.roles[l].drawn_degree == 2]
        p2 = any(a in twos and b in twos for a, b in p.edges)
        p3 = any(len(p.neighbors(u)) == 2 and tuple(sorted(p.neighbors(u))) in {tuple(sorted(e)) for e in p.edges} for u in twos)
        assert p2 or p3, p.id
        assert p2 == (p.id == 1), p.id


def test_d2_check_accepts_drawn_instance():
    # the 7th configuration drawn literally: path x-v-u-w-y with the two
    # crossing chords, plus an eighth vertex so hollow degrees stay small
    d = Drawing.from_edges(
        6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 4), (2, 5), (5, 6), (1, 6)]
    )
    p = get_pattern(7)
    plain = find_matches(d, p)
    checked = find_matches(d, p, check_d2=True)
    assert plain and checked
    assert {tuple(sorted(m.assignment.values())) for m in checked} <= {
        tuple(sorted(m.assignment.values())) for m in plain
    }


def test_d2_check_filters_wrong_orientation():
    # the 10th configuration drawn the other way around: four abstract
    # occurrences, exactly one of which realizes the pictured crossing
    # and cyclic order
    d = Drawing.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 5), (3, 6)])
    p = get_pattern(10)
    plain = find_matches(d, p)
    checked = find_matches(d, p, check_d2=True)
    assert len(plain) == 4 and len(checked) == 1
    assert checked[0].assignment == {"x": 6, "v": 5, "u": 4, "z": 3, "w": 2, "y": 1}


def test_d2_check_is_noop_below_6():
    # containment of ids 1..5 is degree/edge based even under the flag
    c4 = cycle(4)
    p = get_pattern(3)
    assert find_matches(c4, p) == find_matches(c4, p, check_d2=True) != []


def test_d2_check_keeps_an_image_that_realizes_the_drawing():
    # the 6th configuration's automorphism swaps u and v, the ends of one
    # crossing edge; the second occurrence's leader puts u on 1 and fails
    # the drawing check, but its image with u on 6 passes
    d = Drawing.from_edges(6, [(1, 3), (1, 5), (1, 6), (3, 6), (5, 6)])
    p = get_pattern(6)
    assert len(find_matches(d, p)) == 2
    assert [m.assignment for m in find_matches(d, p, check_d2=True)] == [
        {"x": 3, "u": 1, "v": 6, "y": 5},
        {"x": 5, "u": 6, "v": 1, "y": 3},
    ]


def test_d2_check_equals_brute_reference(classes):
    # every occurrence by plain backtracking, kept if it realizes the
    # drawing, and the least kept image per orbit; on every labeling of
    # every drawing with at most 6 vertices, for the configurations the
    # check applies to (the 6th on)
    patterns = load_catalog()[5:]
    for n in range(1, 7):
        for c in classes(n, "all"):
            for edges in brute_orbit(c):
                d = Drawing.from_edges(n, edges)
                admitted = _admitted(d)
                for p in patterns:
                    best = {}
                    for t in _reference_occurrences(p, d, admitted):
                        if _d2_holds(d, p, dict(zip(p.labels, t))):
                            key = _least_image(p, t)
                            best[key] = min(best.get(key, t), t)
                    mine = [tuple(m.assignment[l] for l in p.labels) for m in find_matches(d, p, check_d2=True)]
                    assert mine == sorted(best.values()), (sorted(edges), p.id)


def test_fact_d_hollow_vertices_touch_bounded_ones():
    # a hollow vertex of a reducible configuration whose neighbors are all
    # hollow would let a rooted search reach a hub of any degree
    text = resources.files("outer1planar").joinpath("data/configurations.txt").read_text()
    head, rest = text.split("config 11\n")
    block, tail = rest.split("config 12\n")
    doctored = block.replace("v z solid 2", "v z hollow 2").replace("v v solid 3", "v v hollow 3")
    assert doctored != block
    _check_catalog(_parse_catalog(text))
    with pytest.raises(CatalogError, match="config 11: hollow x"):
        _check_catalog(_parse_catalog(f"{head}config 11\n{doctored}config 12\n{tail}"))


@pytest.mark.parametrize(
    "pid, old, new, message",
    [
        # the 7th configuration's crossing moved onto two edges that do not cross
        (7, "x 4 5", "x 0 2", "declared crossing does not interleave"),
        # the 14th configuration with an isolated vertex: a search rooted at
        # one label could never place it
        (14, "v f hollow 2\n", "v f hollow 2\nv g hollow 2\n", "a configuration must be connected"),
        # the 13th configuration with its degree-2 vertex made degree 3: it
        # is not reducible, and now carries neither P2 nor P3
        (13, "v b solid 2\n", "v b solid 3\n", "carries neither P2 nor P3"),
        (3, "v u solid 2\n", "v u solid 1\n", "u has more edges than its drawn degree"),
        (3, "pe u y\n", "pe u q\n", r"edge \(u,q\) uses unknown label"),
        (3, "x 1 2\n", "x 1 9\n", "crossing indexes missing edge"),
        (4, "v y1 hollow 2\n", "v y1 marked-hollow 2 7\n", "marked-hollow vertex mismatch"),
        (3, "v x hollow 2\nv u solid 2\nv v solid 2\nv y marked-hollow 2 7\n",
         "v x marked-hollow 2 7\nv u solid 2\nv v solid 2\nv y hollow 2\n", "the marked vertex must be labeled y"),
        # no solid degree-2 vertex left: fact (a) fails
        (7, "v u solid 2\n", "v u solid 4\n", "no light edge with a <=7 endpoint"),
        # the 3-3 edge and the degree-2 vertices' <= 5 ends gone: fact (b) fails
        (9, "v v solid 3\nv w solid 3\n", "v v solid 6\nv w solid 6\n", r"no light edge with a <=5 endpoint \(or 3\+3\)"),
    ],
    ids=[
        "crossing-interleaves", "connected", "p2-or-p3", "edges-within-degree", "known-labels",
        "crossing-edges-exist", "marked-set", "marked-is-y", "fact-a", "fact-b",
    ],
)
def test_doctored_configuration_is_refused(pid, old, new, message):
    text = resources.files("outer1planar").joinpath("data/configurations.txt").read_text()
    head, rest = text.split(f"config {pid}\n")
    block, tail = rest.split(f"config {pid + 1}\n")
    doctored = block.replace(old, new)
    assert doctored != block
    with pytest.raises(CatalogError, match=f"config {pid}: {message}"):
        _check_catalog(_parse_catalog(f"{head}config {pid}\n{doctored}config {pid + 1}\n{tail}"))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("v u solid 2", "v u fluffy 2", "unknown role 'fluffy'"),
        ("v u solid 2", "v u solid 2 7", "cap given iff marked-hollow, got 'v u solid 2 7'"),
        ("pe u v", "anchor u u\npe u v", "unknown catalog line 'anchor u u'"),
        ("config 17", "config 18", "expected configurations 1..17 in order"),
    ],
    ids=["role", "cap", "line", "ids"],
)
def test_malformed_catalog_is_refused(old, new, message):
    # each edit hits the first configuration that has the line
    text = resources.files("outer1planar").joinpath("data/configurations.txt").read_text()
    with pytest.raises(CatalogError) as info:
        _check_catalog(_parse_catalog(text.replace(old, new, 1)))
    assert str(info.value) == message


@pytest.mark.parametrize("pid", [0, 18])
def test_unknown_configuration_id_is_refused(pid):
    with pytest.raises(CatalogError, match=f"no configuration {pid}"):
        get_pattern(pid)
