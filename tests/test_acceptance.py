"""Acceptance criteria, one test per criterion, each printing a verdict line.

All populations are enumerated per rotation/reflection class; matching,
reductions, light edges and chromatic numbers are invariant under
relabeling (covered by dedicated invariance tests), so per-class checks
cover every labeled drawing.
"""

import random

import outer1planar as o
from outer1planar.catalog import MARKED, SOLID, get_pattern, light_edge_labels, tight_edge_labels

from .conftest import naive_matches, population


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_ac1_sharp_bound():
    chi = o.chromatic_r_dynamic(o.sharp_example(), 3, 7)
    report("1 sharp bound", chi == 6, f"chi_3^d(sharp) = {chi}, expected exactly 6")


def test_ac2_upper_bound_exhaustive():
    checked = 0
    for n in range(1, 8):
        for d in population(n, "connected"):
            assert o.has_r_dynamic_k_coloring(d, 3, 6), sorted(d.edges)
            checked += 1
    report("2 upper bound exhaustive", True, f"{checked} connected classes, n <= 7, all chi_3^d <= 6")


def test_ac3_list_version_sampled():
    rng = random.Random(20260809)
    runs = 0
    for n in range(1, 7):
        for d in population(n, "connected"):
            for _ in range(25):
                lists = {v: frozenset(rng.sample(range(1, 13), 6)) for v in d.vertices}
                c = o.color_list_3_dynamic(d, lists)
                assert o.verify_dynamic(d, c, 3).valid, sorted(d.edges)
                assert all(c[v] in lists[v] for v in d.vertices)
                runs += 1
    report("3 list coloring sampled", True, f"{runs} colorings from random 6-lists, all valid")


def test_ac4_structural_theorem_exhaustive():
    checked = 0
    for n in range(3, 8):
        for d in population(n, "connected-min-deg-2"):
            m = o.find_structure(d)
            assert 1 <= m.pattern_id <= 17
            checked += 1
    report("4 structure exhaustive", True, f"{checked} classes with min degree 2, all matched")


def test_ac5_light_edges_exhaustive():
    checked = maximal = 0
    for n in range(3, 8):
        for d in population(n, "connected-min-deg-2"):
            e = o.find_light_edge(d)
            assert e.degree_sum <= 9, sorted(d.edges)
            checked += 1
            if o.is_maximal(d):
                maximal += 1
                e7 = o.find_light_edge(d, maximal_mode=True)
                assert e7.degree_sum <= 7, sorted(d.edges)
    report(
        "5 light edges exhaustive",
        True,
        f"{checked} classes <= 9; {maximal} maximal classes <= 7",
    )


def test_ac6_reducibility_exhaustive():
    checked = 0
    for n in range(1, 8):
        for d in population(n, "all"):
            s = o.find_reduction(d)
            assert s.deleted
            if len(s.deleted) < d.n:
                o.delete_vertices(d, s.deleted)
            checked += 1
    report("6 reducibility exhaustive", True, f"{checked} classes (all drawings), all reduced")


def test_ac7_minimality():
    for i in range(2, 18):
        h = o.h_family(i)
        present = [j for j in range(1, 18) if o.contains(h, j)]
        assert present == [i], f"H_{i} contains {present}"
    c12 = o.cycle(12)
    present = [j for j in range(1, 18) if o.contains(c12, j)]
    assert present == [1], f"cycle(12) contains {present}"
    report("7 minimality", True, "H_2..H_17 each contain exactly their configuration; cycle(12) only the 1st")


def test_ac8_catalog_consistency():
    catalog = o.load_catalog()
    for p in catalog:
        if p.id != 6:
            labels = light_edge_labels(p)
            assert labels is not None, p.id
            s, _ = labels
            assert p.roles[s].kind == SOLID and p.roles[s].drawn_degree == 2
        if p.id != 3:
            assert tight_edge_labels(p) is not None, p.id
        marked = sorted(l for l, r in p.roles.items() if r.kind == MARKED)
        assert marked == (["y"] if p.id in (3, 6, 7, 12) else [])
    report("8 catalog consistency", True, "facts (a), (b), (c) hold for all 17 patterns")


def test_ac9a_matcher_vs_naive():
    rng = random.Random(117)
    disagreements = 0
    for trial in range(500):
        n = rng.randint(3, 8)
        d = o.random_outer_1_planar(n, rng.random(), seed=trial)
        for pid in range(1, 18):
            p = get_pattern(pid)
            mine = [tuple(m.assignment[l] for l in p.labels) for m in o.find_matches(d, p)]
            if mine != naive_matches(d, p):
                disagreements += 1
    report("9a matcher vs naive oracle", disagreements == 0, f"500 drawings, {disagreements} disagreements")


def test_ac9b_monotonicity():
    rng = random.Random(118)
    checked = 0
    for trial in range(500):
        d = o.random_outer_1_planar(rng.randint(3, 10), rng.random(), seed=trial)
        colors = {v: rng.randint(1, 6) for v in d.vertices}
        for r in (3, 2):
            if o.verify_dynamic(d, colors, r).valid:
                assert o.verify_dynamic(d, colors, r - 1).valid
                checked += 1
    report("9b monotonicity", True, f"500 random colorings, {checked} monotone steps confirmed")


def test_ac9c_determinism():
    from outer1planar.coloring import coloring_to_json

    d = o.random_outer_1_planar(12, 0.8, seed=99)
    lists = o.uniform_lists(d, 6)
    a = coloring_to_json(o.color_list_3_dynamic(d, lists), 3, True)
    b = coloring_to_json(o.color_list_3_dynamic(d, lists), 3, True)
    assert a == b
    assert o.random_outer_1_planar(12, 0.8, seed=99) == d
    report("9c determinism", True, "reruns byte-identical")
