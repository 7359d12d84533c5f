"""Brute-force oracles: chromatic numbers, recognition, maximality, enumeration."""

import hashlib
import itertools
import json
import random

import pytest

from outer1planar import (
    AbstractGraph,
    Drawing,
    SizeLimitExceeded,
    canonical_key,
    chromatic_r_dynamic,
    cli,
    cycle,
    emit_drawing,
    enumerate_drawings,
    enumerate_drawings_deduped,
    is_maximal,
    is_outer_1_planar,
    random_outer_1_planar,
    sharp_example,
    solve_list_r_dynamic,
)

from outer1planar.drawing import iter_all_pairs

from .conftest import plain_chromatic

FILTERS = ("all", "connected", "connected-min-deg-2")


def k_complete(n):
    return AbstractGraph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def test_chromatic_k3():
    assert chromatic_r_dynamic(k_complete(3), 3, 7) == 3


def test_chromatic_c5():
    c5 = cycle(5)
    assert chromatic_r_dynamic(c5, 3, 7) == 5


def test_chromatic_sharp_example():
    assert chromatic_r_dynamic(sharp_example(), 3, 7) == 6


def test_chromatic_none_when_above_kmax():
    assert chromatic_r_dynamic(cycle(5), 3, 4) is None


def test_chromatic_size_guard():
    with pytest.raises(SizeLimitExceeded):
        chromatic_r_dynamic(AbstractGraph(13, frozenset()), 3, 6)


def test_chromatic_r1_equals_plain_chromatic():
    rng = random.Random(4242)
    for trial in range(100):
        n = rng.randint(1, 8)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = [e for e in pairs if rng.random() < 0.4]
        g = AbstractGraph.from_edges(n, edges)
        assert chromatic_r_dynamic(g, 1, n if n else 1) == plain_chromatic(g)


def test_list_colorable_c6_three_colors():
    c6 = cycle(6)
    lists = {v: frozenset({1, 2, 3}) for v in range(1, 7)}
    assert solve_list_r_dynamic(c6, lists, 3) is not None


def test_list_colorable_c5_four_colors():
    c5 = cycle(5)
    lists = {v: frozenset({1, 2, 3, 4}) for v in range(1, 6)}
    assert solve_list_r_dynamic(c5, lists, 3) is None


def test_list_colorable_single_vertex():
    g = AbstractGraph(1, frozenset())
    assert solve_list_r_dynamic(g, {1: frozenset({9})}, 3) is not None


def test_recognize_k4():
    assert is_outer_1_planar(k_complete(4)) is True


def test_recognize_c6():
    assert is_outer_1_planar(cycle(6)) is True


def test_recognize_k5():
    assert is_outer_1_planar(k_complete(5)) is False


def test_recognize_soundness_on_valid_drawings():
    rng = random.Random(5)
    for trial in range(60):
        d = random_outer_1_planar(rng.randint(3, 9), rng.random(), seed=trial)
        assert is_outer_1_planar(d) is True


def test_recognize_size_guard():
    with pytest.raises(SizeLimitExceeded):
        is_outer_1_planar(AbstractGraph(10, frozenset()))


def test_maximal_triangle_vacuous():
    tri = Drawing.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    assert is_maximal(tri) is True


def test_maximal_c6_false():
    assert is_maximal(cycle(6)) is False


def test_maximal_k4():
    k4 = Drawing.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4)])
    assert is_maximal(k4) is True


def test_enumerate_n3_counts():
    assert sum(1 for _ in enumerate_drawings(3, "all")) == 8
    assert sum(1 for _ in enumerate_drawings(3, "connected-min-deg-2")) == 1


def test_enumerate_n4_min_deg_2_frozen():
    # frozen regression constant, computed once by direct enumeration
    assert sum(1 for _ in enumerate_drawings(4, "connected-min-deg-2")) == 10


def test_enumerate_matches_brute_force_n4():
    pairs = list(itertools.combinations(range(1, 5), 2))
    brute = 0
    for r in range(len(pairs) + 1):
        for sub in itertools.combinations(pairs, r):
            try:
                Drawing.from_edges(4, sub)
                brute += 1
            except ValueError:
                pass
    assert brute == sum(1 for _ in enumerate_drawings(4, "all"))


def test_enumerate_no_duplicates_and_valid():
    seen = set()
    for d in enumerate_drawings(5, "all"):
        assert d.edges not in seen
        seen.add(d.edges)
        Drawing(d.n, d.edges)  # revalidate


def test_enumerate_is_every_valid_subset_in_mask_order():
    # brute side: every subset of the pairs, counted with the first pair as
    # the most significant bit, kept if it is a drawing and passes the
    # filter; independent of the walk and its pruning
    keep = {
        "all": lambda d: True,
        "connected": lambda d: d.is_connected(),
        "connected-min-deg-2": lambda d: d.is_connected() and d.min_degree >= 2,
    }
    for n in range(1, 7):
        pairs = list(iter_all_pairs(n))
        valid = []
        for mask in range(1 << len(pairs)):
            subset = [e for i, e in enumerate(pairs) if mask >> (len(pairs) - 1 - i) & 1]
            try:
                valid.append(Drawing.from_edges(n, subset))
            except ValueError:
                pass
        for filt in FILTERS:
            expected = [d.edges for d in valid if keep[filt](d)]
            assert [d.edges for d in enumerate_drawings(n, filt)] == expected, (n, filt)


def test_enumerate_guard():
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_drawings(11, "all"))


def brute_orbit(d):
    """Sorted edge tuples of every rotation and reflection of d, each
    relabeling written out; independent of the package's bitmasks."""
    n = d.n
    orbit = set()
    for flip in (False, True):
        for rot in range(n):
            if flip:
                relabel = [0] + [((rot - (v - 1)) % n) + 1 for v in range(1, n + 1)]
            else:
                relabel = [0] + [((v - 1 + rot) % n) + 1 for v in range(1, n + 1)]
            orbit.add(tuple(sorted(tuple(sorted((relabel[u], relabel[v]))) for u, v in d.edges)))
    return orbit


def brute_orbit_key(d):
    """Least sorted edge tuple over every rotation and reflection of d."""
    return min(brute_orbit(d))


def test_dedup_matches_brute_orbits(capsys):
    for n in range(1, 7):
        for filt in FILTERS:
            firsts = {}  # brute key -> first drawing of its orbit
            pairs = set()  # (brute key, canonical key)
            for d in enumerate_drawings(n, filt):
                brute = brute_orbit_key(d)
                firsts.setdefault(brute, d)
                pairs.add((brute, canonical_key(d)))
            reps = list(enumerate_drawings_deduped(n, filt))
            assert [d.edges for d in reps] == [d.edges for d in firsts.values()]
            # canonical keys are equal iff brute keys are: the relation is a
            # bijection between the two key sets
            assert len(pairs) == len(firsts) == len({key for _, key in pairs})
            code = cli.run(["enumerate", "--n", str(n), "--filter", filt])
            assert code == 0 and json.loads(capsys.readouterr().out)["classes"] == len(firsts)


def test_enumerate_count_and_classes_match_labeled_walk(capsys):
    # the CLI count is a sum of orbit sizes over representatives; pin it to
    # the labeled walk and its classes to the independent orbit keys
    for n in range(1, 8):
        for filt in FILTERS:
            count, seen, keys = 0, set(), set()
            for d in enumerate_drawings(n, filt):
                count += 1
                if tuple(sorted(d.edges)) not in seen:
                    # the first drawing of an orbit: its key is new
                    orbit = brute_orbit(d)
                    seen |= orbit
                    keys.add(min(orbit))
            code = cli.run(["enumerate", "--n", str(n), "--filter", filt])
            payload = json.loads(capsys.readouterr().out)
            assert code == 0, (n, filt)
            assert (payload["count"], payload["classes"]) == (count, len(keys)), (n, filt)


def test_representatives_golden_digest():
    # constant computed with the sorted edge-tuple dedup that came before
    # the bitmask one; pins which drawing stands for each class, and the order
    digest = hashlib.sha256()
    for filt in FILTERS:
        for n in range(1, 8):
            for d in enumerate_drawings_deduped(n, filt):
                digest.update(emit_drawing(d).encode())
    assert digest.hexdigest() == "f843b334fe5b195c45ec4791370dc43b7db294ba6f195eecf02ce478c116bf1d"


def test_enumerate_n8_min_deg_2_pinned(capsys):
    # measured with the recursive walk and its union-find filter, before the
    # walk pruned on degrees; guards the pruning where it cuts the most
    code = cli.run(["enumerate", "--n", "8", "--filter", "connected-min-deg-2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and (payload["count"], payload["classes"]) == (61039, 4028)


@pytest.mark.parametrize(
    "n, filt, expected",
    [
        (8, "all", (1296128, 82255)),
        (8, "connected", (624607, 39637)),
        (9, "connected-min-deg-2", (624235, 35137)),
    ],
)
def test_enumerate_large_counts_pinned(n, filt, expected, capsys):
    # measured with the per-symmetry byte tables of the class walk, before
    # the walk carried every symmetry's image in one packed int
    code = cli.run(["enumerate", "--n", str(n), "--filter", filt])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and (payload["count"], payload["classes"]) == expected


def test_representatives_are_their_own_canonical_keys():
    # the class walk's orbit test and canonical_key read the same packed
    # images; a representative is least in its orbit, so it is its own key
    for n in range(1, 8):
        pairs = list(iter_all_pairs(n))
        for filt in FILTERS:
            for d in enumerate_drawings_deduped(n, filt):
                mask = sum(1 << (len(pairs) - 1 - i) for i, e in enumerate(pairs) if e in d.edges)
                assert canonical_key(d) == (n, mask), (n, filt, sorted(d.edges))


def test_walk_drawings_match_fresh_drawings():
    # the walk fills adjacency and degrees from its neighbor fields; they
    # equal what a drawing built from the same edges computes
    for n in range(1, 8):
        for filt in FILTERS:
            for d in enumerate_drawings_deduped(n, filt):
                fresh = Drawing(n, d.edges)
                assert vars(d)["adjacency"] == fresh.adjacency, (n, filt, sorted(d.edges))
                assert vars(d)["degrees"] == fresh.degrees, (n, filt, sorted(d.edges))
    for d in enumerate_drawings(5):
        fresh = Drawing(5, d.edges)
        assert vars(d)["adjacency"] == fresh.adjacency and vars(d)["degrees"] == fresh.degrees


def test_equal_neighbor_sets_are_one_object():
    for n in (4, 6):
        shared = {}
        for d in itertools.chain(enumerate_drawings(n), enumerate_drawings_deduped(n, "connected")):
            for ns in d.adjacency.values():
                assert shared.setdefault(ns, ns) is ns, (n, sorted(ns))


@pytest.mark.parametrize("n", [0, -1])
def test_enumerate_rejects_no_vertices(n):
    for filt in FILTERS:
        with pytest.raises(ValueError):
            list(enumerate_drawings(n, filt))
        with pytest.raises(ValueError):
            list(enumerate_drawings_deduped(n, filt))


def test_canonical_key_size_guard():
    with pytest.raises(SizeLimitExceeded):
        canonical_key(cycle(11))


def test_canonical_key_invariance():
    d = Drawing.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)])
    rot = {v: (v % 5) + 1 for v in d.vertices}
    d2 = Drawing.from_edges(5, [(rot[u], rot[v]) for u, v in d.edges])
    assert canonical_key(d) == canonical_key(d2)
    refl = {v: ((5 - (v - 1)) % 5) + 1 for v in d.vertices}
    d3 = Drawing.from_edges(5, [(refl[u], refl[v]) for u, v in d.edges])
    assert canonical_key(d) == canonical_key(d3)


def test_all_small_drawings_six_colorable(classes):
    # module invariant: even disconnected drawings stay 3-dynamically
    # six-colorable (per component, hence overall)
    from outer1planar import has_r_dynamic_k_coloring

    for n in range(1, 7):
        for d in classes(n, "all"):
            assert has_r_dynamic_k_coloring(d, 3, 6)


# SHA-256 over the r-dynamic search's answers below, computed before the
# search kept its state in per-vertex lists.
R_DYNAMIC_SEARCH_SHA256 = "cd384faecdef61a4d48e7194986957e38d2ba31781adc9f74c8944af78128284"


def test_r_dynamic_search_golden_digest(classes):
    # pins the r-dynamic search's answers and its witnesses, key order
    # included, on every class with n <= 6
    from outer1planar import has_r_dynamic_k_coloring

    rng = random.Random(1212)
    digest = hashlib.sha256()
    for n in range(1, 7):
        for d in classes(n, "all"):
            chi = [chromatic_r_dynamic(d, r, 7) for r in (1, 2, 3)]
            six = has_r_dynamic_k_coloring(d, 3, 6)
            lists = {v: frozenset(rng.sample(range(1, 10), 6)) for v in d.vertices}
            witness = solve_list_r_dynamic(d, lists, 3)
            pairs = None if witness is None else list(witness.items())
            digest.update(f"{sorted(d.edges)} {chi} {six} {pairs}\n".encode())
    assert digest.hexdigest() == R_DYNAMIC_SEARCH_SHA256
