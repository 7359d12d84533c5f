"""Brute-force oracles: chromatic numbers, recognition, maximality, enumeration."""

import functools
import hashlib
import itertools
import json
import random

import pytest

from outer1planar import (
    AbstractGraph,
    Drawing,
    SizeLimitExceeded,
    chromatic_r_dynamic,
    cli,
    cycle,
    emit_drawing,
    enumerate_drawings_deduped,
    is_maximal,
    is_outer_1_planar,
    oracle,
    random_outer_1_planar,
    sharp_example,
    solve_list_r_dynamic,
)

from outer1planar.drawing import iter_all_pairs

from .conftest import brute_orbit, plain_chromatic

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


def enumerate_counts(n, filt, capsys):
    """(count, classes) of `o1p enumerate --n n --filter filt`."""
    code = cli.run(["enumerate", "--n", str(n), "--filter", filt])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0, (n, filt)
    return payload["count"], payload["classes"]


KEEP = {
    "all": lambda d: True,
    "connected": lambda d: d.is_connected(),
    "connected-min-deg-2": lambda d: d.is_connected() and d.min_degree >= 2,
}


@functools.lru_cache(maxsize=None)
def brute_drawings(n):
    """Every subset of the pairs that is a drawing, counted with the first
    pair as the most significant bit, in mask order; independent of the walk
    and its pruning."""
    pairs = list(iter_all_pairs(n))
    valid = []
    for mask in range(1 << len(pairs)):
        subset = [e for i, e in enumerate(pairs) if mask >> (len(pairs) - 1 - i) & 1]
        try:
            valid.append(Drawing.from_edges(n, subset))
        except ValueError:
            pass
    return tuple(valid)


def test_enumerate_n3_counts(capsys):
    assert enumerate_counts(3, "all", capsys)[0] == 8
    assert enumerate_counts(3, "connected-min-deg-2", capsys)[0] == 1


def test_enumerate_n4_min_deg_2_frozen(capsys):
    # frozen regression constant, computed once by direct enumeration
    assert enumerate_counts(4, "connected-min-deg-2", capsys)[0] == 10


def test_enumerate_matches_brute_force_n4(capsys):
    pairs = list(itertools.combinations(range(1, 5), 2))
    brute = 0
    for r in range(len(pairs) + 1):
        for sub in itertools.combinations(pairs, r):
            try:
                Drawing.from_edges(4, sub)
                brute += 1
            except ValueError:
                pass
    assert brute == enumerate_counts(4, "all", capsys)[0]


def test_enumerate_no_duplicates_and_valid():
    seen = set()
    for d in enumerate_drawings_deduped(5, "all"):
        orbit = brute_orbit(d)
        assert not orbit & seen
        seen |= orbit
        Drawing(d.n, d.edges)  # revalidate


def test_enumerate_is_every_valid_subset_in_mask_order():
    # the representatives are the valid subsets that pass the filter and
    # come first in their orbit, in mask order
    for n in range(1, 7):
        for filt in FILTERS:
            expected, seen = [], set()
            for d in brute_drawings(n):
                if KEEP[filt](d) and tuple(sorted(d.edges)) not in seen:
                    seen |= brute_orbit(d)
                    expected.append(d.edges)
            assert [d.edges for d in enumerate_drawings_deduped(n, filt)] == expected, (n, filt)


def test_enumerate_guard():
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_drawings_deduped(11, "all"))


def test_dedup_matches_brute_orbits(capsys):
    # the representatives' orbits are disjoint and cover exactly the valid
    # subsets that pass the filter; the CLI count, a sum of orbit sizes read
    # off stabilizers, is their number
    for n in range(1, 7):
        for filt in FILTERS:
            covered = set()
            reps = list(enumerate_drawings_deduped(n, filt))
            for d in reps:
                orbit = brute_orbit(d)
                assert not orbit & covered, (n, filt, sorted(d.edges))
                covered |= orbit
            labeled = {tuple(sorted(d.edges)) for d in brute_drawings(n) if KEEP[filt](d)}
            assert covered == labeled, (n, filt)
            assert enumerate_counts(n, filt, capsys) == (len(labeled), len(reps)), (n, filt)


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
    assert enumerate_counts(8, "connected-min-deg-2", capsys) == (61039, 4028)


@pytest.mark.parametrize(
    "n, filt, expected",
    [
        (8, "all", (1296128, 82255)),
        (8, "connected", (624607, 39637)),
        (9, "connected-min-deg-2", (624235, 35137)),
        (7, "all", (98688, 7298)),
        (7, "connected", (50674, 3723)),
        (7, "connected-min-deg-2", (6147, 487)),
    ],
)
def test_enumerate_large_counts_pinned(n, filt, expected, capsys):
    # n = 8 and 9 measured with the per-symmetry byte tables of the class
    # walk, before the walk carried every symmetry's image in one packed
    # int; n = 7 with the labeled walk, which counted every drawing
    assert enumerate_counts(n, filt, capsys) == expected


def test_representatives_are_their_own_canonical_keys():
    # a class's canonical key is the least pair mask over its rotations and
    # reflections, here read off the brute orbit; a representative is least
    # in its orbit, so it is its own key
    for n in range(1, 8):
        weight = {e: 1 << i for i, e in enumerate(reversed(list(iter_all_pairs(n))))}
        for filt in FILTERS:
            for d in enumerate_drawings_deduped(n, filt):
                masks = [sum(weight[e] for e in edges) for edges in brute_orbit(d)]
                assert sum(weight[e] for e in d.edges) == min(masks), (n, filt, sorted(d.edges))


def test_walk_drawings_match_fresh_drawings():
    # the walk fills adjacency and degrees from its neighbor fields; they
    # equal what a drawing built from the same edges computes
    for n in range(1, 8):
        for filt in FILTERS:
            for d in enumerate_drawings_deduped(n, filt):
                fresh = Drawing(n, d.edges)
                assert vars(d)["adjacency"] == fresh.adjacency, (n, filt, sorted(d.edges))
                assert vars(d)["degrees"] == fresh.degrees, (n, filt, sorted(d.edges))


def test_walk_drawings_decode_multi_byte_masks():
    # the edges are read a byte at a time off the mask; at n = 8, 9 and 10
    # the masks span 28, 36 and 45 bits, so every top byte is partial
    for n, limit in ((8, None), (9, 3000), (10, 3000)):
        weight = oracle._symmetries(n)[0]
        for mask, nbrs, _ in itertools.islice(oracle._walk(n, "connected-min-deg-2"), limit):
            d = oracle._walk_drawing(n, mask, nbrs)
            assert d.edges == {e for e, w in weight.items() if mask & w}, (n, mask)
            assert vars(d)["adjacency"] == Drawing(n, d.edges).adjacency, (n, mask)


def test_equal_neighbor_sets_are_one_object():
    for n in (4, 6):
        shared = {}
        for d in itertools.chain(enumerate_drawings_deduped(n), enumerate_drawings_deduped(n, "connected")):
            for ns in d.adjacency.values():
                assert shared.setdefault(ns, ns) is ns, (n, sorted(ns))


_SIX = frozenset(range(1, 7))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: oracle.has_r_dynamic_k_coloring(AbstractGraph(13, frozenset()), 3, 6), SizeLimitExceeded, "n <= 12"),
        (lambda: solve_list_r_dynamic(cycle(13), dict.fromkeys(range(1, 14), _SIX), 3), SizeLimitExceeded, "n <= 12"),
        (lambda: solve_list_r_dynamic(cycle(5), dict.fromkeys(range(1, 5), _SIX), 3), ValueError, "the vertices 1..n"),
        (lambda: is_maximal(cycle(10)), SizeLimitExceeded, "n <= 9"),
        (lambda: list(enumerate_drawings_deduped(4, "planar")), ValueError, "unknown filter 'planar'"),
    ],
    ids=["chi-size", "list-size", "list-misses-a-vertex", "maximal-size", "unknown-filter"],
)
def test_oracle_refuses_what_it_cannot_answer(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("n", [0, -1])
def test_enumerate_rejects_no_vertices(n):
    for filt in FILTERS:
        with pytest.raises(ValueError):
            list(enumerate_drawings_deduped(n, filt))


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
