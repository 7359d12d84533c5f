"""Witness generators and random inputs."""

import hashlib
import random
from itertools import combinations

import pytest

from outer1planar import (
    Drawing,
    cycle,
    find_matches,
    get_pattern,
    h_family,
    random_outer_1_planar,
    sharp_example,
)
from outer1planar.drawing import InvalidDrawingError, emit_drawing, interleave, iter_all_pairs


def test_cycle_basics():
    c3 = cycle(3)
    assert c3.edges == frozenset({(1, 2), (2, 3), (1, 3)})
    c5 = cycle(5)
    assert all(deg == 2 for deg in c5.degrees.values())
    assert cycle(6).crossing_pairs == set()
    with pytest.raises(ValueError):
        cycle(2)


def test_sharp_example_self_checks():
    d = sharp_example()
    assert d.n == 7
    degs = d.degrees
    assert degs[3] == degs[5] == degs[7] == 3
    assert d.adjacency[3] == frozenset({2, 4, 5})
    assert len(d.crossing_pairs) == 1
    Drawing(d.n, d.edges)  # validates


def test_h_family_validates_and_range():
    for i in range(2, 18):
        h = h_family(i)
        Drawing(h.n, h.edges)
    with pytest.raises(ValueError):
        h_family(1)
    with pytest.raises(ValueError):
        h_family(18)


@pytest.mark.parametrize("density", [-0.1, 1.5])
def test_random_refuses_density_outside_unit_interval(density):
    with pytest.raises(ValueError, match=r"density must be in \[0, 1\]"):
        random_outer_1_planar(8, density, seed=0)


def test_random_density_zero_is_cycle():
    assert random_outer_1_planar(8, 0.0, seed=3) == cycle(8)


def test_random_deterministic_and_valid():
    a = random_outer_1_planar(11, 0.7, seed=42)
    b = random_outer_1_planar(11, 0.7, seed=42)
    assert a == b
    assert a != random_outer_1_planar(11, 0.7, seed=43)
    assert a.is_connected() and a.min_degree >= 2
    Drawing(a.n, a.edges)


def test_random_contains_boundary_cycle():
    d = random_outer_1_planar(9, 1.0, seed=1)
    for i in range(1, 10):
        assert d.has_edge(i, i % 9 + 1)


def test_random_golden_digest():
    # Every sampled test population is drawn from this generator, so its
    # drawings are pinned for each (n, density, seed) of the grid.
    h = hashlib.sha256()
    for n in range(3, 31):
        for density in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
            for seed in range(4):
                h.update(emit_drawing(random_outer_1_planar(n, density, seed)).encode())
    assert h.hexdigest() == "79bc1b2ea3a208ccac88d366886df837c211e375736124032bd0b35af90c1477"


def test_random_edges_cross_at_most_once():
    # counted pair by pair, independently of Drawing's crossing sweep
    for n in range(3, 41):
        for density, seed in ((0.2, n), (0.6, n + 1), (1.0, n + 2)):
            edges = sorted(random_outer_1_planar(n, density, seed).edges)
            crossings = {e: 0 for e in edges}
            for e, f in combinations(edges, 2):
                if interleave(n, e, f):
                    crossings[e] += 1
                    crossings[f] += 1
            assert max(crossings.values()) <= 1, (n, density, seed)


def test_random_density_one_is_maximal():
    # every pair the drawing misses would cross twice, or cross a crossed edge
    for n in range(3, 12):
        for seed in range(60):
            d = random_outer_1_planar(n, 1.0, seed)
            for e in iter_all_pairs(n):
                if e not in d.edges:
                    with pytest.raises(InvalidDrawingError):
                        Drawing(n, d.edges | {e})


def test_random_chords_nest_and_count():
    # one keep order for every density: the chord sets grow with it, and
    # each holds density times the n(n - 3)/2 pairs, or every chord there is
    densities = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0]
    for n in range(3, 41):
        for seed in range(3):
            sets = [random_outer_1_planar(n, density, seed).edges - cycle(n).edges for density in densities]
            for density, chords in zip(densities, sets):
                assert len(chords) == min(int(density * (n * (n - 3) // 2)), len(sets[-1])), (n, density, seed)
            assert all(a <= b for a, b in zip(sets, sets[1:])), (n, seed)


# For each configuration, the number of drawings that contain it among 5,000
# sampled as below, from the earlier generator that scanned the whole pair
# pool.  The sampled test populations keep at least half of each count.
POOL_SCAN_COVERAGE = [1878, 1052, 642, 99, 118, 2315, 106, 281, 39, 38, 7, 712, 1137, 57, 386, 233, 86]


def test_random_configuration_coverage_floor():
    rng = random.Random(117)
    counts = [0] * 17
    for trial in range(5000):
        d = random_outer_1_planar(rng.randint(3, 10), rng.random(), seed=trial)
        for pid in range(1, 18):
            counts[pid - 1] += bool(find_matches(d, get_pattern(pid)))
    assert all(2 * c >= floor for c, floor in zip(counts, POOL_SCAN_COVERAGE)), counts
