"""Witness generators and random inputs."""

import pytest

from outer1planar import (
    Drawing,
    cycle,
    h_family,
    random_outer_1_planar,
    sharp_example,
)


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
