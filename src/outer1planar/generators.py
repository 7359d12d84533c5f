"""Witness drawings and random test inputs.

The sharp example is the 7-vertex drawing whose 3-dynamic chromatic number
is exactly 6; the h_family drawings are per-configuration witnesses that
contain exactly one of the seventeen configurations.  Both carry built-in
self-checks so a mistranscription fails loudly at construction.  The
seeded random drawings, which every sampled test population draws from,
take O(n + m) time and memory.
"""

from __future__ import annotations

import random

from .catalog import HOLLOW, MARKED, SOLID, get_pattern
from .drawing import Drawing, Edge, normalize_edge

# Degree targets when a configuration is planted inside a witness drawing:
# hollow vertices are pushed past every exact role and past the marked cap,
# marked vertices stay inside their cap but clear of every exact role.
_HOLLOW_BOOST = 8
_MARKED_BOOST = 6


def cycle(n: int) -> Drawing:
    """The boundary cycle on n vertices, no chords."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    return Drawing.from_edges(n, edges)


def sharp_example() -> Drawing:
    """The 7-vertex drawing with 3-dynamic chromatic number exactly 6.

    Boundary path 1..7 plus chords {3,5}, {2,7} and {4,7}; the chord {4,7}
    crosses {3,5}.  Self-checks pin the transcription: vertices 3, 5, 7
    have degree 3 and vertex 3's neighbors are exactly 2, 4, 5.
    """
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 5), (2, 7), (4, 7)]
    d = Drawing.from_edges(7, edges)
    assert d.degrees[3] == d.degrees[5] == d.degrees[7] == 3
    assert d.adjacency[3] == frozenset({2, 4, 5})
    assert d.adjacency[5] == frozenset({3, 4, 6})
    assert len(d.crossing_pairs) == 1
    return d


def h_family(i: int) -> Drawing:
    """A witness drawing containing configuration i and no other.

    The configuration's vertices are laid out in their catalog cyclic
    order; every solid vertex is padded with pendant leaves up to its exact
    drawn degree (covering stub edges), hollow vertices are padded to
    degree 8 and marked vertices to degree 6.  Pendant leaves have degree
    1, below every role's drawn degree, so they can never participate in a
    match, and pendant edges hug their owner so no crossings are added.
    """
    if not 2 <= i <= 17:
        raise ValueError("h_family is defined for 2 <= i <= 17")
    p = get_pattern(i)
    targets: dict[str, int] = {}
    for label in p.labels:
        role = p.roles[label]
        if role.kind == SOLID:
            targets[label] = role.drawn_degree
        elif role.kind == MARKED:
            targets[label] = _MARKED_BOOST
        else:
            targets[label] = _HOLLOW_BOOST

    ids: dict[str, int] = {}
    next_id = 1
    pendant_edges: list[tuple[int, int]] = []
    for label in p.labels:
        ids[label] = next_id
        owner = next_id
        next_id += 1
        for _ in range(targets[label] - p.edge_count(label)):
            pendant_edges.append((owner, next_id))
            next_id += 1

    edges = [(ids[a], ids[b]) for a, b in p.edges] + pendant_edges
    d = Drawing.from_edges(next_id - 1, edges)
    for label in p.labels:
        assert d.degrees[ids[label]] == targets[label]
    return d


def random_outer_1_planar(n: int, density: float, seed: int) -> Drawing:
    """Boundary cycle plus int(density * n(n - 3)/2) chords, or as many as
    fit, deterministic per seed, in O(n + m) time and memory.

    A seeded random triangulation of the n-gon (each interval split at a
    random apex) gets the second diagonal of a random maximal set of
    triangle-disjoint adjacent triangle pairs; it crosses only their shared
    chord, and any other chord would cross two edges, so at density 1 the
    drawing is maximal.  The chords are kept in one seeded order that does
    not depend on density, so chord sets nest as density rises: each
    crossing pair goes first, as a unit, with probability 1/2, and the other
    chords follow shuffled, which keeps crossings common in sparse drawings.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = random.Random(seed)
    # (a, apex, b, parent index): the chord (a, b) is shared with the parent
    triangles: list[tuple[int, int, int, int]] = []
    todo = [(1, n, -1)]
    while todo:
        a, b, parent = todo.pop()
        if b - a >= 2:
            c = rng.randint(a + 1, b - 1)
            triangles.append((a, c, b, parent))
            todo += [(a, c, len(triangles) - 1), (c, b, len(triangles) - 1)]
    children = list(range(1, len(triangles)))  # one per diagonal: all but the root
    rng.shuffle(children)
    free = [True] * len(triangles)
    front: list[Edge] = []
    rest: list[Edge] = []
    for i in children:
        a, c, b, parent = triangles[i]
        if free[i] and free[parent]:
            free[i] = free[parent] = False
            pa, pc, pb, _ = triangles[parent]
            second = normalize_edge(c, pa if (a, b) == (pc, pb) else pb)  # to the parent corner off (a, b)
            if rng.random() < 0.5:
                front += ((a, b), second)
                continue
            rest.append(second)
        rest.append((a, b))
    rng.shuffle(rest)
    keep = int(density * (n * (n - 3) // 2))
    return Drawing(n, frozenset([(i, i + 1) for i in range(1, n)] + [(1, n)] + (front + rest)[:keep]))
