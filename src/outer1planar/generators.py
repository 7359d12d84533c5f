"""Witness drawings and random test inputs.

The sharp example is the 7-vertex drawing whose 3-dynamic chromatic number
is exactly 6; the h_family drawings are per-configuration witnesses that
contain exactly one of the seventeen configurations.  Both carry built-in
self-checks so a mistranscription fails loudly at construction.
"""

from __future__ import annotations

import random

from .catalog import HOLLOW, MARKED, SOLID, get_pattern
from .drawing import Drawing, Edge, iter_all_pairs, normalize_edge

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
    """Boundary cycle plus randomly inserted chords, deterministic per seed.

    Chords from the full candidate pool are tried in a seeded random order,
    stopping once the accepted count reaches density times the pool size.
    The drawing grows incrementally: a candidate is accepted iff it
    interleaves with at most one accepted chord and that chord is not
    crossed yet, which is exactly when the grown drawing stays valid
    (boundary edges never cross anything).

    An accepted chord (c, d) interleaves a candidate (a, b), a < b, iff one
    of c, d lies strictly between a and b and the other outside [a, b].  So
    each vertex keeps a bitmask of its accepted chord neighbors, and the
    test walks the vertices strictly between a and b, masking each one's
    neighbors to those outside [a, b], until it has seen a second crossing.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    boundary = {normalize_edge(i, i % n + 1) for i in range(1, n + 1)}
    pool = [e for e in iter_all_pairs(n) if e not in boundary]
    rng = random.Random(seed)
    rng.shuffle(pool)
    target = int(density * len(pool))
    full = (1 << (n + 1)) - 2  # bits 1..n
    nbrs = [0] * (n + 1)
    chords: list[Edge] = []
    crossed: set[Edge] = set()
    for a, b in pool:
        if len(chords) >= target:
            break
        outside = full ^ ((1 << (b + 1)) - (1 << a))  # bits not in a..b
        hit = None
        for v in range(a + 1, b):
            m = nbrs[v] & outside
            if m:
                if hit is not None or m & (m - 1):
                    break  # crossed twice
                hit = normalize_edge(v, m.bit_length() - 1)
        else:
            if hit is not None:
                if hit in crossed:
                    continue
                crossed.update((hit, (a, b)))
            chords.append((a, b))
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
    return Drawing(n, frozenset(boundary.union(chords)))
