"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

from outer1planar import AbstractGraph, Drawing, delete_vertices, enumerate_drawings_deduped
from outer1planar.catalog import ConfigPattern


@lru_cache(maxsize=None)
def population(n: int, filter: str) -> tuple[Drawing, ...]:
    """Rotation/reflection class representatives of all drawings on n vertices.

    Matching, coloring and chromatic numbers are invariant under relabeling
    (tested separately), so per-class checks cover every labeled drawing.
    """
    return tuple(enumerate_drawings_deduped(n, filter))


@pytest.fixture(scope="session")
def classes():
    return population


def naive_matches(d: Drawing, p: ConfigPattern) -> list[tuple[int, ...]]:
    """Brute-force matcher: every injective map that sends each label to a
    vertex its role admits, checked directly, then deduplicated by pattern
    automorphism.  Kept independent of the production matcher's ordering
    and pruning."""
    labels = p.labels
    autos = p.automorphisms
    idx = {l: i for i, l in enumerate(labels)}
    admitted = [[v for v in d.vertices if p.roles[l].admits(d.degrees[v])] for l in labels]
    found = set()
    for tup in itertools.product(*admitted):
        if len(set(tup)) < len(tup):
            continue
        amap = dict(zip(labels, tup))
        if any(not d.has_edge(amap[a], amap[b]) for a, b in p.edges):
            continue
        orbit = min(tuple(tup[idx[s[l]]] for l in labels) for s in autos)
        found.add(orbit)
    return sorted(found)


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


def delete_with_map(d: Drawing, remove) -> tuple[Drawing, dict[int, int]]:
    """delete_vertices plus the old -> new labels of the survivors, which
    keep their clockwise order."""
    gone = set(remove)
    keep = [v for v in d.vertices if v not in gone]
    return delete_vertices(d, gone), {old: i + 1 for i, old in enumerate(keep)}


def plain_chromatic(g: AbstractGraph) -> int:
    """Standalone proper-coloring backtracker (no dynamic condition)."""
    if g.n == 0:
        return 0
    adj = g.adjacency
    verts = sorted(range(1, g.n + 1), key=lambda v: -len(adj[v]))
    for k in range(1, g.n + 1):
        colors: dict[int, int] = {}

        def ok(i: int, max_used: int) -> bool:
            if i == len(verts):
                return True
            v = verts[i]
            for c in range(1, min(k, max_used + 1) + 1):
                if all(colors.get(w) != c for w in adj[v]):
                    colors[v] = c
                    if ok(i + 1, max(max_used, c)):
                        return True
                    del colors[v]
            return False

        if ok(0, 0):
            return k
    return g.n


def brute_crossing_pairs(d: Drawing) -> set:
    """Independent pairwise interleaving scan."""
    out = set()
    edges = sorted(d.edges)
    n = d.n
    for i, (a, b) in enumerate(edges):
        for c, e in edges[i + 1 :]:
            if len({a, b, c, e}) < 4:
                continue
            ba = (b - a) % n
            ca = (c - a) % n
            da = (e - a) % n
            if (0 < ca < ba) != (0 < da < ba):
                out.add(((a, b), (c, e)))
    return out


# Engineered hosts that drive the deeper reduction kinds end to end.

def double_g10() -> Drawing:
    a = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 4), (2, 6)]
    b = [(7, 8), (8, 9), (9, 10), (10, 11), (11, 12), (7, 10), (8, 12)]
    return Drawing.from_edges(12, a + b + [(6, 7), (12, 1)])


def double_g11() -> Drawing:
    a = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 5), (3, 7)]
    b = [(8, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 14), (8, 12), (10, 14)]
    return Drawing.from_edges(14, a + b + [(7, 8), (14, 1)])


def polygon_drawing(n: int, seed: int, keep: float = 1.0) -> Drawing:
    """A large outer-1-plane drawing, built in O(n) from one seeded generator.

    Splits the n-gon into triangles, apex by apex; then each triangle that
    is still free is paired with its free parent, and the pair's
    quadrilateral gets its second diagonal, which crosses only their shared
    chord.  With keep < 1 each chord other than a boundary edge survives
    with that probability (dropping edges only drops crossings).
    """
    rng = random.Random(seed)
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    triangles: list[tuple[int, int, int, int]] = []  # (a, apex, b, parent index)
    todo = [(1, n, -1)]
    while todo:
        a, b, parent = todo.pop()
        if b - a >= 2:
            c = rng.randint(a + 1, b - 1)
            triangles.append((a, c, b, parent))
            edges.update(((a, c), (c, b)))
            todo += [(a, c, len(triangles) - 1), (c, b, len(triangles) - 1)]
    paired = [False] * len(triangles)
    for i in range(len(triangles) - 1, -1, -1):
        a, c, b, parent = triangles[i]
        if parent < 0 or paired[i] or paired[parent]:
            continue
        paired[i] = paired[parent] = True
        pa, pc, pb, _ = triangles[parent]
        far = pa if (a, b) == (pc, pb) else pb  # the parent corner off the shared chord
        edges.add((min(c, far), max(c, far)))
    chords = sorted(e for e in edges if e[1] - e[0] not in (1, n - 1))
    edges -= {e for e in chords if rng.random() >= keep}
    return Drawing.from_edges(n, edges)


def g3_flip_host() -> Drawing:
    """Contains the 3rd configuration only with x on the degree-3 side."""
    return Drawing.from_edges(
        8,
        [(1, 2), (2, 4), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1), (4, 6), (5, 7)],
    )


# Hubs: drawings with a vertex of degree about n.

def fan(n: int, crossing: bool = False) -> Drawing:
    """The n-cycle plus the chords 1-v; with crossing, also v-(v+2) for
    even v, each crossing only the chord 1-(v+1)."""
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)] + [(1, v) for v in range(3, n)]
    if crossing:
        edges += [(v, v + 2) for v in range(2, n - 1, 2)]
    return Drawing.from_edges(n, edges)


def windmill(n: int) -> Drawing:
    """The triangles 1, 2i, 2i + 1 for 2i + 1 <= n."""
    edges = []
    for i in range(1, (n + 1) // 2):
        edges += [(1, 2 * i), (1, 2 * i + 1), (2 * i, 2 * i + 1)]
    return Drawing.from_edges(n, edges)


def two_hubs(n: int) -> Drawing:
    """The n-cycle plus the chord 1-h, with h = n // 2, and two fans of
    chords: 1-v for 2 < v < h and h-v for h + 1 < v <= n - 1."""
    h = n // 2
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n), (1, h)]
    edges += [(1, v) for v in range(3, h)] + [(h, v) for v in range(h + 2, n)]
    return Drawing.from_edges(n, edges)
