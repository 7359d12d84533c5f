"""Deterministic O(n) generator of outer-1-plane drawings for the benchmark.

A drawing is built in three steps, all driven by one `random.Random`:

1. a random triangulation of the convex n-gon (split an interval at a
   random apex, with an explicit stack instead of recursion);
2. for a maximum set of triangle-disjoint pairs of adjacent triangles, the
   second diagonal of their quadrilateral.  It crosses the shared chord and
   nothing else, and no other added diagonal, so each added chord adds
   exactly one crossing and every edge stays crossed at most once;
3. for the sparse variant, drop a random fixed share of the edges.
   Removing edges only removes crossings.

The generator knows its own crossing pairs, so the benchmark can check the
program's `validate` output against them without trusting the program.
`random_outer_1_planar` of the package is not used: it is far too slow at
these sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Edge = tuple[int, int]

SPARSE_DROP = 0.2


@dataclass(frozen=True)
class Generated:
    n: int
    edges: frozenset[Edge]
    crossings: frozenset[tuple[Edge, Edge]]  # (e, f) with e < f

    def text(self) -> str:
        lines = [f"n {self.n}"]
        lines.extend(f"e {u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def generate(n: int, rng: random.Random, sparse: bool = False) -> Generated:
    """A dense (close to 2.5n - 4 edges) or sparse outer-1-plane drawing, n >= 3."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    edges = {_edge(i, i + 1) for i in range(1, n)} | {(1, n)}
    # triangle i is (a, c, b) with base chord (a, b) shared with parent[i]
    tris: list[tuple[int, int, int]] = []
    parent: list[int] = []
    stack = [(1, n, -1)]
    while stack:
        a, b, up = stack.pop()
        if b - a < 2:
            continue
        c = rng.randint(a + 1, b - 1)
        me = len(tris)
        tris.append((a, c, b))
        parent.append(up)
        edges.update((_edge(a, c), _edge(c, b)))
        stack.append((a, c, me))
        stack.append((c, b, me))

    # children come after their parent, so matching each unmatched triangle
    # with its unmatched parent, last first, is a maximum matching of the
    # dual tree: as many triangle-disjoint quadrilaterals as there can be
    matched = [False] * len(tris)
    crossings: set[tuple[Edge, Edge]] = set()
    for i in range(len(tris) - 1, -1, -1):
        up = parent[i]
        if up < 0 or matched[i] or matched[up]:
            continue
        matched[i] = matched[up] = True
        a, c, b = tris[i]
        (apex,) = set(tris[up]) - {a, b}
        diagonal = _edge(c, apex)
        edges.add(diagonal)
        crossings.add((min((a, b), diagonal), max((a, b), diagonal)))

    if sparse:
        dropped = set(rng.sample(sorted(edges), round(SPARSE_DROP * len(edges))))
        edges -= dropped
        crossings = {(e, f) for e, f in crossings if e in edges and f in edges}
    return Generated(n, frozenset(edges), frozenset(crossings))


def plant_double_crossing(g: Generated, rng: random.Random) -> tuple[Generated, Edge]:
    """g plus one chord (u, u+2) that crosses at least two edges at u+1.

    Every chord at u+1 other than its two boundary edges crosses (u, u+2),
    so a middle vertex with two or more such chords makes the new chord
    crossed at least twice, and the drawing invalid.  The result keeps the
    crossings of g; those of the new chord are not listed.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    candidates = []
    for u in range(1, g.n - 1):
        mid = u + 1
        chords = adj[mid] - {u, u + 2}
        if len(chords) >= 2 and (u, u + 2) not in g.edges:
            candidates.append((u, u + 2))
    if not candidates:
        raise ValueError("no place to plant a doubly-crossed chord")
    chord = rng.choice(candidates)
    return Generated(g.n, g.edges | {chord}, g.crossings), chord
