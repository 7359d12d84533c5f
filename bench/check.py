"""The benchmark's own checkers, written without the package under test.

`fail_ratio` must not trust the code it measures, so colorings and drawings
are checked here from the raw edge lists.
"""

from __future__ import annotations

Edge = tuple[int, int]


def coloring_errors(
    n: int,
    edges,
    colors: dict[int, int],
    lists: dict[int, frozenset[int]],
) -> list[str]:
    """Why colors is not a list 3-dynamic coloring of (n, edges); [] if it is.

    Proper, every vertex sees at least min(3, deg) distinct colors on its
    neighborhood, and every color is on its vertex's list.
    """
    errors = []
    if set(colors) != set(range(1, n + 1)):
        return [f"colored vertices {sorted(set(colors) ^ set(range(1, n + 1)))[:5]} differ"]
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
        if colors[u] == colors[v]:
            errors.append(f"edge ({u},{v}) has both ends colored {colors[u]}")
    for v in range(1, n + 1):
        if colors[v] not in lists[v]:
            errors.append(f"vertex {v} colored {colors[v]} off its list")
        seen = {colors[w] for w in nbrs[v]}
        if len(seen) < min(3, len(nbrs[v])):
            errors.append(f"vertex {v} sees {len(seen)} colors")
    return errors


def parse_edges(text: str) -> tuple[int, set[Edge]]:
    """(n, edges) of a drawing file; raises ValueError on a malformed one."""
    n = None
    edges: set[Edge] = set()
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise ValueError(f"bad header {raw!r}")
            n = int(parts[1])
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise ValueError(f"bad edge line {raw!r}")
        u, v = int(parts[1]), int(parts[2])
        if not 1 <= u < v <= n or (u, v) in edges:
            raise ValueError(f"bad edge ({u},{v})")
        edges.add((u, v))
    if n is None:
        raise ValueError("no header")
    return n, edges


def crossing_pairs(edges) -> set[tuple[Edge, Edge]]:
    """Pairs (e, f), e < f, of chords whose endpoints interleave (O(m^2))."""
    ordered = sorted(edges)
    pairs = set()
    for i, (a, b) in enumerate(ordered):
        for c, d in ordered[i + 1 :]:
            if c >= b:
                break
            if a < c < b < d:
                pairs.add(((a, b), (c, d)))
    return pairs


def drawing_errors(edges) -> list[str]:
    """Why edges on the boundary 1..n are not outer-1-plane; [] if they are."""
    crossed: dict[Edge, int] = {}
    for e, f in crossing_pairs(edges):
        crossed[e] = crossed.get(e, 0) + 1
        crossed[f] = crossed.get(f, 0) + 1
    return [f"edge {e} crossed {k} times" for e, k in sorted(crossed.items()) if k > 1]
