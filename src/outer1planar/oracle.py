"""Brute-force ground truth at desk scale.

Exact r-dynamic chromatic numbers and list colorability by chronological
backtracking, outer-1-planarity recognition by searching cyclic orders,
maximality testing, and exhaustive enumeration of convex-position drawings.
Every operation carries an explicit size guard; nothing here is meant to
scale past it.
"""

from __future__ import annotations

from array import array
from functools import cache
from typing import Iterator

from .drawing import AbstractGraph, Drawing, Edge, interleave, iter_all_pairs, normalize_edge


class SizeLimitExceeded(ValueError):
    """Input is larger than the brute-force guard allows."""


def _solve_r_dynamic(
    g: AbstractGraph,
    r: int,
    lists: dict[int, frozenset[int]],
    symmetry_break: bool,
) -> dict[int, int] | None:
    """Find an r-dynamic coloring with colors from per-vertex lists, or None.

    Chronological backtracking over vertices in degree-descending order.
    Feasibility pruning per vertex: distinct colored-neighbor colors plus
    remaining uncolored neighbors must still be able to reach min(r, deg).
    """
    adj = g.adjacency
    verts = sorted(range(1, g.n + 1), key=lambda v: (-len(adj[v]), v))
    need = {v: min(r, len(adj[v])) for v in verts}
    color: dict[int, int] = {}
    seen: dict[int, dict[int, int]] = {v: {} for v in verts}  # color -> multiplicity
    uncolored_nbrs = {v: len(adj[v]) for v in verts}
    palette_order = {v: sorted(lists[v]) for v in verts}

    def feasible(v: int) -> bool:
        return len(seen[v]) + uncolored_nbrs[v] >= need[v]

    def assign(i: int, max_used: int) -> bool:
        if i == len(verts):
            return True
        v = verts[i]
        options = palette_order[v]
        if symmetry_break:
            options = [c for c in options if c <= max_used + 1]
        for c in options:
            if any(color.get(w) == c for w in adj[v]):
                continue
            color[v] = c
            ok = True
            for w in adj[v]:
                uncolored_nbrs[w] -= 1
                seen[w][c] = seen[w].get(c, 0) + 1
                if not feasible(w):
                    ok = False
            if ok and feasible(v) and assign(i + 1, max(max_used, c)):
                return True
            for w in adj[v]:
                uncolored_nbrs[w] += 1
                if seen[w][c] == 1:
                    del seen[w][c]
                else:
                    seen[w][c] -= 1
            del color[v]
        return False

    if assign(0, 0):
        return dict(color)
    return None


def has_r_dynamic_k_coloring(g: AbstractGraph, r: int, k: int) -> bool:
    """Does g admit an r-dynamic coloring with colors 1..k?"""
    if g.n > 12:
        raise SizeLimitExceeded("r-dynamic search capped at n <= 12")
    lists = {v: frozenset(range(1, k + 1)) for v in range(1, g.n + 1)}
    return _solve_r_dynamic(g, r, lists, symmetry_break=True) is not None


def chromatic_r_dynamic(g: AbstractGraph, r: int, k_max: int) -> int | None:
    """Smallest k <= k_max with an r-dynamic k-coloring, else None."""
    if g.n > 12:
        raise SizeLimitExceeded("r-dynamic search capped at n <= 12")
    for k in range(1, k_max + 1):
        if has_r_dynamic_k_coloring(g, r, k):
            return k
    return None


def solve_list_r_dynamic(
    g: AbstractGraph, lists: dict[int, frozenset[int]], r: int
) -> dict[int, int] | None:
    """Exhaustive search for an r-dynamic coloring from the lists; a witness or None."""
    if g.n > 12:
        raise SizeLimitExceeded("list coloring search capped at n <= 12")
    if set(lists) != set(range(1, g.n + 1)):
        raise ValueError("lists must cover exactly the vertices 1..n")
    norm = {v: frozenset(lists[v]) for v in lists}
    return _solve_r_dynamic(g, r, norm, symmetry_break=False)


def _pos_interleave(m: int, e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Interleaving of 0-based position pairs on a circle of m positions."""
    a, b = e
    c, d = f
    if a in (c, d) or b in (c, d):
        return False
    ba = (b - a) % m
    ca = (c - a) % m
    da = (d - a) % m
    return (0 < ca < ba) != (0 < da < ba)


def is_outer_1_planar(g: AbstractGraph) -> bool:
    """Does some cyclic vertex order make every edge's crossing degree <= 1?

    Searches orders with vertex 1 pinned at the first position and
    reflections quotiented, placing one vertex at a time.  Unplaced
    vertices always land in the single gap after the last placed position,
    so interleaving among placed chords never changes as the order grows;
    that makes incremental crossing counts sound and pruning aggressive.
    """
    if g.n > 9:
        raise SizeLimitExceeded("recognition capped at n <= 9")
    n = g.n
    if n <= 3:
        return True
    adj = g.adjacency
    order = [1]
    pos = {1: 0}
    placed: list[tuple[int, int]] = []  # position pairs, 0-based
    cross: list[int] = []

    def backtrack(remaining: frozenset[int]) -> bool:
        if not remaining:
            return True
        k = len(order)
        for v in sorted(remaining):
            if k == n - 1 and order[1] > v:
                continue  # mirror image already tried
            new_edges = [(pos[w], k) for w in adj[v] if w in pos]
            m_now = k + 1
            old_len = len(placed)
            bumped: list[int] = []
            ok = True
            for e in new_edges:
                cnt = 0
                for idx in range(old_len):
                    if _pos_interleave(m_now, e, placed[idx]):
                        cross[idx] += 1
                        bumped.append(idx)
                        cnt += 1
                        if cross[idx] > 1:
                            ok = False
                placed.append(e)
                cross.append(cnt)
                if cnt > 1:
                    ok = False
                if not ok:
                    break
            if ok:
                order.append(v)
                pos[v] = k
                if backtrack(remaining - {v}):
                    return True
                order.pop()
                del pos[v]
            del placed[old_len:]
            del cross[old_len:]
            for idx in bumped:
                cross[idx] -= 1
        return False

    return backtrack(frozenset(range(2, n + 1)))


def is_maximal(d: Drawing) -> bool:
    """No edge can be added between existing vertices keeping outer-1-planarity."""
    if d.n > 9:
        raise SizeLimitExceeded("maximality check capped at n <= 9")
    for e in iter_all_pairs(d.n):
        if e in d.edges:
            continue
        if is_outer_1_planar(AbstractGraph(d.n, d.edges | {e})):
            return False
    return True


def enumerate_drawings(n: int, filter: str = "all") -> Iterator[Drawing]:
    """Every valid drawing on n convex-position vertices, in a fixed order.

    filter is one of 'all', 'connected', 'connected-min-deg-2'.  Output is
    per labeled drawing; use canonical_key to quotient by rotations and
    reflections.  Emitted drawings skip revalidation: the walk maintains
    the crossing-degree invariant itself.  The walk leaves out each pair
    of iter_all_pairs(n) before it puts it in, so drawings come in
    increasing order of their pair bitmask (the first pair is the most
    significant bit).
    """
    if n > 8:
        raise SizeLimitExceeded("enumeration capped at n <= 8")
    if n < 1:
        raise ValueError("a drawing needs at least one vertex")
    if filter not in ("all", "connected", "connected-min-deg-2"):
        raise ValueError(f"unknown filter {filter!r}")
    pairs = list(iter_all_pairs(n))
    # The earlier pairs that cross pair i: only those are decided when the
    # walk reaches i.
    conflicts = [[j for j in range(i) if interleave(n, e, pairs[j])] for i, e in enumerate(pairs)]

    chosen: list[int] = []
    cross = [0] * len(pairs)
    in_set = [False] * len(pairs)
    deg = [0] * (n + 1)
    want_connected = filter != "all"
    # Lowest degree a kept drawing may have: a connected drawing on two or
    # more vertices has no isolated vertex.
    min_deg = 2 if filter == "connected-min-deg-2" else 1 if want_connected and n > 1 else 0

    def passes() -> Drawing | None:
        # Degrees are kept by the walk and connectivity is a union-find over
        # the chosen pairs, so a rejected drawing builds nothing.
        if min_deg and min(deg[1:]) < min_deg:
            return None
        if want_connected:
            parent = list(range(n + 1))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i in chosen:
                u, v = pairs[i]
                parent[find(u)] = find(v)
            if len({find(v) for v in range(1, n + 1)}) != 1:
                return None
        return _trusted_drawing(n, frozenset(pairs[i] for i in chosen))

    def walk(i: int) -> Iterator[Drawing]:
        if i == len(pairs):
            d = passes()
            if d is not None:
                yield d
            return
        yield from walk(i + 1)
        partners = [j for j in conflicts[i] if in_set[j]]
        if len(partners) <= 1 and all(cross[j] == 0 for j in partners):
            u, v = pairs[i]
            in_set[i] = True
            cross[i] = len(partners)
            for j in partners:
                cross[j] += 1
            deg[u] += 1
            deg[v] += 1
            chosen.append(i)
            yield from walk(i + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
            for j in partners:
                cross[j] -= 1
            cross[i] = 0
            in_set[i] = False

    yield from walk(0)


def _trusted_drawing(n: int, edges: frozenset[Edge]) -> Drawing:
    # Construction path for the enumerator, which guarantees validity itself.
    d = object.__new__(Drawing)
    object.__setattr__(d, "n", n)
    object.__setattr__(d, "edges", edges)
    return d


@cache
def _symmetries(n: int) -> tuple[dict[Edge, int], tuple[tuple[array, ...], ...]]:
    """Pair weights, and byte tables for each non-identity rotation/reflection.

    Pair i of iter_all_pairs(n) weighs 1 << (P - 1 - i), so enumerate_drawings
    emits masks in increasing order.  A symmetry's k-th table maps byte k of
    a mask (bits 8k..8k+7) to the mask of those pairs' images.
    """
    pairs = list(iter_all_pairs(n))
    size = len(pairs)
    weight = {e: 1 << (size - 1 - i) for i, e in enumerate(pairs)}
    tables = []
    for sign in (1, -1):
        for rot in range(n):
            if sign == 1 and rot == 0:
                continue
            relabel = [0] + [(rot + sign * (v - 1)) % n + 1 for v in range(1, n + 1)]
            # image[p]: the weight of the image of the pair at bit p
            image = [weight[normalize_edge(relabel[u], relabel[v])] for u, v in reversed(pairs)]
            chunks = []
            for low in range(0, size, 8):
                table = array("L", bytes(8 * 256))
                for b in range(1, 256):
                    bit = low + (b & -b).bit_length() - 1
                    table[b] = table[b & (b - 1)] | (image[bit] if bit < size else 0)
                chunks.append(table)
            tables.append(tuple(chunks))
    return weight, tuple(tables)


def _image(chunks: tuple[array, ...], mask: int) -> int:
    image = low = 0
    for table in chunks:
        image |= table[(mask >> low) & 0xFF]
        low += 8
    return image


def _first_in_class(d: Drawing) -> bool:
    """Is d's pair mask at most each of its rotation/reflection images?

    enumerate_drawings emits masks in increasing order, and its filters hold
    for all of a class or none of it, so this holds exactly for the first
    drawing of each class that it emits.
    """
    weight, tables = _symmetries(d.n)
    mask = sum(map(weight.__getitem__, d.edges))
    for chunks in tables:
        if _image(chunks, mask) < mask:
            return False
    return True


def canonical_key(d: Drawing) -> tuple[int, int]:
    """Least pair mask over the rotations and reflections of d.

    Two drawings have equal keys iff one is a rotation or reflection of
    the other.
    """
    if d.n > 8:
        raise SizeLimitExceeded("canonical key capped at n <= 8")
    weight, tables = _symmetries(d.n)
    mask = sum(map(weight.__getitem__, d.edges))
    return (d.n, min([mask] + [_image(chunks, mask) for chunks in tables]))


def enumerate_drawings_deduped(n: int, filter: str = "all") -> Iterator[Drawing]:
    """Representatives of rotation/reflection classes of enumerate_drawings.

    Each class is represented by its first labeled drawing in walk order,
    and representatives come in that order.
    """
    for d in enumerate_drawings(n, filter):
        if _first_in_class(d):
            yield d
