"""Brute-force ground truth at desk scale.

Exact r-dynamic chromatic numbers and list colorability by chronological
backtracking, outer-1-planarity recognition by searching cyclic orders,
maximality testing, and exhaustive enumeration of convex-position drawings.
Every operation carries an explicit size guard; nothing here is meant to
scale past it.

Enumeration up to rotation and reflection is orderly: the walk decides
pairs from the most significant mask bit down and never enters a subtree
whose decided bits already lose to one of their images.  The labeled count
of a class is 2n over the size of its representative's stabilizer, so
counting labeled drawings needs no labeled walk.
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

    Chronological backtracking over vertices in degree-descending order,
    each trying its list in increasing order.  Feasibility pruning per
    vertex: distinct colored-neighbor colors plus remaining uncolored
    neighbors must still be able to reach min(r, deg).  The state is kept
    in lists indexed by vertex, and each distinct list is sorted once.
    """
    n = g.n
    nbrs = [()] + [tuple(g.adjacency[v]) for v in range(1, n + 1)]
    verts = sorted(range(1, n + 1), key=lambda v: (-len(nbrs[v]), v))
    need = [min(r, len(ns)) for ns in nbrs]
    uncolored = [len(ns) for ns in nbrs]
    seen: list[dict[int, int]] = [{} for _ in nbrs]  # color -> multiplicity
    color: list[int | None] = [None] * (n + 1)
    order = {colors: sorted(colors) for colors in set(lists.values())}
    palette = [[]] + [order[lists[v]] for v in range(1, n + 1)]

    def assign(i: int, max_used: int) -> bool:
        if i == n:
            return True
        v = verts[i]
        vn = nbrs[v]
        taken = {color[w] for w in vn}
        for c in palette[v]:
            if symmetry_break and c > max_used + 1:
                break
            if c in taken:
                continue
            color[v] = c
            ok = True
            for w in vn:
                uncolored[w] -= 1
                s = seen[w]
                s[c] = s.get(c, 0) + 1
                if len(s) + uncolored[w] < need[w]:
                    ok = False
            if ok and assign(i + 1, max(max_used, c)):
                return True
            for w in vn:
                uncolored[w] += 1
                s = seen[w]
                if s[c] == 1:
                    del s[c]
                else:
                    s[c] -= 1
        color[v] = None
        return False

    if assign(0, 0):
        return {v: color[v] for v in verts}
    return None


def has_r_dynamic_k_coloring(g: AbstractGraph, r: int, k: int) -> bool:
    """Does g admit an r-dynamic coloring with colors 1..k?"""
    if g.n > 12:
        raise SizeLimitExceeded("r-dynamic search capped at n <= 12")
    lists = dict.fromkeys(range(1, g.n + 1), frozenset(range(1, k + 1)))
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
                    if interleave(m_now, e, placed[idx]):
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
    per labeled drawing; use enumerate_drawings_deduped for one drawing per
    rotation/reflection class.  Emitted drawings skip revalidation: the
    walk maintains the crossing-degree invariant itself.  Drawings come in
    increasing order of their pair bitmask (the first pair of
    iter_all_pairs(n) is the most significant bit).
    """
    for mask in _walk(n, filter, classes=False):
        yield _mask_drawing(n, mask)


def _walk(n: int, filter: str, classes: bool) -> Iterator[int]:
    """Pair bitmasks of valid drawings that pass filter, in increasing order.

    A depth-first walk with an explicit stack that leaves each pair out
    before it puts it in.  Its state is a handful of ints, so the stack
    holds the include branches still to take and nothing is undone.  A
    subtree is cut once a vertex cannot reach the filter's least degree;
    the filters hold for all of a class or none of it, so the cut keeps
    every class whole.  Without classes the walk yields every such mask.
    With classes it also cuts, by the table of _symmetries, each subtree
    whose decided top bits already lose to a rotation or reflection of
    them (Read's orderly generation): every mask the walk yields then
    still needs _orbit_size, but every orbit-least mask is yielded.
    """
    if n > 10:
        raise SizeLimitExceeded("enumeration capped at n <= 10")
    if n < 1:
        raise ValueError("a drawing needs at least one vertex")
    if filter not in ("all", "connected", "connected-min-deg-2"):
        raise ValueError(f"unknown filter {filter!r}")
    want_connected = filter != "all"
    # Lowest degree a kept drawing may have: a connected drawing on two or
    # more vertices has no isolated vertex.
    min_deg = 2 if filter == "connected-min-deg-2" else 1 if want_connected and n > 1 else 0
    if n - 1 < min_deg:
        return
    weight, _, cuts = _symmetries(n)
    pairs = list(iter_all_pairs(n))
    if not classes:
        cuts = ((),) * (len(pairs) + 1)
    bit = [weight[e] for e in pairs]
    # The mask of the earlier pairs that cross pair i: only those are
    # decided when the walk reaches i.
    conflict = [sum(weight[f] for f in pairs[:i] if interleave(n, e, f)) for i, e in enumerate(pairs)]
    # The 5-bit field at bit 5(v - 1) of slack holds 16 plus the degree v can
    # still reach (its pairs not left out) minus min_deg.  Leaving out pair i
    # subtracts drop[i]; a field that loses its 16 bit has fallen short.
    drop = [1 << 5 * (u - 1) | 1 << 5 * (v - 1) for u, v in pairs]
    guard = sum(16 << 5 * k for k in range(n))
    # The neighbors of v, as a vertex mask, are the n-bit field at n(v - 1).
    link = [1 << n * (u - 1) + v - 1 | 1 << n * (v - 1) + u - 1 for u, v in pairs]
    everyone = (1 << n) - 1
    # depth, chosen pairs, chosen pairs already crossed, slack fields,
    # neighbor fields
    i, mask, crossed, slack, nbrs = 0, 0, 0, guard + (n - 1 - min_deg) * (guard >> 4), 0
    stack: list[tuple[int, int, int, int, int]] = []
    while True:
        for chunks, shift in cuts[i]:
            if _image(chunks, mask) >> shift < mask >> shift:
                break
        else:
            if i < len(pairs):
                # pair i may join if it crosses at most one chosen pair, and
                # that pair is not crossed yet
                p = conflict[i] & mask
                if not (p & (p - 1) or p & crossed):
                    w = bit[i]
                    stack.append((i + 1, mask | w, crossed | p | w if p else crossed, slack, nbrs | link[i]))
                left = slack - drop[i]
                if left & guard == guard:
                    i, slack = i + 1, left
                    continue
            else:
                seen = everyone
                if want_connected:
                    seen = todo = 1
                    while todo:
                        low = todo & -todo
                        todo ^= low
                        new = nbrs >> n * (low.bit_length() - 1) & (everyone ^ seen)
                        seen |= new
                        todo |= new
                if seen == everyone:
                    yield mask
        if not stack:
            return
        i, mask, crossed, slack, nbrs = stack.pop()


def _trusted_drawing(n: int, edges: frozenset[Edge]) -> Drawing:
    # Construction path for the enumerator, which guarantees validity itself.
    d = object.__new__(Drawing)
    object.__setattr__(d, "n", n)
    object.__setattr__(d, "edges", edges)
    return d


_Tables = tuple[array, ...]  # one symmetry's byte tables


@cache
def _symmetries(n: int) -> tuple[dict[Edge, int], tuple[_Tables, ...], tuple[tuple[tuple[_Tables, int], ...], ...]]:
    """Pair weights, byte tables for each non-identity rotation/reflection,
    and the walk's cut table.

    Pair i of iter_all_pairs(n) weighs 1 << (P - 1 - i), so enumerate_drawings
    emits masks in increasing order.  A symmetry's k-th table maps byte k of
    a mask (bits 8k..8k+7) to the mask of those pairs' images.

    Once the walk has decided pairs 0..d-1, the top d bits of its mask are
    fixed.  For a symmetry g, let L be the longest top run of positions
    whose preimages under g are all decided; then the top L bits of g's
    image are fixed too, and if they are less than the mask's top L bits,
    no mask below is least in its orbit.  cuts[d] lists, as (tables,
    P - L), each g whose L grows at depth d.  Depth P is left out: the
    leaf's orbit test compares the whole masks.
    """
    pairs = list(iter_all_pairs(n))
    size = len(pairs)
    index = {e: i for i, e in enumerate(pairs)}
    weight = {e: 1 << (size - 1 - i) for i, e in enumerate(pairs)}
    tables = []
    cuts: list[list[tuple[_Tables, int]]] = [[] for _ in range(size + 1)]
    for sign in (1, -1):
        for rot in range(n):
            if sign == 1 and rot == 0:
                continue
            relabel = [0] + [(rot + sign * (v - 1)) % n + 1 for v in range(1, n + 1)]
            target = [index[normalize_edge(relabel[u], relabel[v])] for u, v in pairs]
            # image[p]: the weight of the image of the pair at bit p
            image = [1 << (size - 1 - t) for t in reversed(target)]
            chunks = []
            for low in range(0, size, 8):
                table = array("L", bytes(8 * 256))
                for b in range(1, 256):
                    bit = low + (b & -b).bit_length() - 1
                    table[b] = table[b & (b - 1)] | (image[bit] if bit < size else 0)
                chunks.append(table)
            tables.append(tuple(chunks))
            source = [0] * size  # source[k]: the pair that g maps to pair k
            for i, t in enumerate(target):
                source[t] = i
            fixed = 0  # L: the top positions of g's image fixed so far
            for d in range(1, size):
                before = fixed
                while fixed < d and source[fixed] < d:
                    fixed += 1
                if fixed > before:
                    cuts[d].append((tables[-1], size - fixed))
    return weight, tuple(tables), tuple(map(tuple, cuts))


def _image(chunks: _Tables, mask: int) -> int:
    image = low = 0
    for table in chunks:
        image |= table[(mask >> low) & 0xFF]
        low += 8
    return image


def _orbit_size(n: int, mask: int) -> int:
    """Size of mask's rotation/reflection orbit if mask is least in it, else 0.

    By orbit-stabilizer the size is 2n over the number of the 2n
    rotations and reflections that fix mask.
    """
    fixed = 1
    for chunks in _symmetries(n)[1]:
        image = _image(chunks, mask)
        if image < mask:
            return 0
        fixed += image == mask
    return 2 * n // fixed


def _mask_drawing(n: int, mask: int) -> Drawing:
    weight = _symmetries(n)[0]
    return _trusted_drawing(n, frozenset(e for e, w in weight.items() if mask & w))


def canonical_key(d: Drawing) -> tuple[int, int]:
    """Least pair mask over the rotations and reflections of d.

    Two drawings have equal keys iff one is a rotation or reflection of
    the other.
    """
    if d.n > 10:
        raise SizeLimitExceeded("canonical key capped at n <= 10")
    weight, tables, _ = _symmetries(d.n)
    mask = sum(map(weight.__getitem__, d.edges))
    return (d.n, min([mask] + [_image(chunks, mask) for chunks in tables]))


def enumerate_drawings_deduped(n: int, filter: str = "all") -> Iterator[Drawing]:
    """Representatives of rotation/reflection classes of enumerate_drawings.

    Each class is represented by its first labeled drawing in walk order,
    and representatives come in that order.  Masks come in increasing
    order and the filters hold for all of a class or none of it, so the
    first drawing of a class is the one whose mask is least in its orbit.
    The class walk never enters a subtree that the cut table of
    _symmetries shows to hold no such mask, and _orbit_size drops the
    rest.  Only representatives are built.
    """
    for mask in _walk(n, filter, classes=True):
        if _orbit_size(n, mask):
            yield _mask_drawing(n, mask)
