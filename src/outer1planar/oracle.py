"""Brute-force ground truth at desk scale.

Exact r-dynamic chromatic numbers and list colorability by chronological
backtracking, outer-1-planarity recognition by searching cyclic orders,
maximality testing, and exhaustive enumeration of convex-position drawings
up to rotation and reflection.  Every operation carries an explicit size
guard; nothing here is meant to scale past it.

Enumeration up to rotation and reflection is orderly: the walk decides
pairs from the most significant mask bit down and never enters a subtree
whose decided bits already lose to one of their images.  The labeled count
of a class is 2n over the size of its representative's stabilizer, so
counting labeled drawings needs no labeled walk.  The images of a mask
under all 2n - 1 non-identity rotations and reflections travel packed in
one int, a field of P + 1 bits per symmetry (P pairs) whose top bit is a
guard, so one subtraction compares the mask with every image at once.
Emitted drawings read their adjacency off the walk's n-bit neighbor fields,
through one table of shared neighbor sets per n, and their edges off the
mask a byte at a time, through one table of pairs per byte value and n.
"""

from __future__ import annotations

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


def _r_dynamic_witness(g: AbstractGraph, r: int, k: int) -> dict[int, int] | None:
    """An r-dynamic coloring of g with colors 1..k, or None if there is none."""
    if g.n > 12:
        raise SizeLimitExceeded("r-dynamic search capped at n <= 12")
    lists = dict.fromkeys(range(1, g.n + 1), frozenset(range(1, k + 1)))
    return _solve_r_dynamic(g, r, lists, symmetry_break=True)


def has_r_dynamic_k_coloring(g: AbstractGraph, r: int, k: int) -> bool:
    """Does g admit an r-dynamic coloring with colors 1..k?"""
    return _r_dynamic_witness(g, r, k) is not None


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
        if is_outer_1_planar(AbstractGraph._unchecked(d.n, d.edges | {e})):
            return False
    return True


def _walk(n: int, filter: str) -> Iterator[tuple[int, int, int]]:
    """(pair bitmask, neighbor fields, orbit size) of each valid drawing
    that passes filter and is least in its rotation/reflection orbit, in
    increasing mask order.

    A depth-first walk with an explicit stack that leaves each pair out
    before it puts it in.  Its state is a handful of ints, so the stack
    holds the include branches still to take and nothing is undone.  A
    subtree is cut once a vertex cannot reach the filter's least degree;
    the filters hold for all of a class or none of it, so the cut keeps
    every class whole.

    Read's orderly generation: the walk carries images, the OR of the
    chosen pairs' packed images (see _symmetries), and copies, the mask
    repeated in every field.  Field by field, (images | guards) - copies is
    2^P plus that symmetry's image minus the mask, in (0, 2^(P + 1)): no
    field borrows from the next, and a guard bit survives iff its image is
    not less than the mask.  At depth d the same subtraction under fields[d]
    compares the decided top bits only, and a cleared guard cuts the
    subtree.  A symmetry left out of fields[d] compares the same bits as at
    the depth where it last entered, where an ancestor passed, so the walk
    visits the nodes that a cut by every symmetry at every depth would.  At
    a leaf the whole-field subtraction is the orbit test, and each zero
    field of images ^ copies is a symmetry that fixes the mask.
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
    weight, image, lows, fields = _symmetries(n)
    pairs = list(iter_all_pairs(n))
    bit = [weight[e] for e in pairs]
    image, copy = [image[e] for e in pairs], [w * lows for w in bit]
    guards = lows << len(pairs)
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
    # neighbor fields, packed images, packed copies
    i, mask, crossed, slack, nbrs, images, copies = 0, 0, 0, guard + (n - 1 - min_deg) * (guard >> 4), 0, 0, 0
    stack: list[tuple[int, int, int, int, int, int, int]] = []
    while True:
        f = fields[i]
        if not f or ((images & f | guards) - (copies & f)) & guards == guards:
            if i < len(pairs):
                # pair i may join if it crosses at most one chosen pair, and
                # that pair is not crossed yet
                p = conflict[i] & mask
                if not (p & (p - 1) or p & crossed):
                    w = bit[i]
                    cross = crossed | p | w if p else crossed
                    stack.append((i + 1, mask | w, cross, slack, nbrs | link[i], images | image[i], copies | copy[i]))
                left = slack - drop[i]
                if left & guard == guard:
                    i, slack = i + 1, left
                    continue
            elif ((images | guards) - copies) & guards == guards:
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
                    # orbit size: 2n over the stabilizer, the identity and each zero field
                    moved = (((images ^ copies | guards) - lows) & guards).bit_count()
                    yield mask, nbrs, 2 * n // (2 * n - moved)
        if not stack:
            return
        i, mask, crossed, slack, nbrs, images, copies = stack.pop()


# Construction path for the enumerator, which guarantees validity itself.
_trusted_drawing = Drawing._unchecked


@cache
def _symmetries(n: int) -> tuple[dict[Edge, int], dict[Edge, int], int, tuple[int, ...]]:
    """Pair weights, packed pair images, the fields' low bits, and the
    walk's field mask per depth.

    Pair i of iter_all_pairs(n) weighs 1 << (P - 1 - i), so the walk
    emits masks in increasing order.  The k-th non-identity rotation or
    reflection g owns bits k(P + 1) .. k(P + 1) + P of a packed int: P bits
    for a mask's image under g, then a guard bit.  A pair's packed image
    holds, in each field, the weight of the pair's image under that
    field's symmetry; lows holds bit 0 of every field.

    Once the walk has decided pairs 0..d-1, the top d bits of its mask are
    fixed.  For a symmetry g, let L be the longest top run of positions
    whose preimages under g are all decided; then the top L bits of g's
    image are fixed too, and if they are less than the mask's top L bits,
    no mask below is least in its orbit.  fields[d] keeps the top L bits
    of each g whose L grows at depth d, and is 0 where none grows.  Depth
    P is left out: the leaf's orbit test compares the whole masks.
    """
    pairs = list(iter_all_pairs(n))
    size = len(pairs)
    index = {e: i for i, e in enumerate(pairs)}
    weight = {e: 1 << (size - 1 - i) for i, e in enumerate(pairs)}
    image = dict.fromkeys(pairs, 0)
    lows, shift = 0, 0
    fields = [0] * (size + 1)
    for sign in (1, -1):
        for rot in range(n):
            if sign == 1 and rot == 0:
                continue
            relabel = [0] + [(rot + sign * (v - 1)) % n + 1 for v in range(1, n + 1)]
            source = [0] * size  # source[k]: the pair that g maps to pair k
            for i, e in enumerate(pairs):
                t = index[normalize_edge(relabel[e[0]], relabel[e[1]])]
                image[e] |= 1 << shift + size - 1 - t
                source[t] = i
            fixed = 0  # L: the top positions of g's image fixed so far
            for d in range(1, size):
                before = fixed
                while fixed < d and source[fixed] < d:
                    fixed += 1
                if fixed > before:
                    fields[d] |= ((1 << fixed) - 1 << size - fixed) << shift
            lows |= 1 << shift
            shift += size + 1
    return weight, image, lows, tuple(fields)


def _walk_drawing(n: int, mask: int, nbrs: int) -> Drawing:
    """The drawing of a walked mask: its edges read a byte at a time off
    the mask, its adjacency and degrees off the neighbor fields."""
    sets, field, vertices = _neighbor_sets(n), (1 << n) - 1, range(1, n + 1)
    edges: list[Edge] = []
    for table in _edge_bytes(n):
        edges += table[mask & 255]
        mask >>= 8
    row = []
    for _ in vertices:
        row.append(sets[nbrs & field])
        nbrs >>= n
    d = _trusted_drawing(n, frozenset(edges))
    object.__setattr__(d, "adjacency", dict(zip(vertices, row)))
    object.__setattr__(d, "degrees", dict(zip(vertices, map(len, row))))
    return d


@cache
def _edge_bytes(n: int) -> tuple[tuple[tuple[Edge, ...], ...], ...]:
    """For byte k of a pair mask, low byte first: the pairs that each of its
    256 values sets (the top byte may be partial)."""
    weight = _symmetries(n)[0]
    return tuple(
        tuple(tuple(e for e, w in weight.items() if w >> 8 * k & byte) for byte in range(256))
        for k in range(-(-len(weight) // 8))
    )


@cache
def _neighbor_sets(n: int) -> tuple[frozenset[int], ...]:
    """Every subset of 1..n as a frozenset, indexed by its n-bit field."""
    return tuple(frozenset(v + 1 for v in range(n) if f >> v & 1) for f in range(1 << n))


def enumerate_drawings_deduped(n: int, filter: str = "all") -> Iterator[Drawing]:
    """One drawing per rotation/reflection class of the valid drawings on n
    convex-position vertices that pass filter ('all', 'connected' or
    'connected-min-deg-2'): the one whose pair bitmask is least in its
    orbit, in increasing mask order (the first pair of iter_all_pairs(n) is
    the most significant bit).  Emitted drawings skip revalidation: the walk
    maintains the crossing-degree invariant itself.
    """
    for mask, nbrs, _ in _walk(n, filter):
        yield _walk_drawing(n, mask, nbrs)
