"""Structural guarantees: unavoidable configurations, light edges, reductions.

Every connected drawing with minimum degree 2 contains one of the seventeen
configurations; every drawing at all contains one of ten reducible shapes
whose deletion the coloring engine can undo: three primitive shapes, or one
of the seven reducible configurations of the `_SHAPES` table.

The chain from the theorem to the shapes: a drawing with a vertex of degree
at most 1 has P1.  Otherwise each component is a connected drawing with
minimum degree 2, so by the theorem it contains one of the seventeen
configurations, with the same degrees in the whole drawing.  Each of them
is reducible (configurations 3 and 6-11, shapes P4-P10) or carries, on its
own vertices, P2 (two adjacent degree-2 vertices) or P3 (a degree-2 vertex
whose two neighbors are adjacent); that is catalog fact (e).  A maximal
drawing never carries configuration 3: a boundary edge crosses nothing, so
each degree-2 vertex is joined to both its boundary neighbors, and u and v
would both sit between x and y, forcing n = 4, where a chord still fits.

Both searches are realized by exhaustive catalog matching with
deterministic tie-breaking, not by the inductive case analysis that proves
they cannot fail.  The reduction search lives in a peeler that holds the
candidates of every kind and, after each deletion, searches only around
the vertices whose degree fell.  find_reduction asks it for one step; the
coloring engine's peel reads the same candidates, in the same order, to
delete every shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import itemgetter

from . import oracle
from .catalog import (
    Match,
    _degree_range,
    _occurrences,
    _rooted_occurrences,
    find_matches,
    get_pattern,
    light_edge_labels,
    tight_edge_labels,
)
from .drawing import AbstractGraph, Drawing, Edge, normalize_edge


class StructureNotFound(RuntimeError):
    """No guaranteed structure found: invalid input or a catalog bug."""


@dataclass(frozen=True)
class LightEdge:
    endpoints: tuple[int, int]
    degree_sum: int


@dataclass(slots=True)
class ReductionStep:
    """One reducible shape: its kind, the vertices to delete, and anchors."""

    kind: str
    deleted: tuple[int, ...]
    anchors: dict[str, int]


# The reducible configurations, in priority order.  A row holds the
# configuration id, the reduction kind, the labels a reduction deletes, the
# label pairs whose swap mirrors the configuration (so the extension rules'
# degree cases, stated for the d(x) >= d(y) side, always apply), and the
# labels that x's and y's third neighbors x1 and y1 must avoid.
_SHAPES = (
    (3, "P4-G3", ("u",), (("x", "y"),), (("u", "v"), ("u", "v"))),
    (6, "P5-G6", ("u",), (("x", "y"),), (("u", "v"), ("u", "v"))),
    (7, "P6-G7", ("u", "v"), (("x", "y"), ("v", "w")), (("v", "w"), ("v", "w"))),
    (8, "P7-G8", ("u", "w"), (), (("u", "v"), ("v", "w"))),
    (9, "P8-G9", ("u", "w"), (("x", "y"), ("z", "u"), ("v", "w")), (("u", "v"), ("w", "z"))),
    (10, "P9-G10", ("u", "w"), (), (("v", "z"), ("v", "w"))),
    (11, "P10-G11", ("u", "v", "a"), (("x", "y"), ("z", "a"), ("w", "v")), (("v", "z"), ("w", "a"))),
)


def find_structure(d: Drawing) -> Match:
    """First configuration contained in d, scanning ids 1..17.

    Guaranteed to succeed when d is connected with minimum degree 2; it is
    still attempted on other inputs and raises StructureNotFound if nothing
    matches.
    """
    m = _first_match(d, range(1, 18))
    if m is None:
        raise StructureNotFound(
            "no configuration found: the input is not a valid outer-1-plane "
            "drawing with minimum degree 2, or the catalog is wrong"
        )
    return m


def find_light_edge(d: Drawing, maximal_mode: bool = False) -> LightEdge:
    """An edge with degree sum at most 9 (at most 7 in maximal mode).

    Scans the configurations in id order and reads the light edge off the
    first match: the solid degree-2 vertex of the 3rd configuration with
    its partner capped at 7, or another configuration's edge of sum at most
    7 (catalog facts (a) and (b)).  A boundary edge at a degree-2 vertex
    could be added, so maximal drawings never carry the 3rd configuration
    (see the module docstring) and maximal mode skips it.  Falls back to a
    direct minimum-sum scan on inputs that break the hypotheses.
    """
    degs = d.degrees
    m = _first_match(d, [pid for pid in range(1, 18) if not (maximal_mode and pid == 3)])
    if m is not None:
        u, v = (m.assignment[label] for label in _edge_labels(m.pattern_id))
        return LightEdge((min(u, v), max(u, v)), degs[u] + degs[v])
    bound = 7 if maximal_mode else 9
    best = min(((degs[u] + degs[v], (u, v)) for u, v in d.edges), default=None)
    if best is not None and best[0] <= bound:
        return LightEdge(best[1], best[0])
    raise StructureNotFound(
        f"no edge with degree sum <= {bound}: input violates the guarantee's hypotheses"
    )


@lru_cache(maxsize=None)
def _edge_labels(pid: int) -> tuple[str, str]:
    """The labels of the edge find_light_edge reads off a match of pid."""
    p = get_pattern(pid)
    return light_edge_labels(p) if pid == 3 else tight_edge_labels(p)


def _first_match(d: Drawing, ids, check_d2: bool = False) -> Match | None:
    """The first match of the first configuration in ids that d contains."""
    for pid in ids:
        matches = find_matches(d, get_pattern(pid), check_d2)
        if matches:
            return matches[0]
    return None


def find_reduction(d: Drawing) -> ReductionStep:
    """The first reducible shape, in the fixed priority order.

    Priority: a vertex of degree at most 1, two adjacent degree-2 vertices,
    a triangle with a degree-2 vertex, then configurations 3, 6, 7, 8, 9,
    10, 11.  Within a kind the lexicographically smallest anchor assignment
    wins, so runs are reproducible.  This is the first pop of a fresh
    peeler, so the one-off query and the coloring engine's peel agree.
    """
    return _Peeler(d).pop()


@lru_cache(maxsize=None)
def _config_kind(pid: int) -> tuple:
    """(pattern, anchor names, the getter of an occurrence's key, the names'
    degree ranges, and each finite upper bound's labels with their least
    degrees).  The anchors are the labels; a key lists their vertices."""
    p = get_pattern(pid)
    names = tuple(sorted(p.labels))
    key_of = itemgetter(*(p.labels.index(a) for a in names))
    ranges = {a: _degree_range(p.roles[a]) for a in names}
    bounds = {hi for _, hi in ranges.values() if hi != math.inf}
    by_bound = {hi: [(a, lo) for a, (lo, h) in ranges.items() if h == hi] for hi in bounds}
    return p, names, key_of, tuple(ranges.values()), by_bound


@lru_cache(maxsize=None)
def _log_bounds() -> frozenset[int]:
    """The degrees whose drops the peel logs: each configuration label's finite upper bound."""
    return frozenset(hi for row in _SHAPES for hi in _config_kind(row[0])[4])


class _Peeler:
    """The survivors of a drawing being peeled, with their reduction candidates.

    Works on the drawing's own labels: deleting vertices keeps the
    survivors' clockwise order, so the induced sub-drawing needs neither
    relabeling nor a second crossing check.  It never mutates the
    drawing: it shares the drawing's neighbor frozensets and copies one
    only before its first write, so a one-off query copies none.  A
    survivor's degree is its set's size; no degree map is kept.

    Survivors only lose degree, so the candidates sit in min-heaps that are
    validated lazily when read: an entry that fails once fails for good.
    Each heap is filled by one full scan, or a search for orbit leaders,
    the first time every kind above it is empty, so a one-off query pays
    only for what it reads.  Then the P1/P2/P3 heaps take a vertex when its
    degree drops into their bucket.  A configuration's heap holds anchor
    keys, find_reduction's ranking; a new occurrence must put a vertex
    whose degree fell on a label that did not admit it at the kind's last
    read.  Degrees fall one at a time, so a label with range [lo, hi] newly
    admits a vertex exactly when it fell from hi + 1 to hi and is still at
    least lo (never, for a hollow "at least k").  Once some kind has been
    read, one log takes (vertex, hi) at each such drop; a kind keeps its
    read position in it and, read again, runs leader searches rooted at
    the new entries under each label with that bound.  They miss no new
    leader: an automorphism preserves roles, so the label a new
    occurrence's leader puts on the vertex newly admits it too.
    Configurations are read in `_SHAPES` order.  `pop` names the next
    shape as a step, for find_reduction and for a caller that deletes it
    with `remove`.  The coloring engine's peel reads the least shape
    through `_least_primitive` and `_least_config`, as pop does, deletes it
    with `remove` and keeps its own records of the deletions.
    """

    def __init__(self, d: Drawing) -> None:
        self.adjacency = dict(d.adjacency)  # frozensets until written
        self._pendant: list[int] | None = None
        self._pairs: list[Edge] | None = None  # P2 and P3 are scanned together
        self._triangles: list[tuple[int, int, int]] | None = None
        self._found: dict[int, list] = {}
        self._read: dict[int, int] = {}  # each kind's position in the log
        self._log: list[tuple[int, int]] = []
        self._bounds: frozenset[int] = frozenset()  # drops to log: none before a kind is read

    def pop(self) -> ReductionStep:
        """The first reducible shape among the survivors (see find_reduction)."""
        adj = self.adjacency
        s = self._least_primitive()
        if s:
            u = s[0]
            if len(s) == 1:
                anchors = {"u": u}
                if adj[u]:
                    anchors["v"] = min(adj[u])
                return ReductionStep("P1-pendant", s, anchors)
            if len(s) == 2:
                v = s[1]
                x = min(adj[u] - {v})
                y = min(adj[v] - {u})
                return ReductionStep("P2-adjacent-deg2", s, {"u": u, "v": v, "x": x, "y": y})
            anchors = {"u": u, "x": s[1], "y": s[2]}
            self._note_thirds(anchors, (("u", "y"), ("u", "x")))
            return ReductionStep("P3-triangle-deg2", (u,), anchors)
        return self._config_step(*self._least_config())

    def _least_config(self) -> tuple[tuple, tuple[int, ...]]:
        """The first `_SHAPES` row whose configuration the survivors hold,
        with its least anchor key, reading the kinds in order."""
        for row in _SHAPES:
            key = self._least_occurrence(row[0])
            if key is not None:
                return row, key
        raise StructureNotFound(
            "no reducible configuration: the input is not outer-1-planar, or the catalog is wrong"
        )

    def _config_step(self, row: tuple, key: tuple[int, ...]) -> ReductionStep:
        """pop's step for the configuration of row at the anchor key."""
        pid, kind, deletes, swaps, avoid = row
        anchors = dict(zip(_config_kind(pid)[1], key))
        adj = self.adjacency
        if swaps and len(adj[anchors["x"]]) == 3 and len(adj[anchors["y"]]) >= 4:
            # The mirror is again an occurrence: the swap preserves the
            # configuration graph, and where a degree cap moves onto the
            # old x its degree is 3, comfortably inside every cap.
            for a, b in swaps:
                anchors[a], anchors[b] = anchors[b], anchors[a]
        self._note_thirds(anchors, avoid)
        return ReductionStep(kind, tuple(sorted(anchors[l] for l in deletes)), anchors)

    def _least_primitive(self) -> tuple[int, ...]:
        """The least primitive shape in pop's order: a pendant (u,), then a
        pair (u, v) of adjacent degree-2 vertices, then a triangle (u, x, y)
        at a degree-2 u; () if there is none."""
        adj = self.adjacency
        pendant = self._pendant
        if pendant is None:
            self._pendant = pendant = [v for v, ns in adj.items() if len(ns) <= 1]
            heapify(pendant)
        while pendant and (pendant[0] not in adj or len(adj[pendant[0]]) > 1):  # a deleted vertex is no pendant
            heappop(pendant)
        if pendant:
            return (pendant[0],)

        if self._pairs is None:
            self._pairs, self._triangles = pairs, triangles = [], []
            for u, ns in adj.items():
                if len(ns) == 2:
                    x, y = ns
                    if u < x and len(adj[x]) == 2:
                        pairs.append((u, x))
                    if u < y and len(adj[y]) == 2:
                        pairs.append((u, y))
                    if y in adj[x]:
                        triangles.append((u, x, y) if x < y else (u, y, x))
            heapify(pairs)
            heapify(triangles)
        pairs = self._pairs
        while pairs and not len(adj.get(pairs[0][0], ())) == 2 == len(adj.get(pairs[0][1], ())):
            heappop(pairs)
        if pairs:
            return pairs[0]

        # u keeps degree 2 only while both its neighbors survive
        triangles = self._triangles
        while triangles and len(adj.get(triangles[0][0], ())) != 2:
            heappop(triangles)
        return triangles[0] if triangles else ()

    def _least_occurrence(self, pid: int) -> tuple[int, ...] | None:
        """The least anchor key of an orbit representative, or None."""
        heap, log = self._found.get(pid), self._log
        p, _, key_of, ranges, by_bound = _config_kind(pid)
        adj = self.adjacency
        if heap is None:
            self._bounds = _log_bounds()
            heap = self._found[pid] = list(map(key_of, _occurrences(p, adj)))
            heapify(heap)
        else:
            for v, hi in log[self._read[pid]:]:
                for label, lo in by_bound.get(hi, ()):
                    if len(adj.get(v, ())) >= lo:  # an occurrence met from two roots is pushed twice, harmlessly
                        for r in _rooted_occurrences(p, adj, label, (v,)):
                            heappush(heap, key_of(r))
        self._read[pid] = len(log)
        while heap:
            for v, (lo, hi) in zip(heap[0], ranges):
                if not lo <= len(adj.get(v, ())) <= hi:
                    heappop(heap)
                    break
            else:
                return heap[0]
        return None

    def remove(self, deleted: tuple[int, ...]) -> list[set[int] | frozenset[int]]:
        """Delete vertices; returns their neighbor sets as popped, in order.
        Each drop puts a survivor in the heap of its new degree, and in the
        log at a bound; lazy validation discards what a later drop spoils."""
        adj = self.adjacency
        pendant, pairs, triangles = self._pendant, self._pairs, self._triangles
        log, bounds = self._log, self._bounds
        popped = []
        for v in deleted:
            popped.append(vs := adj.pop(v))
            for w in vs:
                ns = adj[w]
                if type(ns) is frozenset:  # still the drawing's: copy before the first write
                    adj[w] = ns = set(ns)
                ns.remove(v)
                new = len(ns)
                if new == 1 and pendant is not None:
                    heappush(pendant, w)
                elif new == 2 and pairs is not None:
                    x, y = sorted(ns)
                    for z in (x, y):
                        if len(adj[z]) == 2:
                            heappush(pairs, normalize_edge(w, z))
                    if y in adj[x]:
                        heappush(triangles, (w, x, y))
                if new in bounds:
                    log.append((w, new))
        return popped

    def _note_thirds(self, anchors: dict[str, int], avoid) -> None:
        """Record x1 and y1, the third neighbors the extension rules use: the
        one neighbor of a degree-3 x (y) outside the labels avoid names.  A
        row of avoid that names no two neighbors of x (y) fails the unpacking."""
        for label, skip in zip(("x", "y"), avoid):
            ns = self.adjacency[anchors[label]]
            if len(ns) == 3:
                (anchors[label + "1"],) = ns - {anchors[o] for o in skip}


def check_d1(d: Drawing, m: Match) -> bool:
    """Can the edge between the match's u and v be added keeping outer-1-planarity?

    Decided by the recognition oracle on the underlying graph plus the new
    edge, so it is capped at 9 vertices.
    """
    if "u" not in m.assignment or "v" not in m.assignment:
        raise ValueError("check_d1 needs a match with u and v anchors")
    u, v = m.assignment["u"], m.assignment["v"]
    e = (min(u, v), max(u, v))
    if e in d.edges:
        return True
    return oracle.is_outer_1_planar(AbstractGraph._unchecked(d.n, d.edges | {e}))
