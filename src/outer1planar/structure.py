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
whose two neighbors are adjacent); that is catalog fact (e).

Both searches are realized by exhaustive catalog matching with
deterministic tie-breaking, not by the inductive case analysis that proves
they cannot fail.  The reduction search lives in a peeler that the
coloring engine keeps for a whole peel: it holds the candidates of every
kind and, after each deletion, searches only around the vertices whose
degree fell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush

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
    7 (catalog facts (a) and (b)).  Maximal drawings never carry the 3rd
    configuration, so maximal mode skips it.  Falls back to a direct
    minimum-sum scan on inputs that break the hypotheses.
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
    """(pattern, anchor names, their label positions, each label's degree
    range, and the labels a drop in degree can newly admit).  A reduction's
    anchors are the configuration's labels, named by themselves."""
    p = get_pattern(pid)
    names = tuple(sorted(p.labels))
    keys = tuple(p.labels.index(a) for a in names)
    ranges = tuple(_degree_range(p.roles[l]) for l in p.labels)
    bounded = tuple((l, lo, hi) for l, (lo, hi) in zip(p.labels, ranges) if hi != math.inf)
    return p, names, keys, ranges, bounded


class _Peeler:
    """The survivors of a drawing being peeled, with their reduction candidates.

    Works on the drawing's own labels: deleting vertices keeps the
    survivors' clockwise order, so the induced sub-drawing needs neither
    relabeling nor a second crossing check.  It never mutates the
    drawing: it shares the drawing's neighbor frozensets and copies one
    only before its first write, so a one-off query copies none.

    Survivors only lose degree, so the candidates sit in min-heaps that are
    validated lazily when read: an entry that fails once fails for good.
    Each heap is filled by one full scan, or a search for orbit leaders,
    the first time every kind above it is empty, so a one-off query pays
    only for what it reads.  Then the P1/P2/P3 heaps take a vertex when its
    degree drops into their bucket.  A configuration's heap is keyed like
    find_reduction's ranking; a new occurrence must put a vertex whose
    degree dropped on a solid or marked-hollow label that did not admit its
    old degree (losing degree never satisfies a hollow "at least k"), so
    leader searches rooted at those vertices, under each such label, bring
    the heap up to date when the kind is read again.  They miss no new
    leader: an automorphism preserves roles, so the label that a new
    occurrence's leader puts on the vertex also newly admits it, and is
    searched too.  `restore` is for the extension phase, after the last
    `pop`.

    The configurations are read in `_SHAPES` order; a row says how `pop`
    turns an occurrence into a step.
    """

    def __init__(self, d: Drawing) -> None:
        self.adjacency = dict(d.adjacency)  # frozensets until written
        self.degrees = degs = dict(d.degrees)
        self._pendant = [v for v, k in degs.items() if k <= 1]
        heapify(self._pendant)
        self._pairs: list[Edge] | None = None  # P2 and P3 are scanned together
        self._triangles: list[tuple[int, int, int]] | None = None
        self._found: dict[int, list] = {}
        self._dirty: dict[int, dict[int, int]] = {}  # degree at the kind's last read

    def pop(self) -> ReductionStep:
        """The first reducible shape among the survivors (see find_reduction)."""
        degs, adj = self.degrees, self.adjacency
        pendant = self._pendant
        while pendant and degs.get(pendant[0], 2) > 1:
            heappop(pendant)
        if pendant:
            v = pendant[0]
            anchors = {"u": v}
            if degs[v] == 1:
                anchors["v"] = min(adj[v])
            return ReductionStep("P1-pendant", (v,), anchors)

        if self._pairs is None:
            twos = [v for v, k in degs.items() if k == 2]
            corners = [(u, *sorted(adj[u])) for u in twos]
            self._pairs = [(u, v) for u in twos for v in adj[u] if u < v and degs[v] == 2]
            self._triangles = [(u, x, y) for u, x, y in corners if y in adj[x]]
            heapify(self._pairs)
            heapify(self._triangles)
        pairs = self._pairs
        while pairs and not degs.get(pairs[0][0]) == 2 == degs.get(pairs[0][1]):
            heappop(pairs)
        if pairs:
            u, v = pairs[0]
            x = min(adj[u] - {v})
            y = min(adj[v] - {u})
            return ReductionStep("P2-adjacent-deg2", (u, v), {"u": u, "v": v, "x": x, "y": y})

        # u keeps degree 2 only while both its neighbors survive
        triangles = self._triangles
        while triangles and degs.get(triangles[0][0]) != 2:
            heappop(triangles)
        if triangles:
            u, x, y = triangles[0]
            anchors = {"u": u, "x": x, "y": y}
            self._note_thirds(anchors, (("u", "y"), ("u", "x")))
            return ReductionStep("P3-triangle-deg2", (u,), anchors)

        for pid, kind, deletes, swaps, avoid in _SHAPES:
            rep = self._least_occurrence(pid)
            if rep is None:
                continue
            _, names, keys, _, _ = _config_kind(pid)
            anchors = {a: rep[k] for a, k in zip(names, keys)}
            if swaps and degs[anchors["x"]] == 3 and degs[anchors["y"]] >= 4:
                # The mirror is again an occurrence: the swap preserves the
                # configuration graph, and where a degree cap moves onto the
                # old x its degree is 3, comfortably inside every cap.
                for a, b in swaps:
                    anchors[a], anchors[b] = anchors[b], anchors[a]
            self._note_thirds(anchors, avoid)
            return ReductionStep(kind, tuple(sorted(anchors[l] for l in deletes)), anchors)

        raise StructureNotFound(
            "no reducible configuration: the input is not outer-1-planar, or the catalog is wrong"
        )

    def _least_occurrence(self, pid: int) -> tuple[int, ...] | None:
        """The orbit representative with the least anchor key, or None."""
        p, _, keys, ranges, bounded = _config_kind(pid)
        degs, adj = self.degrees, self.adjacency
        heap = self._found.get(pid)
        if heap is None:
            heap = self._found[pid] = [(tuple([r[k] for k in keys]), r) for r in _occurrences(p, degs, adj, degs)]
            heapify(heap)
            self._dirty[pid] = {}
        else:
            dirty = self._dirty[pid]
            fresh = set()
            for v, old in dirty.items():
                new = degs.get(v)
                if new is None:
                    continue
                for label, lo, hi in bounded:
                    if lo <= new <= hi and not lo <= old <= hi:
                        fresh.update(_rooted_occurrences(p, degs, adj, label, (v,)))
            dirty.clear()
            for r in fresh:
                heappush(heap, (tuple([r[k] for k in keys]), r))
        while heap and not all(v in degs and lo <= degs[v] <= hi for v, (lo, hi) in zip(heap[0][1], ranges)):
            heappop(heap)
        return heap[0][1] if heap else None

    def remove(self, deleted: tuple[int, ...]) -> list[tuple[int, int]]:
        """Delete vertices; returns the edges that went with them, each as
        (deleted vertex, other end).  A survivor that loses a neighbor joins
        the heaps of its new degree at once; a later drop in the same call
        only leaves stale entries there, which the lazy validation discards."""
        degs, adj = self.degrees, self.adjacency
        pendant, pairs, triangles = self._pendant, self._pairs, self._triangles
        dirties = self._dirty.values()
        dropped: list[tuple[int, int]] = []
        for v in deleted:
            del degs[v]
            for w in adj.pop(v):
                ns = adj[w]
                if type(ns) is frozenset:  # still the drawing's: copy before the first write
                    adj[w] = ns = set(ns)
                ns.remove(v)
                dropped.append((v, w))
                old = degs[w]
                degs[w] = new = old - 1
                if new == 1:
                    heappush(pendant, w)
                elif new == 2 and pairs is not None:
                    x, y = sorted(ns)
                    for z in (x, y):
                        if degs[z] == 2:
                            heappush(pairs, normalize_edge(w, z))
                    if y in adj[x]:
                        heappush(triangles, (w, x, y))
                for dirty in dirties:
                    dirty.setdefault(w, old)
        return dropped

    def _note_thirds(self, anchors: dict[str, int], avoid) -> None:
        """Record x1 and y1, the third neighbors the extension rules use: the
        one neighbor of a degree-3 x (y) outside the labels avoid names."""
        for label, skip in zip(("x", "y"), avoid):
            v = anchors[label]
            if self.degrees[v] == 3:
                rest = self.adjacency[v] - {anchors[o] for o in skip}
                if len(rest) == 1:
                    anchors[label + "1"] = next(iter(rest))

    def restore(self, deleted: tuple[int, ...], dropped: list[tuple[int, int]]) -> None:
        """Undo the remove call that deleted these vertices.  Every other
        end in dropped lost a neighbor there, so its set is the peeler's own."""
        degs, adj = self.degrees, self.adjacency
        for v in deleted:
            adj[v] = set()
            degs[v] = 0
        for v, w in dropped:
            adj[v].add(w)
            adj[w].add(v)
            degs[v] += 1
            degs[w] += 1


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
    return oracle.is_outer_1_planar(AbstractGraph(d.n, d.edges | {e}))
