"""Outer-1-plane drawings in convex position.

A drawing is a cyclic sequence of vertices 1..n (clockwise on the outer
boundary) together with an edge set.  Two edges cross exactly when their
endpoints interleave in the cyclic order, and a drawing is valid when every
edge is crossed at most once.  Everything downstream (configuration
matching, structure search, coloring) works on this representation.  Its
graph half, `AbstractGraph`, is the base class of `Drawing` and stands on
its own where the oracles need a graph with no drawing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

Edge = tuple[int, int]


class DrawingError(ValueError):
    """Base class for drawing construction problems."""


class DrawingFormatError(DrawingError):
    """Malformed drawing file (carries a line number in the message)."""


class InvalidDrawingError(DrawingError):
    """Structurally invalid graph or drawing: loop, bad vertex, or crossing overload."""


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def interleave(n: int, e: Edge, f: Edge) -> bool:
    """True iff chords e and f strictly interleave in the cyclic order 1..n.

    Edges sharing an endpoint never interleave.  With the four endpoints
    distinct, e and f interleave exactly when one endpoint of f lies
    strictly inside the clockwise arc between the endpoints of e and the
    other lies outside.
    """
    a, b = e
    c, d = f
    if a in (c, d) or b in (c, d):
        return False
    ba = (b - a) % n
    ca = (c - a) % n
    da = (d - a) % n
    return (0 < ca < ba) != (0 < da < ba)


@dataclass(frozen=True)
class AbstractGraph:
    """A simple graph on the vertices 1..n, with no drawing attached.

    Construction rejects loops and endpoints out of range.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise InvalidDrawingError(f"loop at vertex {u}")
            if not (1 <= u < v <= self.n):
                raise InvalidDrawingError(f"edge ({u},{v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]):
        return cls(n, frozenset(normalize_edge(u, v) for u, v in edges))

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def degrees(self) -> dict[int, int]:
        return {v: len(self.adjacency[v]) for v in self.vertices}

    @cached_property
    def min_degree(self) -> int:
        return min(self.degrees.values())

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edges

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = {1}
        stack = [1]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n


@dataclass(frozen=True)
class Drawing(AbstractGraph):
    """An outer-1-plane drawing: n boundary vertices plus an edge set.

    Vertices are the integers 1..n in clockwise boundary order.  Validation
    happens at construction: at least one vertex, the graph checks, and
    every edge interleaves with at most one other edge.  The pairs that
    sweep finds are kept as `crossing_pairs`.
    """

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidDrawingError("a drawing needs at least one vertex")
        super().__post_init__()
        pairs = []
        crossed: set[Edge] = set()
        for pair in self._interleaving_pairs():
            for e in pair:
                if e in crossed:
                    count = sum(interleave(self.n, e, f) for f in self.edges)
                    raise InvalidDrawingError(
                        f"edge {e} is crossed {count} times: not outer-1-plane in given order"
                    )
                crossed.add(e)
            pairs.append(pair)
        # fills the cached property below; oracle._trusted_drawing skips this
        # method, so its drawings still compute the pairs on first read
        object.__setattr__(self, "crossing_pairs", frozenset(pairs))

    def _interleaving_pairs(self) -> Iterator[tuple[Edge, Edge]]:
        """Every crossing pair (e, f) with e < f, by one sweep over the boundary.

        Chords open at their smaller endpoint, longest first, and close at
        their larger endpoint, innermost first; at one position closings
        come before openings.  Open chords sit on a stack, so when (a, b)
        closes, every entry above it opened strictly inside (a, b) and
        closes past b: exactly the chords crossing it from that side.
        Sorting the events costs O(m log m) and each close walks only past
        the pairs it yields, so nothing scales with n, and a caller that
        stops at a second crossing stops the sweep.
        """
        events = sorted(
            [(b, 0, -a, (a, b)) for a, b in self.edges]
            + [(a, 1, -b, (a, b)) for a, b in self.edges]
        )
        stack: list[Edge] = []
        for _, opening, _, e in events:
            if opening:
                stack.append(e)
                continue
            i = len(stack) - 1
            while stack[i] != e:
                yield e, stack[i]
                i -= 1
            del stack[i]

    @cached_property
    def crossing_pairs(self) -> frozenset[tuple[Edge, Edge]]:
        return frozenset(self._interleaving_pairs())

    def crosses(self, e: Edge, f: Edge) -> bool:
        e = normalize_edge(*e)
        f = normalize_edge(*f)
        key = (e, f) if e < f else (f, e)
        return key in self.crossing_pairs


def delete_vertices(d: Drawing, remove: Iterable[int]) -> Drawing:
    """Induced sub-drawing on the surviving vertices, cyclic order inherited.

    Survivors are relabeled 1..n' in their original clockwise order, which
    can only remove crossings, so the result is always a valid drawing.
    """
    gone = set(remove)
    if not gone <= set(d.vertices):
        raise ValueError("can only delete existing vertices")
    keep = [v for v in d.vertices if v not in gone]
    if not keep:
        raise ValueError("deleting every vertex would leave an empty drawing")
    relabel = {old: i + 1 for i, old in enumerate(keep)}
    edges = frozenset(
        (relabel[u], relabel[v]) for u, v in d.edges if u not in gone and v not in gone
    )
    return Drawing(len(keep), edges)


def parse_drawing(text: str) -> Drawing:
    """Parse the drawing file format.

    Comment lines start with '#'.  The first real line is "n <count>",
    every following line "e <u> <v>" with 1 <= u < v <= n.  Crossings are
    never listed; they are derived from the cyclic order.
    """
    n: int | None = None
    edges: set[Edge] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise DrawingFormatError(f"line {ln}: expected 'n <count>', got {raw.strip()!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise DrawingFormatError(f"line {ln}: vertex count is not an integer") from None
            if n < 1:
                raise DrawingFormatError(f"line {ln}: vertex count must be at least 1")
            if n > sys.maxsize:
                raise DrawingFormatError(f"line {ln}: vertex count must be at most {sys.maxsize}")
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise DrawingFormatError(f"line {ln}: expected 'e <u> <v>', got {raw.strip()!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise DrawingFormatError(f"line {ln}: edge endpoints must be integers") from None
        if u == v:
            raise InvalidDrawingError(f"line {ln}: loop at vertex {u}")
        if not (1 <= u < v <= n):
            raise DrawingFormatError(
                f"line {ln}: edge ({u},{v}) must satisfy 1 <= u < v <= {n}"
            )
        e = (u, v)
        if e in edges:
            raise InvalidDrawingError(f"line {ln}: duplicate edge ({u},{v})")
        edges.add(e)
    if n is None:
        raise DrawingFormatError("line 1: missing 'n <count>' header")
    return Drawing(n, frozenset(edges))


def emit_drawing(d: Drawing) -> str:
    """Serialize back to the drawing file format, edges sorted lexicographically."""
    lines = [f"n {d.n}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(d.edges))
    return "\n".join(lines) + "\n"


def emit_dot(d: Drawing) -> str:
    """DOT text for the underlying graph (no geometry)."""
    lines = ["graph drawing {"]
    lines.extend(f"  {v};" for v in d.vertices)
    lines.extend(f"  {u} -- {v};" for u, v in sorted(d.edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


def iter_all_pairs(n: int) -> Iterator[Edge]:
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            yield (u, v)
