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
        n = self.n
        for u, v in self.edges:
            if not 0 < u < v <= n:
                if u == v:
                    raise InvalidDrawingError(f"loop at vertex {u}")
                raise InvalidDrawingError(f"edge ({u},{v}) out of range for n={n}")

    @classmethod
    def _unchecked(cls, n: int, edges: frozenset[Edge]):
        """cls(n, edges) with no check at all, for edges known to be valid;
        a caller that still wants a drawing's crossing sweep runs _validate."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

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
        """Each vertex's neighbor-set size, built the first time it is read."""
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
        self._validate()

    def _validate(self) -> None:
        """The crossing sweep: each edge interleaves with at most one other."""
        pairs = []
        crossed: set[Edge] = set()
        for pair in self._interleaving_pairs():
            for e in pair:
                if e in crossed:
                    a, b = e
                    count = sum(a < c < b < d or c < a < d < b for c, d in self.edges)
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
        Each event is one int, from the top: its position, an opening flag
        and the complement of the chord's other endpoint, which also names
        the chord; so one sort of ints orders the events, and below 2**14
        vertices each fits in one 30-bit digit.  A chord sits on the stack
        as its closing event.  Sorting costs O(m log m) and each close walks
        only past the pairs it yields, so nothing scales with n, and a
        caller that stops at a second crossing stops the sweep.
        """
        width = self.n.bit_length()
        top = (1 << width) - 1  # at least n, so top - v >= 0 for every endpoint v
        opening = 1 << width
        at = width + 1
        events = [b << at | top - a for a, b in self.edges]
        events += [a << at | opening | top - b for a, b in self.edges]
        events.sort()
        stack: list[int] = []
        for event in events:
            if event & opening:
                stack.append((top - (event & top)) << at | top - (event >> at))
                continue
            i = len(stack) - 1
            while stack[i] != event:
                f = stack[i]
                yield (top - (event & top), event >> at), (top - (f & top), f >> at)
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
    never listed; they are derived from the cyclic order.  A well-formed
    new edge takes the first branch of the edge loop; every other line
    goes to `_edge_line_error`, which skips it or names what is wrong.
    """
    lines = text.splitlines()
    for ln, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
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
        break
    else:
        raise DrawingFormatError("line 1: missing 'n <count>' header")
    edges: set[Edge] = set()
    add = edges.add
    for ln, raw in enumerate(lines[ln:], start=ln + 1):
        try:
            tag, u, v = raw.split()
            u, v = int(u), int(v)
        except ValueError:
            tag = None
        if tag == "e" and 0 < u < v <= n:
            e = (u, v)
            if e not in edges:
                add(e)
                continue
            raise InvalidDrawingError(f"line {ln}: duplicate edge ({u},{v})")
        _edge_line_error(ln, raw, n)
    d = Drawing._unchecked(n, frozenset(edges))  # every edge checked above
    d._validate()
    return d


def _edge_line_error(ln: int, raw: str, n: int) -> None:
    """Return if line ln, after the header, is blank or a comment; raise
    what is wrong with it otherwise (it is not "e <u> <v>" in range)."""
    parts = raw.split()
    if not parts or parts[0].startswith("#"):
        return
    if parts[0] != "e" or len(parts) != 3:
        raise DrawingFormatError(f"line {ln}: expected 'e <u> <v>', got {raw.strip()!r}")
    try:
        u, v = int(parts[1]), int(parts[2])
    except ValueError:
        raise DrawingFormatError(f"line {ln}: edge endpoints must be integers") from None
    if u == v:
        raise InvalidDrawingError(f"line {ln}: loop at vertex {u}")
    raise DrawingFormatError(f"line {ln}: edge ({u},{v}) must satisfy 1 <= u < v <= {n}")


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
