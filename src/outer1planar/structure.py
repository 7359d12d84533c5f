"""Structural guarantees: unavoidable configurations, light edges, reductions.

Every connected drawing with minimum degree 2 contains one of the seventeen
configurations; every drawing at all contains one of ten reducible shapes
whose deletion the coloring engine can undo.  Both searches are realized by
exhaustive catalog matching with deterministic tie-breaking, not by the
inductive case analysis that proves they cannot fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .catalog import ConfigPattern, Match, find_matches, get_pattern, light_edge_labels, tight_edge_labels
from .drawing import AbstractGraph, Drawing


class StructureNotFound(RuntimeError):
    """No guaranteed structure found: invalid input or a catalog bug."""


@dataclass(frozen=True)
class LightEdge:
    endpoints: tuple[int, int]
    degree_sum: int


@dataclass(frozen=True)
class ReductionStep:
    """One reducible shape: its kind, the vertices to delete, and anchors."""

    kind: str
    deleted: tuple[int, ...]
    anchors: dict[str, int]


# Reductions delete these anchor labels (the rest stay and steer recoloring).
_DELETIONS = {
    "P4-G3": ("u",),
    "P5-G6": ("u",),
    "P6-G7": ("u", "v"),
    "P7-G8": ("u", "w"),
    "P8-G9": ("u", "w"),
    "P9-G10": ("u", "w"),
    "P10-G11": ("u", "v", "a"),
}

_REDUCTION_CONFIGS = (
    (3, "P4-G3"),
    (6, "P5-G6"),
    (7, "P6-G7"),
    (8, "P7-G8"),
    (9, "P8-G9"),
    (10, "P9-G10"),
    (11, "P10-G11"),
)

# Label swaps that mirror a configuration, used to normalize matches so the
# extension rules' degree cases (stated for d(x) >= d(y)-side) always apply.
_FLIPS = {
    3: {"x": "y", "y": "x"},
    6: {"x": "y", "y": "x"},
    7: {"x": "y", "y": "x", "v": "w", "w": "v"},
    9: {"x": "y", "y": "x", "z": "u", "u": "z", "v": "w", "w": "v"},
    11: {"x": "y", "y": "x", "z": "a", "a": "z", "w": "v", "v": "w"},
}


def find_structure(d: Drawing) -> Match:
    """First configuration contained in d, scanning ids 1..17.

    Guaranteed to succeed when d is connected with minimum degree 2; it is
    still attempted on other inputs and raises StructureNotFound if nothing
    matches.
    """
    for pid in range(1, 18):
        matches = find_matches(d, get_pattern(pid))
        if matches:
            return matches[0]
    raise StructureNotFound(
        "no configuration found: the input is not a valid outer-1-plane "
        "drawing with minimum degree 2, or the catalog is wrong"
    )


def find_light_edge(d: Drawing, maximal_mode: bool = False) -> LightEdge:
    """An edge with degree sum at most 9 (at most 7 in maximal mode).

    Scans the configurations in id order and reads the light edge off the
    first match: the solid degree-2 endpoint with its bounded partner, or
    the 3+3 edge of the 6th configuration.  Maximal drawings never carry
    the 3rd configuration, so maximal mode skips it and uses the sharper
    per-configuration edge.  Falls back to a direct minimum-sum scan.
    """
    bound = 7 if maximal_mode else 9
    degs = d.degrees
    for pid in range(1, 18):
        if maximal_mode and pid == 3:
            continue
        p = get_pattern(pid)
        labels = _designated_edge(p, maximal_mode)
        if labels is None:
            continue
        matches = find_matches(d, p)
        if not matches:
            continue
        m = matches[0]
        u, v = m.assignment[labels[0]], m.assignment[labels[1]]
        edge = LightEdge((min(u, v), max(u, v)), degs[u] + degs[v])
        if edge.degree_sum <= bound:
            return edge
    best = None
    for u, v in sorted(d.edges):
        s = degs[u] + degs[v]
        if best is None or s < best.degree_sum or (
            s == best.degree_sum and (u, v) < best.endpoints
        ):
            best = LightEdge((u, v), s)
    if best is not None and best.degree_sum <= bound:
        return best
    raise StructureNotFound(
        f"no edge with degree sum <= {bound}: input violates the guarantee's hypotheses"
    )


def _designated_edge(p: ConfigPattern, maximal_mode: bool) -> tuple[str, str] | None:
    if p.id == 6:
        return tight_edge_labels(p)  # the 3+3 edge
    if maximal_mode:
        return tight_edge_labels(p)
    if p.id == 3:
        return light_edge_labels(p)  # solid-2 against the capped vertex
    return tight_edge_labels(p)


def find_reduction(d: Drawing) -> ReductionStep:
    """The first reducible shape, in the fixed priority order.

    Priority: a vertex of degree at most 1, two adjacent degree-2 vertices,
    a triangle with a degree-2 vertex, then configurations 3, 6, 7, 8, 9,
    10, 11.  Within a kind the lexicographically smallest anchor assignment
    wins, so runs are reproducible.
    """
    degs = d.degrees
    adj = d.adjacency

    for v in d.vertices:
        if degs[v] <= 1:
            anchors = {"u": v}
            if degs[v] == 1:
                anchors["v"] = min(adj[v])
            return ReductionStep("P1-pendant", (v,), anchors)

    best = min(((u, v) for u, v in d.edges if degs[u] == 2 and degs[v] == 2), default=None)
    if best is not None:
        u, v = best
        x = min(adj[u] - {v})
        y = min(adj[v] - {u})
        return ReductionStep("P2-adjacent-deg2", (u, v), {"u": u, "v": v, "x": x, "y": y})

    tri: tuple[int, int, int] | None = None
    for u in d.vertices:
        if degs[u] != 2:
            continue
        x, y = sorted(adj[u])
        if d.has_edge(x, y):
            cand = (u, x, y)
            if tri is None or cand < tri:
                tri = cand
    if tri is not None:
        u, x, y = tri
        anchors = {"u": u, "x": x, "y": y}
        _note_third_neighbor(d, anchors, "x", {u, y})
        _note_third_neighbor(d, anchors, "y", {u, x})
        return ReductionStep("P3-triangle-deg2", (u,), anchors)

    for pid, kind in _REDUCTION_CONFIGS:
        p = get_pattern(pid)
        matches = find_matches(d, p)
        if not matches:
            continue
        names = sorted(p.anchors)
        m = min(matches, key=lambda m: tuple(m.assignment[p.anchors[a]] for a in names))
        assignment = {name: m.assignment[p.anchors[name]] for name in names}
        assignment = _normalize_case(d, pid, assignment)
        anchors = dict(assignment)
        _resolve_thirds(d, pid, anchors)
        deleted = tuple(sorted(anchors[l] for l in _DELETIONS[kind]))
        return ReductionStep(kind, deleted, anchors)

    raise StructureNotFound(
        "no reducible configuration: the input is not outer-1-planar, or the catalog is wrong"
    )


def _normalize_case(d: Drawing, pid: int, a: dict[str, int]) -> dict[str, int]:
    """Mirror the match when d(x)=3 and d(y)>=4 so the rule's cases apply.

    The mirrored assignment is again a valid occurrence: the swap preserves
    the configuration graph, and where a degree cap moves onto the old x
    its degree is 3, comfortably inside every cap.
    """
    flip = _FLIPS.get(pid)
    if flip is None:
        return a
    degs = d.degrees
    if degs[a["x"]] == 3 and degs[a["y"]] >= 4:
        return {name: a[flip.get(name, name)] for name in a}
    return a


def _resolve_thirds(d: Drawing, pid: int, anchors: dict[str, int]) -> None:
    """Record x1/y1, the third neighbors used by the extension rules."""
    excl = {
        3: {"x": ("u", "v"), "y": ("u", "v")},
        6: {"x": ("u", "v"), "y": ("u", "v")},
        7: {"x": ("v", "w"), "y": ("v", "w")},
        8: {"x": ("u", "v"), "y": ("v", "w")},
        9: {"x": ("u", "v"), "y": ("w", "z")},
        10: {"x": ("v", "z"), "y": ("v", "w")},
        11: {"x": ("v", "z"), "y": ("w", "a")},
    }[pid]
    for label, others in excl.items():
        _note_third_neighbor(d, anchors, label, {anchors[o] for o in others})


def _note_third_neighbor(d: Drawing, anchors: dict[str, int], label: str, skip: set[int]) -> None:
    if d.degrees[anchors[label]] == 3:
        rest = d.adjacency[anchors[label]] - skip
        if len(rest) == 1:
            anchors[label + "1"] = next(iter(rest))


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
