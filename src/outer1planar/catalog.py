"""The seventeen local configurations and containment testing.

A configuration is a tiny vertex-labeled graph whose vertices carry degree
roles: a solid vertex must match a host vertex of exactly its drawn degree,
a hollow vertex a host vertex of at least that degree, and a marked-hollow
vertex additionally respects an upper degree cap.  A host drawing contains
a configuration when some injective, edge-preserving, role-respecting map
of its vertices into the host exists.  Matching is purely degree- and
edge-based; the recorded crossing pairs and cyclic order only participate
in the optional drawing-correspondence check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from itertools import permutations

from .drawing import Drawing

SOLID = "solid"
HOLLOW = "hollow"
MARKED = "marked-hollow"


class CatalogError(ValueError):
    """The configuration data failed a consistency check."""


@dataclass(frozen=True)
class VertexRole:
    kind: str
    drawn_degree: int
    degree_cap: int | None = None

    def admits(self, host_degree: int) -> bool:
        if self.kind == SOLID:
            return host_degree == self.drawn_degree
        if host_degree < self.drawn_degree:
            return False
        return self.degree_cap is None or host_degree <= self.degree_cap


@dataclass(frozen=True)
class ConfigPattern:
    """One configuration: labeled vertices, edges, crossings, anchors."""

    id: int
    labels: tuple[str, ...]  # cyclic drawing order
    roles: dict[str, VertexRole]
    edges: tuple[tuple[str, str], ...]
    crossings: tuple[tuple[int, int], ...]  # indices into edges
    anchors: dict[str, str] = field(default_factory=dict)

    @cached_property
    def _neighbor_map(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {}
        for a, b in self.edges:
            out.setdefault(a, set()).add(b)
            out.setdefault(b, set()).add(a)
        return {label: frozenset(s) for label, s in out.items()}

    def neighbors(self, label: str) -> frozenset[str]:
        return self._neighbor_map.get(label, frozenset())

    def edge_count(self, label: str) -> int:
        return len(self.neighbors(label))

    @cached_property
    def automorphisms(self) -> tuple[dict[str, str], ...]:
        """All role- and edge-preserving relabelings (brute force; patterns are tiny)."""
        edge_set = {frozenset(e) for e in self.edges}
        autos = []
        for perm in permutations(self.labels):
            sigma = dict(zip(self.labels, perm))
            if any(self.roles[l] != self.roles[sigma[l]] for l in self.labels):
                continue
            if {frozenset((sigma[a], sigma[b])) for a, b in self.edges} == edge_set:
                autos.append(sigma)
        return tuple(autos)


@dataclass(frozen=True)
class Match:
    """An occurrence of a configuration: injective label -> host vertex map."""

    pattern_id: int
    assignment: dict[str, int]


def _parse_catalog(text: str) -> list[ConfigPattern]:
    patterns: list[ConfigPattern] = []
    cur: dict | None = None

    def flush() -> None:
        if cur is None:
            return
        patterns.append(
            ConfigPattern(
                id=cur["id"],
                labels=tuple(cur["labels"]),
                roles=dict(cur["roles"]),
                edges=tuple(cur["edges"]),
                crossings=tuple(cur["crossings"]),
                anchors=dict(cur["anchors"]),
            )
        )

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "config":
            flush()
            cur = {
                "id": int(parts[1]),
                "labels": [],
                "roles": {},
                "edges": [],
                "crossings": [],
                "anchors": {},
            }
        elif parts[0] == "v":
            label, role, drawn = parts[1], parts[2], int(parts[3])
            cap = int(parts[4]) if len(parts) > 4 else None
            if role not in (SOLID, HOLLOW, MARKED):
                raise CatalogError(f"unknown role {role!r}")
            if (role == MARKED) != (cap is not None):
                raise CatalogError(f"cap given iff marked-hollow, got {line!r}")
            cur["labels"].append(label)
            cur["roles"][label] = VertexRole(role, drawn, cap)
        elif parts[0] == "pe":
            cur["edges"].append((parts[1], parts[2]))
        elif parts[0] == "x":
            cur["crossings"].append((int(parts[1]), int(parts[2])))
        elif parts[0] == "anchor":
            cur["anchors"][parts[1]] = parts[2]
        else:
            raise CatalogError(f"unknown catalog line {line!r}")
    flush()
    return patterns


def _check_catalog(patterns: list[ConfigPattern]) -> None:
    """Consistency facts that pin the transcription.

    (a) every configuration except the 6th has an edge from a solid
        degree-2 vertex to an endpoint whose host degree is forced <= 7;
    (b) every configuration except the 3rd has an edge that is either
        solid-2 to a forced <= 5 endpoint or solid-3 to solid-3;
    (c) exactly configurations 3, 6, 7 and 12 carry a marked-hollow vertex,
        labeled y.
    """
    if [p.id for p in patterns] != list(range(1, 18)):
        raise CatalogError("expected configurations 1..17 in order")
    for p in patterns:
        for label in p.labels:
            if p.roles[label].drawn_degree < p.edge_count(label):
                raise CatalogError(
                    f"config {p.id}: {label} has more edges than its drawn degree"
                )
        for a, b in p.edges:
            if a not in p.roles or b not in p.roles:
                raise CatalogError(f"config {p.id}: edge ({a},{b}) uses unknown label")
        for i, j in p.crossings:
            if not (0 <= i < len(p.edges) and 0 <= j < len(p.edges)):
                raise CatalogError(f"config {p.id}: crossing indexes missing edge")
            pos = {l: k for k, l in enumerate(p.labels)}
            m = len(p.labels)
            (a, b), (c, d) = p.edges[i], p.edges[j]
            pa, pb, pc, pd = pos[a], pos[b], pos[c], pos[d]
            ba, ca, da = (pb - pa) % m, (pc - pa) % m, (pd - pa) % m
            if not ((0 < ca < ba) != (0 < da < ba)):
                raise CatalogError(
                    f"config {p.id}: declared crossing does not interleave"
                )
        if (p.id in (3, 6, 7, 12)) != any(
            r.kind == MARKED for r in p.roles.values()
        ):
            raise CatalogError(f"config {p.id}: marked-hollow vertex mismatch")
        if p.id in (3, 6, 7, 12) and p.roles.get("y", VertexRole(SOLID, 0)).kind != MARKED:
            raise CatalogError(f"config {p.id}: the marked vertex must be labeled y")
        if p.id != 6 and light_edge_labels(p) is None:
            raise CatalogError(f"config {p.id}: no light edge with a <=7 endpoint")
        if p.id != 3 and tight_edge_labels(p) is None:
            raise CatalogError(f"config {p.id}: no light edge with a <=5 endpoint (or 3+3)")


def _forced_max_degree(role: VertexRole) -> int | None:
    """Largest host degree the role can put at this vertex, if bounded."""
    if role.kind == SOLID:
        return role.drawn_degree
    return role.degree_cap


def light_edge_labels(p: ConfigPattern) -> tuple[str, str] | None:
    """Edge (solid degree-2, endpoint forced <= 7), lexicographically first."""
    best = None
    for a, b in sorted(tuple(sorted(e)) for e in p.edges):
        for s, t in ((a, b), (b, a)):
            rs, rt = p.roles[s], p.roles[t]
            cap = _forced_max_degree(rt)
            if rs.kind == SOLID and rs.drawn_degree == 2 and cap is not None and cap <= 7:
                if best is None:
                    best = (s, t)
    return best


def tight_edge_labels(p: ConfigPattern) -> tuple[str, str] | None:
    """Edge that is (solid-2, forced <= 5) or (solid-3, solid-3), first such."""
    for a, b in sorted(tuple(sorted(e)) for e in p.edges):
        ra, rb = p.roles[a], p.roles[b]
        if (
            ra.kind == SOLID
            and rb.kind == SOLID
            and ra.drawn_degree == rb.drawn_degree == 3
        ):
            return (a, b)
        for s, t in ((a, b), (b, a)):
            rs, rt = p.roles[s], p.roles[t]
            cap = _forced_max_degree(rt)
            if rs.kind == SOLID and rs.drawn_degree == 2 and cap is not None and cap <= 5:
                return (s, t)
    return None


@lru_cache(maxsize=1)
def load_catalog() -> tuple[ConfigPattern, ...]:
    """Load and self-check the configuration catalog shipped with the package."""
    text = resources.files("outer1planar").joinpath("data/configurations.txt").read_text()
    patterns = _parse_catalog(text)
    _check_catalog(patterns)
    return tuple(patterns)


def get_pattern(pid: int) -> ConfigPattern:
    catalog = load_catalog()
    if not 1 <= pid <= 17:
        raise CatalogError(f"no configuration {pid}")
    return catalog[pid - 1]


def _d2_holds(d: Drawing, p: ConfigPattern, assignment: dict[str, int]) -> bool:
    """Drawing correspondence: crossings map to crossings and the cyclic
    order of the images equals the pattern's, up to rotation and reflection."""
    for i, j in p.crossings:
        (a, b), (c, d2) = p.edges[i], p.edges[j]
        if not d.crosses(
            (assignment[a], assignment[b]), (assignment[c], assignment[d2])
        ):
            return False
    order = sorted(p.labels, key=lambda l: assignment[l])
    ref = list(p.labels)
    for r in range(len(ref)):
        rot = ref[r:] + ref[:r]
        if order == rot or order == rot[::-1]:
            return True
    return False


def find_matches(d: Drawing, p: ConfigPattern, check_d2: bool = False) -> list[Match]:
    """All occurrences of p in d, deduplicated by pattern automorphism.

    Backtracking over pattern vertices, most-constrained first, pruning by
    degree roles and by adjacency to already-placed neighbors.  When
    check_d2 is set and p.id >= 6, occurrences must also realize the
    pattern's crossings and cyclic order in the drawing.
    """
    degs = d.degrees
    adj = d.adjacency

    candidates: dict[str, list[int]] = {}
    for label in p.labels:
        role = p.roles[label]
        cands = [v for v in d.vertices if role.admits(degs[v])]
        if not cands:
            return []
        candidates[label] = cands

    order = _search_order(p, candidates)
    found: list[tuple[int, ...]] = []
    assignment: dict[str, int] = {}
    used: set[int] = set()

    def place(k: int) -> None:
        if k == len(order):
            found.append(tuple(assignment[l] for l in p.labels))
            return
        label = order[k]
        placed_nbrs = [l for l in p.neighbors(label) if l in assignment]
        if placed_nbrs:
            pool: set[int] = set.intersection(
                *(set(adj[assignment[l]]) for l in placed_nbrs)
            )
            pool &= set(candidates[label])
        else:
            pool = set(candidates[label])
        for v in sorted(pool - used):
            assignment[label] = v
            used.add(v)
            place(k + 1)
            used.remove(v)
            del assignment[label]

    place(0)

    autos = p.automorphisms
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    idx = {l: i for i, l in enumerate(p.labels)}
    for tup in found:
        orbit = min(
            tuple(tup[idx[sigma[l]]] for l in p.labels) for sigma in autos
        )
        reps.setdefault(orbit, orbit)
    matches = [
        Match(p.id, dict(zip(p.labels, tup))) for tup in sorted(reps.values())
    ]
    if check_d2 and p.id >= 6:
        matches = [m for m in matches if _d2_holds(d, p, m.assignment)]
    return matches


def _search_order(p: ConfigPattern, candidates: dict[str, list[int]]) -> list[str]:
    """Static search order: fewest candidates first, then staying connected."""
    remaining = set(p.labels)
    order: list[str] = []
    while remaining:
        touching = [l for l in remaining if p.neighbors(l) & set(order)]
        pool = touching or sorted(remaining)
        label = min(pool, key=lambda l: (len(candidates[l]), l))
        order.append(label)
        remaining.remove(label)
    return order


def contains(d: Drawing, pid: int) -> bool:
    return bool(find_matches(d, get_pattern(pid)))

