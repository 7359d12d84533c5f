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

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from itertools import permutations

from .drawing import Drawing, interleave

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
    """One configuration: labeled vertices, edges, crossings."""

    id: int
    labels: tuple[str, ...]  # cyclic drawing order
    roles: dict[str, VertexRole]
    edges: tuple[tuple[str, str], ...]
    crossings: tuple[tuple[int, int], ...]  # indices into edges

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

    @cached_property
    def _orbit_perms(self) -> tuple[tuple[int, ...], ...]:
        idx = {l: i for i, l in enumerate(self.labels)}
        return tuple(tuple(idx[sigma[l]] for l in self.labels) for sigma in self.automorphisms)

    @cached_property
    def _root_choices(self) -> tuple[tuple[str, tuple[int, float]], ...]:
        """Each distinct degree range of a label, with the least label that
        has it, least label first."""
        first: dict[tuple[int, float], str] = {}
        for label in sorted(self.labels):
            first.setdefault(_degree_range(self.roles[label]), label)
        return tuple((label, lohi) for lohi, label in first.items())

    @cached_property
    def _rooted_plans(self) -> dict[str, tuple]:
        """For each label, what _rooted_occurrences needs to place it first
        and grow along edges, solid and marked-hollow labels before hollow
        ones: the order, each label's placed neighbors and degree range,
        where each of labels sits in the order, and the leader bounds.

        Occurrences are injective, so t (in labels order) leads its orbit iff
        t[j] < t[sigma(j)] for each automorphism sigma but the identity, j the
        first label sigma moves.  Where the later label of such a pair is
        placed, a bound holds the earlier position and whether it is smaller."""
        pairs = {next((self.labels[i], self.labels[s]) for i, s in enumerate(perm) if s != i)
                 for perm in self._orbit_perms if perm != tuple(range(len(perm)))}
        plans = {}
        for root in self.labels:
            order = [root]
            while len(order) < len(self.labels):
                touching = [l for l in self.labels if l not in order and self.neighbors(l) & set(order)]
                order.append(min(touching, key=lambda l: (self.roles[l].kind == HOLLOW, l)))
            at = {l: k for k, l in enumerate(order)}
            prior = [[at[m] for m in self.neighbors(l) if at[m] < k] for k, l in enumerate(order)]
            ranges = [_degree_range(self.roles[l]) for l in order]
            bounds = [tuple((at[a] if at[b] == k else at[b], at[b] == k) for a, b in pairs if max(at[a], at[b]) == k)
                      for k in range(len(order))]
            plans[root] = order, prior, ranges, [at[l] for l in self.labels], bounds
        return plans


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
        labeled y;
    (d) every configuration is connected, so a search rooted at one label
        reaches all of them; in configurations 3 and 6-11, the reducible
        ones, every hollow vertex has a solid or marked-hollow neighbor, so
        a search rooted at a host vertex of bounded degree stays local;
    (e) every other one carries P2 (adjacent solid degree-2 vertices) or P3
        (a solid degree-2 vertex with two edges, to adjacent ends).
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
        pos = {l: k for k, l in enumerate(p.labels)}
        for i, j in p.crossings:
            if not (0 <= i < len(p.edges) and 0 <= j < len(p.edges)):
                raise CatalogError(f"config {p.id}: crossing indexes missing edge")
            (a, b), (c, d) = p.edges[i], p.edges[j]
            if not interleave(len(p.labels), (pos[a], pos[b]), (pos[c], pos[d])):
                raise CatalogError(
                    f"config {p.id}: declared crossing does not interleave"
                )
        if (p.id in (3, 6, 7, 12)) != any(
            r.kind == MARKED for r in p.roles.values()
        ):
            raise CatalogError(f"config {p.id}: marked-hollow vertex mismatch")
        if p.id in (3, 6, 7, 12) and p.roles.get("y", VertexRole(SOLID, 0)).kind != MARKED:
            raise CatalogError(f"config {p.id}: the marked vertex must be labeled y")
        reach = {p.labels[0]}
        for _ in p.labels:
            reach.update(*(p.neighbors(l) for l in reach))
        if len(reach) < len(p.labels):
            raise CatalogError(f"config {p.id}: a configuration must be connected")
        twos = {l for l in p.labels if p.roles[l] == VertexRole(SOLID, 2)}
        if p.id in (3, 6, 7, 8, 9, 10, 11):
            for label in p.labels:
                if p.roles[label].kind == HOLLOW and all(
                    p.roles[m].kind == HOLLOW for m in p.neighbors(label)
                ):
                    raise CatalogError(
                        f"config {p.id}: hollow {label} has no solid or marked-hollow neighbor"
                    )
        elif not any(ns & twos or len(ns) == 2 and min(ns) in p.neighbors(max(ns)) for ns in map(p.neighbors, twos)):
            raise CatalogError(f"config {p.id}: carries neither P2 nor P3")
        if p.id != 6 and light_edge_labels(p) is None:
            raise CatalogError(f"config {p.id}: no light edge with a <=7 endpoint")
        if p.id != 3 and tight_edge_labels(p) is None:
            raise CatalogError(f"config {p.id}: no light edge with a <=5 endpoint (or 3+3)")


def _degree_range(role: VertexRole) -> tuple[int, float]:
    """The host degrees a role admits, as (least, greatest)."""
    hi = role.drawn_degree if role.kind == SOLID else role.degree_cap
    return role.drawn_degree, (math.inf if hi is None else hi)


def light_edge_labels(p: ConfigPattern) -> tuple[str, str] | None:
    """Edge (solid degree-2, endpoint forced <= 7), lexicographically first."""
    for a, b in sorted(tuple(sorted(e)) for e in p.edges):
        for s, t in ((a, b), (b, a)):
            rs = p.roles[s]
            if rs.kind == SOLID and rs.drawn_degree == 2 and _degree_range(p.roles[t])[1] <= 7:
                return (s, t)
    return None


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
            rs = p.roles[s]
            if rs.kind == SOLID and rs.drawn_degree == 2 and _degree_range(p.roles[t])[1] <= 5:
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

    Backtracking rooted at the label with the fewest admitted host vertices
    and growing along pattern edges, pruning by degree roles and by
    adjacency to already-placed neighbors.  When check_d2 is set and
    p.id >= 6, occurrences must also realize the pattern's crossings and
    cyclic order in the drawing.  An automorphism need not preserve those,
    so each occurrence then stands as its least image that realizes them,
    and is dropped only if no image does.
    """
    leaders = sorted(_occurrences(p, d.degrees, d.adjacency, d.degrees))
    if check_d2 and p.id >= 6:
        images = ([tuple([t[i] for i in perm]) for perm in p._orbit_perms] for t in leaders)
        realized = ([s for s in ts if _d2_holds(d, p, dict(zip(p.labels, s)))] for ts in images)
        leaders = sorted(min(ss) for ss in realized if ss)
    return [Match(p.id, dict(zip(p.labels, tup))) for tup in leaders]


def _occurrences(p: ConfigPattern, degs, adj, vertices) -> list[tuple[int, ...]]:
    """Every occurrence of p among the given vertices that leads its orbit,
    as a tuple in labels order (degs and adj describe the host).

    The search is rooted at the label that admits the fewest vertices, the
    least such label on a tie; labels with one degree range share a pool."""
    root = roots = None
    for label, (lo, hi) in p._root_choices:
        pool = [v for v in vertices if lo <= degs[v] <= hi]
        if roots is None or len(pool) < len(roots):
            root, roots = label, pool
    return _rooted_occurrences(p, degs, adj, root, roots)


def _rooted_occurrences(p: ConfigPattern, degs, adj, label: str, roots) -> list[tuple[int, ...]]:
    """Every occurrence of p that leads its orbit and puts label on a vertex
    of roots, as tuples in labels order.

    Every other label draws from the common neighborhood of its placed
    neighbors; each vertex must pass its label's degree range and its
    leader bounds, and no vertex is used twice.  A leader may put another
    label on the root, so one rooted search misses occurrences whose
    leader does; a caller that needs every occurrence through a vertex
    searches from it under every label of an automorphism-closed set.
    An automorphism preserves roles, so the labels whose degree range
    admits a vertex form such a set.
    """
    order, prior, ranges, positions, bounds = p._rooted_plans[label]
    last = len(order)
    placed = [0] * last
    used: set[int] = set()
    found: list[tuple[int, ...]] = []

    def place(k: int) -> None:
        if k == last:
            found.append(tuple([placed[i] for i in positions]))
            return
        before = prior[k]
        if not before:
            pool = roots
        elif len(before) == 1:
            pool = adj[placed[before[0]]]
        else:
            pool = adj[placed[before[0]]].intersection(*[adj[placed[i]] for i in before[1:]])
        for i, larger in bounds[k]:
            w = placed[i]
            pool = [v for v in pool if v > w] if larger else [v for v in pool if v < w]
        lo, hi = ranges[k]
        for v in pool:
            if v not in used and lo <= degs[v] <= hi:
                placed[k] = v
                used.add(v)
                place(k + 1)
                used.remove(v)

    place(0)
    return found


def contains(d: Drawing, pid: int) -> bool:
    return bool(find_matches(d, get_pattern(pid)))

