"""Every extension rule, checked on its local model.

For each of the ten reducible shapes and each degree case of its hollow
vertices, a small host holds the shape, the third neighbors x1 and y1, and
pendant stubs that pad each hollow vertex to its degree.  The peeler builds
the step as a peel would, mirror swap and third neighbors included.  Every
reduced coloring, up to renaming, that is proper and dynamic at every
survivor of the shape is then extended by the real rule and checked by the
real local check.  Each pick of a rule may be any color outside its
forbidden set, and each list may be exhausted once it has no color outside
a forbidden set of six.  Both widen what a peel can meet, so a pass covers
the rules on every drawing.

A hollow vertex is padded up to 3 plus the number of its neighbors that the
rule deletes or may recolor.  Beyond that it keeps three neighbors the rule
never touches, so every larger degree behaves like the largest one tried.
"""

import hashlib

from outer1planar import AbstractGraph
from outer1planar import coloring as col
from outer1planar.catalog import find_matches, get_pattern
from outer1planar.structure import _SHAPES, _config_kind, _Peeler

# the survivors each rule may recolor, beside the vertices it deletes
RECOLORED = {"P9-G10": ("z",), "P10-G11": ("z", "a", "w", "v")}

# SHA-256 of every reduced coloring and every pick's (vertex, forbidden set)
# over all local-model runs: a rewrite of a rule that changes any pick fails
PICKS_DIGEST = "9a495ee39ec04679c32169959d93e0316bc0c11403f132b564946d1ce9d86fb3"

# (kind, hollow label at degree 2) -> the higher-priority shape that the
# host then contains, so the peel never reaches the case
PREEMPTED = {
    ("P4-G3", "x"): "P2-adjacent-deg2",
    ("P4-G3", "y"): "P2-adjacent-deg2",
    ("P5-G6", "x"): "P3-triangle-deg2",
    ("P5-G6", "y"): "P3-triangle-deg2",
    ("P6-G7", "x"): "P4-G3",
    ("P6-G7", "y"): "P4-G3",
    ("P7-G8", "x"): "P3-triangle-deg2",
    ("P7-G8", "y"): "P2-adjacent-deg2",
    ("P8-G9", "x"): "P2-adjacent-deg2",
    ("P8-G9", "y"): "P2-adjacent-deg2",
    ("P10-G11", "x"): "P2-adjacent-deg2",
    ("P10-G11", "y"): "P2-adjacent-deg2",
}


def _host(edges, hollow, degrees):
    """The graph of edges on 1..k plus pendant stubs that bring each hollow
    vertex h to degrees[h]; returns it and the stubs of each hollow vertex."""
    edges = list(edges)
    k = max([v for e in edges for v in e] + list(hollow))
    stubs = {}
    for h in hollow:
        own = sum(h in e for e in edges)
        stubs[h] = list(range(k + 1, k + 1 + degrees[h] - own))
        edges += [(h, s) for s in stubs[h]]
        k += len(stubs[h])
    return AbstractGraph.from_edges(k, edges), stubs


def _cases():
    """(kind, host, stubs, seed, by) for every degree case.  seed puts the
    shape on top of the peeler's candidates; by is None, or the shape that
    pre-empts the case and the hollow vertex it sits on."""
    yield "P1-pendant", *_host([], [1], {1: 0}), ("pendant", 1), None
    for dv in range(1, 5):  # u = 1 hangs off v = 2
        yield "P1-pendant", *_host([(1, 2)], [2], {2: dv}), ("pendant", 1), None
    for dx in range(1, 5):  # x = 1, u = 2, v = 3, y = 4
        for dy in range(1, 5):
            host, stubs = _host([(1, 2), (2, 3), (3, 4)], [1, 4], {1: dx, 4: dy})
            yield "P2-adjacent-deg2", host, stubs, ("pair", (2, 3)), None
    for dx in range(2, 6):  # u = 2 and v = 3 both hang off x = y = 1
        yield "P2-adjacent-deg2", *_host([(1, 2), (2, 3), (1, 3)], [1], {1: dx}), ("pair", (2, 3)), None
    for dx in range(2, 5):  # u = 1 on the triangle u, x = 2, y = 3
        for dy in range(2, 5):
            host, stubs = _host([(1, 2), (1, 3), (2, 3)], [2, 3], {2: dx, 3: dy})
            yield "P3-triangle-deg2", host, stubs, ("triangle", (1, 2, 3)), None
    for row in _SHAPES:
        pid, kind, deletes = row[:3]
        p = get_pattern(pid)
        at = {label: i + 1 for i, label in enumerate(p.labels)}
        touched = set(deletes) | set(RECOLORED.get(kind, ()))
        top = {h: 3 + len(p.neighbors(h) & touched) for h in ("x", "y")}
        for dx in range(2, top["x"] + 1):
            for dy in range(2, top["y"] + 1):
                degrees = {at["x"]: dx, at["y"]: dy}
                host, stubs = _host([(at[a], at[b]) for a, b in p.edges], [at["x"], at["y"]], degrees)
                low = [h for h in ("x", "y") if degrees[at[h]] == 2 and (kind, h) in PREEMPTED]
                by = (PREEMPTED[kind, low[0]], at[low[0]]) if low else None
                yield kind, host, stubs, ("config", row, tuple(at.values())), by


def _step(host, seed):
    """The step _Peeler.pop builds when seed is its only candidate."""
    peeler = _Peeler(host)
    peeler._pendant, peeler._pairs, peeler._triangles = [], [], []
    peeler._found = {row[0]: [] for row in _SHAPES}
    peeler._read = dict.fromkeys(peeler._found, 0)
    what, *rest = seed
    if what == "pendant":
        peeler._pendant.append(rest[0])
    elif what == "pair":
        peeler._pairs.append(rest[0])
    elif what == "triangle":
        peeler._triangles.append(rest[0])
    else:
        row, rep = rest
        peeler._found[row[0]].append(_config_kind(row[0])[2](rep))
    return peeler.pop()


def _contains(host, kind, h):
    """Does the higher-priority shape kind sit on the hollow vertex h?"""
    degs, adj = host.degrees, host.adjacency
    if kind == "P2-adjacent-deg2":
        return degs[h] == 2 and any(degs[w] == 2 for w in adj[h])
    if kind == "P3-triangle-deg2":
        a, b = adj[h]
        return degs[h] == 2 and b in adj[a]
    pid = {row[1]: row[0] for row in _SHAPES}[kind]
    return any(h in m.assignment.values() for m in find_matches(host, get_pattern(pid)))


def _reduced_colorings(host, survivors, stubs):
    """Colorings of host minus the deleted vertices, up to renaming, that are
    proper and dynamic at every survivor of the shape.  Stubs of one hollow
    vertex are interchangeable, so their colors are taken in order."""
    parent = {s: h for h, ss in stubs.items() for s in ss}
    order = sorted(survivors) + [s for h in sorted(stubs) for s in stubs[h]]
    kept = set(order)
    adj = {v: host.adjacency[v] & kept for v in order}
    colors = {}

    def grow(i, top):
        if i == len(order):
            if all(len({colors[w] for w in adj[v]}) >= min(3, len(adj[v])) for v in survivors):
                yield dict(colors)
            return
        v = order[i]
        prev = order[i - 1] if i else None
        low = colors[prev] if prev in parent and parent.get(prev) == parent.get(v) else 1
        for c in range(low, top + 2):
            if all(colors.get(w) != c for w in adj[v]):
                colors[v] = c
                yield from grow(i + 1, max(top, c))
                del colors[v]

    return grow(0, 0)


class _Picks:
    """Stands in for coloring._first: walks every sequence of model picks.

    A pick may be any color in use outside forbidden or one fresh color,
    or nothing when forbidden holds six colors or more.  A list of six or
    more found empty against exactly six colors is those six, which the
    rules may then read through the lists they are given.  digest hashes
    every reduced coloring and every (vertex, forbidden set) asked for, in
    order, so it pins each pick the rules make."""

    def __init__(self):
        self.script, self.counts, self.colors, self.known = [], [], {}, {}
        self.runs, self.calls, self.digest = 0, 0, hashlib.sha256()

    def first(self, lists, v, forbidden):
        self.calls += 1
        self.digest.update(repr((v, sorted(forbidden))).encode())
        options = sorted(set(self.colors.values()) - forbidden)
        options.append(max(self.colors.values(), default=0) + 1)
        if len(forbidden) >= 6:
            options.append(None)
        k = len(self.counts)
        if k == len(self.script):
            self.script.append(0)
        self.counts.append(len(options))
        pick = options[self.script[k]]
        if pick is None and len(forbidden) == 6:
            self.known[v] = frozenset(forbidden)
        return pick

    def failures(self, host, step, reduced):
        """Run the rule under every pick sequence; yield (message, picks) for
        each run that raises ExtensionFailure, and count the runs."""
        self.script, self.runs = [], 0
        self.digest.update(repr(sorted(reduced.items())).encode())
        while True:
            self.counts, self.colors, self.known = [], dict(reduced), {}
            self.runs += 1
            try:
                col._extend_step(host, step, self.colors, self.known)
            except col.ExtensionFailure as exc:
                yield str(exc), tuple(self.script)
            script = self.script
            while script and script[-1] + 1 == self.counts[len(script) - 1]:
                script.pop()
            if not script:
                return
            script[-1] += 1


def test_every_rule_passes_its_local_model(monkeypatch):
    picks = _Picks()
    monkeypatch.setattr(col, "_first", picks.first)
    runs, skipped, failures = {}, set(), []
    for kind, host, stubs, seed, by in _cases():
        degrees = tuple(host.degrees[h] for h in sorted(stubs))
        if by is not None:
            assert _contains(host, *by), (kind, degrees, by)
            skipped.add((kind, by[0]))
            continue
        step = _step(host, seed)
        assert step.kind == kind
        padding = {s for ss in stubs.values() for s in ss}
        survivors = [v for v in range(1, host.n + 1) if v not in step.deleted and v not in padding]
        for reduced in _reduced_colorings(host, survivors, stubs):
            for failure in picks.failures(host, step, reduced):
                failures.append((kind, degrees, reduced, failure))
            runs[kind] = runs.get(kind, 0) + picks.runs
    assert not failures, f"{len(failures)} failing runs, the first: {failures[:3]}"
    assert sorted(runs) == sorted(["P1-pendant", "P2-adjacent-deg2", "P3-triangle-deg2", *(row[1] for row in _SHAPES)])
    assert skipped == {(kind, by) for (kind, _), by in PREEMPTED.items()}
    assert (sum(runs.values()), picks.calls) == (85179, 252305)
    assert picks.digest.hexdigest() == PICKS_DIGEST
