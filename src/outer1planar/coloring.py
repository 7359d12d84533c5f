"""List 3-dynamic coloring by reduce-and-extend, plus the generic verifier.

The engine peels one reducible shape at a time until nothing is left, then
puts the shapes back in reverse order and extends by each shape's local
rule: each deleted vertex gets the smallest list color outside a small
forbidden set assembled from its surroundings.  The rules of the three
primitive shapes P1-P3 and of configurations 3 and 6 take their vertices
as arguments; every other rule plays rows of such picks through one
runner, where a pick names its vertex, the labels whose colors it avoids,
and the labels x or y whose third neighbor it avoids at degree 3.  Two
rules may first recolor a surviving vertex of the shape: the 10th
configuration's, when its z repeats a color that a deleted vertex must see
twice, and the 11th configuration's recoloring branch for the rainbow
worst case.

One call of the structure module's peeler deletes every shape, searching
only around the previous deletion and working on the original labels, so
no sub-drawing is ever rebuilt; it returns one record per shape.  One loop
puts the records back and extends, and extend_step plays its step as the
one record a peel would give.  Every extension is checked around the
vertices it touched: a count shows every vertex colored, then one pass
stops at the first improper edge or short neighborhood and skips the wide
neighbors the shape cannot leave short.  A pendant is checked on u and its
one neighbor v; P2, P3 and configurations 3 and 6 by the same pass once
the survivors their rules avoid kept their colors; configurations 7-11 by
the generic local check.  A rule that leaves a violation raises
ExtensionFailure naming its shape.  The result is verified once in full,
in one pass that also checks the lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .drawing import Drawing
from .structure import ReductionStep, _Peeler

Coloring = dict[int, int]
ListAssignment = dict[int, frozenset[int]]


class ExtensionFailure(RuntimeError):
    """A shape's local rule failed: bad input or a bug."""


class ListTooSmall(ValueError):
    """The main algorithm needs one list per vertex, with six colors in each."""


@dataclass(frozen=True)
class Violation:
    kind: str  # "proper" | "dynamic" | "missing-color" | "stray-vertex"
    vertex: int | None = None
    edge: tuple[int, int] | None = None
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    valid: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)


_VALID = Verdict(True)


def _is_dynamic(d: Drawing, colors: Coloring, r: int, lists: ListAssignment | None = None) -> bool:
    """verify_dynamic's verdict in one pass, with no report; given lists, also each color on its list."""
    degs, get = d.degrees, colors.get
    for v, ns in d.adjacency.items():
        c = get(v)
        seen = set(map(get, ns))
        if c is None or c in seen or (k := len(seen)) < r and k < degs[v]:
            return False
        if lists is not None and c not in lists[v]:
            return False
    return len(colors) == d.n  # every vertex is colored: only a stray key makes more


def verify_dynamic(d: Drawing, colors: Coloring, r: int) -> Verdict:
    """Check that colors is a proper coloring of exactly d's vertices where
    every vertex sees at least min(r, deg) distinct colors on its
    neighborhood.  One pass answers a valid coloring, with the one shared
    valid Verdict; the report is built only when that pass fails."""
    if _is_dynamic(d, colors, r):
        return _VALID
    adj, degs = d.adjacency, d.degrees
    violations = [Violation("missing-color", vertex=v, detail="uncolored vertex") for v in d.vertices if v not in colors]
    missing = bool(violations)
    for v in sorted(colors.keys() - adj.keys()):
        violations.append(Violation("stray-vertex", vertex=v, detail=f"colored, but outside 1..{d.n}"))
    if missing:
        return Verdict(False, tuple(violations))
    for u, v in sorted([(u, v) for u, v in d.edges if colors[u] == colors[v]]):
        violations.append(
            Violation("proper", edge=(u, v), detail=f"both endpoints colored {colors[u]}")
        )
    for v in d.vertices:
        need = min(r, degs[v])
        got = len({colors[w] for w in adj[v]})
        if got < need:
            violations.append(
                Violation(
                    "dynamic",
                    vertex=v,
                    detail=f"neighbors show {got} colors, need {need}",
                )
            )
    return Verdict(not violations, tuple(violations))


def uniform_lists(d: Drawing, k: int) -> ListAssignment:
    """Every vertex gets the list 1..k, all as one shared frozenset."""
    return dict.fromkeys(d.vertices, frozenset(range(1, k + 1)))


def parse_lists(text: str) -> ListAssignment:
    """Parse the list-assignment file: lines "l <v> <c1> <c2> ...".

    A well-formed list for a new vertex takes the first branch; every
    other line goes to `_list_line_error`, which skips it or names what is
    wrong.
    """
    lists: ListAssignment = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        try:
            tag, v, *colors = raw.split()
            v = int(v)
            colors = frozenset(map(int, colors))
        except ValueError:
            tag = None
        if tag == "l" and v not in lists:
            lists[v] = colors
            continue
        _list_line_error(ln, raw, lists)
    return lists


def _list_line_error(ln: int, raw: str, lists: ListAssignment) -> None:
    """Return if line ln is blank or a comment; raise what is wrong with it
    otherwise (it is not "l <v> <colors...>" for a new vertex)."""
    parts = raw.split()
    if not parts or parts[0].startswith("#"):
        return
    if parts[0] != "l" or len(parts) < 2:
        raise ValueError(f"line {ln}: expected 'l <v> <colors...>', got {raw.strip()!r}")
    try:
        v = int(parts[1])
        for c in parts[2:]:
            int(c)
    except ValueError:
        raise ValueError(f"line {ln}: non-integer token") from None
    raise ValueError(f"line {ln}: duplicate list for vertex {v}")


def coloring_to_json(colors: Coloring, r: int, valid: bool) -> str:
    payload = {
        "colors": {str(v): colors[v] for v in sorted(colors)},
        "valid": valid,
        "r": r,
    }
    return json.dumps(payload, sort_keys=True)


def parse_coloring_json(text: str) -> Coloring:
    """Read the "colors" object of a coloring JSON file; ValueError if malformed."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("coloring file is nested too deeply") from None
    if not isinstance(data, dict) or not isinstance(data.get("colors"), dict):
        raise ValueError('coloring file must be a JSON object with a "colors" object')
    colors: Coloring = {}
    for v, c in data["colors"].items():
        try:
            vertex = int(v)
        except ValueError:
            raise ValueError(f"coloring key {v!r} is not an integer") from None
        if type(c) is not int:
            raise ValueError(f"color {c!r} of vertex {v} is not an integer")
        colors[vertex] = c
    return colors


def color_list_3_dynamic(d: Drawing, lists: ListAssignment) -> Coloring:
    """A 3-dynamic coloring of d choosing each vertex's color from its list.

    Requires one list per vertex 1..n with at least six colors; guaranteed to succeed
    on valid drawings.  The result is verified in full before it is returned.
    """
    if len(lists) != d.n or not all(map(lists.__contains__, d.vertices)):
        raise ListTooSmall(f"lists must cover exactly the vertices 1..{d.n}")
    for v in d.vertices:
        if len(lists[v]) < 6:
            raise ListTooSmall(f"list of vertex {v} has fewer than 6 colors")
    return _color(d, lists)


def _color(d: Drawing, lists: ListAssignment) -> Coloring:
    p = _Peeler(d)
    colors: Coloring = {}
    _extend(p, p.peel(), colors, lists)
    if _is_dynamic(d, colors, 3, lists):  # the full check, with the report built only on failure
        return colors
    verdict = verify_dynamic(d, colors, 3)
    if not verdict.valid:
        raise ExtensionFailure(f"coloring left violations: {verdict.violations[:3]}")
    bad = [v for v in d.vertices if colors[v] not in lists[v]]
    raise ExtensionFailure(f"colors off-list at {bad}")


_sorted = lru_cache(maxsize=1024)(sorted)


def _first(lists: ListAssignment, v: int, forbidden: set[int]) -> int | None:
    """The least color of v's list (sorted once per distinct list) outside forbidden, or None."""
    for c in _sorted(lists[v]):
        if c not in forbidden:
            return c
    return None


def _pick(lists: ListAssignment, v: int, forbidden: set[int]) -> int:
    c = _first(lists, v, forbidden)
    if c is None:
        raise ExtensionFailure(f"list of vertex {v} exhausted by {sorted(forbidden)}")
    return c


def extend_step(
    d: Drawing, step: ReductionStep, partial: Coloring, lists: ListAssignment
) -> Coloring:
    """Extend a valid coloring of d minus step.deleted to all of d.

    Plays the one record a peel would give for the step through the peel's
    extension loop, with the same rule and check.  Only deleted vertices
    receive colors, except for the recolorings of the 10th and 11th
    configurations' rules.  Every refusal is an ExtensionFailure naming the
    shape: of a rule that leaves a violation or recolors a neighbor its
    record keeps, a kind with no rule, anchors missing a label the rule
    reads, a step that deletes a vertex twice or, for P1-P3 and
    configurations 3 and 6, no shape of its kind; and, before any rule
    runs, of a partial or a step that names a vertex outside d, or a
    partial that colors a deleted vertex.
    """
    adj = d.adjacency
    if not (partial.keys() <= adj.keys() and all(v in adj for v in (*step.deleted, *step.anchors.values()))):
        raise ExtensionFailure(f"{step.kind} step: partial coloring or step names vertices outside the drawing")
    if not partial.keys().isdisjoint(step.deleted):
        raise ExtensionFailure(f"{step.kind} step: partial coloring colors a deleted vertex")
    colors = dict(partial)
    _extend_step(d, step, colors, lists)
    return colors


_RUN_KINDS = ("P1-pendant", "P2-adjacent-deg2", "P3-triangle-deg2", "P4-G3", "P5-G6")


def _extend_step(d: Drawing, step: ReductionStep, colors: Coloring, lists: ListAssignment) -> None:
    """extend_step on colors itself.  A P1-P3 record reads x and y off the
    sets, and a configuration 3 or 6 record its v off the anchors, so their
    shape is checked first."""
    kind, s, p = step.kind, step.deleted, _Peeler(d)
    if kind not in _RUN_KINDS:
        if len(set(s)) < len(s):
            raise ExtensionFailure(f"rule for {kind} failed: deleted {s} repeats a vertex")
        return _extend(p, [(step, p.remove(s))], colors, lists)
    try:
        v = step.anchors["v"] if kind in ("P4-G3", "P5-G6") else None
    except KeyError as exc:
        raise _failed(kind, exc) from None
    if not _is_shape(p.adjacency, kind, s, v):
        raise ExtensionFailure(f"rule for {kind} failed: deleted {s} is not its shape")
    _extend(p, [(*s, *p.remove(s)) if v is None else (s[0], v, *p.remove(s))], colors, lists)


def _is_shape(adj: dict[int, frozenset[int]], kind: str, s: tuple[int, ...], v: int | None) -> bool:
    """Is s kind's shape: one vertex of degree at most 1 (P1), two adjacent
    degree-2 vertices (P2), a degree-2 vertex with adjacent neighbors (P3),
    or a vertex u of degree 2 apart from v (configuration 3) or of degree 3
    next to v (configuration 6)?"""
    if kind == "P2-adjacent-deg2":
        return len(s) == 2 and s[1] in adj[s[0]] and len(adj[s[0]]) == len(adj[s[1]]) == 2
    if len(s) != 1:
        return False
    ns = adj[s[0]]
    if kind == "P1-pendant":
        return len(ns) <= 1
    if kind == "P3-triangle-deg2":
        return len(ns) == 2 and max(ns) in adj[min(ns)]
    if kind == "P5-G6":
        return len(ns) == 3 and v in ns
    return len(ns) == 2 and v not in ns and v != s[0]


def _failed(kind: str, exc: Exception) -> ExtensionFailure:
    """The failure of kind's rule, from the ExtensionFailure or KeyError it raised."""
    missing = "missing " if isinstance(exc, KeyError) else ""
    return ExtensionFailure(f"rule for {kind} failed: {missing}{exc}")


def _extend(p: _Peeler, run: list, colors: Coloring, lists: ListAssignment) -> None:
    """Put the records of p.peel back, last deletion first, with the sets
    they were popped with (inline: a call per shape costs the peel-large
    colorings about 4%), and play each shape's rule.  A record (u, us) is
    a pendant if |us| <= 1 and a P3 triangle otherwise; (u, v, us, vs) a
    P2 pair; (u, v, us) configuration 6 if v is in us, else 3; (step,
    popped) one of 7-11, whose handler runs on p under _valid_around.  The
    others read x and y off the sets, which are the sets pop read, and get
    _valid_around's verdict on their step once x and y (and configuration
    3's or 6's v) kept their colors."""
    adj, degs, get = p.adjacency, p.degrees, colors.get
    for rec in reversed(run):
        u, k = rec[0], 2 if len(rec) == 4 else 1  # k: the number of deleted vertices
        config = type(u) is ReductionStep
        if config:
            back = zip(reversed(u.deleted), reversed(rec[1]))
        else:
            us = rec[-1] if k == 1 else rec[2]
            back = ((u, us),) if k == 1 else ((rec[1], rec[3]), (u, us))
        for w, ws in back:
            adj[w] = ws
            degs[w] = len(ws)
            for z in ws:
                adj[z].add(w)
                degs[z] += 1
        if config:
            kind, a = u.kind, u.anchors
            before = {v: colors[v] for v in a.values() if v in colors}
            try:
                _HANDLERS[kind](p, a, colors, lists)
            except (ExtensionFailure, KeyError) as exc:  # KeyError: no rule, or a label or color it reads is missing
                raise _failed(kind, exc) from None
            if not _valid_around(p, u, before, colors):
                raise ExtensionFailure(f"rule for {kind} left a violation")
            continue
        if len(rec) == 2 and len(us) < 2:
            _color_pendant(adj, degs, u, colors, lists)
            continue
        if k == 2:
            kind, v = "P2-adjacent-deg2", rec[1]
            x, y = (*(us - {v}), *(rec[3] - {u}))
        elif len(rec) == 2:
            kind, (x, y) = "P3-triangle-deg2", us
            v = x  # P3's rule is configuration 6's with x standing for v
        elif rec[1] in us:
            kind, v = "P5-G6", rec[1]
            x, y = us - {v}
        else:  # configuration 3's rule is configuration 6's if x or y has degree 3, else P3's
            kind, (x, y) = "P4-G3", us
            v = rec[1] if 3 in (degs[x], degs[y]) else x
        held = rec[1] if len(rec) == 3 else x  # kept beside x and y: configuration 3's or 6's v
        kept = get(held), get(x), get(y)
        try:
            (_color_g6 if k == 1 else _color_p2)(adj, degs, u, v, x, y, colors, lists)
        except (ExtensionFailure, KeyError) as exc:
            raise _failed(kind, exc) from None
        if (get(held), get(x), get(y)) != kept or not _valid_near(adj, degs, colors, rec[:k], k + 3):
            raise ExtensionFailure(f"rule for {kind} left a violation")


def _color_pendant(
    adj: dict[int, set[int] | frozenset[int]], degs: dict[int, int], u: int, colors: Coloring, lists: ListAssignment
) -> None:
    """The P1 rule on a pendant u, present in adj with at most one neighbor
    v: the least list color unlike v's and, if d(v) <= 3, unlike v's other
    neighbors'.  The pick gets _valid_around's verdict on the step (u, v),
    whose T is {u} while v keeps its color and whose wide is 4: the count,
    v's color kept, u's unlike it, and v's neighborhood if d(v) < 4.  u's
    neighborhood, v or nothing, always passes."""
    get, v = colors.get, None
    forbidden: set[int | None] = set()
    for v in adj[u]:  # u's neighbor, if any
        k = degs[v]
        forbidden = set(map(get, adj[v])) if k <= 3 else set()
        forbidden.add(cv := get(v))
    forbidden.discard(None)
    try:
        colors[u] = _pick(lists, u, forbidden)
    except (ExtensionFailure, KeyError) as exc:
        raise _failed("P1-pendant", exc) from None
    if len(colors) != len(degs) or v is not None and (
        get(v) != cv or colors[u] == cv or k < 4 and len(set(map(get, adj[v]))) < min(3, k)
    ):
        raise ExtensionFailure("rule for P1-pendant left a violation")


def _valid_around(d: Drawing, step: ReductionStep, partial: Coloring, colors: Coloring) -> bool:
    """The verdict of verify_dynamic(d, colors, 3), read only where it can change.

    Precondition: partial is valid on d minus step.deleted and colors
    exactly its vertices, and colors differs from it only at step.deleted
    and the anchors (rules write nothing else).  Then one count shows
    whether colors covers d.  T is the deleted vertices plus every anchor
    the rule recolored.  A vertex outside T and N(T) keeps its neighborhood
    and its neighbors' colors, so properness at T and the dynamic condition
    on T and N(T) decide the verdict.  A neighbor of T outside T of degree
    at least |step.deleted| + 3 and next to no recolored anchor showed
    three colors under partial on its neighbors outside step.deleted, and
    still does.  It is not read, so a hub costs a peel no extra pass.
    """
    adj, degs, deleted = d.adjacency, d.degrees, step.deleted
    if not _valid_near(adj, degs, colors, deleted, len(deleted) + 3):
        return False
    recolored = [v for v in step.anchors.values() if v in partial and partial[v] != colors[v]]
    return not recolored or _valid_near(adj, degs, colors, recolored, len(degs))


def _valid_near(
    adj: dict[int, set[int] | frozenset[int]], degs: dict[int, int], colors: Coloring, touched, wide: int
) -> bool:
    """_valid_around's core: a count shows every vertex colored, then each
    vertex of touched must be proper with three colors (or all its degree)
    on its neighbors, and so must each neighbor outside touched of degree
    below wide on its own neighbors."""
    get = colors.get
    if len(colors) != len(degs):
        return False
    done = set(touched)
    for v in touched:
        ns = adj[v]
        seen = set(map(get, ns))
        if colors[v] in seen or len(seen) < 3 and len(seen) < degs[v]:
            return False
        for w in ns:
            if w not in done and degs[w] < wide:
                done.add(w)
                seen = set(map(get, adj[w]))
                if len(seen) < 3 and len(seen) < degs[w]:
                    return False
    return True


def _colors_of(colors: Coloring, vs) -> set[int]:
    return {colors[w] for w in vs if w in colors}


def _color_p2(
    adj: dict[int, set[int] | frozenset[int]], degs: dict[int, int], u: int, v: int, x: int, y: int,
    colors: Coloring, lists: ListAssignment,
) -> None:
    """P2's rule on adjacent degree-2 vertices u and v, whose other
    neighbors are x and y: u, then v, gets the least list color unlike its
    neighbors' and, where its other neighbor has degree at most 3, unlike
    that neighbor's other neighbors'.  If x = y, a triangle with two
    degree-2 corners, x's neighborhood must still end up colorful, so u
    avoids x's other neighbors up to d(x) = 4."""
    cx, cy = colors[x], colors[y]
    if x == y:
        shared = _colors_of(colors, adj[x] - {u, v}) if degs[x] <= 4 else set()
        colors[u] = _pick(lists, u, {cx} | shared)
        colors[v] = _pick(lists, v, {cx, colors[u]} | (shared if degs[x] <= 3 else set()))
    else:
        fu = {cx, cy}
        if degs[x] <= 3:
            fu |= _colors_of(colors, adj[x] - {u, v})
        colors[u] = _pick(lists, u, fu)
        fv = {cx, colors[u], cy}
        if degs[y] <= 3:
            fv |= _colors_of(colors, adj[y] - {u, v})
        colors[v] = _pick(lists, v, fv)


def _color_g6(
    adj: dict[int, set[int] | frozenset[int]], degs: dict[int, int], u: int, v: int, x: int, y: int,
    colors: Coloring, lists: ListAssignment,
) -> None:
    """Configuration 6's rule on u, where u and v are both next to x and y:
    the least list color unlike v's, x's and y's and, for each of x and y
    of degree 3, unlike its third neighbor's (besides u and v): a degree-3
    x shows three colors only if u avoids x1 too."""
    get = colors.get
    forbidden = {colors[x], colors[y], colors[v]}
    for h in (x, y):
        if degs[h] == 3:
            forbidden.update(map(get, adj[h]))  # u, v and h1
    forbidden.discard(None)  # u's own
    colors[u] = _pick(lists, u, forbidden)


def _run(row: tuple, d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    """Color each pick's label in turn by the least list color unlike its
    avoid labels' colors and, for each of its thirds h of degree 3, h1's: a
    degree-3 x (or y) shows three colors only if the vertex colored next to
    it avoids x1 too.  Rows read d(x) >= d(y): where a shape has a mirror,
    the peeler's swap (structure._SHAPES) leaves d(x) = 3 only with d(y) = 3."""
    degs, get, at = d.degrees, colors.__getitem__, a.__getitem__
    for label, avoid, thirds in row:
        forbidden = set(map(get, map(at, avoid)))
        for h in thirds:
            if degs[a[h]] == 3:
                forbidden.add(colors[a[h + "1"]])
        v = a[label]
        colors[v] = _pick(lists, v, forbidden)


# each rule that is a fixed sequence of picks, as a row of (label, avoid, thirds)
_G7 = (("v", ("x", "y", "w"), ("x", "y")), ("u", ("x", "y", "w", "v"), ()))
_G8 = (("w", ("x", "y", "v"), ("y",)), ("u", ("x", "y", "w", "v"), ("x",)))
_G9 = (("w", ("x", "y", "v", "z"), ("y",)), ("u", ("x", "y", "w", "v"), ("x",)))
_G10 = (("w", ("x", "y", "z", "v"), ("y",)), ("u", ("x", "y", "w", "v", "z"), ()))
# configuration 11 at d(x), d(y) >= 4; at d(x) >= 4, d(y) = 3; at both 3 up to
# u; and at both 3 once z and a hold w's old color (z's color stands for it)
_G11_44 = (("u", ("x", "y", "z", "w"), ()), ("v", ("x", "y", "u", "w"), ()),
           ("a", ("x", "y", "u", "v"), ()))
_G11_43 = (("u", ("x", "y", "z", "w"), ()), ("a", ("w", "y", "y1", "u", "x"), ()),
           ("v", ("x", "y", "u", "w", "a"), ()))
_G11_33 = (("v", ("x", "x1", "z", "w", "y"), ()), ("a", ("v", "y", "y1", "w", "x"), ()))
_G11_PINNED = (("w", ("x", "z", "y", "y1"), ()), ("v", ("x", "z", "y", "w", "x1"), ()),
               ("u", ("x", "z", "y", "v", "w"), ()))


def _extend_g10(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    """The 10th configuration's rule.  Its recolor branch is the one rule
    that reads a surviving vertex's neighborhood without a degree cap: x's,
    once per recoloring."""
    x, z = a["x"], a["z"]
    if colors[z] in (colors[a["v"]], colors[a["y"]]):
        # u must see v and z apart, w must see z and y apart: recolor z
        # first.  Of z's neighbors only x survives, and x needs z's new
        # color only if its other neighbors show too few colors.
        fz = {colors[x], colors[a["v"]], colors[a["y"]]}
        others = _colors_of(colors, d.adjacency[x] - {z})
        if len(others) < min(3, d.degrees[x]):
            fz |= others
        colors[z] = _pick(lists, z, fz)
    _run(_G10, d, a, colors, lists)


def _extend_g11(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    dx, dy = d.degrees[a["x"]], d.degrees[a["y"]]
    if dx >= 4 and dy >= 3:
        return _run(_G11_44 if dy >= 4 else _G11_43, d, a, colors, lists)
    # both degree 3, with the rainbow worst case and its recoloring branch
    _run(_G11_33, d, a, colors, lists)
    cx, cy, cz, cw, cv, ca = (colors[a[label]] for label in "xyzwva")
    cu = _first(lists, a["u"], {cx, cz, cw, cv, ca, cy})
    if cu is not None:
        colors[a["u"]] = cu
        return
    cz_new = _first(lists, a["z"], {cx, cz, cw, cv, cy, colors[a["x1"]]})
    if cz_new is not None:
        colors[a["u"]], colors[a["z"]] = cz, cz_new
        return
    ca_new = _first(lists, a["a"], {cx, cw, cv, ca, cy, colors[a["y1"]]})
    if ca_new is not None:
        colors[a["u"]], colors[a["a"]] = ca, ca_new
        return
    # the difficult case: both short lists are pinned; pull z and a onto
    # w's old color, then recolor w, v, u in this order
    if cw not in lists[a["z"]] or cw not in lists[a["a"]]:
        raise ExtensionFailure("configuration 11 recoloring premises do not hold")
    colors[a["z"]] = colors[a["a"]] = cw
    _run(_G11_PINNED, d, a, colors, lists)


_HANDLERS = {
    "P6-G7": partial(_run, _G7),
    "P7-G8": partial(_run, _G8),
    "P8-G9": partial(_run, _G9),
    "P9-G10": _extend_g10,
    "P10-G11": _extend_g11,
}

