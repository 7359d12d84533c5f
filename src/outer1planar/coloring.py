"""List 3-dynamic coloring by reduce-and-extend, plus the generic verifier.

The engine peels one reducible shape at a time until nothing is left,
then puts the shapes back in reverse order and extends by each shape's
local rule: each deleted vertex gets the smallest list color outside a
small forbidden set assembled from its surroundings.  Two rules may first
recolor a surviving vertex of the shape: the 10th configuration's, when
its z repeats a color that a deleted vertex must see twice, and the 11th
configuration's recoloring branch for the rainbow worst case.  Peeling
works on the original labels, so no sub-drawing is ever rebuilt, and the
structure module's peeler finds each shape by searching only around the
previous deletion.  Every extension is checked around the vertices it
touched, in one pass that stops at the first uncolored vertex, improper
edge or short neighborhood; a rule that leaves a violation raises
ExtensionFailure naming its shape.  The finished coloring is verified
once in full.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import lru_cache

from .drawing import Drawing
from .structure import ReductionStep, _Peeler

logger = logging.getLogger("outer1planar.coloring")

Coloring = dict[int, int]
ListAssignment = dict[int, frozenset[int]]


class ColoringError(RuntimeError):
    pass


class ExtensionFailure(ColoringError):
    """A shape's local rule failed: bad input or a bug."""


class ListTooSmall(ValueError):
    """The main algorithm needs one list per vertex, with six colors in each."""


@dataclass(frozen=True)
class Violation:
    kind: str  # "proper" | "dynamic" | "missing-color"
    vertex: int | None = None
    edge: tuple[int, int] | None = None
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    valid: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)


def verify_dynamic(d: Drawing, colors: Coloring, r: int) -> Verdict:
    """Check that colors is a proper coloring where every vertex sees at
    least min(r, deg) distinct colors on its neighborhood.  One pass
    answers a valid coloring; the report is built only when that pass fails."""
    adj, degs, get = d.adjacency, d.degrees, colors.get
    for v in d.vertices:
        c = get(v)
        seen = set(map(get, adj[v]))
        if c is None or c in seen or len(seen) < min(r, degs[v]):
            break
    else:
        return Verdict(True)
    violations: list[Violation] = []
    for v in d.vertices:
        if v not in colors:
            violations.append(Violation("missing-color", vertex=v, detail="uncolored vertex"))
    if violations:
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
    data = json.loads(text)
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
    peeler = _Peeler(d)
    pop, remove, restore, survivors = peeler.pop, peeler.remove, peeler.restore, peeler.degrees
    peeled: list[tuple[ReductionStep, list[tuple[int, int]]]] = []
    while survivors:
        step = pop()
        peeled.append((step, remove(step.deleted)))
    colors: Coloring = {}
    for step, dropped in reversed(peeled):
        restore(step.deleted, dropped)
        _extend(peeler, step, colors, lists)
    verdict = verify_dynamic(d, colors, 3)
    if not verdict.valid:
        raise ExtensionFailure(f"coloring left violations: {verdict.violations[:3]}")
    bad = [v for v in d.vertices if colors[v] not in lists[v]]
    if bad:
        raise ExtensionFailure(f"colors off-list at {bad}")
    return colors


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

    Implements the per-shape rules; only deleted vertices receive colors,
    except for the recolorings of the 10th and 11th configurations' rules.
    A rule that leaves a violation raises ExtensionFailure naming the shape.
    """
    colors = dict(partial)
    _extend(d, step, colors, lists)
    return colors


def _extend(d: Drawing, step: ReductionStep, colors: Coloring, lists: ListAssignment) -> None:
    """extend_step on colors itself, so a peel copies nothing per step."""
    before = {v: colors[v] for v in step.anchors.values() if v in colors}
    try:
        _HANDLERS[step.kind](d, step.anchors, colors, lists)
    except ExtensionFailure as exc:
        raise ExtensionFailure(f"rule for {step.kind} failed: {exc}") from None
    if not _valid_around(d, step, before, colors):
        raise ExtensionFailure(f"rule for {step.kind} left a violation")


def _valid_around(d: Drawing, step: ReductionStep, partial: Coloring, colors: Coloring) -> bool:
    """The verdict of verify_dynamic(d, colors, 3), read only where it can change.

    T is the deleted vertices plus every anchor the rule recolored (rules
    write anchors only).  With partial valid on d minus step.deleted, a
    vertex outside T and N(T) keeps its neighborhood and its neighbors'
    colors, so properness at T and the dynamic condition on T and N(T)
    decide the whole verdict.  One pass over T reads each vertex of T and of
    N(T) once and stops at the first uncolored vertex, improper edge or
    short neighborhood.  Only partial's colors at the anchors are read.
    """
    adj, degs, get = d.adjacency, d.degrees, colors.get
    touched = [*step.deleted, *(v for v in step.anchors.values() if v in partial and get(v) != partial[v])]
    done = set(touched)
    for v in touched:
        c = get(v)
        seen = set(map(get, adj[v]))
        if c is None or c in seen or None in seen or len(seen) < min(3, degs[v]):
            return False
        for w in adj[v]:
            if w not in done:
                done.add(w)
                seen = set(map(get, adj[w]))
                if None in seen or len(seen) < min(3, degs[w]):
                    return False
    return True


def _colors_of(colors: Coloring, vs) -> set[int]:
    return {colors[w] for w in vs if w in colors}


def _extend_p1(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    u = a["u"]
    forbidden: set[int] = set()
    if "v" in a:
        v = a["v"]
        forbidden = {colors[v]}
        if d.degrees[v] <= 3:
            forbidden |= _colors_of(colors, d.adjacency[v] - {u})
    colors[u] = _pick(lists, u, forbidden)


def _extend_p2(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    u, v, x, y = a["u"], a["v"], a["x"], a["y"]
    if x == y:
        # both endpoints hang off the same vertex (a triangle with two
        # degree-2 corners); its neighborhood must still end up colorful
        shared = _colors_of(colors, d.adjacency[x] - {u, v})
        fu = {colors[x]} | (shared if d.degrees[x] <= 4 else set())
        colors[u] = _pick(lists, u, fu)
        fv = {colors[x], colors[u]} | (shared if d.degrees[x] <= 3 else set())
        colors[v] = _pick(lists, v, fv)
        return
    fu = {colors[x], colors[y]}
    if d.degrees[x] <= 3:
        fu |= _colors_of(colors, d.adjacency[x] - {u, v})
    colors[u] = _pick(lists, u, fu)
    fv = {colors[x], colors[u], colors[y]}
    if d.degrees[y] <= 3:
        fv |= _colors_of(colors, d.adjacency[y] - {u, v})
    colors[v] = _pick(lists, v, fv)


def _third(d: Drawing, a: dict[str, int], colors: Coloring, label: str) -> set[int]:
    """{color of label + "1"} if label has degree 3, else empty: a degree-3 x
    (or y) shows three colors only if the vertex colored next to it avoids x1
    too.  The rules read d(x) >= d(y): where a configuration has a mirror, the
    peeler's swap (structure._SHAPES) leaves d(x) = 3 only with d(y) = 3."""
    return {colors[a[label + "1"]]} if d.degrees[a[label]] == 3 else set()


def _extend_p3(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    forbidden = {colors[a["x"]], colors[a["y"]]} | _third(d, a, colors, "x") | _third(d, a, colors, "y")
    colors[a["u"]] = _pick(lists, a["u"], forbidden)


def _extend_g3(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    forbidden = {colors[a["x"]], colors[a["y"]]}
    thirds = _third(d, a, colors, "x") | _third(d, a, colors, "y")
    if thirds:
        forbidden |= thirds | {colors[a["v"]]}
    colors[a["u"]] = _pick(lists, a["u"], forbidden)


def _extend_g6(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    forbidden = {colors[a["x"]], colors[a["y"]], colors[a["v"]]}
    forbidden |= _third(d, a, colors, "x") | _third(d, a, colors, "y")
    colors[a["u"]] = _pick(lists, a["u"], forbidden)


def _extend_g7(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    fv = {colors[a["x"]], colors[a["y"]], colors[a["w"]]}
    fv |= _third(d, a, colors, "x") | _third(d, a, colors, "y")
    colors[a["v"]] = _pick(lists, a["v"], fv)
    fu = {colors[a["x"]], colors[a["y"]], colors[a["w"]], colors[a["v"]]}
    colors[a["u"]] = _pick(lists, a["u"], fu)


def _extend_g8(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    fw = {colors[a["x"]], colors[a["y"]], colors[a["v"]]} | _third(d, a, colors, "y")
    colors[a["w"]] = _pick(lists, a["w"], fw)
    fu = {colors[a["x"]], colors[a["y"]], colors[a["w"]], colors[a["v"]]} | _third(d, a, colors, "x")
    colors[a["u"]] = _pick(lists, a["u"], fu)


def _extend_g9(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    fw = {colors[a["x"]], colors[a["y"]], colors[a["v"]], colors[a["z"]]} | _third(d, a, colors, "y")
    colors[a["w"]] = _pick(lists, a["w"], fw)
    fu = {colors[a["x"]], colors[a["y"]], colors[a["w"]], colors[a["v"]]} | _third(d, a, colors, "x")
    colors[a["u"]] = _pick(lists, a["u"], fu)


def _extend_g10(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
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
    fw = {colors[x], colors[a["y"]], colors[z], colors[a["v"]]} | _third(d, a, colors, "y")
    colors[a["w"]] = _pick(lists, a["w"], fw)
    fu = {colors[x], colors[a["y"]], colors[a["w"]], colors[a["v"]], colors[z]}
    colors[a["u"]] = _pick(lists, a["u"], fu)


def _extend_g11(d: Drawing, a: dict[str, int], colors: Coloring, lists: ListAssignment) -> None:
    dx, dy = d.degrees[a["x"]], d.degrees[a["y"]]
    cx, cy = colors[a["x"]], colors[a["y"]]
    cz, cw = colors[a["z"]], colors[a["w"]]
    if dx >= 4 and dy >= 4:
        colors[a["u"]] = _pick(lists, a["u"], {cx, cy, cz, cw})
        colors[a["v"]] = _pick(lists, a["v"], {cx, cy, colors[a["u"]], cw})
        colors[a["a"]] = _pick(lists, a["a"], {cx, cy, colors[a["u"]], colors[a["v"]]})
        return
    if dx >= 4 and dy == 3:
        cy1 = colors[a["y1"]]
        colors[a["u"]] = _pick(lists, a["u"], {cx, cy, cz, cw})
        colors[a["a"]] = _pick(lists, a["a"], {cw, cy, cy1, colors[a["u"]], cx})
        colors[a["v"]] = _pick(
            lists, a["v"], {cx, cy, colors[a["u"]], cw, colors[a["a"]]}
        )
        return
    # both degree 3, with the rainbow worst case and its recoloring branch
    cx1, cy1 = colors[a["x1"]], colors[a["y1"]]
    colors[a["v"]] = _pick(lists, a["v"], {cx, cx1, cz, cw, cy})
    colors[a["a"]] = _pick(lists, a["a"], {colors[a["v"]], cy, cy1, cw, cx})
    cv, ca = colors[a["v"]], colors[a["a"]]
    cu = _first(lists, a["u"], {cx, cz, cw, cv, ca, cy})
    if cu is not None:
        colors[a["u"]] = cu
        return
    logger.debug("rainbow case at configuration 11; trying recolorings")
    cz_new = _first(lists, a["z"], {cx, cz, cw, cv, cy, cx1})
    if cz_new is not None:
        colors[a["u"]] = cz
        colors[a["z"]] = cz_new
        return
    ca_new = _first(lists, a["a"], {cx, cw, cv, ca, cy, cy1})
    if ca_new is not None:
        colors[a["u"]] = ca
        colors[a["a"]] = ca_new
        return
    # the difficult case: both short lists are pinned; pull z and a onto
    # w's old color, then recolor w, v, u in this order
    if cw not in lists[a["z"]] or cw not in lists[a["a"]]:
        raise ExtensionFailure("configuration 11 recoloring premises do not hold")
    colors[a["z"]] = cw
    colors[a["a"]] = cw
    colors[a["w"]] = _pick(lists, a["w"], {cx, cw, cy, cy1})
    colors[a["v"]] = _pick(lists, a["v"], {cx, cw, cy, colors[a["w"]], cx1})
    colors[a["u"]] = _pick(lists, a["u"], {cx, cw, cy, colors[a["v"]], colors[a["w"]]})


_HANDLERS = {
    "P1-pendant": _extend_p1,
    "P2-adjacent-deg2": _extend_p2,
    "P3-triangle-deg2": _extend_p3,
    "P4-G3": _extend_g3,
    "P5-G6": _extend_g6,
    "P6-G7": _extend_g7,
    "P7-G8": _extend_g8,
    "P8-G9": _extend_g9,
    "P9-G10": _extend_g10,
    "P10-G11": _extend_g11,
}

