"""Command-line front door.

Machine-readable JSON goes to stdout, human notes to stderr.  Commands take
a drawing file path or "-" for stdin, so generators pipe into analyzers.
Exit codes: 0 success/valid verdict, 1 false verdict, 2 input error,
3 internal guarantee violation (not found where a theorem promises one).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import cache, partial

from . import coloring, generators, oracle, structure
from .drawing import Drawing, DrawingError, emit_dot, emit_drawing, parse_drawing

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_GUARANTEE = 3


def _read_input(args, path: str) -> str:
    """Text of a file, or of stdin for "-", kept on args for the run report."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    args.inputs.append(text)
    return text


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _drawing_from(args) -> Drawing:
    d = parse_drawing(_read_input(args, args.file))
    if d.n > _MAX_N:
        raise DrawingError(f"drawings are capped at {_MAX_N} vertices, got {d.n}")
    return d


def _cmd_validate(args) -> tuple[int, dict]:
    d = _drawing_from(args)
    if args.emit == "dot":
        sys.stdout.write(emit_dot(d))
        return EXIT_OK, {}
    return EXIT_OK, {
        "valid": True,
        "n": d.n,
        "edges": sorted(d.edges),  # JSON writes the tuples as arrays
        "crossings": sorted(d.crossing_pairs),
    }


def _cmd_find_config(args) -> tuple[int, dict]:
    d = _drawing_from(args)
    if args.check_d2:
        m = structure._first_match(d, range(1, 18), check_d2=True)
        if m is None:
            raise structure.StructureNotFound("no configuration with drawing correspondence")
    else:
        m = structure.find_structure(d)
    return EXIT_OK, {
        "config": m.pattern_id,
        "assignment": {l: v for l, v in sorted(m.assignment.items())},
        "d2_checked": args.check_d2,
    }


def _cmd_light_edge(args) -> tuple[int, dict]:
    d = _drawing_from(args)
    e = structure.find_light_edge(d, maximal_mode=args.maximal)
    return EXIT_OK, {
        "edge": list(e.endpoints),
        "degree_sum": e.degree_sum,
        "maximal_mode": args.maximal,
    }


def _cmd_reduce(args) -> tuple[int, dict]:
    d = _drawing_from(args)
    s = structure.find_reduction(d)
    return EXIT_OK, {
        "kind": s.kind,
        "deleted": sorted(s.deleted),
        "anchors": {k: v for k, v in sorted(s.anchors.items())},
    }


def _cmd_color(args) -> tuple[int, dict]:
    d = _drawing_from(args)
    if args.lists:
        lists = coloring.parse_lists(_read_input(args, args.lists))
    elif args.palette > _PALETTE_MAX:
        raise DrawingError(f"color --palette is capped at {_PALETTE_MAX} colors, got {args.palette}")
    else:
        lists = coloring.uniform_lists(d, args.palette)
    colors = coloring.color_list_3_dynamic(d, lists)  # verified in full, or ExtensionFailure
    return EXIT_OK, {
        "colors": {str(v): colors[v] for v in sorted(colors)},
        "valid": True,
        "r": 3,
    }


def _cmd_verify(args) -> tuple[int, dict]:
    d = _drawing_from(args)
    colors = coloring.parse_coloring_json(_read_input(args, args.coloring))
    if stray := [v for v in colors if not 1 <= v <= d.n]:
        raise ValueError(f"coloring names vertex {stray[0]}, outside the drawing's 1..{d.n}")
    verdict = coloring.verify_dynamic(d, colors, args.r)
    payload: dict = {"valid": verdict.valid, "r": args.r}
    if not verdict.valid:
        first = verdict.violations[0]
        payload["violation"] = {
            "kind": first.kind,
            "vertex": first.vertex,
            "edge": list(first.edge) if first.edge else None,
            "detail": first.detail,
        }
        return EXIT_FALSE, payload
    return EXIT_OK, payload


def _cmd_oracle_chi(args) -> tuple[int, dict]:
    d = _drawing_from(args)
    chi = oracle.chromatic_r_dynamic(d, args.r, args.k_max)
    if chi is None:
        return EXIT_FALSE, {"chi": None, "k_max": args.k_max, "r": args.r}
    return EXIT_OK, {"chi": chi, "r": args.r}


def _cmd_oracle_recognize(args) -> tuple[int, dict]:
    d = _drawing_from(args)
    verdict = oracle.is_outer_1_planar(d)
    return (EXIT_OK if verdict else EXIT_FALSE), {"outer_1_planar": verdict}


def _cmd_oracle_maximal(args) -> tuple[int, dict]:
    d = _drawing_from(args)
    verdict = oracle.is_maximal(d)
    return (EXIT_OK if verdict else EXIT_FALSE), {"maximal": verdict}


# The witnesses a --check chi run keeps, most recent first.  The walk emits
# classes in increasing mask order, so one of the last 1 / 2 / 4 / 8 colors
# 71.3 / 86.2 / 96.9 / 97.5% of the n = 7 connected classes (n = 8: 66.6 /
# 83.8 / 92.3 / 96.7%); past four, the added checks cost more than the
# searches they save.
_WITNESSES = 4


def _chi(d: Drawing, recent: list[coloring.Coloring]) -> bool:
    """Does d have a 3-dynamic 6-coloring?  A witness of recent (most recent
    first) that verify_dynamic would accept on d says yes and moves to the
    front; else the exhaustive search decides, and a witness it finds goes
    first.  A rejected witness builds no report."""
    for i, w in enumerate(recent):
        if coloring._is_dynamic(d, w, 3):
            recent.insert(0, recent.pop(i))
            return True
    w = oracle._r_dynamic_witness(d, 3, 6)
    if w is None:
        return False
    recent.insert(0, w)
    del recent[_WITNESSES:]
    return True


# Each check passes a class unless it returns false or raises
# StructureNotFound; chi's also takes the run's list of recent witnesses
_CHECKS = {
    "structure": structure.find_structure,
    "light": lambda d: structure.find_light_edge(d).degree_sum <= 9,
    "reduce": structure.find_reduction,
    "chi": _chi,
}
# Filters weakest first; per check, the least filter its claim covers (weaker: outside classes pass)
_FILTERS = ("all", "connected", "connected-min-deg-2")
_COVERS = {"structure": 2, "light": 2, "chi": 1}


def _cmd_enumerate(args) -> tuple[int, dict]:
    total = 0
    failures = 0
    first_failure = None
    classes = 0
    check = _CHECKS.get(args.check) if args.check else None
    if args.check == "chi":
        check = partial(check, recent=[])  # witnesses live for this run only
    covers = _COVERS.get(args.check, 0)
    if covers <= _FILTERS.index(args.filter):
        covers = 0  # the walk's filter already guarantees the hypothesis
    # the labeled count is the sum of the representatives' orbit sizes
    for mask, nbrs, size in oracle._walk(args.n, args.filter):
        total += size
        classes += 1
        if check is None:
            continue
        d = oracle._walk_drawing(args.n, mask, nbrs)
        if covers and not (d.is_connected() and (covers == 1 or d.min_degree >= 2)):
            continue
        try:
            passed = check(d)
        except structure.StructureNotFound:
            passed = False
        if not passed:
            failures += 1
            if first_failure is None:
                first_failure = {"n": d.n, "edges": sorted(list(e) for e in d.edges)}
    payload = {
        "n": args.n,
        "filter": args.filter,
        "count": total,
        "classes": classes,
    }
    if check is not None:
        payload["check"] = args.check
        payload["failures"] = failures
        if failures:
            payload["first_failure"] = first_failure
            return EXIT_GUARANTEE, payload
    return EXIT_OK, payload


# The largest vertex counts o1p reads or generates, and the largest uniform
# palette o1p color builds.  Most commands build per-vertex tables, a
# generated drawing is written out edge by edge and a palette color by
# color, so a larger count would only end in running out of memory.
_MAX_N = 10**5
_PALETTE_MAX = 10**5


def _cmd_generate(args) -> tuple[int, dict]:
    what = args.what
    if what == "cycle":
        if args.arg is None:
            raise DrawingError("generate cycle needs a vertex count")
        try:
            n = int(args.arg)
        except ValueError:
            raise DrawingError(f"generate cycle needs an integer vertex count, got {args.arg!r}") from None
        if n > _MAX_N:
            raise DrawingError(f"generate cycle is capped at {_MAX_N} vertices, got {n}")
        d = generators.cycle(n)
    elif what == "sharp":
        d = generators.sharp_example()
    elif what == "h" or what[:1] == "h" and what[1].isdecimal():
        if not what[1:].isdecimal():
            raise DrawingError(f"generate h<i> needs an integer i, got {what!r}")
        d = generators.h_family(int(what[1:]))
    elif what == "random":
        if args.n > _MAX_N:
            raise DrawingError(f"generate random is capped at --n {_MAX_N}, got {args.n}")
        d = generators.random_outer_1_planar(args.n, args.density, args.seed)
    else:
        raise DrawingError(f"unknown generator {what!r}")
    sys.stdout.write(emit_dot(d) if args.emit == "dot" else emit_drawing(d))
    return EXIT_OK, {}


@cache
def _parser() -> argparse.ArgumentParser:
    """The o1p argument parser, built on first use and shared by every run.

    parse_args fills a fresh namespace per call, so no state carries over.
    """
    parser = argparse.ArgumentParser(
        prog="o1p",
        description="Structure and list 3-dynamic coloring of outer-1-plane drawings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a drawing file")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--emit", choices=["dot"], default=None)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("find-config", help="find a contained configuration")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--check-d2", action="store_true")
    p.set_defaults(fn=_cmd_find_config)

    p = sub.add_parser("light-edge", help="find an edge with small degree sum")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--maximal", action="store_true")
    p.set_defaults(fn=_cmd_light_edge)

    p = sub.add_parser("reduce", help="find a reducible configuration")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("color", help="compute a list 3-dynamic coloring")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--lists", default=None, help="list-assignment file")
    p.add_argument("--palette", type=int, default=6, help="uniform palette 1..k")
    p.set_defaults(fn=_cmd_color)

    p = sub.add_parser("verify", help="verify an r-dynamic coloring")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--coloring", required=True, help="coloring JSON file")
    p.add_argument("--r", type=int, default=3)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("chi", help="exact r-dynamic chromatic number")
    q.add_argument("file", nargs="?", default="-")
    q.add_argument("--r", type=int, default=3)
    q.add_argument("--k-max", type=int, default=8)
    q.set_defaults(fn=_cmd_oracle_chi)
    q = osub.add_parser("recognize", help="outer-1-planarity of the underlying graph")
    q.add_argument("file", nargs="?", default="-")
    q.set_defaults(fn=_cmd_oracle_recognize)
    q = osub.add_parser("maximal", help="maximality of a drawing")
    q.add_argument("file", nargs="?", default="-")
    q.set_defaults(fn=_cmd_oracle_maximal)

    p = sub.add_parser("enumerate", help="enumerate drawings, optionally checking claims")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", choices=_FILTERS, default="all")
    p.add_argument("--check", choices=sorted(_CHECKS), default=None)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("generate", help="emit a generated drawing")
    p.add_argument("what", help="cycle | sharp | h<i> | random")
    p.add_argument("arg", nargs="?", default=None, help="vertex count for cycle")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", choices=["dot"], default=None)
    p.set_defaults(fn=_cmd_generate)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    args.inputs = []
    start = time.monotonic()
    try:
        if getattr(args, "r", 1) < 1:  # verify and oracle chi: each vertex must see r colors
            raise ValueError(f"--r must be at least 1, got {args.r}")
        code, payload = args.fn(args)
    except (ValueError, OSError) as exc:  # input errors are ValueErrors; unreadable paths raise OSError
        _emit({"error": str(exc)})
        _note(f"input error: {exc}")
        return EXIT_INPUT
    except (structure.StructureNotFound, coloring.ExtensionFailure) as exc:
        _emit({"error": str(exc)})
        _note(f"guarantee violation: {exc}")
        return EXIT_GUARANTEE
    if payload:
        _emit(payload)
    if os.environ.get("O1P_REPORT"):
        digest = hashlib.sha256()
        for text in args.inputs:
            digest.update(hashlib.sha256(text.encode("utf-8")).digest())
        report = {
            "command": args.command,
            "input_digest": digest.hexdigest()[:16],
            "result": payload,
            "elapsed_ms": round((time.monotonic() - start) * 1000, 3),
        }
        _note(json.dumps(report, sort_keys=True, default=str))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
