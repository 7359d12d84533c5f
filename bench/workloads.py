"""The three workloads: their inputs, their operations and their checks.

Every input comes from the workload seed.  Every operation goes through a
public entry point of the package, `cli.run([...])` in process or a public
library function, and its output is checked by `check.py`, never by the
package itself.  See README.md for why each workload is there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check
import corpus

# Known outputs of `o1p enumerate --n 7 ...`: (count, classes, failures).
ENUMERATE_PINS = {
    ("all", "reduce"): (98688, 7298, 0),
    ("connected-min-deg-2", "structure"): (6147, 487, 0),
    ("connected-min-deg-2", "light"): (6147, 487, 0),
    ("connected", "chi"): (50674, 3723, 0),
}
CENSUS_MAX_N = 7
EXIT_OK, EXIT_INPUT = 0, 2


@dataclass
class Op:
    """One timed operation.

    `run` is the timed part and returns the raw output; `check` returns
    the reasons the output is wrong ([] when it is right) and a canonical
    text of the output for the workload's digest.
    """

    kind: str
    label: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], str]]


@dataclass
class OpResult:
    op: Op
    wall_s: float
    raised: str | None = None
    errors: list[str] = field(default_factory=list)
    canonical: str = ""

    @property
    def failed(self) -> bool:
        return self.raised is not None or bool(self.errors)


@dataclass
class Workload:
    ops: list[Op]
    inputs: dict[str, str]  # file name -> SHA-256
    figures: Callable[[list[OpResult]], dict[str, tuple[float, str]]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call_cli(argv: list[str]) -> tuple[int, str]:
    """`o1p <argv>` in process: (exit code, stdout).

    `cli.run` is looked up at call time, so a traced run sees its wrapper.
    """
    from outer1planar import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def _cli_op(kind: str, label: str, units: int, argv: list[str], run_check) -> Op:
    return Op(kind, label, units, lambda: call_cli(argv), run_check)


def _json(text: str) -> dict:
    """The JSON object the program printed, or {} when there is none."""
    try:
        payload = json.loads(text)
    except ValueError:
        return {}
    return payload if isinstance(payload, dict) else {}


def _expect_code(output, want: int) -> list[str]:
    code, _ = output
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _write(workdir: Path, name: str, text: str, inputs: dict[str, str]) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    inputs[name] = sha256(text)
    return str(path)


def _random_lists(rng: random.Random, vertices) -> dict[int, frozenset[int]]:
    return {v: frozenset(rng.sample(range(1, 10), 6)) for v in vertices}


def _lists_text(lists: dict[int, frozenset[int]]) -> str:
    return "".join(f"l {v} {' '.join(map(str, sorted(c)))}\n" for v, c in sorted(lists.items()))


def _checked_drawing(g: corpus.Generated) -> corpus.Generated:
    """g after the package accepts it and reports the generator's crossings."""
    from outer1planar import Drawing

    d = Drawing(g.n, g.edges)
    if d.crossing_pairs != g.crossings:
        raise RuntimeError(f"package and generator disagree on the crossings at n={g.n}")
    return g


def _sum_rate(results: list[OpResult], kind: str) -> float:
    """Work units per second over the operations of one kind."""
    chosen = [r for r in results if r.op.kind == kind]
    return sum(r.op.units for r in chosen) / sum(r.wall_s for r in chosen)


# -- peel-large ---------------------------------------------------------------

PEEL_INPUTS = ((100, False), (100, True), (150, True), (150, False), (200, False), (200, True))


def peel_large(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"peel-large:{seed}")
    inputs: dict[str, str] = {}
    ops = []
    for i, (n, sparse) in enumerate(PEEL_INPUTS):
        g = _checked_drawing(corpus.generate(n, rng, sparse))
        tag = f"{'sparse' if sparse else 'dense'}{n}"
        path = _write(workdir, f"{tag}.txt", g.text(), inputs)
        if i % 2:
            lists = _random_lists(rng, range(1, n + 1))
            lists_path = _write(workdir, f"{tag}.lists", _lists_text(lists), inputs)
            argv = ["color", path, "--lists", lists_path]
        else:
            lists = {v: frozenset(range(1, 7)) for v in range(1, n + 1)}
            argv = ["color", path, "--palette", "6"]
        ops.append(_cli_op("color", tag, n, argv, _coloring_check(g, lists)))

    # warm-up: the first operations in a process run slower
    warm = corpus.generate(30, random.Random(0))
    call_cli(["color", _write(workdir, "warmup.txt", warm.text(), {})])

    def figures(results):
        return {
            "color_vertices_per_s": (_sum_rate(results, "color"), "vertices/s"),
            "color_largest_s": (next(r.wall_s for r in results if r.op.label == "dense200"), "s"),
        }

    return Workload(ops, inputs, figures)


def _coloring_check(g: corpus.Generated, lists):
    def run_check(output) -> tuple[list[str], str]:
        code, text = output
        if code != EXIT_OK:
            return [f"exit code {code}"], text
        payload = _json(text)
        colors = {int(v): c for v, c in payload.get("colors", {}).items()}
        errors = check.coloring_errors(g.n, g.edges, colors, lists)
        if payload.get("valid") is not True:
            errors.append("the program did not call its own coloring valid")
        return errors, text

    return run_check


# -- exhaustive ---------------------------------------------------------------

def exhaustive(seed: int, workdir: Path) -> Workload:
    from outer1planar import coloring, enumerate_drawings_deduped

    rng = random.Random(f"exhaustive:{seed}")
    inputs: dict[str, str] = {}
    ops = []
    for (filt, what), pinned in ENUMERATE_PINS.items():
        argv = ["enumerate", "--n", "7", "--filter", filt, "--check", what]
        ops.append(_cli_op("enumerate", what, pinned[1], argv, _enumerate_check(pinned)))

    population = [d for n in range(1, CENSUS_MAX_N + 1) for d in enumerate_drawings_deduped(n)]
    census_lists = [_random_lists(rng, d.vertices) for d in population]
    inputs["census.lists"] = sha256("\n".join(_lists_text(lists) for lists in census_lists))

    def census():
        # looked up per call, so that a traced run sees the wrapped function
        return [coloring.color_list_3_dynamic(d, ls) for d, ls in zip(population, census_lists)]

    def census_check(colorings) -> tuple[list[str], str]:
        errors = []
        for d, lists, colors in zip(population, census_lists, colorings):
            bad = check.coloring_errors(d.n, d.edges, colors, lists)
            if bad:
                errors.append(f"n={d.n} edges={sorted(d.edges)}: {bad[0]}")
        canonical = "\n".join(" ".join(str(c[v]) for v in sorted(c)) for c in colorings)
        return errors, canonical

    ops.append(Op("census", "census", len(population), census, census_check))

    # warm-up: the first operations in a process run slower
    for what in ("reduce", "structure", "light", "chi"):
        call_cli(["enumerate", "--n", "5", "--filter", "connected", "--check", what])

    def figures(results):
        return {
            "enumerate_classes_per_s": (_sum_rate(results, "enumerate"), "classes/s"),
            "census_colorings_per_s": (_sum_rate(results, "census"), "colorings/s"),
        }

    return Workload(ops, inputs, figures)


def _enumerate_check(pinned: tuple[int, int, int]):
    def run_check(output) -> tuple[list[str], str]:
        code, text = output
        errors = _expect_code(output, EXIT_OK)
        if not errors:
            payload = _json(text)
            got = (payload.get("count"), payload.get("classes"), payload.get("failures"))
            if got != pinned:
                errors.append(f"count/classes/failures {got}, expected {pinned}")
        return errors, text

    return run_check


# -- ingest -------------------------------------------------------------------

ACCEPT_SIZES = (500, 1000)
GENERATE_N, GENERATE_DENSITY = 40, 0.5


def ingest(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"ingest:{seed}")
    inputs: dict[str, str] = {}
    ops = []
    for n in ACCEPT_SIZES:
        g = _checked_drawing(corpus.generate(n, rng))
        path = _write(workdir, f"valid{n}.txt", g.text(), inputs)
        argv = ["validate", path]
        ops.append(_cli_op("validate", f"valid{n}", len(g.edges), argv, _validate_check(g)))

    planted, chord = corpus.plant_double_crossing(corpus.generate(1000, rng), rng)
    if not check.drawing_errors(planted.edges):
        raise RuntimeError(f"planted chord {chord} is not crossed twice")
    path = _write(workdir, "planted1000.txt", planted.text(), inputs)
    argv = ["validate", path]
    ops.append(_cli_op("reject", "planted1000", len(planted.edges), argv, _reject_check))

    lines = corpus.generate(1000, rng).text().splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0]  # "e u v" -> "e u"
    malformed = "\n".join(lines) + "\n"
    try:
        check.parse_edges(malformed)
    except ValueError:
        pass
    else:
        raise RuntimeError("the malformed file parses")
    path = _write(workdir, "malformed1000.txt", malformed, inputs)
    argv = ["validate", path]
    ops.append(_cli_op("reject", "malformed1000", len(lines) - 2, argv, _reject_check))

    for gen_seed in rng.sample(range(10**6), 3):
        argv = ["generate", "random", "--n", str(GENERATE_N), "--density", str(GENERATE_DENSITY)]
        argv += ["--seed", str(gen_seed)]
        ops.append(_cli_op("generate", f"random-seed{gen_seed}", GENERATE_N, argv, _generate_check))

    # a list file that misses vertex 1 and names the foreign vertex n + 1
    small = _checked_drawing(corpus.generate(40, rng))
    lists = _random_lists(rng, range(2, small.n + 2))
    argv = [
        "color",
        _write(workdir, "small40.txt", small.text(), inputs),
        "--lists",
        _write(workdir, "foreign.lists", _lists_text(lists), inputs),
    ]
    ops.append(_cli_op("robustness", "foreign-lists", small.n, argv, _reject_check))

    # warm-up: the first operations in a process run slower
    warm = corpus.generate(30, random.Random(0))
    call_cli(["validate", _write(workdir, "warmup.txt", warm.text(), {})])
    call_cli(["generate", "random", "--n", "8", "--seed", "0"])

    def figures(results):
        generate = [r.wall_s for r in results if r.op.kind == "generate"]
        return {
            "validate_edges_per_s": (_sum_rate(results, "validate"), "edges/s"),
            "reject_edges_per_s": (_sum_rate(results, "reject"), "edges/s"),
            "generate_s": (statistics.median(generate), "s"),
        }

    return Workload(ops, inputs, figures)


def _validate_check(g: corpus.Generated):
    want_crossings = sorted([list(e), list(f)] for e, f in g.crossings)

    def run_check(output) -> tuple[list[str], str]:
        code, text = output
        errors = _expect_code(output, EXIT_OK)
        if not errors:
            payload = _json(text)
            if payload.get("n") != g.n:
                errors.append(f"n {payload.get('n')}, generated {g.n}")
            if payload.get("edges") != sorted(list(e) for e in g.edges):
                errors.append(f"{len(payload.get('edges', []))} edges, generated {len(g.edges)}")
            if payload.get("crossings") != want_crossings:
                got = len(payload.get("crossings", []))
                errors.append(f"{got} crossings, generated {len(want_crossings)}")
        return errors, text

    return run_check


def _reject_check(output) -> tuple[list[str], str]:
    code, text = output
    errors = _expect_code(output, EXIT_INPUT)
    if not errors and "error" not in _json(text):
        errors.append("no error object on stdout")
    return errors, f"exit {code}"


def _generate_check(output) -> tuple[list[str], str]:
    code, text = output
    errors = _expect_code(output, EXIT_OK)
    if errors:
        return errors, text
    try:
        n, edges = check.parse_edges(text)
    except ValueError as exc:
        return [f"unparsable output: {exc}"], text
    if n != GENERATE_N:
        errors.append(f"n {n}, asked for {GENERATE_N}")
    boundary = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    if not boundary <= edges:
        errors.append("boundary cycle incomplete")
    errors.extend(check.drawing_errors(edges))
    return errors, text


WORKLOADS = {"peel-large": peel_large, "exhaustive": exhaustive, "ingest": ingest}
