"""Arbitrary drawing, list and coloring files through the CLI: one JSON
object on stdout and an exit code in {0, 1, 2, 3}, never a traceback."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import outer1planar
from outer1planar import cli, coloring, emit_drawing, generators, oracle, parse_drawing, random_outer_1_planar
from outer1planar.cli import run
from outer1planar.structure import ReductionStep, _SHAPES

from .conftest import delete_with_map

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=60)
SMALL = st.integers(-2, 12)
TOKEN = st.one_of(SMALL.map(str), st.sampled_from(["x", "1.5", "", "1_0", "99999999999999999999"]))


def _lines(*parts):
    return st.lists(st.tuples(*parts).map(" ".join), max_size=12).map("\n".join)


DRAWINGS = st.one_of(
    TEXT,
    st.tuples(TOKEN, _lines(st.sampled_from(["e", "e", "n", "#", "l"]), TOKEN, TOKEN)).map(
        lambda t: f"n {t[0]}\n{t[1]}\n"
    ),
    st.builds(
        lambda n, density, seed: emit_drawing(random_outer_1_planar(n, density, seed)),
        st.integers(3, 12),
        st.floats(0, 1),
        st.integers(0, 99),
    ),
)
LISTS = st.one_of(
    TEXT,
    st.lists(
        st.tuples(TOKEN, st.lists(TOKEN, max_size=8)).map(lambda t: " ".join(["l", t[0], *t[1]])),
        max_size=12,
    ).map("\n".join),
    st.integers(1, 12).map(lambda n: "\n".join(f"l {v} 1 2 3 4 5 6" for v in range(1, n + 1))),
)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL, st.floats(allow_nan=False), TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=12,
)
COLORINGS = st.one_of(
    TEXT,
    JSON.map(json.dumps),
    st.dictionaries(st.one_of(TOKEN, TEXT), st.one_of(SMALL, JSON), max_size=12).map(
        lambda colors: json.dumps({"colors": colors})
    ),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["validate", "color", "verify", "reduce", "light-edge"]),
    drawing=DRAWINGS,
    lists=LISTS,
    coloring=COLORINGS,
    r=st.integers(-1, 4),
)
def test_cli_fuzz_never_raises(command, drawing, lists, coloring, r):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("drawing", drawing), ("lists", lists), ("coloring", coloring)):
            paths[name] = Path(tmp) / f"{name}.txt"
            paths[name].write_text(text, encoding="utf-8")
        argv = [command, str(paths["drawing"])]
        if command == "color":
            argv += ["--lists", str(paths["lists"])]
        elif command == "verify":
            argv += ["--coloring", str(paths["coloring"]), "--r", str(r)]
        _run_one_object(argv)


def _run_one_object(argv):
    """Run the CLI; check the exit code contract and that stdout is exactly
    one JSON object, and return both."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), out.getvalue()
    return code, json.loads(lines[0])


# valid vertex counts stay at 7 or less, so that each example is quick
ENUMERATE_N = st.one_of(
    st.integers(-3, 5),
    st.sampled_from([7, 11]),
    st.integers(11, 10**12),
    st.integers(-(10**12), -1),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=ENUMERATE_N,
    filt=st.sampled_from(["all", "connected", "connected-min-deg-2"]),
    check=st.sampled_from([None, "structure", "light", "reduce"]),
)
@example(n=0, filt="all", check=None)
@example(n=-1, filt="connected", check="structure")
@example(n=11, filt="all", check="reduce")
@example(n=10**9, filt="connected-min-deg-2", check=None)
def test_cli_fuzz_enumerate_n(n, filt, check):
    argv = ["enumerate", "--n", str(n), "--filter", filt] + (["--check", check] if check else [])
    built = oracle._symmetries.cache_info().misses
    code, payload = _run_one_object(argv)
    if 1 <= n <= 10:
        assert code == 0 and payload["count"] >= payload["classes"] >= 0
    else:
        # rejected by the size and count guards, before any table is built
        assert code == 2 and "error" in payload
        assert oracle._symmetries.cache_info().misses == built


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    k_max=st.one_of(st.integers(-3, 8), st.sampled_from([10**9, -(10**9)])),
    r=st.integers(-1, 4),
    n=st.integers(3, 7),
    density=st.floats(0, 1),
    seed=st.integers(0, 99),
)
@example(k_max=10**9, r=3, n=7, density=1.0, seed=0)
@example(k_max=-(10**9), r=3, n=3, density=0.0, seed=0)
def test_cli_fuzz_oracle_chi_k_max(k_max, r, n, density, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawing.txt"
        path.write_text(emit_drawing(random_outer_1_planar(n, density, seed)), encoding="utf-8")
        code, payload = _run_one_object(["oracle", "chi", str(path), "--k-max", str(k_max), "--r", str(r)])
    if r < 1:  # each vertex must see r colors: an input error
        assert code == 2 and "--r" in payload["error"]
    elif code == 0:
        assert 1 <= payload["chi"] <= k_max
    else:
        assert code == 1 and payload["chi"] is None and payload["k_max"] == k_max


# the generators run for real on at most 60 vertices; a larger count that
# passes the caps reaches a stand-in that builds 3 vertices instead
GENERATE_N = st.one_of(
    st.integers(-3, 60),
    st.integers(61, 10**12),
    st.integers(-(10**12), -4),
)
# the generator each command calls, and the command's cap
GENERATORS = {
    "random": ("random_outer_1_planar", cli._MAX_N),
    "cycle": ("cycle", cli._MAX_N),
}


def _generate_examples(test):
    for what, (_, cap) in GENERATORS.items():
        for n in (0, 2, 3, cap, cap + 1, 10**9):
            test = example(what=what, n=n)(test)
    return test


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(what=st.sampled_from(sorted(GENERATORS)), n=GENERATE_N)
@_generate_examples
def test_cli_fuzz_generate_n(what, n):
    name, cap = GENERATORS[what]
    real = getattr(generators, name)
    reached = []

    def stand_in(size, *rest):
        reached.append(size)
        return real(size if size <= 60 else 3, *rest)

    argv = ["generate", "random", "--n", str(n)] if what == "random" else ["generate", "cycle", str(n)]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(generators, name, stand_in):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    if 3 <= n <= cap:
        assert code == 0 and reached == [n]
        assert parse_drawing(out.getvalue()).n == (n if n <= 60 else 3)
        return
    assert code == 2
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0]), out.getvalue()
    if n > cap:
        # refused by the cap, before any generator runs, with the cap named
        assert reached == [] and str(cap) in json.loads(lines[0])["error"]


# palettes up to the cap run for real, on at most 12 vertices; a larger one
# is refused before any list is built, so huge values cost nothing
PALETTE = st.one_of(
    st.integers(-3, 12),
    st.integers(13, cli._PALETTE_MAX),
    st.integers(cli._PALETTE_MAX + 1, 10**18),
    st.integers(-(10**18), -4),
)


def _palette_examples(test):
    cap = cli._PALETTE_MAX
    for palette in (-(10**18), 0, 5, 6, cap - 1, cap, cap + 1, 10**9, 10**18):
        test = example(palette=palette, n=12, density=1.0, seed=0)(test)
    return test


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(palette=PALETTE, n=st.integers(3, 12), density=st.floats(0, 1), seed=st.integers(0, 99))
@_palette_examples
def test_cli_fuzz_color_palette(palette, n, density, seed):
    real = coloring.uniform_lists
    built = []

    def recorder(d, k):
        built.append(k)
        return real(d, k)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawing.txt"
        path.write_text(emit_drawing(random_outer_1_planar(n, density, seed)), encoding="utf-8")
        with mock.patch.object(coloring, "uniform_lists", recorder):
            code, payload = _run_one_object(["color", str(path), "--palette", str(palette)])
    if palette > cli._PALETTE_MAX:
        # refused by the cap, before any list is built, with the cap named
        assert code == 2 and built == [] and str(cli._PALETTE_MAX) in payload["error"]
    elif palette >= 6:
        assert code == 0 and built == [palette] and payload["valid"] is True
        assert all(1 <= c <= palette for c in payload["colors"].values())
    else:
        # fewer than six colors per list: refused as an input error
        assert code == 2 and built == [palette] and "error" in payload


# Runs the CLI in a child process under a 1 GB address-space limit, so that
# a command which builds per-vertex tables fails there instead of taking
# the machine's memory.
_CAPPED_CHILD = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from outer1planar.cli import run
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        results.append([run(argv), out.getvalue()])
print(json.dumps(results))
"""


def test_cli_caps_the_vertex_count(tmp_path):
    coloring_file = tmp_path / "coloring.json"
    coloring_file.write_text('{"colors": {"1": 1, "2": 2}}', encoding="utf-8")
    cases = []
    for n in (cli._MAX_N, cli._MAX_N + 1, 10**9, 10**18):
        path = tmp_path / f"n{n}.txt"
        path.write_text(f"n {n}\ne 1 2\n", encoding="utf-8")
        f = str(path)
        commands = [["validate", f]]
        if n > cli._MAX_N:
            commands += [
                ["find-config", f],
                ["light-edge", f],
                ["reduce", f],
                ["color", f],
                ["verify", f, "--coloring", str(coloring_file)],
                ["oracle", "chi", f],
                ["oracle", "recognize", f],
                ["oracle", "maximal", f],
            ]
        cases += [(n, argv) for argv in commands]
    src = os.path.dirname(os.path.dirname(outer1planar.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD, json.dumps([argv for _, argv in cases])],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    for (n, argv), (code, out) in zip(cases, json.loads(done.stdout)):
        payload = json.loads(out)
        if n == cli._MAX_N:
            assert code == 0 and payload["n"] == n
        else:
            # refused with the cap named, before any per-vertex table is built
            assert code == 2 and str(cli._MAX_N) in payload["error"], (argv, payload)


# the ten reducible kinds and one that has no rule
STEP_KINDS = ["P1-pendant", "P2-adjacent-deg2", "P3-triangle-deg2", *(row[1] for row in _SHAPES), "nope"]
ANCHOR_LABELS = ("u", "v", "w", "x", "y", "z", "a", "x1", "y1")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.integers(3, 9),
    density=st.floats(0, 1),
    seed=st.integers(0, 99),
    kind=st.sampled_from(STEP_KINDS),
    data=st.data(),
)
def test_extend_step_never_returns_an_invalid_coloring(n, density, seed, kind, data):
    # any step on a drawing, with a valid coloring of the drawing minus the
    # step's deleted vertices (the engine's coloring of that sub-drawing):
    # extend_step either returns a valid coloring from the lists or refuses
    # with an ExtensionFailure that names the kind, never another error or a
    # wrong coloring
    d = random_outer_1_planar(n, density, seed)
    deleted = tuple(data.draw(st.lists(st.integers(1, n), max_size=3), label="deleted"))
    # an anchor may name the one vertex past d, which has a list too
    anchors = data.draw(st.dictionaries(st.sampled_from(ANCHOR_LABELS), st.integers(1, n + 1)), label="anchors")
    rng = random.Random(seed)
    lists = {v: frozenset(rng.sample(range(1, 10), 6)) for v in range(1, n + 2)}
    partial = {}
    if len(set(deleted)) < n:
        sub, relabel = delete_with_map(d, deleted)
        sub_colors = coloring.color_list_3_dynamic(sub, {new: lists[old] for old, new in relabel.items()})
        partial = {old: sub_colors[new] for old, new in relabel.items()}
    try:
        colors = coloring.extend_step(d, ReductionStep(kind, deleted, anchors), partial, lists)
    except coloring.ExtensionFailure as exc:
        assert kind in str(exc)
        return
    assert coloring.verify_dynamic(d, colors, 3).valid, (kind, deleted, anchors, partial)
    assert all(colors[v] in lists[v] for v in d.vertices)
