"""Arbitrary drawing, list and coloring files through the CLI: one JSON
object on stdout and an exit code in {0, 1, 2, 3}, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from outer1planar import emit_drawing, random_outer_1_planar
from outer1planar.cli import run

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
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2, 3)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), out.getvalue()
