"""CLI behavior: subcommands, exit codes, piping, stable output."""

import io
import json

import pytest

from outer1planar import (
    Drawing,
    cli,
    cycle,
    emit_drawing,
    enumerate_drawings_deduped,
    oracle,
    sharp_example,
    verify_dynamic,
)
from outer1planar.cli import run


def invoke(argv, stdin_text="", monkeypatch=None, capsys=None):
    if stdin_text:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_ok(tmp_path, capsys):
    f = tmp_path / "c5.txt"
    f.write_text(emit_drawing(cycle(5)))
    code = run(["validate", str(f)])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == 0 and payload["valid"] and payload["n"] == 5


def test_validate_stdin(monkeypatch, capsys):
    code, out, err = invoke(
        ["validate", "-"], emit_drawing(cycle(4)), monkeypatch, capsys
    )
    assert code == 0 and json.loads(out)["n"] == 4


def test_validate_bad_input_exit_2(monkeypatch, capsys):
    code, out, err = invoke(
        ["validate", "-"], "n 5\ne 1 3\ne 1 4\ne 2 5\n", monkeypatch, capsys
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_generate_pipe_chi(monkeypatch, capsys):
    code, out, _ = invoke(["generate", "sharp"], "", monkeypatch, capsys)
    assert code == 0
    code, out, _ = invoke(["oracle", "chi", "--r", "3", "-"], out, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["chi"] == 6


def test_color_pipe(monkeypatch, capsys):
    code, draw, _ = invoke(["generate", "cycle", "5"], "", monkeypatch, capsys)
    code, out, _ = invoke(["color", "--palette", "6", "-"], draw, monkeypatch, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True and payload["r"] == 3
    assert set(payload["colors"]) == {"1", "2", "3", "4", "5"}


def test_verify_violation_exit_1(tmp_path, capsys):
    f = tmp_path / "c6.txt"
    f.write_text(emit_drawing(cycle(6)))
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"colors": {str(v): 1 + (v % 2) for v in range(1, 7)}, "valid": True, "r": 3})
    )
    code = run(["verify", str(f), "--coloring", str(bad), "--r", "3"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == 1 and payload["valid"] is False
    assert payload["violation"]["kind"] == "dynamic"


def test_verify_valid_exit_0(tmp_path, capsys):
    f = tmp_path / "c6.txt"
    f.write_text(emit_drawing(cycle(6)))
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps({"colors": {str(v): (v - 1) % 3 + 1 for v in range(1, 7)}, "valid": True, "r": 3})
    )
    assert run(["verify", str(f), "--coloring", str(good), "--r", "3"]) == 0


def test_color_off_list_color_exit_3(monkeypatch, capsys):
    import outer1planar.coloring as col

    monkeypatch.setattr(col, "_pick", lambda lists, v, forbidden: 100 + v)
    code, out, _ = invoke(["color", "-"], emit_drawing(sharp_example()), monkeypatch, capsys)
    assert code == 3 and "error" in json.loads(out)


@pytest.mark.parametrize(
    "text",
    ["{}", "[1]", '{"colors": [1]}', '{"colors": {"1": [1]}}', pytest.param("[" * 100000, id="deep-array")],
)
def test_verify_malformed_coloring_exit_2(tmp_path, capsys, text):
    f = tmp_path / "p3.txt"
    f.write_text("n 3\ne 1 2\ne 2 3\n")
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = run(["verify", str(f), "--coloring", str(bad)])
    out, _ = capsys.readouterr()
    assert code == 2 and "error" in json.loads(out)


def test_find_config_h7(monkeypatch, capsys):
    code, draw, _ = invoke(["generate", "h7"], "", monkeypatch, capsys)
    code, out, _ = invoke(["find-config", "-"], draw, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["config"] == 7


@pytest.mark.parametrize("i", [6, 9, 11, 17])
def test_find_config_check_d2_on_witness(i, monkeypatch, capsys):
    code, draw, _ = invoke(["generate", f"h{i}"], "", monkeypatch, capsys)
    code, out, _ = invoke(["find-config", "--check-d2", "-"], draw, monkeypatch, capsys)
    payload = json.loads(out)
    assert code == 0 and payload["config"] == i and payload["d2_checked"] is True


def test_light_edge_maximal_skips_the_third_configuration(monkeypatch, capsys):
    # the third configuration is found first; maximal mode reads the edge
    # off the next configuration instead
    draw = "n 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 4\ne 2 5\n"
    code, out, _ = invoke(["light-edge", "-"], draw, monkeypatch, capsys)
    assert code == 0 and json.loads(out) == {"edge": [1, 4], "degree_sum": 5, "maximal_mode": False}
    code, out, _ = invoke(["light-edge", "--maximal", "-"], draw, monkeypatch, capsys)
    assert code == 0 and json.loads(out) == {"edge": [2, 3], "degree_sum": 5, "maximal_mode": True}


def test_light_edge_falls_back_on_a_path(monkeypatch, capsys):
    # a path contains no configuration: the least degree sum is reported
    code, out, _ = invoke(["light-edge", "-"], "n 3\ne 1 2\ne 2 3\n", monkeypatch, capsys)
    assert code == 0 and json.loads(out) == {"edge": [1, 2], "degree_sum": 3, "maximal_mode": False}


def test_light_edge_and_reduce(monkeypatch, capsys):
    code, draw, _ = invoke(["generate", "cycle", "9"], "", monkeypatch, capsys)
    code, out, _ = invoke(["light-edge", "-"], draw, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["degree_sum"] == 4
    code, out, _ = invoke(["reduce", "-"], draw, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["kind"] == "P2-adjacent-deg2"


def test_oracle_recognize_and_maximal(monkeypatch, capsys):
    k4 = "n 4\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"
    code, out, _ = invoke(["oracle", "recognize", "-"], k4, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["outer_1_planar"] is True
    code, out, _ = invoke(["oracle", "maximal", "-"], k4, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["maximal"] is True
    code, out, _ = invoke(
        ["oracle", "maximal", "-"], emit_drawing(cycle(6)), monkeypatch, capsys
    )
    assert code == 1 and json.loads(out)["maximal"] is False


def test_enumerate_with_check(capsys):
    code = run(["enumerate", "--n", "4", "--filter", "connected-min-deg-2", "--check", "structure"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == 0 and payload["failures"] == 0 and payload["count"] == 10
    assert "first_failure" not in payload


@pytest.mark.parametrize(
    "filt, check, tested",
    [
        ("connected-min-deg-2", "structure", False),
        ("connected-min-deg-2", "light", False),
        ("connected", "chi", False),
        ("connected-min-deg-2", "chi", False),
        ("connected", "structure", True),
        ("all", "light", True),
        ("all", "chi", True),
    ],
)
def test_enumerate_tests_only_what_the_filter_leaves_open(filt, check, tested, monkeypatch, capsys):
    # a check's hypothesis (connected, and minimum degree 2 for structure
    # and light) is tested on a class only where the filter does not imply it
    calls = []
    connected = Drawing.is_connected
    monkeypatch.setattr(Drawing, "is_connected", lambda d: calls.append(d) or connected(d))
    assert run(["enumerate", "--n", "6", "--filter", filt, "--check", check]) == 0
    assert json.loads(capsys.readouterr()[0])["failures"] == 0
    assert bool(calls) == tested


def test_enumerate_names_first_failure(monkeypatch, capsys):
    def fails_on_five_edges(d):
        return len(d.edges) != 5

    monkeypatch.setitem(cli._CHECKS, "structure", fails_on_five_edges)
    code = run(["enumerate", "--n", "4", "--filter", "connected-min-deg-2", "--check", "structure"])
    payload = json.loads(capsys.readouterr()[0])
    first = next(
        d for d in enumerate_drawings_deduped(4, "connected-min-deg-2") if not fails_on_five_edges(d)
    )
    assert code == 3 and payload["failures"] > 0
    assert payload["first_failure"] == {"n": 4, "edges": sorted(list(e) for e in first.edges)}


def test_enumerate_counts_a_raising_check_as_failed(monkeypatch, capsys):
    def raises_on_five_edges(d):
        if len(d.edges) == 5:
            raise cli.structure.StructureNotFound("five edges")
        return True

    monkeypatch.setitem(cli._CHECKS, "structure", raises_on_five_edges)
    code = run(["enumerate", "--n", "4", "--filter", "connected-min-deg-2", "--check", "structure"])
    payload = json.loads(capsys.readouterr()[0])
    five = [d for d in enumerate_drawings_deduped(4, "connected-min-deg-2") if len(d.edges) == 5]
    assert code == 3 and payload["failures"] == len(five) > 0
    assert payload["first_failure"] == {"n": 4, "edges": sorted(list(e) for e in five[0].edges)}


# (count, classes) of every --check chi run with n = 1..7, all without
# failures; a search on every class gives the same payloads
CHI_RUNS = {
    "all": [(1, 1), (2, 2), (8, 4), (64, 19), (672, 88), (7872, 761), (98688, 7298)],
    "connected": [(1, 1), (1, 1), (4, 2), (38, 11), (386, 48), (4285, 413), (50674, 3723)],
    "connected-min-deg-2": [(0, 0), (0, 0), (1, 1), (10, 5), (66, 12), (639, 78), (6147, 487)],
}


@pytest.mark.parametrize("filt", sorted(CHI_RUNS))
def test_enumerate_chi_payloads_are_pinned(filt, capsys):
    for n, (count, classes) in enumerate(CHI_RUNS[filt], start=1):
        assert run(["enumerate", "--n", str(n), "--filter", filt, "--check", "chi"]) == 0
        assert json.loads(capsys.readouterr()[0]) == {
            "check": "chi", "classes": classes, "count": count, "failures": 0, "filter": filt, "n": n
        }


def test_chi_check_searches_only_where_no_recent_witness_fits(monkeypatch, capsys):
    # of the 3,723 connected classes with n = 7, only 115 reach the search;
    # a second run starts with no witnesses and searches as often
    searches = []
    search = oracle._r_dynamic_witness
    monkeypatch.setattr(oracle, "_r_dynamic_witness", lambda g, r, k: searches.append(g) or search(g, r, k))
    for _ in range(2):
        searches.clear()
        assert run(["enumerate", "--n", "7", "--filter", "connected", "--check", "chi"]) == 0
        assert json.loads(capsys.readouterr()[0])["failures"] == 0
        assert len(searches) == 115


def test_chi_check_never_accepts_a_stale_witness(monkeypatch):
    # on the 5-cycle, an improper witness, a short one (vertex 2 sees only
    # color 1) and one that misses vertex 5 all go to the search; its
    # witness goes first and the list keeps the last _WITNESSES
    c5 = cycle(5)
    improper = {1: 1, 2: 1, 3: 2, 4: 3, 5: 4}
    short = {1: 1, 2: 2, 3: 1, 4: 2, 5: 3}
    missing = {1: 1, 2: 2, 3: 3, 4: 1}
    searches = []
    search = oracle._r_dynamic_witness
    monkeypatch.setattr(oracle, "_r_dynamic_witness", lambda g, r, k: searches.append(g) or search(g, r, k))
    recent = [improper, short, missing, dict(improper)]
    assert cli._chi(c5, recent) and len(searches) == 1
    found = recent[0]
    assert verify_dynamic(c5, found, 3).valid and set(found.values()) <= set(range(1, 7))
    assert recent == [found, improper, short, missing][: cli._WITNESSES]
    recent.insert(1, short)
    assert cli._chi(c5, recent) and len(searches) == 1 and recent[:2] == [found, short]
    recent.reverse()
    assert cli._chi(c5, recent) and len(searches) == 1 and recent[0] is found
    monkeypatch.setattr(oracle, "_r_dynamic_witness", lambda g, r, k: None)
    stale = [improper, short, missing]
    assert not cli._chi(c5, stale) and stale == [improper, short, missing]


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("check", [None, "structure", "light", "reduce", "chi"])
def test_enumerate_no_vertices_exit_2(n, check, capsys):
    code = run(["enumerate", "--n", n] + (["--check", check] if check else []))
    out, _ = capsys.readouterr()
    assert code == 2 and "error" in json.loads(out)


def test_generate_outputs_drawing_format(capsys):
    code = run(["generate", "cycle", "5"])
    out, _ = capsys.readouterr()
    assert code == 0 and out.startswith("n 5\n")


def test_generate_dot(capsys):
    code = run(["generate", "cycle", "3", "--emit", "dot"])
    out, _ = capsys.readouterr()
    assert code == 0 and out.startswith("graph drawing {") and "1 -- 2;" in out


def test_byte_identical_reruns(monkeypatch, capsys):
    draw = emit_drawing(sharp_example())
    _, out1, _ = invoke(["color", "-"], draw, monkeypatch, capsys)
    _, out2, _ = invoke(["color", "-"], draw, monkeypatch, capsys)
    assert out1 == out2
    _, r1, _ = invoke(["generate", "random", "--n", "9", "--density", "0.6", "--seed", "5"], "", monkeypatch, capsys)
    _, r2, _ = invoke(["generate", "random", "--n", "9", "--density", "0.6", "--seed", "5"], "", monkeypatch, capsys)
    assert r1 == r2


def test_color_lists_missing_a_vertex_exit_2(tmp_path, capsys):
    # misses vertex 1 and names the foreign vertex 6
    f = tmp_path / "c5.txt"
    f.write_text(emit_drawing(cycle(5)))
    lists = tmp_path / "foreign.lists"
    lists.write_text("".join(f"l {v} 1 2 3 4 5 6\n" for v in range(2, 7)))
    code = run(["color", str(f), "--lists", str(lists)])
    out, _ = capsys.readouterr()
    assert code == 2 and "error" in json.loads(out)


def test_validate_dot(monkeypatch, capsys):
    code, out, _ = invoke(["validate", "--emit", "dot", "-"], emit_drawing(cycle(3)), monkeypatch, capsys)
    assert code == 0 and out.startswith("graph drawing {") and "1 -- 3;" in out


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["validate", "-"], "n 100001\n", "drawings are capped at 100000 vertices, got 100001"),
        (["generate", "cycle"], "", "generate cycle needs a vertex count"),
        (["generate", "wheel"], "", "unknown generator 'wheel'"),
        (["generate", "hello"], "", "unknown generator 'hello'"),
        (["generate", "h"], "", "generate h<i> needs an integer i, got 'h'"),
        (["generate", "h2x"], "", "generate h<i> needs an integer i, got 'h2x'"),
        (["generate", "cycle", "x"], "", "generate cycle needs an integer vertex count, got 'x'"),
    ],
    ids=[
        "vertex-cap",
        "cycle-without-count",
        "unknown-generator",
        "unknown-h-word",
        "h-without-index",
        "h-non-integer",
        "cycle-non-integer-count",
    ],
)
def test_refused_request_exit_2(argv, stdin, message, monkeypatch, capsys):
    code, out, _ = invoke(argv, stdin, monkeypatch, capsys)
    assert code == 2 and json.loads(out) == {"error": message}


def test_missing_file_exit_2(capsys):
    assert run(["validate", "/nonexistent/file.txt"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{dir}"],
        ["color", "{file}", "--lists", "{dir}"],
        ["verify", "{file}", "--coloring", "{dir}"],
    ],
    ids=["validate", "color", "verify"],
)
def test_directory_as_input_exit_2(argv, tmp_path, capsys):
    f = tmp_path / "c5.txt"
    f.write_text(emit_drawing(cycle(5)))
    code = run([a.format(dir=tmp_path, file=f) for a in argv])
    out, _ = capsys.readouterr()
    assert code == 2 and list(json.loads(out)) == ["error"]


def test_verify_coloring_missing_a_vertex_exit_1(tmp_path, capsys):
    f = tmp_path / "c5.txt"
    f.write_text(emit_drawing(cycle(5)))
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"colors": {"1": 1, "2": 2, "3": 3, "4": 1}}))
    code = run(["verify", str(f), "--coloring", str(partial)])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == 1 and payload["valid"] is False
    assert payload["violation"]["kind"] == "missing-color" and payload["violation"]["vertex"] == 5


@pytest.mark.parametrize("stray", ["9", "0", "-1"])
def test_verify_coloring_of_a_vertex_the_drawing_lacks_exit_2(stray, tmp_path, capsys):
    # a valid coloring of 1..5 plus one key outside the drawing is an input
    # error, as it is for --lists, not a valid verdict
    f = tmp_path / "c5.txt"
    f.write_text(emit_drawing(cycle(5)))
    colors = {str(v): v for v in range(1, 6)}
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"colors": {**colors, stray: 1, "7": 1}}))
    code = run(["verify", str(f), "--coloring", str(extra)])
    out, _ = capsys.readouterr()
    assert code == 2 and list(json.loads(out)) == ["error"]
    assert f"vertex {stray}," in json.loads(out)["error"]


@pytest.mark.parametrize("r", ["0", "-1", "-3"])
def test_r_below_1_exits_2(r, tmp_path, capsys):
    # each vertex must see r colors, so an r below 1 is an input error for
    # verify and for the chi oracle, not a valid verdict or a chi of 3
    f = tmp_path / "c5.txt"
    f.write_text(emit_drawing(cycle(5)))
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"colors": {str(v): v for v in range(1, 6)}}))
    for argv in (["verify", str(f), "--coloring", str(c)], ["oracle", "chi", str(f)]):
        code = run([*argv, "--r", r])
        out, _ = capsys.readouterr()
        assert code == 2 and list(json.loads(out)) == ["error"], argv
        assert "--r" in json.loads(out)["error"]


def test_guarantee_violation_exit_3(monkeypatch, capsys):
    # an edgeless drawing has no configuration: exit 3
    code, out, _ = invoke(["find-config", "-"], "n 2\n", monkeypatch, capsys)
    assert code == 3 and "error" in json.loads(out)


def test_report_envelope(monkeypatch, capsys):
    monkeypatch.setenv("O1P_REPORT", "1")
    code, out, err = invoke(["validate", "-"], emit_drawing(cycle(4)), monkeypatch, capsys)
    assert code == 0
    report = json.loads(err.strip().splitlines()[-1])
    assert report["command"] == "validate" and "elapsed_ms" in report


def test_report_digest_hashes_stdin(monkeypatch, capsys):
    monkeypatch.setenv("O1P_REPORT", "1")
    digests = []
    for d in (cycle(4), cycle(5)):
        code, _, err = invoke(["validate", "-"], emit_drawing(d), monkeypatch, capsys)
        assert code == 0
        digests.append(json.loads(err.strip().splitlines()[-1])["input_digest"])
    assert digests[0] != digests[1]


def test_vertex_count_past_index_range_exit_2(monkeypatch, capsys):
    code, out, _ = invoke(["color", "-"], "n 99999999999999999999\n", monkeypatch, capsys)
    assert code == 2 and "at most" in json.loads(out)["error"]


def test_parser_reuse_keeps_no_state(tmp_path, capsys):
    # one parser serves every run of a process, so each call must see only
    # its own arguments and defaults, whatever ran before it
    f = tmp_path / "sharp.txt"
    f.write_text(emit_drawing(sharp_example()))
    calls = [
        ["enumerate", "--check", "reduce"],  # no --n: an argparse error
        ["color", str(f), "--palette", "5"],
        ["color", str(f)],
        ["enumerate", "--n", "4", "--check", "reduce"],
        ["enumerate", "--n", "4"],
        ["generate", "random", "--n", "12", "--seed", "3"],
        ["generate", "random", "--n", "12"],
    ]

    def outcomes(order):
        seen = {}
        for i in order:
            code = run(calls[i])
            seen[i] = (code, capsys.readouterr()[0])
        return seen

    forward = outcomes(range(len(calls)))
    assert forward == outcomes(reversed(range(len(calls))))
    assert [forward[i][0] for i in range(len(calls))] == [2, 2, 0, 0, 0, 0, 0]
    assert json.loads(forward[3][1])["check"] == "reduce"
    assert "check" not in json.loads(forward[4][1])
    assert forward[5][1] != forward[6][1]
