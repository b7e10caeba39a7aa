import dataclasses
import hashlib
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rank2cluster import cli
from rank2cluster.caps import DEFAULT_MAX_EXPONENT, MAX_ASCII_CELLS, MAX_PATH_SIZE
from rank2cluster.dyck import build_path, dim_sequence
from rank2cluster.laurent import LaurentPoly2

from oracles import X5_R3_TERMS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_formula_matches_frozen_example(capsys):
    code, out, _ = run(capsys, "expand", "--r", "3", "--n", "5")
    assert code == 0
    assert LaurentPoly2(X5_R3_TERMS).render("plain") + "\n" == out


def test_expand_both_engines_agree(capsys):
    code, out, _ = run(capsys, "expand", "--r", "3", "--n", "5", "--engine", "both")
    assert code == 0
    assert "DIFF" not in out


@pytest.mark.parametrize("to_file", [False, True])
def test_expand_both_engines_report_a_mismatch(capsys, monkeypatch, tmp_path, to_file):
    # A changed oracle value: exit 3 with DIFF and both renderings, on stdout or in --out.
    x5 = LaurentPoly2(X5_R3_TERMS)
    monkeypatch.setattr(cli.cluster, "oracle", lambda r, n, max_exponent: x5 + 1)
    target = tmp_path / "diff.txt"
    argv = ["expand", "--r", "3", "--n", "5", "--engine", "both"]
    code, out, err = run(capsys, *argv, *(["--out", str(target)] if to_file else []))
    expected = f"DIFF\nformula: {x5.render('plain')}\noracle: {(x5 + 1).render('plain')}\n"
    assert (code, err) == (3, "")
    if to_file:
        assert (out, target.read_text()) == ("", expected)
    else:
        assert out == expected


def test_expand_oracle_r1(capsys):
    code, out, _ = run(capsys, "expand", "--r", "1", "--n", "6", "--engine", "oracle")
    assert code == 0
    assert out == "x1\n"


def test_expand_formula_rejects_r1(capsys):
    code, _, err = run(capsys, "expand", "--r", "1", "--n", "6")
    assert code == 1
    assert "r >= 2" in err


def test_expand_latex(capsys):
    code, out, _ = run(capsys, "expand", "--r", "3", "--n", "5", "--format", "latex")
    assert code == 0
    assert "x_1^{-8} x_2^{21}" in out
    assert "x_2^{-3}" in out


def test_expand_json_round_trips(capsys):
    code, out, _ = run(capsys, "expand", "--r", "3", "--n", "5", "--format", "json")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert all(term["c"] == str(int(term["c"])) for term in terms)
    assert {(term["e1"], term["e2"]): int(term["c"]) for term in terms} == X5_R3_TERMS


def test_expand_cap_breach_exits_2(capsys):
    code, _, err = run(capsys, "expand", "--r", "3", "--n", "8", "--config-budget", "1000")
    assert code == 2
    assert "budget" in err


def test_expand_refuses_r5_n7_at_the_default_budget(capsys):
    # The README's (5,7): 114 745 344 steps, just above the default 10^8.
    code, out, err = run(capsys, "expand", "--r", "5", "--n", "7")
    assert (code, out) == (2, "")
    assert err == "error: (r=5, n=7) needs 114745344 aggregation steps, above the budget 100000000\n"


def test_expand_both_engines_agree_at_height_35(capsys):
    # (6,6) has height 35; it needs 4 560 840 aggregation steps, inside the default budget.
    code, out, _ = run(capsys, "expand", "--r", "6", "--n", "6", "--engine", "both")
    assert code == 0
    assert "DIFF" not in out


def test_budget_refused_before_classification(capsys):
    # (2,1500) has 1 497 vertex pairs to classify; the step count alone refuses it.
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", "--r", "2", "--n", "1500")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "aggregation steps" in err


def test_config_budget_flag_sets_the_budget(capsys):
    # (3,7) needs 290 752 steps.
    code, _, _ = run(capsys, "expand", "--r", "3", "--n", "7", "--config-budget", "1000")
    assert code == 2
    code, _, _ = run(capsys, "expand", "--r", "3", "--n", "7", "--config-budget", str(2**22))
    assert code == 0


def test_budget_refused_before_the_path_is_built(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_path ran for an over-budget cell")

    monkeypatch.setattr(cli.cluster, "build_path", refuse)
    code, out, err = run(capsys, "expand", "--r", "3", "--n", "16")
    assert code == 2
    assert out == ""
    assert err.startswith("error: (r=3, n=16) needs ") and "aggregation steps" in err


# x_5 and x_{-2} for r = 3 have largest exponent d(5) = 21.
@pytest.mark.parametrize("engine", ["formula", "oracle", "both"])
@pytest.mark.parametrize("index", ["5", "-2"])
def test_max_exponent_admits_exactly_d_n(capsys, engine, index):
    argv = ("expand", "--r", "3", "--n", index, "--engine", engine, "--max-exponent")
    code, out, err = run(capsys, *argv, "20")
    assert (code, out) == (2, "")
    assert err.startswith("error: d(5) = 21 exceeds the cap 20")
    code, _, _ = run(capsys, *argv, "21")
    assert code == 0


_EVERY_SUBCOMMAND = [
    ("expand", "--r", "3", "--n", "5"),
    ("fpoly", "--r", "3", "--n", "5"),
    ("gvector", "--r", "3", "--n", "5"),
    ("euler", "--r", "3", "--n", "5"),
    ("verify", "--sum-cap", "6"),
    ("path", "--r", "3", "--n", "5", "--json"),
]


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND)
@pytest.mark.parametrize("budget", ["-1", "0"])
def test_config_budget_must_be_positive(capsys, argv, budget):
    code, out, err = run(capsys, *argv, "--config-budget", budget)
    if argv[0] in ("gvector", "path"):
        # Neither runs the formula engine, so neither has the flag.
        assert (code, out) == (1, "")
        assert err.startswith("usage: rank2cluster ")
        assert err.endswith("\nrank2cluster: error: unrecognized arguments: --config-budget "
                            + budget + "\n")
    else:
        assert (code, out, err) == (1, "", "error: --config-budget must be positive\n")


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND)
def test_config_budget_ignores_the_environment(capsys, monkeypatch, argv):
    # The budget has one source, the flag: the environment changes nothing.
    monkeypatch.delenv("CLUSTER_COMB_BUDGET", raising=False)
    expected = _without_millis(argv, run(capsys, *argv))
    assert expected[0] == 0
    for value in ("0", "abc"):
        monkeypatch.setenv("CLUSTER_COMB_BUDGET", value)
        assert _without_millis(argv, run(capsys, *argv)) == expected


def _without_millis(argv, result):
    """(code, stdout, stderr), with ``verify``'s rows parsed and their timing dropped.

    ``millis`` is the one field of the output that is not deterministic.
    """
    code, out, err = result
    if argv[0] != "verify":
        return result
    rows = [json.loads(line) for line in out.splitlines()]
    for row in rows:
        del row["millis"]
    return code, rows, err


def test_gvector_output(capsys):
    code, out, _ = run(capsys, "gvector", "--r", "3", "--n", "5")
    assert code == 0
    assert out == "(-8, 21)\n"


def test_fpoly_output(capsys):
    code, out, _ = run(capsys, "fpoly", "--r", "2", "--n", "3")
    assert code == 0
    assert out == "y1 + 1\n"


def test_fpoly_rejects_initial_cluster(capsys):
    code, _, err = run(capsys, "fpoly", "--r", "2", "--n", "1")
    assert code == 1
    assert "index" in err


def test_euler_csv_total(capsys):
    code, out, _ = run(capsys, "euler", "--r", "3", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "e1,e2,chi"
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 365


def test_euler_rejects_unknown_format(capsys):
    code, _, _ = run(capsys, "euler", "--r", "3", "--n", "5", "--format", "json")
    assert code == 1


def test_verify_json_lines(capsys):
    code, out, _ = run(capsys, "verify", "--sum-cap", "8")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows
    assert all(set(row) == {"r", "n", "status", "millis"} for row in rows)
    assert all(row["status"] == "pass" for row in rows)


def test_verify_r_max_filter(capsys):
    code, out, _ = run(capsys, "verify", "--sum-cap", "8", "--r-max", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {row["r"] for row in rows} == {2}


# argparse expands the prefix ``--r`` to ``--r-max``.
@pytest.mark.parametrize("flag, r_max", [("--r-max", "1000000000"), ("--r", "99999999999999999999")])
def test_verify_huge_r_max_is_clamped(capsys, flag, r_max):
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--sum-cap", "10", flag, r_max)
    assert time.perf_counter() - start < 30.0
    _, reference, _ = run(capsys, "verify", "--sum-cap", "10", "--r-max", "6")
    strip = lambda text: [
        (row["r"], row["n"], row["status"]) for row in map(json.loads, text.splitlines())
    ]
    assert code == 0
    assert strip(out) == strip(reference)


@pytest.mark.parametrize(
    "sum_cap, r_max, cells",
    [
        ("5", None, []),
        ("5", "3", []),
        ("4", "2", []),
        ("6", "1", []),
        ("6", None, [(2, 4)]),
        ("10", None, [(r, n) for r in range(2, 7) for n in range(4, 11 - r)]),
    ],
)
def test_verify_notes_exactly_an_empty_sweep(capsys, sum_cap, r_max, cells):
    argv = ["verify", "--sum-cap", sum_cap] + ([] if r_max is None else ["--r-max", r_max])
    code, out, err = run(capsys, *argv)
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [(row["r"], row["n"], row["status"]) for row in rows] == [
        (r, n, "pass") for r, n in cells
    ]
    note = "note: no cell with 2 <= r <= r-max and 4 <= n <= sum-cap - r; nothing to verify\n"
    assert err == ("" if rows else note)


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.cluster,
        "verify_range",
        lambda *a, **k: [{"r": 2, "n": 4, "status": "fail", "millis": 0}],
    )
    code, out, _ = run(capsys, "verify", "--sum-cap", "8")
    assert code == 3
    assert json.loads(out.splitlines()[0])["status"] == "fail"


def test_path_ascii_with_overlay(capsys):
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "5", "--overlay", "1,3")
    assert code == 0
    assert "word=EENEENEN" in out
    assert "overlay alpha(1,3): green (m=3, w=1) edges 4..8 window 3..3" in out


def test_path_overlay_red(capsys):
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "5", "--overlay", "2,3")
    assert code == 0
    assert "overlay alpha(2,3): red edges 6..8" in out


def test_path_rejects_invalid_overlay(capsys):
    code, _, err = run(capsys, "path", "--r", "3", "--n", "5", "--overlay", "3,3")
    assert code == 1
    code, _, _ = run(capsys, "path", "--r", "3", "--n", "5", "--overlay", "0,9")
    assert code == 1


def test_path_svg_and_tikz(capsys):
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "5", "--svg", "--overlay", "1,3")
    assert code == 0
    assert out.startswith("<svg ")
    assert "stroke-dasharray" in out  # green window marker
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "5", "--tikz")
    assert code == 0
    assert out.startswith("% r=3 n=5")
    assert "\\begin{tikzpicture}" in out
    # alpha(1,3) is green with window edge 3, from w_2 = (2,0) to w_3 = (2,1).
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "5", "--tikz", "--overlay", "1,3")
    assert code == 0
    assert out.splitlines()[4:8] == [
        "  \\draw[line width=1.6pt] (0,0) -- (1,0) -- (2,0) -- (2,1) -- (3,1) -- (4,1) -- (4,2) "
        "-- (5,2) -- (5,3);",
        "  % overlay alpha(1,3): green (m=3, w=1) edges 4..8 window 3..3",
        "  \\draw[line width=2.4pt,green] (2,1) -- (3,1) -- (4,1) -- (4,2) -- (5,2) -- (5,3);",
        "  \\draw[line width=2pt,orange,dashed] (2,0) -- (2,1);",
    ]


def _path_sweep(style):
    """Every `path` argv of one style on the cells with 2 <= r <= 6 and height
    <= 12: no overlay, then each --overlay i,k with 0 <= i < k <= height + 1."""
    for r in range(2, 7):
        n = 3
        while (height := dim_sequence(r, n).value(n - 2)) <= 12:
            base = ("path", "--r", str(r), "--n", str(n), style)
            yield base
            for k in range(1, height + 2):
                for i in range(k):
                    yield (*base, "--overlay", f"{i},{k}")
            n += 1


# SHA-256 over repr((argv, exit code, stdout, stderr)) of each argv of the
# sweep in order, computed with the renderers that sliced a tuple of every
# lattice point.
PATH_PICTURE_HASHES = {
    "--ascii": "3ac33d09ce027504f460d0f5b3dd09f0c00a70a48da960e2644a310d7f445ca3",
    "--svg": "a3fa630b66fdb8a990850266621d6ba167e14630148f67335ebe78b17b7d2246",
    "--tikz": "6dd9fb11ebd9475365c87123d8e929c8a73f531aeb4bb46040f9b33a15954baf",
    "--json": "1eb067386886acff0dfe5b95d471be51e5dd1fd37c00d2d84a3a876d1d147cc2",
}


@pytest.mark.parametrize("style", list(PATH_PICTURE_HASHES))
def test_path_pictures_are_pinned(capsys, style):
    digest = hashlib.sha256()
    for argv in _path_sweep(style):
        digest.update(repr((argv, *run(capsys, *argv))).encode())
    assert digest.hexdigest() == PATH_PICTURE_HASHES[style]


def test_path_ascii_grid_cap_is_inclusive(capsys, monkeypatch):
    # (3,5) draws a 5 x 3 box as an 11 x 7 character grid: 77 cells.
    monkeypatch.setattr(cli.render, "MAX_ASCII_CELLS", 77)
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "5", "--ascii")
    assert code == 0 and "word=EENEENEN" in out
    monkeypatch.setattr(cli.render, "MAX_ASCII_CELLS", 76)
    code, out, err = run(capsys, "path", "--r", "3", "--n", "5", "--ascii")
    assert (code, out) == (2, "")
    assert err == ("error: the ASCII picture needs 77 grid cells, over the cap of 76; "
                   "use --svg or --tikz\n")
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "5", "--svg")
    assert code == 0 and out.startswith("<svg ")


@pytest.mark.parametrize("r, n, cells, refused", [(3, 12, 43_228_347, False),
                                                   (4, 10, 92_626_461, True)])
def test_path_ascii_cap_admits_3_12_and_refuses_4_10(capsys, r, n, cells, refused):
    path = build_path(r, n)
    assert (2 * path.width + 1) * (2 * path.height + 1) == cells
    assert (cells > MAX_ASCII_CELLS) == refused
    if refused:
        code, out, err = run(capsys, "path", "--r", str(r), "--n", str(n))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the ASCII picture needs {cells} grid cells")
        assert len(err.splitlines()) == 1


def test_path_cap_is_inclusive(capsys, monkeypatch):
    # (3,5): d(4) = 8 edges and d(3) = 3 distinguished vertices.
    monkeypatch.setattr(cli, "MAX_PATH_SIZE", 11)
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "5", "--json")
    assert code == 0 and json.loads(out)["word"] == "EENEENEN"
    monkeypatch.setattr(cli, "MAX_PATH_SIZE", 10)
    for style in ("--json", "--svg", "--tikz"):
        assert run(capsys, "path", "--r", "3", "--n", "5", style) == (
            2, "", "error: the path has 11 edges and distinguished vertices, over the cap of 10\n")
    # The ASCII grid has its own cap.
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "5")
    assert code == 0 and "word=EENEENEN" in out


def test_path_cap_admits_every_path_at_the_default_max_exponent():
    # The largest d(n-1) admitted is the cap itself, at r = 2 where d(k) = k - 1.
    n = DEFAULT_MAX_EXPONENT + 2
    dims = dim_sequence(2, n - 1)
    assert dims.value(n - 1) == DEFAULT_MAX_EXPONENT
    assert dims.value(n - 1) + dims.value(n - 2) <= MAX_PATH_SIZE


@pytest.mark.parametrize("style", ["--json", "--svg", "--tikz"])
def test_path_refuses_a_long_path_before_building_it(capsys, time_limit, style):
    code, out, err = run(capsys, "path", "--r", "2", "--n", "100000000", style,
                         "--max-exponent", "10000000000")
    assert (code, out) == (2, "")
    assert err == ("error: the path has 199999995 edges and distinguished vertices, "
                   f"over the cap of {MAX_PATH_SIZE}\n")


@pytest.mark.parametrize("argv, cells", [
    (["--r", "2", "--n", "100000000", "--max-exponent", "10000000000"], 599_999_985),
    (["--r", "4", "--n", "10"], 92_626_461),
])
def test_path_refuses_an_ascii_grid_before_building_the_path(capsys, monkeypatch, argv, cells):
    def start(*args, **kwargs):
        raise AssertionError("build_path ran")

    monkeypatch.setattr(cli, "build_path", start)
    assert run(capsys, "path", *argv) == (
        2, "", f"error: the ASCII picture needs {cells} grid cells, over the cap of "
               f"{MAX_ASCII_CELLS}; use --svg or --tikz\n")


@pytest.mark.parametrize("argv", [
    ["--r", "2", "--n", "1000000", "--max-exponent", "10000000"],
    ["--r", "3", "--n", "5"],
])
def test_path_refuses_json_with_an_overlay_before_building_the_path(capsys, monkeypatch, argv):
    def start(*args, **kwargs):
        raise AssertionError("build_path ran")

    monkeypatch.setattr(cli, "build_path", start)
    assert run(capsys, "path", *argv, "--json", "--overlay", "0,1") == (
        1, "", "error: --overlay does not apply to --json output\n")


@pytest.mark.parametrize(("argv", "pair"), [
    (["--r", "2", "--n", "1000000", "--svg", "--max-exponent", "10000000", "--overlay", "3,3"],
     "999997, got i=3, k=3"),
    (["--r", "3", "--n", "5", "--overlay", "1,4"], "3, got i=1, k=4"),
    (["--r", "3", "--n", "5", "--tikz", "--overlay", "2,1"], "3, got i=2, k=1"),
    (["--r", "4", "--n", "6", "--svg", "--overlay=-1,2"], "15, got i=-1, k=2"),
])
def test_path_refuses_an_invalid_overlay_before_building_the_path(capsys, monkeypatch, argv, pair):
    def start(*args, **kwargs):
        raise AssertionError("build_path ran")

    monkeypatch.setattr(cli, "build_path", start)
    assert run(capsys, "path", *argv) == (1, "", f"error: need 0 <= i < k <= {pair}\n")


def test_path_json_schema(capsys):
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "5", "--json")
    assert code == 0
    assert json.loads(out) == {"r": 3, "n": 5, "word": "EENEENEN", "v_index": [0, 3, 6, 8]}


def test_path_and_euler_accept_n_3(capsys):
    code, out, _ = run(capsys, "path", "--r", "3", "--n", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"r": 3, "n": 3, "word": "E", "v_index": [0]}
    code, out, _ = run(capsys, "euler", "--r", "3", "--n", "3")
    assert code == 0
    assert sum(int(line.split(",")[2]) for line in out.splitlines()[1:]) == 2
    for command in ("path", "euler"):
        code, _, err = run(capsys, command, "--r", "3", "--n", "2")
        assert (code, err) == (1, "error: n must be >= 3, got 2\n")


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "x5.txt"
    code, out, _ = run(capsys, "expand", "--r", "3", "--n", "5", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == LaurentPoly2(X5_R3_TERMS).render("plain") + "\n"


def test_out_to_unwritable_path_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "expand", "--r", "3", "--n", "5", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--r", "3", "--n", "5", "--engine", "oracle"),
        ("gvector", "--r", "3", "--n", "5"),
    ],
)
@pytest.mark.parametrize("cap", ["-1", "0"])
def test_max_exponent_must_be_positive(capsys, argv, cap):
    code, out, err = run(capsys, *argv, "--max-exponent", cap)
    assert code == 1
    assert out == ""
    assert err == "error: --max-exponent must be positive\n"


def test_bruteforce_edge_cap_flag_is_gone(capsys):
    code, out, _ = run(capsys, "expand", "--r", "3", "--n", "5", "--bruteforce-edge-cap", "5")
    assert code == 1
    assert out == ""


@pytest.mark.parametrize("command, value", [("gvector", "plain"), ("euler", "csv")])
def test_unread_format_flags_are_gone(capsys, command, value):
    code, out, _ = run(capsys, command, "--r", "3", "--n", "5", "--format", value)
    assert code == 1
    assert out == ""


def test_verify_takes_common_flags(capsys, tmp_path):
    target = tmp_path / "rows.jsonl"
    code, out, _ = run(
        capsys, "verify", "--sum-cap", "6", "--out", str(target),
        "--max-exponent", "1000", "--config-budget", "1000000",
    )
    assert code == 0
    assert out == ""
    rows = [json.loads(line) for line in target.read_text().splitlines()]
    assert [(row["r"], row["n"], row["status"]) for row in rows] == [(2, 4, "pass")]


@pytest.mark.parametrize("argv", [("--help",), ("expand", "--help")])
def test_help_exits_0_with_usage_on_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: rank2cluster ")
    assert err == ""


def test_bad_argument_exits_1_with_usage_and_one_error_line(capsys):
    # Arguments a subcommand leaves unparsed are reported by the top-level parser.
    code, out, err = run(capsys, "expand", "--r", "3", "--n", "5", "--bogus")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "usage: rank2cluster [-h] {expand,fpoly,gvector,euler,verify,path} ...",
        "rank2cluster: error: unrecognized arguments: --bogus",
    ]


def test_missing_arguments_exit_1(capsys):
    code, _, _ = run(capsys, "expand", "--r", "3")
    assert code == 1
    code, _, _ = run(capsys, "unknown-command")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--r", "3", "--n", "5", "--format", "latex"),
        ("euler", "--r", "3", "--n", "5"),
        ("path", "--r", "3", "--n", "5", "--overlay", "1,3"),
        ("fpoly", "--r", "3", "--n", "-2", "--format", "json"),
    ],
)
def test_byte_identical_reruns(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_verify_deterministic_modulo_millis(capsys):
    _, out1, _ = run(capsys, "verify", "--sum-cap", "8")
    _, out2, _ = run(capsys, "verify", "--sum-cap", "8")
    strip = lambda text: [
        {k: v for k, v in json.loads(line).items() if k != "millis"}
        for line in text.splitlines()
    ]
    assert strip(out1) == strip(out2)


# Argv fuzz.  Cells with r != 1 stay within r <= 6 and r + max(n, 3 - n) <= 10
# because the oracle has no cost cap at r >= 2; at r = 1 it walks at most five
# steps, so n may be huge.  ``--r-max`` may be huge since no cell lies past it.
# Each flag is left out, given a valid value, or given junk.
_JUNK = st.sampled_from(["", "x", "1.5", "-", "--", "0x10", "1,2,3", "nan"])


def _flag(name, values):
    valid = values.map(lambda v: [name, str(v)])
    return st.one_of(st.just([]), valid, valid, valid, _JUNK.map(lambda v: [name, v]))


@st.composite
def _cell(draw):
    r = draw(st.integers(-2, 6))
    n = draw(st.integers(-10**12, 10**12) if r == 1 else st.integers(r - 7, 10 - r))
    return ["--r", str(r), "--n", str(n)]


_FORMATS = st.sampled_from(["plain", "latex", "json"])
_BUDGET = _flag("--config-budget", st.sampled_from([-1, 0, 1, 1000, 10**8]))
_SUBCOMMANDS = {
    "expand": [_cell(), _flag("--engine", st.sampled_from(["formula", "oracle", "both"])),
               _flag("--format", _FORMATS), _BUDGET],
    "fpoly": [_cell(), _flag("--format", _FORMATS), _BUDGET],
    "gvector": [_cell()],
    "euler": [_cell(), _flag("--sign", st.sampled_from(["positive", "negative"])), _BUDGET],
    "verify": [_flag("--sum-cap", st.integers(-3, 10)),
               _flag("--r-max", st.one_of(st.integers(-2, 8), st.integers(0, 10**20))), _BUDGET],
    "path": [_cell(), st.lists(st.sampled_from(["--ascii", "--svg", "--tikz", "--json"]), max_size=2),
             _flag("--overlay", st.tuples(st.integers(-1, 9), st.integers(-1, 9)).map("{0[0]},{0[1]}".format))],
}
_COMMON = [
    _flag("--max-exponent", st.sampled_from([-1, 0, 1, 5, 1000, 10**6])),
    st.sampled_from([[], [], ["--out", "OK"], ["--out", "MISSING"], ["--bogus"]]),
]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    return [command] + [arg for part in _SUBCOMMANDS[command] + _COMMON for arg in draw(part)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_cli_argv_fuzz_keeps_the_error_contract(capsys, tmp_path, argv):
    targets = {"OK": str(tmp_path / "out.txt"), "MISSING": str(tmp_path / "missing" / "out.txt")}
    code, _, err = run(capsys, *(targets.get(arg, arg) for arg in argv))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code != 0 and not err.startswith("usage:"):
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)


def test_verify_catches_one_wrong_mirrored_value(capsys, monkeypatch):
    formula = cli.cluster.cluster_variable

    def wrong_at_2_minus_5(r, index, *args, **kwargs):
        var = formula(r, index, *args, **kwargs)
        if (r, index) == (2, -5):
            return dataclasses.replace(var, value=var.value + 1)
        return var

    monkeypatch.setattr(cli.cluster, "cluster_variable", wrong_at_2_minus_5)
    code, out, _ = run(capsys, "verify", "--sum-cap", "12", "--r-max", "2")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 3
    assert [(row["n"], row["status"]) for row in rows] == [
        (n, "fail" if n == 8 else "pass") for n in range(4, 11)
    ]
