"""Command-line behavior: text output, JSON output, exit codes, determinism."""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

import noeth.cli
import noeth.noetherian
from noeth import (
    GroebnerBasis,
    NoethError,
    Polynomial,
    build_solution,
    buchberger,
    noetherian_backward,
    noetherian_forward,
    noetherian_linear,
    noetherian_positive,
    render_operator,
    render_solution,
)
from noeth.cli import build_arg_parser, main
from noeth.groebner import STAIRCASE_CAP
from noeth.problem import parse_problem
from support import (
    MODULE_EP,
    PARAMETER,
    RM2,
    RXY,
    RXYT,
    RXYZ,
    STANDARD,
    load_workloads,
    module_vector,
    random_combination,
    random_fraction,
    random_origin_primary,
)
from test_error_contract import COMMANDS, SMALL_TEXTS, case_bound, check, mutant


@pytest.fixture()
def standard(tmp_path):
    path = tmp_path / "standard.noeth"
    path.write_text(STANDARD)
    return str(path)


@pytest.fixture()
def parameter(tmp_path):
    path = tmp_path / "parameter.noeth"
    path.write_text(PARAMETER)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gb_text(capsys, standard):
    code, out, err = run(capsys, "gb", standard)
    assert code == 0
    assert out == "x^2 - y\nx y\ny^2\n"
    assert err == ""


def test_nf_text(capsys, standard):
    code, out, _ = run(capsys, "nf", "x^2 + x", standard)
    assert code == 0
    assert out == "x + y\n"


def test_mult_staircase_corners(capsys, standard):
    assert run(capsys, "mult", standard)[:2] == (0, "3\n")
    assert run(capsys, "staircase", standard)[:2] == (0, "1\nx\ny\n")
    assert run(capsys, "corners", standard)[:2] == (0, "x\ny\n")


def test_noether_methods_and_check_all(capsys, standard):
    expected = "1\ndx\n1/2 dx^2 + dy\n"
    assert run(capsys, "noether", standard)[:2] == (0, expected)
    for method in ("forward", "backward", "linear"):
        code, out, _ = run(capsys, "noether", "--method", method, standard)
        assert (code, out) == (0, expected)
    code, out, _ = run(capsys, "noether", "--check-all", standard)
    assert (code, out) == (0, expected)


def test_noether_json_shape(capsys, standard, tmp_path):
    product = tmp_path / "product.noeth"
    product.write_text(PARAMETER.replace("order lex", "order product(deglex, lex)"))
    code, out, _ = run(capsys, "noether-posdim", "--json", str(product))
    assert code == 0
    assert json.loads(out)["order"] == "product(deglex,lex)"
    code, out, _ = run(capsys, "noether", "--json", standard)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "noether"
    assert doc["order"] == "deglex"
    assert doc["method"] == "forward"
    assert doc["multiplicity"] == 3
    assert doc["center"] == ["0", "0"]
    assert doc["ring"] == {"names": ["x", "y"], "x_count": 2, "t_count": 0, "rank": 1}
    assert doc["operators"][2]["terms"] == [
        {"pos": 1, "alpha": [2, 0], "coeff": "1"},
        {"pos": 1, "alpha": [0, 1], "coeff": "1"},
    ]


def test_member_both_verdicts_exit_zero(capsys, standard):
    assert run(capsys, "member", "x^2 - y", standard)[:2] == (0, "true\n")
    assert run(capsys, "member", "x", standard)[:2] == (0, "false\n")


def test_noether_posdim_text(capsys, parameter):
    code, out, _ = run(capsys, "noether-posdim", parameter)
    assert (code, out) == (0, "1\ndx + t dy\n")


def test_member_with_parameters(capsys, parameter):
    assert run(capsys, "member", "x^2", parameter)[:2] == (0, "true\n")
    assert run(capsys, "member", "x*t - y", parameter)[:2] == (0, "true\n")
    assert run(capsys, "member", "y", parameter)[:2] == (0, "false\n")


def test_ep_solution_text(capsys, tmp_path):
    path = tmp_path / "system.noeth"
    path.write_text(MODULE_EP)
    code, out, _ = run(capsys, "ep-solution", str(path))
    assert code == 0
    assert out == (
        "f = C1 (1, 0)\n"
        "  + C2 (-x, 1)\n"
        "  + C3 (y + 1/2 x^2, -x)\n"
        "  + C4 (1, 0) e^(x)\n"
        "  + C5 (-x, 1) e^(x)\n"
    )
    code2, out2, _ = run(capsys, "ep-solution", "--json", str(path))
    assert code2 == 0
    doc = json.loads(out2)
    assert doc["module_order"] == "top"
    assert [s["constant"] for s in doc["summands"]] == ["C1", "C2", "C3", "C4", "C5"]


def test_ep_solution_posdim_integral(capsys, tmp_path):
    path = tmp_path / "flow.noeth"
    path.write_text("ring x, y | t;\norder lex;\ncomponent x^2, y^2, -x*t + y at 0, 0, 0;\n")
    code, out, _ = run(capsys, "ep-solution", str(path))
    assert code == 0
    assert out == (
        "f = Int[ 1 e^(t t_) dnu1(t_) ]\n"
        "  + Int[ (x + y t_) e^(t t_) dnu2(t_) ]\n"
    )


def test_ep_solution_with_two_parameters(capsys, tmp_path):
    path = tmp_path / "two.noeth"
    path.write_text("ring x, y | s, t;\norder lex;\ncomponent x^2, y - s*x - t*x at 0, 0, 1, -2;\n")
    code, out, _ = run(capsys, "ep-solution", str(path))
    assert code == 0
    assert out == (
        "f = Int[ 1 e^(s - 2 t + s s_ + t t_) dnu1(s_, t_) ]\n"
        "  + Int[ (x - y + y s_ + y t_) e^(s - 2 t + s s_ + t t_) dnu2(s_, t_) ]\n"
    )
    code, out, _ = run(capsys, "ep-solution", "--json", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["ring"] == {"names": ["x", "y", "s", "t"], "x_count": 2, "t_count": 2, "rank": 1}
    center = ["0", "0", "1", "-2"]
    assert doc["summands"] == [
        {"constant": "nu1", "component": 1, "center": center, "integral": True,
         "terms": [{"pos": 1, "alpha": [0, 0], "scalar": "1"}]},
        {"constant": "nu2", "component": 1, "center": center, "integral": True,
         "terms": [{"pos": 1, "alpha": [1, 0], "scalar": "1"}, {"pos": 1, "alpha": [0, 1], "scalar": "-1 + s + t"}]},
    ]


def test_missing_file_is_exit_one(capsys, tmp_path):
    code, out, err = run(capsys, "gb", str(tmp_path / "absent.noeth"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_parse_error_exit_two(capsys, tmp_path):
    path = tmp_path / "broken.noeth"
    path.write_text("ring x;\norder lex;\nideal x +")
    code, _, err = run(capsys, "gb", str(path))
    assert code == 2
    assert "parse error" in err
    code2, out2, _ = run(capsys, "gb", "--json", str(path))
    assert code2 == 2
    doc = json.loads(out2)
    assert doc["line"] == 3
    assert doc["column"] == 9
    assert "'+'" in doc["error"]


def test_domain_error_exit_one(capsys, tmp_path):
    path = tmp_path / "thin.noeth"
    path.write_text("ring x, y;\norder deglex;\nideal x*y;\n")
    code, _, err = run(capsys, "noether", str(path))
    assert code == 1
    assert err.startswith("error:")
    code2, out2, _ = run(capsys, "noether", "--json", str(path))
    assert code2 == 1
    assert "error" in json.loads(out2)


def test_noether_non_primary_input_is_exit_one(capsys, tmp_path):
    path = tmp_path / "two_points.noeth"
    path.write_text("ring x;\norder lex;\nideal x^2 - x;\n")
    code, out, err = run(capsys, "noether", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "not primary" in err
    code2, out2, _ = run(capsys, "noether", "--json", str(path))
    assert code2 == 1
    assert "not primary" in json.loads(out2)["error"]


@pytest.mark.parametrize(
    "text",
    ["ring x;\norder lex;\nideal x^2 - x;\n", "ring x, y;\norder deglex;\nideal x^2 - x, y;\n"],
)
def test_backward_non_primary_input_is_exit_one(capsys, tmp_path, text):
    path = tmp_path / "two_points.noeth"
    path.write_text(text)
    code, out, err = run(capsys, "noether", "--method", "backward", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: the input is not primary at the center")


def test_linear_non_primary_input_is_exit_one(capsys, tmp_path):
    path = tmp_path / "two_points.noeth"
    path.write_text("ring x, y;\norder deglex;\nideal x^2 - x, y;\n")
    code, out, err = run(capsys, "noether", "--method", "linear", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: the input is not primary at the center: ")


@pytest.mark.parametrize(
    "argv", [["--method", "forward"], ["--method", "backward"], ["--method", "linear"], ["--check-all"]]
)
def test_a_center_off_the_ideal_is_not_primary(capsys, tmp_path, argv):
    path = tmp_path / "off.noeth"
    path.write_text("ring x, y;\norder deglex;\nideal x^2, y^2, x*y;\ncenter 1/2, 0;\n")
    message = "the input is not primary at the center: the center is not a zero of the input"
    assert run(capsys, "noether", *argv, str(path)) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, "noether", *argv, "--json", str(path))
    assert (code, json.loads(out), err) == (1, {"error": message}, "")


@pytest.mark.parametrize("method", ["forward", "backward", "linear"])
def test_a_module_center_off_the_module_is_named(capsys, tmp_path, method):
    # The values at the origin span the free module, so the center is not a zero.
    path = tmp_path / "module.noeth"
    path.write_text("ring x, y;\norder deglex;\nmodule [x - 1, 0], [y, 0], [0, x - 1], [0, y];\n")
    message = "the input is not primary at the center: the center is not a zero of the input"
    assert run(capsys, "noether", "--method", method, str(path)) == (1, "", f"error: {message}\n")
    # A zero at the origin, but not primary there: each method names its own failure.
    path.write_text("ring x, y;\norder deglex;\nmodule [x - 1, 0], [y, 0], [0, x], [0, y];\n")
    code, out, err = run(capsys, "noether", "--method", method, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: the input is not primary at the center: ")
    assert "not a zero" not in err


NOT_IN_NORMAL_POSITION = "the input is not in normal position for the chosen variable split"


@pytest.mark.parametrize(
    "ideal, failed",
    [
        ("x^2, y^2, t^3 - 1", "t^3 - 1 lies in the parameter ring"),
        ("t*x^2, y^2, x*y", "no leading term is a power of x free of the parameters"),
        ("0", "no leading term is a power of x free of the parameters"),
    ],
)
def test_posdim_names_the_normal_position_precondition_that_failed(capsys, tmp_path, ideal, failed):
    path = tmp_path / "position.noeth"
    path.write_text(f"ring x, y | t;\norder lex;\nideal {ideal};\n")
    message = f"{NOT_IN_NORMAL_POSITION}: {failed}"
    assert run(capsys, "noether-posdim", str(path)) == (1, "", f"error: {message}\n")
    code, out, _ = run(capsys, "noether-posdim", str(path), "--json")
    assert (code, json.loads(out)) == (1, {"error": message})


@pytest.mark.parametrize("flags", [["--method", "forward"], ["--method", "backward"], ["--method", "linear"],
                                   ["--check-all"]])
def test_a_module_whose_first_row_mixes_positions(capsys, tmp_path, flags):
    # e1 = -x e2 in the quotient, so the row at e1 is (1, -dx), with no degree-0 form
    path = tmp_path / "mixed.noeth"
    path.write_text("ring x, y;\norder deglex;\nmodule [1, x], [0, y], [0, x^2];\n")
    assert run(capsys, "noether", *flags, str(path)) == (0, "(1, -dx)\n(0, 1)\n", "")


@pytest.mark.parametrize("ideal", ["x^2 - x*t", "x^2 - x", "x - 1"])
def test_posdim_non_primary_input_is_exit_one(capsys, tmp_path, ideal):
    path = tmp_path / "not_primary.noeth"
    path.write_text(f"ring x | t;\norder product(lex, lex);\nideal {ideal};\n")
    code, out, err = run(capsys, "noether-posdim", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: the input is not primary at the center: ")


CENTER_NOT_A_ZERO = (
    "error: the input is not primary at the center: "
    "the center is not a zero of the input for generic parameter values\n"
)


@pytest.mark.parametrize(
    "argv, body, out, err",
    [
        (
            ["ep-solution"],
            "component x^2 - y*(t-3), y^2 at 0, 0, 3;\n",
            "f = Int[ 1 e^(3 t + t t_) dnu1(t_) ]\n"
            "  + Int[ x e^(3 t + t t_) dnu2(t_) ]\n"
            "  + Int[ (y + 1/2 x^2 t_) e^(3 t + t t_) dnu3(t_) ]\n"
            "  + Int[ (x y + 1/6 x^3 t_) e^(3 t + t t_) dnu4(t_) ]\n",
            "",
        ),
        (
            ["ep-solution"],
            "component (x-1)^2, y at 1, 0, 0;\n",
            "f = Int[ 1 e^(x + t t_) dnu1(t_) ]\n  + Int[ x e^(x + t t_) dnu2(t_) ]\n",
            "",
        ),
        (["ep-solution"], "component x^2, y at 1, 0, 0;\n", "", CENTER_NOT_A_ZERO),
        (
            ["noether-posdim"],
            "ideal (x-1)^2 - y*t, y^2;\ncenter 1, 0, 0;\n",
            "1\ndx\n1/2 t dx^2 + dy\n1/6 t dx^3 + dx dy\n",
            "",
        ),
        (
            ["noether-posdim"],
            "ideal (x-1)^2 - y*(t-3), y^2;\ncenter 1, 0, 3;\n",
            "1\ndx\n(-3/2 + 1/2 t) dx^2 + dy\n(-1/2 + 1/6 t) dx^3 + dx dy\n",
            "",
        ),
        (["member", "(x-1)^2 - y*t"], "ideal (x-1)^2 - y*t, y^2;\ncenter 1, 0, 0;\n", "true\n", ""),
        (["member", "x^2 - y*t"], "ideal (x-1)^2 - y*t, y^2;\ncenter 1, 0, 0;\n", "false\n", ""),
        (["member", "(x-1)^2 - y*(t-3)"], "ideal (x-1)^2 - y*(t-3), y^2;\ncenter 1, 0, 3;\n", "true\n", ""),
        (["member", "(x-1)^2 - y*t"], "ideal (x-1)^2 - y*(t-3), y^2;\ncenter 1, 0, 3;\n", "false\n", ""),
        (["noether-posdim"], "ideal x^2 - y*t, y^2;\ncenter 1, 0, 0;\n", "", CENTER_NOT_A_ZERO),
        (
            ["noether-posdim"],
            "ideal 0;\n",
            "",
            f"error: {NOT_IN_NORMAL_POSITION}: no leading term is a power of x free of the parameters\n",
        ),
    ],
    ids=["ep-at-t", "ep-at-x", "ep-off-center", "posdim-at-x", "posdim-at-x-and-t", "member-in",
         "member-out", "member-in-at-t", "member-out-at-t", "posdim-off-center", "posdim-zero-ideal"],
)
def test_parameter_rings_honour_the_center(capsys, tmp_path, argv, body, out, err):
    path = tmp_path / "centered.noeth"
    path.write_text("ring x, y | t;\norder lex;\n" + body)
    assert run(capsys, *argv, str(path)) == (1 if err else 0, out, err)


@pytest.mark.parametrize("center", ["", "center 1, 1;\n"])
@pytest.mark.parametrize("command", ["noether-posdim", "member"])
def test_a_center_off_the_parameter_curve_is_named(capsys, tmp_path, command, center):
    # x - t vanishes along x = t, never at x = 0 or x = 1 for generic t
    path = tmp_path / "curve.noeth"
    path.write_text("ring x | t;\norder lex;\nideal x - t;\n" + center)
    argv = [command, "x - t", str(path)] if command == "member" else [command, str(path)]
    assert run(capsys, *argv) == (1, "", CENTER_NOT_A_ZERO)
    code, out, _ = run(capsys, *argv, "--json")
    assert (code, json.loads(out)) == (1, {"error": CENTER_NOT_A_ZERO[len("error: "):-1]})


def test_posdim_json_names_the_center(capsys, tmp_path):
    path = tmp_path / "centered.noeth"
    path.write_text("ring x, y | t;\norder lex;\nideal (x-1)^2 - y*(t-3), y^2;\ncenter 1, 0, 3;\n")
    code, out, _ = run(capsys, "noether-posdim", str(path), "--json")
    assert code == 0
    assert json.loads(out)["center"] == ["1", "0", "3"]


def test_check_all_at_a_shifted_center_counts_buchberger_runs(capsys, tmp_path, monkeypatch):
    # one basis of the generators moved to the center, shared by the three
    # constructions; no basis of the input where it is
    import noeth.cli
    import noeth.noetherian

    calls = []
    for module in (noeth.cli, noeth.noetherian):
        def counted(*args, _run=module.buchberger, **kwargs):
            calls.append(args)
            return _run(*args, **kwargs)

        monkeypatch.setattr(module, "buchberger", counted)
    path = tmp_path / "shifted.noeth"
    path.write_text("ring x, y;\norder deglex;\nideal (x-1)^2, y^2;\ncenter 1, 0;\n")
    for argv in (["--check-all"], ["--method", "linear"], ["--method", "linear", "--check-all"]):
        noeth.cli.load_problem.cache_clear()
        calls.clear()
        code, out, _ = run(capsys, "noether", *argv, str(path))
        assert (code, out) == (0, "1\ndx\ndy\ndx dy\n")
        assert len(calls) == 1
    # warm: the memo keeps the translate
    calls.clear()
    assert run(capsys, "noether", "--check-all", str(path))[:2] == (0, "1\ndx\ndy\ndx dy\n")
    assert calls == []


def test_noether_refuses_a_parameter_ring_before_any_buchberger_run(capsys, tmp_path, monkeypatch):
    # the refusal reads only the ring clause
    calls = []

    def counted(*args, _run=noeth.cli.buchberger, **kwargs):
        calls.append(args)
        return _run(*args, **kwargs)

    monkeypatch.setattr(noeth.cli, "buchberger", counted)
    path = tmp_path / "parameter.noeth"
    path.write_text("ring x, y | t; order lex; ideal x^2 - y*t, y^2; center 1, 0, 0;")
    message = "error: variables after the separator require the parameter-coefficient construction\n"
    for argv in (["--method", "forward"], ["--method", "backward"], ["--method", "linear"], ["--check-all"]):
        noeth.cli.load_problem.cache_clear()
        assert run(capsys, "noether", *argv, str(path)) == (1, "", message)
        assert calls == []


@pytest.mark.parametrize(
    "order, clause, generators, element, message",
    [
        ("deglex", "ideal", "x^2 - y*t, y^2", "x^2", "a block order comparing the x-variables first is required"),
        ("lex", "module", "[x, 1], [y, 0], [0, y]", "[x, 0]", "the parameter-coefficient construction handles ideals only"),
    ],
    ids=["order", "module"],
)
def test_posdim_preconditions_are_checked_before_any_buchberger_run(capsys, tmp_path, monkeypatch, order, clause,
                                                                     generators, element, message):
    # both refusals read only the ring and order clauses
    counts = _count_calls(monkeypatch, noeth.cli, "buchberger")
    path = tmp_path / "posdim.noeth"
    for body, argv in (
        (f"{clause} {generators}; center 1, 0, 0;", ["noether-posdim"]),
        (f"{clause} {generators};", ["member", element]),
        (f"component {generators} at 1, 0, 0;", ["ep-solution"]),
    ):
        path.write_text(f"ring x, y | t; order {order}; {body}\n")
        assert run(capsys, *argv, str(path)) == (1, "", f"error: {message}\n")
        assert counts == {}


def test_a_basis_that_lost_an_element_gives_no_answer(capsys, tmp_path, monkeypatch):
    # validate checks the input generators moved to the center, not the basis
    # buchberger returned, so no copy that drops one element of that basis
    # constructs an answer; each is refused, mostly for an infinite staircase
    files, _, _ = load_workloads().build("noether-forward", 401, str(tmp_path))
    sizes, dropped = [], [None]

    def dropping(*args, _run=noeth.cli.buchberger, **kwargs):
        G = _run(*args, **kwargs)
        sizes.append(len(G))
        i = dropped[0]
        return G if i is None else GroebnerBasis(G.ring, G.order, G.elements[:i] + G.elements[i + 1 :], G.reduced)

    monkeypatch.setattr(noeth.cli, "buchberger", dropping)
    refusals = Counter()
    for file_name, text in sorted(files.items()):
        path = tmp_path / file_name
        path.write_text(text)
        path = str(path)
        dropped[0] = None
        sizes.clear()
        noeth.cli.load_problem.cache_clear()
        assert run(capsys, "noether", path)[0] == 0
        for i in range(sizes[0]):
            dropped[0] = i
            noeth.cli.load_problem.cache_clear()
            code, out, err = run(capsys, "noether", path)
            assert (code, out) == (1, ""), (file_name, i, out)
            refusals["does not annihilate the input" in err] += 1
    assert sum(refusals.values()) == 741 and refusals[True] >= 80, refusals


def test_no_generators_error(capsys, tmp_path):
    path = tmp_path / "empty.noeth"
    path.write_text("ring x;\norder lex;\n")
    code, _, err = run(capsys, "gb", str(path))
    assert code == 1
    assert "no ideal or module generators" in err


def test_json_output_is_deterministic(capsys, standard, parameter):
    first = run(capsys, "noether", "--json", standard)
    second = run(capsys, "noether", "--json", standard)
    assert first == second
    third = run(capsys, "noether-posdim", "--json", parameter)
    fourth = run(capsys, "noether-posdim", "--json", parameter)
    assert third == fourth


def test_non_ascii_digit_is_a_parse_error(capsys, tmp_path, standard):
    path = tmp_path / "superscript.noeth"
    path.write_text("ring x, y;\norder lex;\nideal x^², y^2;\n")
    code, out, err = run(capsys, "gb", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: unexpected character")
    code2, out2, _ = run(capsys, "gb", "--json", str(path))
    assert code2 == 2
    doc = json.loads(out2)
    assert (doc["line"], doc["column"]) == (3, 9)
    code3, _, err3 = run(capsys, "nf", "x^²", standard)
    assert code3 == 2
    assert err3.startswith("parse error:")


def assert_parse_error(capsys, argv, message, line, column):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"parse error: {message} (line {line}, column {column})\n"
    code, out, _ = run(capsys, *argv[:-1], "--json", argv[-1])
    assert code == 2
    assert json.loads(out) == {"error": f"{message} (line {line}, column {column})", "line": line, "column": column}


@pytest.mark.parametrize(
    "clause, column",
    [
        ("center 1/0, 0;", 8),
        ("center 1/2, 0/0;", 13),
        ("ideal 1/0*x, y;", 7),
        ("ideal 3/0, y;", 7),
        ("component x^2 at 1/0;", 18),
    ],
)
def test_zero_denominator_is_a_parse_error(capsys, tmp_path, clause, column):
    path = tmp_path / "zero.noeth"
    path.write_text(f"ring x, y;\norder lex;\n{clause}\n")
    assert_parse_error(capsys, ["gb", str(path)], "zero denominator", 3, column)


def test_zero_denominator_in_an_nf_argument_is_a_parse_error(capsys, standard):
    assert_parse_error(capsys, ["nf", "1/0*x", standard], "zero denominator", 1, 1)


def test_a_vector_argument_must_have_one_entry_per_position(capsys, tmp_path, standard):
    # on an ideal, a one-entry vector is the polynomial itself
    for command in ("nf", "member"):
        assert run(capsys, command, "[x^2 + x]", standard) == run(capsys, command, "x^2 + x", standard)
        assert_parse_error(capsys, [command, "[x, y]", standard], "expected 1 entry, got 2", 1, 1)
        assert_parse_error(capsys, [command, "  [x, y]", standard], "expected 1 entry, got 2", 1, 3)
    path = tmp_path / "module.noeth"
    path.write_text("ring x, y;\norder lex;\nmodule [x, 1], [y, 0], [0, y];\n")
    assert run(capsys, "nf", "[x, y]", str(path)) == (0, "[0, -1]\n", "")
    for argument, got in (("[x]", 1), ("[x, y, 1]", 3)):
        assert_parse_error(capsys, ["nf", argument, str(path)], f"expected 2 entries, got {got}", 1, 1)


def test_duplicate_variable_name_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "twice.noeth"
    path.write_text("ring x, x;\norder lex;\nideal x;\n")
    assert_parse_error(capsys, ["gb", str(path)], "duplicate variable name 'x'", 1, 9)
    path.write_text("ring x, y | x;\norder lex;\nideal x;\n")
    assert_parse_error(capsys, ["gb", str(path)], "duplicate variable name 'x'", 1, 13)


@pytest.mark.parametrize(
    "text, keyword, line",
    [
        ("ring x;\nring y;\norder lex;\nideal x;\n", "ring", 2),
        ("ring x;\norder lex;\norder deglex;\nideal x^2;\n", "order", 3),
        ("ring x;\norder lex;\nmoduleorder top;\nmoduleorder pot;\nmodule [x, 1];\n", "moduleorder", 4),
        ("ring x;\norder lex;\nideal x^2;\nideal x^3;\n", "ideal", 4),
        ("ring x;\norder lex;\nmodule [x, 1];\nmodule [1, x];\n", "module", 4),
        ("ring x;\norder lex;\nideal x^2;\ncenter 0;\ncenter 1;\n", "center", 5),
    ],
)
def test_repeated_clause_is_a_parse_error(capsys, tmp_path, text, keyword, line):
    path = tmp_path / "repeated.noeth"
    path.write_text(text)
    assert_parse_error(capsys, ["gb", str(path)], f"repeated {keyword!r} clause", line, 1)


def test_ideal_and_module_clauses_exclude_each_other(capsys, tmp_path):
    path = tmp_path / "both.noeth"
    path.write_text("ring x, y;\norder lex;\nideal x^3, y;\nmodule [x, 1], [y, 0];\n")
    assert_parse_error(capsys, ["gb", str(path)], "a file gives either an 'ideal' or a 'module' clause", 4, 1)


@pytest.mark.parametrize("command", ["gb", "noether"])
def test_product_order_without_parameters_is_a_parse_error(capsys, tmp_path, command):
    path = tmp_path / "product.noeth"
    message = "product order needs a ring with a parameter block"
    path.write_text("ring x;\norder product(lex, lex);\nideal x;\n")
    assert_parse_error(capsys, [command, str(path)], message, 2, 7)
    # the order clause may come first
    path.write_text("order product(deglex, lex);\nring x, y;\nideal x, y;\n")
    assert_parse_error(capsys, [command, str(path)], message, 1, 7)


def test_component_clauses_may_repeat(capsys, tmp_path):
    path = tmp_path / "components.noeth"
    path.write_text(MODULE_EP)
    assert run(capsys, "ep-solution", str(path))[0] == 0


# Every command, top-level and subcommand help, and the usage errors.  {std},
# {par}, {ep} and {absent} name the problem files of the parity test.
PARITY_ARGVS = [
    ["gb", "{std}"],
    ["nf", "x^2 + x", "{std}"],
    ["mult", "{std}"],
    ["staircase", "{std}"],
    ["corners", "{std}"],
    ["noether", "{std}"],
    ["noether-posdim", "{par}"],
    ["member", "x^2 - y", "{std}"],
    ["ep-solution", "{ep}"],
    [],
    ["-h"],
    ["--help"],
    ["gb", "-h"],
    ["noether", "-h"],
    ["member", "--help"],
    ["bogus", "{std}"],
    ["gb", "{absent}"],
    ["gb"],
    ["nf", "{std}"],
    ["gb", "{std}", "extra"],
    ["gb", "--method", "backward", "{std}"],
    ["noether", "--method", "sideways", "{std}"],
    ["noether", "--method=backward", "{std}"],
    ["noether", "--meth", "backward", "{std}"],
    ["noether", "--check", "{std}"],
    ["noether", "--method", "linear", "--check-all", "--json", "{std}"],
    ["gb", "--json", "--json", "{std}"],
    ["gb", "--", "{std}"],
    ["--json", "gb", "{std}"],
    ["gb", "{std}", "--json"],
    ["corners", "-hx"],
    ["mult", "--bogus", "{std}"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _recording(parse, namespaces):
    def parse_and_record(argv):
        namespaces.append(parse(argv))
        return namespaces[-1]

    return parse_and_record


@pytest.mark.parametrize("template", PARITY_ARGVS, ids=" ".join)
def test_one_command_parser_matches_the_full_tree(capsys, monkeypatch, tmp_path, template):
    monkeypatch.setenv("COLUMNS", "80")
    files = {"std": STANDARD, "par": PARAMETER, "ep": MODULE_EP}
    paths = {name: tmp_path / f"{name}.noeth" for name in files}
    for name, text in files.items():
        paths[name].write_text(text)
    paths["absent"] = tmp_path / "absent.noeth"
    argv = [arg.format(**paths) for arg in template]

    results = []
    for parse in (noeth.cli.parse_args, lambda args: build_arg_parser().parse_args(args)):
        namespaces = []
        monkeypatch.setattr(noeth.cli, "parse_args", _recording(parse, namespaces))
        results.append((_outcome(capsys, list(argv)), namespaces))
    (fast, fast_ns), (full, full_ns) = results
    assert fast == full
    assert fast_ns == full_ns


@pytest.mark.parametrize(
    "argv", [["gb", "{std}"], ["noether", "--method", "backward", "{std}"]]
)
def test_a_run_builds_one_argument_parser(capsys, monkeypatch, standard, argv):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = [arg.format(std=standard) for arg in argv]
    cold = run(capsys, *argv)
    assert cold[0] == 0
    assert built == [f"noeth {argv[0]}"]
    assert run(capsys, *argv) == cold
    assert built == [f"noeth {argv[0]}"]


def test_help_wraps_at_the_current_columns(capsys, monkeypatch):
    # the parser is kept, but help reads COLUMNS each time it is formatted
    helps = []
    for columns in ("80", "40", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = _outcome(capsys, ["noether", "--help"])
        assert code == ("SystemExit", 0)
        assert out == noeth.cli._command_parser.__wrapped__("noether").format_help()
        helps.append(out)
    assert helps[0] == helps[2] != helps[1]
    assert noeth.cli._command_parser.cache_info().currsize == 1


def test_a_rejected_argv_leaves_the_parser_usable(capsys, standard):
    code, out, err = _outcome(capsys, ["noether", "--method", "bogus", standard])
    assert (code, out) == (("SystemExit", 2), "")
    assert "invalid choice: 'bogus'" in err
    expected = (0, "1\ndx\n1/2 dx^2 + dy\n", "")
    assert run(capsys, "noether", standard) == expected
    assert run(capsys, "noether", "--method", "backward", standard) == expected


@pytest.mark.parametrize(
    "command, ideal",
    [("mult", "x^3000000"), ("noether", "x^99999999999999999999")],
)
def test_a_staircase_past_the_cap_is_exit_one(capsys, tmp_path, command, ideal):
    # both used to walk the staircase without practical end
    path = tmp_path / "tall.noeth"
    path.write_text(f"ring x;\norder lex;\nideal {ideal};\n")
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    # the walk stops at the cap: about 0.2 s on a 2-vCPU host
    assert time.perf_counter() - start < 10.0
    assert (code, out) == (1, "")
    assert err == f"error: the staircase has more than {STAIRCASE_CAP} monomials, the cap on listing it\n"


def _count_calls(monkeypatch, module, *names):
    """Wrap module.<name> for each name; the returned Counter counts their calls."""
    counts = Counter()
    for name in names:
        def counted(*args, _run=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_a_warm_repeat_parses_and_runs_buchberger_zero_times(capsys, monkeypatch, standard):
    counts = _count_calls(monkeypatch, noeth.cli, "parse_problem", "buchberger")
    argvs = [["gb", standard], ["nf", "x^2 + x", standard], ["member", "x^2 - y", standard, "--json"]]
    cold = [run(capsys, *argv) for argv in argvs]
    assert counts == {"parse_problem": 1, "buchberger": 1}
    assert [run(capsys, *argv) for argv in argvs] == cold
    assert counts == {"parse_problem": 1, "buchberger": 1}
    assert [outcome[:2] for outcome in cold[:2]] == [(0, "x^2 - y\nx y\ny^2\n"), (0, "x + y\n")]
    assert json.loads(cold[2][1])["member"] is True


def test_gb_then_noether_at_the_origin_runs_buchberger_once(capsys, monkeypatch, standard):
    # at the origin the translate the constructions run on is the basis gb prints
    counts = _count_calls(monkeypatch, noeth.cli, "buchberger")
    assert run(capsys, "gb", standard)[:2] == (0, "x^2 - y\nx y\ny^2\n")
    for argv in (["noether"], ["noether", "--check-all"], ["noether-posdim"], ["mult"]):
        assert run(capsys, *argv, standard)[0] == 0
    assert counts == {"buchberger": 1}


EP_COMPONENTS = (
    "ring x, y | t;\norder lex;\n"
    "component x^2 - y*(t-3), y^2 at 0, 0, 3;\n"
    "component (x-1)^2, y at 1, 0, 0;\n"
    "component (x+1/2)^2 - y*t, y^2 at -1/2, 0, 0;\n"
)


@pytest.mark.parametrize("text, components", [(MODULE_EP, 2), (EP_COMPONENTS, 3)], ids=["module", "parameters"])
def test_ep_solution_runs_buchberger_once_per_component(capsys, monkeypatch, tmp_path, text, components):
    counts = _count_calls(monkeypatch, noeth.cli, "buchberger")
    library = _count_calls(monkeypatch, noeth.noetherian, "buchberger")
    path = tmp_path / "components.noeth"
    path.write_text(text)
    assert run(capsys, "ep-solution", str(path))[0] == 0
    assert (counts, library) == ({"buchberger": components}, {})
    # warm: the memo keeps each component's translate
    assert run(capsys, "ep-solution", "--json", str(path))[0] == 0
    assert (counts, library) == ({"buchberger": components}, {})


def test_a_parameter_member_reuses_the_posdim_basis(capsys, monkeypatch, parameter):
    counts = _count_calls(monkeypatch, noeth.cli, "noetherian_positive")
    assert run(capsys, "noether-posdim", parameter)[0] == 0
    assert run(capsys, "member", "x^2", parameter)[:2] == (0, "true\n")
    assert run(capsys, "member", "x^2 + t", parameter)[:2] == (0, "false\n")
    assert counts == {"noetherian_positive": 1}


def test_a_rewritten_file_gives_the_new_answer(capsys, tmp_path):
    path = tmp_path / "rewritten.noeth"
    path.write_text("ring x;\norder lex;\nideal x^2;\n")
    assert run(capsys, "mult", str(path))[:2] == (0, "2\n")
    path.write_text("ring x;\norder lex;\nideal x^5;\n")
    assert run(capsys, "mult", str(path))[:2] == (0, "5\n")


def test_the_memo_forgets_past_its_size(capsys, monkeypatch, tmp_path):
    counts = _count_calls(monkeypatch, noeth.cli, "parse_problem")
    path = tmp_path / "many.noeth"
    for k in range(1, noeth.cli.MEMO_SIZE + 2):
        path.write_text(f"ring x;\norder lex;\nideal x^{k};\n")
        assert run(capsys, "mult", str(path))[:2] == (0, f"{k}\n")
    assert counts["parse_problem"] == noeth.cli.MEMO_SIZE + 1
    path.write_text("ring x;\norder lex;\nideal x^1;\n")
    assert run(capsys, "mult", str(path))[:2] == (0, "1\n")
    assert counts["parse_problem"] == noeth.cli.MEMO_SIZE + 2


def test_errors_are_reported_on_every_repeat(capsys, tmp_path, parameter):
    path = tmp_path / "broken.noeth"
    path.write_text("ring x, y;\norder lex;\nideal x^, y;\n")
    empty = tmp_path / "empty.noeth"
    empty.write_text("ring x;\norder lex;\n")
    shifted = tmp_path / "shifted.noeth"
    shifted.write_text(PARAMETER + "center 1, 0, 0;\n")
    for _ in range(3):
        assert run(capsys, "gb", str(path)) == (2, "", "parse error: expected an integer exponent (line 3, column 9)\n")
        assert run(capsys, "gb", str(empty)) == (
            1, "", "error: the problem file declares no ideal or module generators\n"
        )
        code, out, err = run(capsys, "member", "x^2", str(shifted))
        assert (code, out) == (1, "")
        assert err.startswith("error: the input is not primary at the center")


def test_a_problem_spec_is_frozen():
    spec = parse_problem(STANDARD)
    generators = spec.generators
    with pytest.raises(AttributeError):
        spec.generators = ()
    assert spec.generators is generators
    component = parse_problem(MODULE_EP).components[0]
    center = component.center
    with pytest.raises(AttributeError):
        component.center = (0, 0)
    assert component.center is center


# The error contract's seeded mutations, drawn from one small text at a time
# and run with every command: each mutant must keep the contract that
# test_error_contract checks, an answer, a parse error or a named precondition.
MUTANTS_PER_TEXT = 200


@pytest.mark.parametrize("index", range(len(SMALL_TEXTS)))
def test_mutated_problem_files_exit_cleanly(capsys, tmp_path, index):
    rng = random.Random(f"mutants-{index}")
    path = tmp_path / "mutant.noeth"
    with case_bound():
        outcomes = Counter(
            check(capsys, path, mutant(rng, SMALL_TEXTS[index], SMALL_TEXTS), rng.choice(COMMANDS))
            for _ in range(MUTANTS_PER_TEXT)
        )
    assert min(outcomes[0], outcomes[1], outcomes[2]) > 0, outcomes


# A seeded oracle of the CLI's route to operators at a center (one basis of the
# generators moved there, the construction run at the origin and its result
# placed at the center) against the library's, f(buchberger(gens), center).


def _entry_text(f, pos):
    terms = sorted(((exp, c) for (p, exp), c in f.terms.items() if p == pos), reverse=True)
    names = f.ring.names
    return " + ".join(f"{c}" + "".join(f"*{n}^{e}" for n, e in zip(names, exp) if e) for exp, c in terms) or "0"


def _generator_text(f):
    """f in problem-file syntax: a polynomial, or a bracketed vector at rank > 1."""
    if f.ring.rank == 1:
        return _entry_text(f, 1)
    return "[" + ", ".join(_entry_text(f, pos) for pos in range(1, f.ring.rank + 1)) + "]"


def _ring_text(ring, order, precedence=None):
    names = ", ".join(ring.x_names) + (" | " + ", ".join(ring.t_names) if ring.t_count else "")
    return f"ring {names};\norder {order};\n" + (f"moduleorder {precedence};\n" if precedence else "")


def _point_text(point):
    return ", ".join(str(c) for c in point)


def _moved_to(gens, center):
    """gens moved so that what they did at the origin they do at center."""
    return [g.substitute_affine([-c for c in center]) for g in gens]


def _oracle_cases(rng):
    """(file text, commands) pairs: shifted ideals and modules, non-primary inputs and
    centers off the input, each on plain and parameter rings."""
    def point(n):
        return tuple(rng.choice([Fraction(0), random_fraction(rng, 3)]) for _ in range(n))

    noether = [["noether"], ["noether", "--method", "backward"], ["noether", "--method", "linear"],
               ["noether", "--check-all"], ["noether-posdim"]]
    cases = []
    for ring in (RXY, RXY, RXYZ):
        gens = random_origin_primary(rng, ring, 10)
        gens.append(random_combination(rng, gens))
        center = point(ring.nvars)
        moved = _moved_to(gens, center)
        head = _ring_text(ring, rng.choice(["lex", "deglex", "degrevlex"]))
        ideal = "ideal " + ", ".join(map(_generator_text, moved)) + ";\n"
        cases.append((head + ideal + f"center {_point_text(center)};\n", noether))
        # a center that is not a zero, and a non-primary input: the ideal times
        # the maximal ideal of a second point
        off = tuple(c + 1 for c in center)
        cases.append((head + ideal + f"center {_point_text(off)};\n", noether))
        xs = [Polynomial.variable(ring, i) for i in range(ring.nvars)]
        other = [x - c for x, c in zip(xs, off)]
        product = ", ".join(_generator_text(g * h) for g in moved[:2] for h in other)
        cases.append((head + f"ideal {product};\ncenter {_point_text(center)};\n", noether))
        components = "".join(
            f"component {', '.join(map(_generator_text, _moved_to(gens, c)))} at {_point_text(c)};\n"
            for c in (center, off, point(ring.nvars))
        )
        cases.append((head + components, [["ep-solution"]]))
    # rank 2: I1 e1 and (h g, g) for g in I2, primary when I1 and I2 are
    for precedence in ("top", "pot"):
        first, second = (random_origin_primary(rng, RXY, 6) for _ in range(2))
        h = Polynomial.variable(RXY, rng.randrange(2)).scale(random_fraction(rng, 3) or 1)
        gens = [module_vector(g, 0) for g in first] + [module_vector(h * g, g) for g in second]
        center = point(2)
        head = _ring_text(RM2, rng.choice(["lex", "deglex"]), precedence)
        module = "module " + ", ".join(map(_generator_text, _moved_to(gens, center))) + ";\n"
        for c in (center, tuple(c - 1 for c in center)):
            cases.append((head + module + f"center {_point_text(c)};\n", noether))
        components = "".join(
            f"component {', '.join(map(_generator_text, _moved_to(gens, c)))} at {_point_text(c)};\n"
            for c in (center, (Fraction(0), Fraction(0)))
        )
        cases.append((head + components, [["ep-solution"]]))
    # parameters: x^2 - a y t and y^2, primary along x = y = 0, with one more
    # element of (x^2, y^2), which may break the primary or normal position
    for _ in range(3):
        x, y, t = (Polynomial.variable(RXYT, i) for i in range(3))
        gens = [x**2 - y * t.scale(random_fraction(rng, 3) or 1), y**2, random_combination(rng, [x**2, y**2])]
        center = point(2) + (random_fraction(rng, 3),)
        moved = [g.substitute_affine([-center[0], -center[1], 0]) for g in gens]
        head = _ring_text(RXYT, rng.choice(["lex", "product(lex, deglex)"]))
        ideal = "ideal " + ", ".join(map(_generator_text, moved)) + ";\n"
        for c in (center, (center[0] + 1,) + center[1:]):
            cases.append((head + ideal + f"center {_point_text(c)};\n", [["noether-posdim"], ["noether"]]))
        components = f"component {', '.join(map(_generator_text, moved))} at {_point_text(center)};\n"
        cases.append((head + components + components.replace(_point_text(center), _point_text(point(3))),
                      [["ep-solution"]]))
    return cases


def _library_outcome(text, argv):
    """(exit code, stdout, stderr) of argv on text through the library route."""
    spec = parse_problem(text)
    order = spec.effective_order
    methods = {"forward": noetherian_forward, "backward": noetherian_backward, "linear": noetherian_linear}
    try:
        if argv[0] == "ep-solution":
            build = noetherian_positive if spec.ring.t_count else noetherian_forward
            parts = [(c.center, build(buchberger(c.generators, order, spec.ring), c.center)) for c in spec.components]
            return 0, render_solution(build_solution(spec.ring, parts)) + "\n", ""
        G = buchberger(spec.generators, order, spec.ring)
        if argv[0] == "noether-posdim":
            basis = noetherian_positive(G, spec.center)
        else:
            method = argv[2] if "--method" in argv else "forward"
            basis = methods[method](G, spec.center)
            if "--check-all" in argv:
                for name, build in methods.items():
                    if build(G, spec.center).operators != basis.operators:
                        raise NoethError(f"method disagreement: {method} and {name} spans differ")
        return 0, "".join(render_operator(L, order) + "\n" for L in basis.operators), ""
    except NoethError as exc:
        return 1, "", f"error: {exc}\n"


def test_the_cli_route_matches_the_library_route(capsys, tmp_path):
    rng = random.Random(2401)
    path = tmp_path / "oracle.noeth"
    outcomes = Counter()
    for text, commands in _oracle_cases(rng):
        path.write_text(text)
        for argv in commands:
            expected = _library_outcome(text, argv)
            assert run(capsys, *argv, str(path)) == expected, (argv, text)
            outcomes[expected[0]] += 1
            if expected[0] == 0 and argv[0] != "ep-solution":
                # the JSON document names the center the operators are placed at
                code, out, _ = run(capsys, *argv, str(path), "--json")
                center = parse_problem(text).center
                assert (code, json.loads(out)["center"]) == (0, [str(c) for c in center])
    # both outcomes are exercised, answers and named errors
    assert outcomes[0] >= 30 and outcomes[1] >= 30, outcomes


# SHA-256 of every CLI outcome on the seed-7 benchmark corpus (see
# test_corpus_output_is_byte_identical).  It changes only with an intended
# change to some output text or JSON.
CORPUS_DIGEST = "9a1746dc2107d1df44ed7e0c69765643ab0468ca70a3eded4b15c4aa9c83927f"


def corpus_calls(workdir):
    """(files, argvs) of the seed-7 corpus.

    The argvs are the calls of the three benchmark workloads, then linear and
    --check-all --json on every noether problem.
    """
    workloads = load_workloads()
    files, argvs = {}, []
    for name in workloads.WORKLOADS:
        workload_files, calls, _ = workloads.build(name, 7, workdir)
        files.update(workload_files)
        argvs += [call["argv"] for call in calls]
        if name == "noether-forward":
            for file_name in workload_files:
                path = f"{workdir}/{file_name}"
                argvs += [["noether", "--method", "linear", path], ["noether", "--check-all", path, "--json"]]
    return files, argvs


def test_corpus_output_is_byte_identical(capsys, tmp_path):
    workdir = str(tmp_path)
    files, argvs = corpus_calls(workdir)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    digest = hashlib.sha256()
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        record = [argv, code, captured.out, captured.err]
        digest.update(json.dumps(record).replace(workdir, "<dir>").encode() + b"\n")
    assert len(argvs) == 1584
    assert digest.hexdigest() == CORPUS_DIGEST


def test_console_script(tmp_path):
    path = tmp_path / "standard.noeth"
    path.write_text(STANDARD)
    proc = subprocess.run(
        [sys.executable, "-m", "noeth", "noether", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\ndx\n1/2 dx^2 + dy\n"
    script = subprocess.run(
        ["noeth", "mult", str(path)], capture_output=True, text=True
    )
    assert script.returncode == 0
    assert script.stdout == "3\n"
