"""Self-tests of the benchmark (not of the program).

    python3 -m pytest -q perfbench/selftest.py

They run in a few seconds on the quick problem lists.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    first = workloads.build(workload, 3, "w")
    again = workloads.build(workload, 3, "w")
    other = workloads.build(workload, 4, "w")
    assert first[0] == again[0] and first[1] == again[1]
    assert first[0] != other[0]


def test_noether_workloads_share_problems():
    fwd = workloads.build("noether-forward", 5, "w")[0]
    bwd = workloads.build("noether-backward", 5, "w")[0]
    assert fwd == bwd


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_quick_run_reports_every_metric(workload, trace):
    doc = bench(workload, 2, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]


def test_forward_and_backward_print_the_same_operators():
    bench("noether-forward", 2, 0)
    bench("noether-backward", 2, 0)
    digests = ROOT / ".perfbench_work" / "digests"
    fwd = (digests / "noether-forward-2-quick.operators.txt").read_text()
    bwd = (digests / "noether-backward-2-quick.operators.txt").read_text()
    assert fwd == bwd


def test_operator_check_rejects_a_wrong_basis():
    # (x^2, y) at the origin: operators 1 and dx
    problem = {"mu": 2, "nvars": 2, "at_origin": [[{(2, 0): Fraction(1)}], [{(0, 1): Fraction(1)}]]}
    good = [{(1, (0, 0)): Fraction(1)}, {(1, (1, 0)): Fraction(1)}]
    verify.check_operators(good, problem)
    for bad in (
        [{(1, (0, 0)): Fraction(1)}, {(1, (0, 1)): Fraction(1)}],  # dy kills no y
        [{(1, (0, 0)): Fraction(1)}, {(1, (0, 0)): Fraction(2)}],  # dependent
        [{(1, (0, 0)): Fraction(1)}],  # too few
    ):
        with pytest.raises(verify.CheckError):
            verify.check_operators(bad, problem)
    with pytest.raises(verify.CheckError):  # closed span needs 1 below dx^2
        verify.check_operators([{(1, (2, 0)): Fraction(1)}, {(1, (1, 0)): Fraction(1)}],
                               {**problem, "at_origin": [[{(3, 0): Fraction(1)}], [{(0, 1): Fraction(1)}]]})


def test_text_and_json_operators_parse_alike():
    text = verify.parse_operators_text(["1/2 dx^2 + dy", "-3 dx dy"], 2, 1)
    as_json = verify.parse_operators_json([
        {"terms": [{"pos": 1, "alpha": [2, 0], "coeff": "1"}, {"pos": 1, "alpha": [0, 1], "coeff": "1"}]},
        {"terms": [{"pos": 1, "alpha": [1, 1], "coeff": "-3"}]},
    ])
    assert text == as_json


def test_groebner_checks_use_the_printed_basis():
    session = {"nvars": 2, "order": "deglex", "mu": 3, "kind": "ideal",
               "gens": [{(2, 0): Fraction(1), (0, 1): Fraction(-1)}, {(0, 2): Fraction(1)}, {(1, 1): Fraction(1)}],
               "queries": [{"cmd": "gb", "json": False}, {"cmd": "nf", "json": False, "poly": {(2, 0): Fraction(1), (1, 0): Fraction(1)}},
                           {"cmd": "member", "json": False, "constructed": False, "poly": {(1, 0): Fraction(1)}}]}
    state = verify.SessionState()
    verify.check_query({"query": 0}, "x^2 - y\nx y\ny^2\n", session, state)
    verify.check_query({"query": 1}, "x + y\n", session, state)
    verify.check_query({"query": 2}, "false\n", session, state)
    for query, out in ((1, "x^2\n"), (1, "x\n"), (2, "true\n")):
        with pytest.raises(verify.CheckError):
            verify.check_query({"query": query}, out, session, state)
    with pytest.raises(verify.CheckError):  # x^2 - y alone leaves y^2 unreduced
        verify.check_query({"query": 0}, "x^2 - y\n", session, verify.SessionState())
