"""The error contract of the CLI over problem files nobody chose.

Seeded mutations of the benchmark's noether and query-mix problem files run
through ``cli.main`` in process.  Each run must end in one of three ways: an
answer (exit 0), a parse error with a line and a column (exit 2), or a domain
error whose message names one of the preconditions in PRECONDITIONS (exit 1).
A traceback fails the test, and so does a run over CASE_SECONDS.
"""

from __future__ import annotations

import random
import re
import signal
from collections import Counter

import pytest

from noeth.cli import main
from support import load_workloads

# Every text a domain error may give, as a full match.
PRECONDITIONS = tuple(map(re.compile, (
    r"the problem file declares no ideal or module generators",
    r"variables after the separator require the parameter-coefficient construction",
    r"the parameter-coefficient construction handles ideals only",
    r"a block order comparing the x-variables first is required",
    r"infinite staircase: no pure power of \w+ in the leading terms",
    r"the staircase has more than \d+ monomials, the cap on listing it",
    r"the input is not primary at the center: .+",
    r"the input is not in normal position for the chosen variable split: .+",
)))
PARSE_ERROR = re.compile(r"parse error: .+ \(line \d+, column \d+\)\n")

COMMANDS = (
    ["gb"], ["mult"], ["corners"], ["noether"], ["noether", "--method", "backward"], ["noether-posdim"],
)
CASES = 1200
# Most cases end in milliseconds and the slowest in under 0.6 s on a 2-vCPU host; this bound catches a run without end.
CASE_SECONDS = 3
# Files the mutations do not find on their own, each run with every command.
FIXED = [
    # rank-1 ideal generators beside rank-2 components
    "ring x, y; order lex; ideal x, y^2; component [x, 1], [y, 0], [0, y] at 0, 0;\n",
]
_LEXEME = re.compile(r"[0-9]+|[^\W\d]\w*|\S")


def _clauses(text):
    return [clause + ";" for clause in text.split(";")[:-1]]


def _mutant(rng, text, pool):
    """text with a clause of another file inserted, a clause dropped, or a token
    replaced by one of another file's, deleted or repeated."""
    kind = rng.choice(["insert", "drop", "replace", "delete", "repeat"])
    if kind in ("insert", "drop"):
        clauses = _clauses(text)
        at = rng.randrange(len(clauses) + (kind == "insert"))
        if kind == "insert":
            clauses.insert(at, "\n" + rng.choice(_clauses(rng.choice(pool))).strip())
        else:
            del clauses[at]
        return "".join(clauses) + "\n"
    a, b = rng.choice([m.span() for m in _LEXEME.finditer(text)])
    if kind == "replace":
        return text[:a] + rng.choice(_LEXEME.findall(rng.choice(pool))) + text[b:]
    return text[:a] + text[b:] if kind == "delete" else text[:b] + " " + text[a:b] + text[b:]


class Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise Overrun


def _check(capsys, path, text, argv):
    """The exit code of argv on text, after checking that the outcome keeps the contract."""
    path.write_text(text, encoding="utf-8")
    signal.alarm(CASE_SECONDS)
    try:
        code = main([*argv, str(path)])
    except Overrun:
        pytest.fail(f"{argv} ran over {CASE_SECONDS} s on {text!r}")
    except Exception as exc:
        pytest.fail(f"{argv} on {text!r} raised {exc!r}")
    finally:
        signal.alarm(0)
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "", (argv, text, err)
    elif code == 2:
        assert out == "" and PARSE_ERROR.fullmatch(err), (argv, text, err)
    else:
        assert code == 1 and out == "" and err.startswith("error: "), (argv, text, code, err)
        assert any(p.fullmatch(err[len("error: "):-1]) for p in PRECONDITIONS), (argv, text, err)
    return code


def test_mutated_problem_files_keep_the_error_contract(capsys, tmp_path):
    workloads = load_workloads()
    pool = []
    for name in ("noether-forward", "query-mix"):
        pool += workloads.build(name, 401, str(tmp_path))[0].values()
    rng = random.Random(2601)
    path = tmp_path / "mutant.noeth"
    previous = signal.signal(signal.SIGALRM, _overrun)
    try:
        for text in FIXED:
            for argv in COMMANDS:
                assert _check(capsys, path, text, argv) == 2, (argv, text)
        outcomes = Counter(
            _check(capsys, path, _mutant(rng, rng.choice(pool), pool), rng.choice(COMMANDS)) for _ in range(CASES)
        )
    finally:
        signal.signal(signal.SIGALRM, previous)
    # all three outcomes are exercised
    assert min(outcomes[0], outcomes[1], outcomes[2]) >= 50, outcomes
