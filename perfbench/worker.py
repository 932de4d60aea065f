"""One pass of a workload: every CLI call in order, in one fresh process.

    python3 perfbench/worker.py CALLS.json RESULT.json [--trace SPANS.jsonl.gz]

Closed loop with one client: each ``noeth.cli.main(argv)`` call starts when
the previous one has returned.  Each call is timed from argv to return with
stdout and stderr captured.  A fresh process per pass keeps anything the
program might cache in-process from leaking from one pass into the next.

Between calls, outside their timed region, a fixed stdlib-only loop of
Fraction arithmetic (the same kind of work the program does) is timed.  Its
time around a call measures how fast the host ran just then; ``run.py`` uses
it to correct each call for host contention.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter


def reference_seconds():
    """Time of a fixed loop of Fraction sums, independent of the program."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    return perf_counter() - t0


def peak_rss_kb():
    """High-water resident set of this process.

    ru_maxrss is not used: on Linux it survives exec, so a worker would report
    the parent's resident set whenever that was larger.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_calls(calls, tracer=None):
    from noeth.cli import main  # imported before timing: set-up is measured apart

    results = []
    t_pass = perf_counter()
    before = reference_seconds()
    for i, call in enumerate(calls):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.current_call = i
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(call["argv"])
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed call, not a failed run
            code = "crash"
            err.write(traceback.format_exc())
        t = perf_counter() - t0
        after = reference_seconds()
        results.append({"t": t, "ref": (before + after) / 2, "code": code, "out": out.getvalue(), "err": err.getvalue()})
        before = after
    wall = perf_counter() - t_pass
    return results, wall


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("calls")
    parser.add_argument("result")
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    args = parser.parse_args(argv)
    calls = json.loads(Path(args.calls).read_text())
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results, wall = run_calls(calls, tracer)
    doc = {
        "wall": wall,
        "peak_rss_kb": peak_rss_kb(),
        "results": results,
    }
    if tracer is not None:
        doc["layers"] = tracer.metrics(wall)
        tracer.dump(args.trace)
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
