"""Benchmark of the noeth command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``workloads.py`` for how inputs are built):

* ``noether-forward``: ``noeth noether FILE`` (the forward construction) on a
  seeded list of primary ideals and rank-2 modules.  The forward pass reads
  one normal form per monomial below the multiplicity, so the groebner
  normal-form layer carries it.
* ``noether-backward``: the same problem list with ``--method backward``;
  lowering closure and row reduction (diffop, linalg) carry it, normal forms
  hardly matter.  Operator text must equal the forward text byte for byte.
* ``query-mix``: per problem file a session of ``gb``, ``nf`` and ``member``
  calls, plus ``noether-posdim`` and ``ep-solution`` sessions.  Most calls
  recompute a Groebner basis an earlier call of the same session already
  computed; the constructions are bypassed.

Neither workload runs ``noether --method linear`` or ``--check-all``: that
path is left unmeasured.  It also fails on input the other two constructions
solve: ``ring x, y; order deglex; ideal (x-2*y)^5, y^6, (x-2*y)*y^3,
(x-2*y)^2;`` makes ``noeth noether --method linear`` exit 1 with ``error: no
new operator at span size 8 (multiplicity 9)``, while forward and backward
both print 9 operators.

Load model: one process, one client thread, closed loop.  With ``--trace 0``
passes over the call list run in fresh worker processes until the next pass
would overrun ``--seconds`` (at least one pass).  Every call is corrected for
host contention: on a shared host the speed swings by up to 2x for seconds
at a time, so the worker times a fixed Fraction loop between calls, and each
call's time is scaled by REF_SECONDS over the loop's time around the call,
that is, to the wall time it takes when the loop runs at its uncontended
speed.  The per-call figure is the median of its corrected times over
passes; calls_per_s, call_s.p50 and call_s.p90 come from those figures, and
the uncorrected ones are printed alongside.  setup_s is corrected the same
way.  With ``--trace 1`` one
untraced and one traced pass run, each in its own process, and the per-layer
metrics are printed.  Outputs are checked after the timed passes.  The last
line of stdout is one JSON object.  The code is single-threaded, so no
wait-time metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 11
# Time of the worker's reference loop on an uncontended vCPU of the host the
# benchmark was tuned on (2 vCPUs, Python 3.11.7).  Corrected call times are
# wall times rescaled to the speed at which the loop takes this long.
REF_SECONDS = 0.0012

END_TO_END_UNITS = {
    "calls_per_s": "1/s",
    "call_s.p50": "s",
    "call_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith(("_calls", "_cells")) or name == "cli.calls":
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def program_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(deadline):
    """Median time a fresh interpreter takes to import noeth.cli.

    Each import is corrected for host contention like the calls, with the
    reference loop timed twice right after it.
    """
    code = (
        "import time; t = time.perf_counter(); import noeth.cli; t = time.perf_counter() - t; "
        "from worker import reference_seconds as r; print(t, (r() + r()) / 2)"
    )
    env = program_env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import noeth.cli: {proc.stderr.strip()[-300:]}")
        if i:  # the first import writes the bytecode cache
            t, ref = map(float, proc.stdout.split())
            samples.append(t * REF_SECONDS / ref)
    return statistics.median(samples)


def run_pass(work, tag, deadline, trace=False):
    result = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(work / "calls.json"), str(result)]
    if trace:
        cmd += ["--trace", str(work / f"{tag}-spans.jsonl.gz")]
    proc = subprocess.run(
        cmd, env=program_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.strip()[-500:]}")
    return json.loads(result.read_text())


def output_digest(calls, results, workdir):
    """sha256 over every call's argv, exit code and stdout, paths made relative."""
    h = hashlib.sha256()
    for call, res in zip(calls, results):
        argv = [a.replace(workdir, "$W") for a in call["argv"]]
        h.update(json.dumps([argv, res["code"], res["out"]]).encode())
    return h.hexdigest()


def count_failures(workload, calls, passes, problems):
    """Failed calls over all passes: the first pass is checked, later passes must repeat it."""
    first = passes[0]["results"]
    bad, reasons = verify.check_pass(workload, calls, first, problems)
    bad = set(bad)
    failed = len(bad)
    for later in passes[1:]:
        for i, (a, b) in enumerate(zip(first, later["results"])):
            if (a["code"], a["out"]) != (b["code"], b["out"]):
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{' '.join(calls[i]['argv'])}: output differs between passes")
            elif i in bad:
                failed += 1
    return failed, reasons


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="a few problems only (self-tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "noeth" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'noeth'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    workdir = work.relative_to(ROOT).as_posix()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files, calls, problems = workloads.build(args.workload, args.seed, workdir, quick=args.quick)
    for name, text in files.items():
        (work / name).write_text(text)
    (work / "calls.json").write_text(json.dumps([{"argv": c["argv"]} for c in calls]))

    try:
        setup_s = measure_setup(deadline)
        if args.trace:
            passes = [run_pass(work, "untraced", deadline), run_pass(work, "traced", deadline, trace=True)]
        else:
            passes, spent = [], 0.0
            while True:
                passes.append(run_pass(work, f"pass{len(passes)}", deadline))
                spent += passes[-1]["wall"]
                if spent + spent / len(passes) > args.seconds:
                    break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed, reasons = count_failures(args.workload, calls, passes, problems)
    attempted = len(calls) * len(passes)
    digest = output_digest(calls, passes[0]["results"], workdir)
    digests = ROOT / ".perfbench_work" / "digests"
    digests.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}{'-quick' if args.quick else ''}"
    (digests / f"{tag}.txt").write_text(digest + "\n")
    if args.workload.startswith("noether"):
        op_text = "".join(
            verify.operator_text(res["out"], problems[c["problem"]]["json"]) if res["code"] == 0 else ""
            for c, res in zip(calls, passes[0]["results"])
        )
        (digests / f"{tag}.operators.txt").write_text(hashlib.sha256(op_text.encode()).hexdigest() + "\n")

    raw = [[r["t"] for r in p["results"]] for p in passes]
    if args.trace:
        layers = passes[1]["layers"]
        # compared in reference-loop units, so host contention cancels out
        layers["trace.overhead_ratio"] = (
            sum(r["t"] / r["ref"] for r in passes[1]["results"]) / sum(r["t"] / r["ref"] for r in passes[0]["results"])
        )
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
        times = raw[0]
    else:
        corrected = [[r["t"] * REF_SECONDS / r["ref"] for r in p["results"]] for p in passes]
        times = [statistics.median(ts) for ts in zip(*corrected)]
        values = {
            "calls_per_s": len(times) / sum(times),
            "call_s.p50": statistics.median(times),
            "call_s.p90": percentile(times, 90),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        uncorrected = [statistics.median(ts) for ts in zip(*raw)]

    walls = ", ".join(f"{p['wall']:.2f}" for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) of {len(calls)} calls ({walls} s); "
          f"{len(times)} per-call times ({len(times) - int(0.9 * len(times))} beyond p90)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'uncorrected calls_per_s':32s} {len(uncorrected) / sum(uncorrected):.6g} 1/s")
        print(f"  {'uncorrected call_s.p50, p90':32s} {statistics.median(uncorrected):.6g}, "
              f"{percentile(uncorrected, 90):.6g} s")
    else:
        print(f"  {'setup_s (import noeth.cli)':32s} {setup_s:.6g} s")
    print(f"  {'fail_frac':32s} {failed / attempted:.6g} ({failed} of {attempted} calls)")
    print("  wait time: none (single-threaded program, one client, closed loop)")
    print(f"  output digest {digest}")
    for reason in reasons:
        print(f"  FAILED {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
