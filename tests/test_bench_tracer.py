"""The benchmark tracer's tables name functions that still exist in noeth.

perfbench/tracer.py wraps every name in its SPANNED and COUNTED tables before
a traced pass; a name that no longer resolves would break that pass.  The
tables are read from the file itself; one test installs the wrappers around
a single Buchberger run and restores every binding afterwards.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pinned_tracer(monkeypatch):
    """A Tracer whose install() monkeypatch.undo() reverts: every binding it may replace is pinned first."""
    tracer_module = load_tracer()
    for name, module in list(sys.modules.items()):
        if name != "noeth" and not name.startswith("noeth."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, attr, value)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    monkeypatch.setitem(value, key, entry)
    for table in (tracer_module.SPANNED, tracer_module.COUNTED):
        for layer, names in table.items():
            for cls_name, _, attr in (qual.partition(".") for qual in names if "." in qual):
                cls = getattr(importlib.import_module(f"noeth.{layer}"), cls_name)
                monkeypatch.setattr(cls, attr, vars(cls)[attr])
    return tracer_module.Tracer()


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for table in (tracer.SPANNED, tracer.COUNTED):
        for layer, names in table.items():
            assert layer in tracer.LAYERS
            module = importlib.import_module(f"noeth.{layer}")
            for qual in names:
                owner = module
                for part in qual.split("."):
                    owner = getattr(owner, part, None)
                if not callable(owner):
                    missing.append(f"noeth.{layer}.{qual}")
    assert missing == []
    spanned = {f"{layer}.{qual}" for layer, names in tracer.SPANNED.items() for qual in names}
    assert set(tracer.OBSERVERS) <= spanned
    assert set(tracer.CONSTRUCTIONS) <= spanned


def test_tracer_sees_the_normal_forms_inside_buchberger(monkeypatch):
    # The kernel must reach normal_form and s_polynomial through the module
    # globals, or the S-pair counters of a traced pass read zero.
    from noeth import DegLex, Polynomial, RingDescriptor, groebner

    original = groebner.normal_form
    tracer = pinned_tracer(monkeypatch)
    try:
        tracer.install()
        assert groebner.normal_form is not original
        ring = RingDescriptor(("x", "y"), 2)
        x, y = Polynomial.variable(ring, "x"), Polynomial.variable(ring, "y")
        groebner.buchberger([x**2 - y, x * y - 1, y**3 - x], DegLex(), ring)
    finally:
        monkeypatch.undo()
    assert groebner.normal_form is original
    spans = range(len(tracer.names))
    outcomes = {tracer.outcome[i] for i in spans if tracer.names[i] == "groebner.normal_form"}
    assert {"spair-zero", "spair-nonzero"} <= outcomes


def test_tracer_sees_rendering_in_text_and_json(monkeypatch, tmp_path, capsys):
    # The CLI writes a basis's operators in one pass, not one wrapped call per
    # term; a render span must still hold that writing in both output modes,
    # or render.render_s reads about 0.
    from noeth import cli
    from support import STANDARD

    path = tmp_path / "standard.noeth"
    path.write_text(STANDARD, encoding="utf-8")
    tracer = pinned_tracer(monkeypatch)
    seen = []
    try:
        tracer.install()
        for argv in (["noether", str(path)], ["noether", str(path), "--json"]):
            start = len(tracer.names)
            assert cli.main(argv) == 0
            seen.append(set(tracer.names[start:]))
    finally:
        monkeypatch.undo()
    capsys.readouterr()
    assert any(name.startswith("render.") for name in seen[0])
    assert "render.emit_json" in seen[1]
