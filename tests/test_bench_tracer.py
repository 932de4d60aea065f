"""The benchmark tracer's tables name functions that still exist in noeth.

perfbench/tracer.py wraps every name in its SPANNED and COUNTED tables before
a traced pass; a name that no longer resolves would break that pass.  The
tables are read from the file itself, without installing any wrapper.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
