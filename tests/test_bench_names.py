"""Every name bench/tracing.py wraps must exist in polylat: `install` looks
each one up, so a renamed or deleted function fails every traced run."""

import importlib
from pathlib import Path
import types

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    # compiled from the source text, so nothing is written next to it
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_traced_names_exist():
    tracing = _tracing()
    for mod, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"polylat.{mod}"), attr, None)), f"polylat.{mod}.{attr}"
    for mod, cls, meth, *_ in tracing.METHODS:
        assert meth in vars(getattr(importlib.import_module(f"polylat.{mod}"), cls)), f"polylat.{mod}.{cls}.{meth}"
