"""The benchmark's tracer finds every jetcover name it wraps.

`perfbench/tracing.py` patches functions and methods by name; a rename in
the package would otherwise surface only when a traced benchmark run
fails.  The module is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_functions_resolve():
    tracing = load_tracing()
    for module_name, attr in tracing.SPANNED:
        owner = importlib.import_module("jetcover." + module_name)
        assert callable(getattr(owner, attr, None)), f"{module_name}.{attr}"


def test_counted_methods_resolve():
    tracing = load_tracing()
    for module_name, cls_name, attr in tracing.COUNTED:
        cls = getattr(importlib.import_module("jetcover." + module_name), cls_name)
        assert callable(cls.__dict__.get(attr)), f"{module_name}.{cls_name}.{attr}"
