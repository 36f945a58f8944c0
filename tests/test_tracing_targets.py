"""The benchmark's tracer (`perfbench/tracing.py`) names the sheafkit
functions it wraps by module and attribute.  A rename or deletion in
sheafkit would otherwise only show when `perfbench/run.py --trace 1` runs."""

import importlib.util
import sys
from pathlib import Path

import sheafkit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    """Load the tracer module from its path, writing no bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(monkeypatch):
    traced = load_tracing(monkeypatch).TRACED
    missing = []
    for metric, (module, attr) in traced.items():
        obj = getattr(sheafkit, module)
        for part in attr.split("."):
            obj = vars(obj).get(part)  # own attributes only, as the tracer wraps
            if obj is None:
                missing.append(metric)
                break
    assert traced
    assert missing == []


def test_counted_modules_exist(monkeypatch):
    package = Path(sheafkit.__file__).parent
    for module in load_tracing(monkeypatch).MODULES:
        name = "__init__" if module == "sheafkit" else module
        assert (package / f"{name}.py").is_file(), module
