"""The benchmark (`perfbench/`) calls sheafkit through the CLI and through
public library functions, and checks each report with its own oracles.  A
change to a signature it calls would otherwise only show when
`perfbench/run.py` runs.  This runs the first request of every kind, from
the seed-11 request list of each workload, and checks its report."""

import importlib.util
import json
import sys
from pathlib import Path

import sheafkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
KINDS = {"grassmann", "classify", "presheaf-check", "sheafify", "stalks",
         "pullback", "ring-build", "ring-iso", "bundle-iso", "bundle-free",
         "embed", "demo-counterexample"}


def load(monkeypatch, name):
    """Load a benchmark module by path under its own name, as the benchmark's
    sibling imports expect, writing no bytecode and unloading it afterwards."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def report_of(request):
    """The report as `perfbench/run.py` reads it, or None on a failure."""
    result = request.call()
    if request.summarize is not None:
        return json.loads(json.dumps(request.summarize(result), sort_keys=True))
    code, text = result
    return json.loads(text) if code == 0 else None


def test_first_request_of_every_kind_agrees_with_its_oracle(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    load(monkeypatch, "topology")
    oracles = load(monkeypatch, "oracles")
    workloads = load(monkeypatch, "workloads")
    first = {}
    for name, build in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for request in build(sheafkit, 11, workloads.Inputs(workdir)):
            first.setdefault(request.kind, request)
    assert set(first) == KINDS
    disagree = [kind for kind, request in sorted(first.items())
                if not oracles.agrees(report_of(request), request.expected,
                                      request.extra)]
    assert disagree == []
