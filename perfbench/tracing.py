"""Span tracing of sheafkit's public functions, from outside the package.

`install` wraps each traced function and rebinds the wrapper in every
sheafkit module namespace that holds the original (``span`` lives in both
``finalg`` and ``vecsheaf``, ``is_free_of_rank`` in both ``vecsheaf`` and
``grassmann``), then checks that no module still holds an original.  Only
the traced run calls it; the timed runs never patch anything.

Spans are kept in flat arrays: name, start, end, parent span and request.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple

# metric prefix -> (module, attribute); "cli.cmd" covers every cmd_* function
TRACED: Dict[str, Tuple[str, str]] = {
    "cli.parse_presheaf": ("cli", "parse_presheaf"),
    "finspace.build_space": ("finspace", "build_space"),
    "finspace.enumerate_opens": ("finspace", "enumerate_opens"),
    "finalg.span": ("finalg", "span"),
    "finalg.FinRing.init": ("finalg", "FinRing.__init__"),
    "finalg.enumerate_free_submodules": ("finalg", "enumerate_free_submodules"),
    "finalg.find_ring_isomorphism": ("finalg", "find_ring_isomorphism"),
    "finalg.is_invertible": ("finalg", "is_invertible"),
    "presheaf.compatible_families": ("presheaf", "compatible_families"),
    "presheaf.validate": ("presheaf", "validate"),
    "presheaf.sheafify": ("presheaf", "sheafify"),
    "presheaf.is_monopresheaf": ("presheaf", "is_monopresheaf"),
    "presheaf.is_complete": ("presheaf", "is_complete"),
    "presheaf.pullback": ("presheaf", "pullback"),
    "vecsheaf.is_free_of_rank": ("vecsheaf", "is_free_of_rank"),
    "vecsheaf.subsheaf_sections": ("vecsheaf", "subsheaf_sections"),
    "vecsheaf.free_sheaf": ("vecsheaf", "free_sheaf"),
    "vecsheaf.find_module_isomorphism": ("vecsheaf", "find_module_isomorphism"),
    "vecsheaf.module_free_of_rank": ("vecsheaf", "module_free_of_rank"),
    "vecsheaf.sheaf_from_cocycle": ("vecsheaf", "sheaf_from_cocycle"),
    "vecsheaf.embed_via_weights": ("vecsheaf", "embed_via_weights"),
    "grassmann.build_grassmann_presheaf": ("grassmann", "build_grassmann_presheaf"),
    "grassmann.build_v_presheaf": ("grassmann", "build_v_presheaf"),
    "grassmann.enumerate_sections": ("grassmann", "enumerate_sections"),
    "grassmann.check_monopresheaf_not_complete":
        ("grassmann", "check_monopresheaf_not_complete"),
    "grassmann.classify": ("grassmann", "classify"),
}
CLI_COMMANDS = "cli.cmd"
MODULES = ("sheafkit", "cli", "errors", "finalg", "finspace", "grassmann",
           "presheaf", "vecsheaf")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.request_id = -1
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn: Callable, on_return=None,
             request_id: int = -1) -> Callable:
        """`fn` recording one span per call; a root span (request_id >= 0)
        sets the request its descendants belong to."""
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            if request_id >= 0:
                self.request_id = request_id
            self.name_of.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.request.append(self.request_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self.stack.pop()
            if on_return is not None:
                on_return(out)
            return out
        return traced

    def summary(self) -> Dict[str, Dict[str, float]]:
        """calls and self_s per name; wrappers given one name share a row."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.name_of[i]], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
        return out


def _sheafkit_modules() -> List:
    return [m for name, m in sorted(sys.modules.items())
            if name == "sheafkit" or name.startswith("sheafkit.")]


def install(sk) -> Tracer:
    """Wrap every traced function and rebind it wherever sheafkit holds it."""
    tracer = Tracer()
    counters = tracer.counters

    def count_families(out):
        counters["presheaf.compatible_families.families_out"] += len(out)

    def count_found(out):
        counters["vecsheaf.is_free_of_rank.found"] += bool(out[0])

    on_return = {"presheaf.compatible_families": count_families,
                 "vecsheaf.is_free_of_rank": count_found}
    originals: Dict[int, Tuple[Callable, Callable]] = {}
    for metric, (module, attr) in TRACED.items():
        if attr == "FinRing.__init__":
            cls = sk.finalg.FinRing
            fn = cls.__dict__["__init__"]
            wrapper = tracer.wrap(metric, fn)
            cls.__init__ = wrapper
        else:
            fn = getattr(getattr(sk, module), attr)
            wrapper = tracer.wrap(metric, fn, on_return.get(metric))
        originals[id(fn)] = (fn, wrapper)
    for attr in dir(sk.cli):
        if attr.startswith("cmd_"):
            fn = getattr(sk.cli, attr)
            originals[id(fn)] = (fn, tracer.wrap(CLI_COMMANDS, fn))

    for mod in _sheafkit_modules():
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    left = [f"{mod.__name__}.{attr}" for mod in _sheafkit_modules()
            for attr, value in vars(mod).items()
            if id(value) in originals and originals[id(value)][0] is value]
    left += [f"FinRing.{attr}" for attr, value in vars(sk.finalg.FinRing).items()
             if id(value) in originals and originals[id(value)][0] is value]
    if left:
        raise RuntimeError(f"traced functions still bound unwrapped: {left}")
    return tracer


def layer_metrics(tracer: Tracer, src: Path, overhead_frac: float) -> Dict[str, dict]:
    """Every per-layer metric, by name, with its unit."""
    rows = tracer.summary()
    out: Dict[str, dict] = {}
    for name in list(TRACED) + [CLI_COMMANDS]:
        row = rows.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        out[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
    counters = tracer.counters
    out["presheaf.compatible_families.families_out"] = {
        "value": counters["presheaf.compatible_families.families_out"], "unit": "count"}
    calls = rows.get("vecsheaf.is_free_of_rank", {"calls": 0})["calls"]
    out["vecsheaf.is_free_of_rank.found_frac"] = {
        "value": counters["vecsheaf.is_free_of_rank.found"] / calls if calls else 0.0,
        "unit": "frac"}
    for module in MODULES:
        path = src / "sheafkit" / ("__init__.py" if module == "sheafkit" else f"{module}.py")
        with open(path) as fh:
            out[f"{module}.loc"] = {"value": sum(1 for _ in fh), "unit": "lines"}
    out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "frac"}
    return out
