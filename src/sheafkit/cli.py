"""Command-line front end: JSON descriptions in, deterministic reports out.

The machine-readable report goes to stdout (or --out); a short human summary
goes to stderr.  Exit codes: 0 success, 1 parse/validation failure or any
other input the library rejects, 2 search budget or size guard exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Tuple

from . import finalg, finspace, grassmann, presheaf as psh, vecsheaf
from .errors import (
    ParseError,
    SearchBudgetExceeded,
    SheafkitError,
    SpaceTooLarge,
    ValidationError,
)

EXIT_OK, EXIT_INVALID, EXIT_BUDGET = 0, 1, 2


# -- input parsing -----------------------------------------------------------

def _load_json(path: str) -> dict:
    # ValueError: bad JSON or bytes that are not UTF-8; RecursionError: deep nesting
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _fields(obj, what: str, *keys) -> list:
    """The values at `keys` of the JSON object describing a `what`."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} description is not a JSON object")
    for key in keys:
        if key not in obj:
            raise ParseError(f"{what} description missing {key!r}")
    return [obj[key] for key in keys]


def _integer(value, what: str) -> int:
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, not {value!r}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object, not {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, not {value!r}")
    return value


def _points(value, what: str, space=None) -> list:
    """A JSON list of point names, each a point of `space` if one is given."""
    if not all(isinstance(x, str) for x in _list(value, what)):
        raise ParseError(f"{what} must be a list of point names, not {value!r}")
    if space is not None and not set(value) <= set(space.points):
        raise ParseError(f"{what} names a point outside the space: {value!r}")
    return value


def parse_space(obj: dict) -> finspace.FinSpace:
    (table,) = _fields(obj, "space", "min_open")
    for x, nbhd in _object(table, "space min_open").items():
        if "," in x or "|" in x:  # the separators of open and restriction keys
            raise ParseError(f"point name {x!r} contains ',' or '|'")
        _points(nbhd, f"min_open of {x!r}")
    try:
        return finspace.build_space(table)
    except SpaceTooLarge:
        raise
    except SheafkitError as exc:
        raise ValidationError(f"invalid space: {exc}") from exc


def parse_ring(obj: dict) -> finalg.FinRing:
    (kind,) = _fields(obj, "ring", "kind")
    try:
        if kind == "Fp":
            (p,) = _fields(obj, "ring", "p")
            return finalg.make_field(_integer(p, "ring p"))
        if kind == "Zm":
            (m,) = _fields(obj, "ring", "m")
            return finalg.make_mod_ring(_integer(m, "ring m"))
        if kind == "quotient":
            p, poly = _fields(obj, "ring", "p", "poly")
            return finalg.make_quotient(_integer(p, "ring p"),
                                        [_integer(c, "ring poly entry")
                                         for c in _list(poly, "ring poly")])
        if kind == "product":
            left, right = _fields(obj, "ring", "left", "right")
            return finalg.make_product(parse_ring(left), parse_ring(right))
    except finalg.RingError as exc:
        raise ValidationError(f"invalid ring: {exc}") from exc
    raise ParseError(f"unknown ring kind {kind!r}")


def _open_key(u) -> str:
    return ",".join(sorted(u))


def parse_presheaf(space: finspace.FinSpace, obj: dict) -> psh.Presheaf:
    """Set-tagged presheaf: carriers and element-map restrictions by open key."""
    opens = finspace.enumerate_opens(space)
    carrier_tbl, restr_tbl = _fields(obj, "presheaf", "carriers", "restrictions")
    _object(carrier_tbl, "presheaf carriers")
    _object(restr_tbl, "presheaf restrictions")
    keys = {u: _open_key(u) for u in opens}
    carriers = {}
    for u, key in keys.items():
        if key not in carrier_tbl:
            raise ParseError(f"presheaf carrier missing for open {key!r}")
        elements = _list(carrier_tbl[key], f"presheaf carrier {key!r}")
        if not set(map(type, elements)) <= {str}:
            raise ParseError(f"presheaf carrier {key!r} elements must be "
                             f"strings, not {elements!r}")
        if len(set(elements)) < len(elements):
            twice = next(e for i, e in enumerate(elements) if e in elements[:i])
            raise ParseError(f"presheaf carrier {key!r} lists {twice!r} twice")
        carriers[u] = psh.Carrier(psh.SET, tuple(elements))
    tables, below = {}, finspace.opens_below(space)
    for u in opens:
        head = keys[u] + "|"
        for v in below[u]:
            key = head + keys[v]
            if key not in restr_tbl:
                raise ParseError(f"presheaf restriction missing for {key!r}")
            table = tables[(u, v)] = restr_tbl[key]
            if not isinstance(table, dict):
                _object(table, f"presheaf restriction {key!r}")
    return psh.Presheaf(space, carriers,
                        lambda u, v, e: e if u == v else tables[(u, v)][e], tables)


def _ring_code(ring: finalg.FinRing, name: str) -> int:
    try:
        return ring.names.index(name)
    except ValueError as exc:
        raise ParseError(f"unknown ring element {name!r}") from exc


def _parse_overlap_section(ring: finalg.FinRing, entry, pts) -> Tuple[int, ...]:
    if isinstance(entry, str):
        return tuple(_ring_code(ring, entry) for _ in pts)
    _object(entry, "section entry")
    missing = [x for x in pts if x not in entry]
    if missing:
        raise ParseError(f"section entry has no value at {missing[0]!r}")
    return tuple(_ring_code(ring, entry[x]) for x in pts)


def _cover(value, space: finspace.FinSpace) -> Tuple[frozenset, ...]:
    return tuple(frozenset(_points(u, "cover member", space))
                 for u in _list(value, "cover"))


def _transition_key(key: str, size: int) -> Tuple[int, int]:
    """The chart indices i, j of a transition key "i,j", each below `size`."""
    parts = key.split(",")
    if len(parts) != 2 or not all(t.isdecimal() and int(t) < size for t in parts):
        raise ParseError(f"transition key {key!r} is not 'i,j' with i, j < {size}")
    return int(parts[0]), int(parts[1])


def parse_cocycle(a: vecsheaf.AlgebraSheaf, ring: finalg.FinRing,
                  obj: dict) -> vecsheaf.TransitionCocycle:
    cover, rank, raw = _fields(obj, "cocycle", "cover", "rank", "transitions")
    cover = _cover(cover, a.space)
    if _integer(rank, "cocycle rank") < 0:
        raise ParseError(f"cocycle rank must be nonnegative, not {rank}")
    transitions = {}
    for key, mat in _object(raw, "cocycle transitions").items():
        i, j = _transition_key(key, len(cover))
        pts = sorted(cover[i] & cover[j])
        transitions[(i, j)] = tuple(
            tuple(_parse_overlap_section(ring, entry, pts)
                  for entry in _list(row, f"transition {key!r} row"))
            for row in _list(mat, f"transition {key!r}"))
    return vecsheaf.TransitionCocycle(a, cover, rank, transitions)


def parse_weights(a: vecsheaf.AlgebraSheaf, ring: finalg.FinRing,
                  obj: dict) -> vecsheaf.WeightFamily:
    cover, raw = _fields(obj, "weights", "cover", "weights")
    cover = _cover(cover, a.space)
    pts = sorted(a.space.points)
    weights = tuple(_parse_overlap_section(ring, entry, pts)
                    for entry in _list(raw, "weights"))
    return vecsheaf.WeightFamily(a, cover, weights)


def parse_map(codomain: finspace.FinSpace, obj: dict
              ) -> finspace.ContinuousMap:
    space, assignment = _fields(obj, "map", "space", "assignment")
    if not all(isinstance(y, str)
               for y in _object(assignment, "map assignment").values()):
        raise ParseError(f"map assignment must send points to point names, "
                         f"not {assignment!r}")
    f = finspace.ContinuousMap(parse_space(space), codomain, dict(assignment))
    if not finspace.validate_map(f):
        raise ValidationError("map is not continuous")
    return f


# -- commands ----------------------------------------------------------------

def cmd_space_check(args) -> dict:
    space = parse_space(_load_json(args.space))
    opens = finspace.enumerate_opens(space)
    return {
        "command": "space-check",
        "points": sorted(space.points),
        "open_count": len(opens),
        "opens": [sorted(u) for u in opens],
        "connected": finspace.is_connected(space),
    }


def _presheaf_from_args(args) -> Tuple[finspace.FinSpace, psh.Presheaf]:
    space = parse_space(_load_json(args.space))
    p = parse_presheaf(space, _load_json(args.presheaf))
    return space, p


def cmd_presheaf_check(args) -> dict:
    space, p = _presheaf_from_args(args)
    report = psh.validate(p)
    out = {"command": "presheaf-check", "violations": report, "valid": not report}
    if not report:
        counts = psh.unit_counts(p)
        out["monopresheaf"] = all(c.injective for u, c in counts.items() if u)
        out["complete"] = all(c.bijective for c in counts.values())
    return out


def cmd_sheafify(args) -> dict:
    space, p = _presheaf_from_args(args)
    violations = psh.validate(p)
    if violations:
        raise ValidationError("; ".join(violations))
    per_open = {_open_key(u): {"carrier": c.carrier, "sections": c.sections,
                               "unit_bijective": c.bijective}
                for u, c in psh.unit_counts(p).items()}
    return {"command": "sheafify", "opens": per_open,
            "unit_bijective_everywhere": all(v["unit_bijective"]
                                             for v in per_open.values())}


def cmd_stalks(args) -> dict:
    space, p = _presheaf_from_args(args)
    return {"command": "stalks",
            "stalk_sizes": {x: len(psh.stalk(p, x).carrier.elements)
                            for x in sorted(space.points)}}


def cmd_pullback(args) -> dict:
    space, p = _presheaf_from_args(args)
    f = parse_map(space, _load_json(args.map))
    # The report reads stalks only.  Each restriction an open's listing
    # takes, the minimal open of its point (an earlier open) takes too, so
    # the first open to raise is minimal and raises the same here.
    mins = set(f.domain.min_open.values())
    try:  # pullback restricts stalk elements; the presheaf is not validated
        q = psh.pullback(p, f, [u for u in finspace.enumerate_opens(f.domain) if u in mins])
    except KeyError as exc:
        raise ValidationError(f"presheaf restriction undefined at {exc}") from exc
    return {"command": "pullback",
            "domain_points": sorted(f.domain.points),
            "stalk_sizes": {y: len(psh.stalk(q, y).carrier.elements)
                            for y in sorted(f.domain.points)}}


def _algebra_from_args(args) -> Tuple[finalg.FinRing, vecsheaf.AlgebraSheaf]:
    space = parse_space(_load_json(args.space))
    ring = parse_ring(_load_json(args.ring))
    return ring, vecsheaf.constant_algebra_sheaf(space, ring)


def cmd_grassmann(args) -> dict:
    ring, a = _algebra_from_args(args)
    g = grassmann.build_grassmann_presheaf(a, args.k, args.n, vecsheaf.Budget(args.budget))
    verdict = grassmann.check_monopresheaf_not_complete(g)
    return {
        "command": "grassmann",
        "k": args.k,
        "n": args.n,
        "ring": ring.label,
        "value_counts": {_open_key(u): len(v) for u, v in g.values.items()},
        "sections_over_whole": verdict["sections_over_whole"],
        "monopresheaf": verdict["monopresheaf"],
        "complete_at_this_scale": verdict["complete_at_this_scale"],
    }


def cmd_classify(args) -> dict:
    ring, a = _algebra_from_args(args)
    report = grassmann.classify(a, args.n, args.N, vecsheaf.Budget(args.budget))
    report["command"] = "classify"
    report["ring"] = ring.label
    return report


def cmd_embed(args) -> dict:
    ring, a = _algebra_from_args(args)
    cocycle = parse_cocycle(a, ring, _load_json(args.cocycle))
    try:
        glued = vecsheaf.sheaf_from_cocycle(cocycle)
    except vecsheaf.CocycleConditionViolated as exc:
        raise ValidationError(str(exc)) from exc
    w = parse_weights(a, ring, _load_json(args.weights))
    try:
        morph = vecsheaf.embed_via_weights(glued.sheaf, glued.cover, glued.trivializations,
                                           w, glued.rank)
    except (vecsheaf.InvalidWeights, vecsheaf.TrivializationMismatch) as exc:
        raise ValidationError(str(exc)) from exc
    return {
        "command": "embed",
        "rank": glued.rank,
        "cover_size": len(glued.cover),
        "target_rank": glued.rank * len(glued.cover),
        "monomorphism": vecsheaf.is_monomorphism(morph),
    }


def demo_counterexample(a0: Optional[finalg.FinRing] = None,
                        a1: Optional[finalg.FinRing] = None,
                        rho: Optional[finalg.RingMorphism] = None) -> dict:
    """Free rank-1 sheaf with non-isomorphic stalks on the two-point space.

    Defaults: stalk algebras F_2[t]/(t^2) at the closed point and F_2 at the
    open point, connected by evaluation at t = 0.  Pulling back along the two
    (homotopic) constant maps from a point yields non-isomorphic stalks, so
    pullback along homotopic maps need not preserve the isomorphism class.
    """
    space = finspace.sierpinski()
    x0, x1 = "c", "o"
    if a0 is None:
        a0 = finalg.make_quotient(2, [0, 0, 1])
    if a1 is None:
        a1 = finalg.make_field(2)
    if rho is None:
        # evaluation at t = 0: code sum(c_i 2^i) -> constant term c_0
        rho = finalg.RingMorphism(a0, a1, tuple(c % 2 for c in range(a0.size)))
    p = psh.two_algebra_presheaf(space, x0, a0, a1, rho)
    violations = psh.validate(p)
    counts = psh.unit_counts(p)
    point = finspace.point_space()
    pulls = {}
    pull_rings = {}
    for name, value in (("f0", x0), ("f1", x1)):
        f = finspace.constant_map(point, space, value)
        q = psh.pullback(p, f)
        carrier = q.carriers[frozenset({"p"})]
        pulls[name] = len(carrier.elements)
        pull_rings[name] = carrier.ring
    iso = finalg.find_ring_isomorphism(pull_rings["f0"], pull_rings["f1"])
    degenerate = pulls["f0"] == pulls["f1"] and iso is not None
    return {
        "command": "demo-counterexample",
        "presheaf_valid": not violations,
        "stalk_sizes": {"x0": len(psh.stalk(p, x0).carrier.elements),
                        "x1": len(psh.stalk(p, x1).carrier.elements)},
        "section_counts": {_open_key(u): c.sections for u, c in counts.items()},
        "pullback_stalk_sizes": pulls,
        "pullback_stalks_isomorphic": iso is not None,
        "conclusion": ("degenerate case: both pullback stalks are isomorphic"
                       if degenerate else
                       "pullbacks along the two homotopic constant maps are "
                       "not isomorphic: homotopic maps need not give "
                       "isomorphic pullbacks"),
    }


def cmd_demo(args) -> dict:
    return demo_counterexample()


# -- entry point -------------------------------------------------------------

def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    ap = argparse.ArgumentParser(prog="sheafkit")
    sub = ap.add_subparsers(dest="command", required=True)
    # name -> (command, JSON file options, nonnegative integer options); the
    # commands with integer sizes are the two that run a budgeted search
    commands = {
        "space-check": (cmd_space_check, ("space",), ()),
        "presheaf-check": (cmd_presheaf_check, ("space", "presheaf"), ()),
        "sheafify": (cmd_sheafify, ("space", "presheaf"), ()),
        "stalks": (cmd_stalks, ("space", "presheaf"), ()),
        "pullback": (cmd_pullback, ("space", "presheaf", "map"), ()),
        "grassmann": (cmd_grassmann, ("space", "ring"), ("-k", "-n")),
        "classify": (cmd_classify, ("space", "ring"), ("-n", "-N")),
        "embed": (cmd_embed, ("space", "ring", "cocycle", "weights"), ()),
        "demo-counterexample": (cmd_demo, (), ()),
    }
    for name, (fn, files, sizes) in commands.items():
        sp = sub.add_parser(name)
        for option in files:
            sp.add_argument(f"--{option}", required=True)
        for option in sizes:
            sp.add_argument(option, type=nonnegative_int, required=True)
        if sizes:
            sp.add_argument("--budget", type=nonnegative_int,
                            default=vecsheaf.DEFAULT_SEARCH_BUDGET)
        sp.add_argument("--out", default=None)
        sp.set_defaults(fn=fn.__name__)
    return ap


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary(report: dict) -> str:
    keys = [k for k in ("valid", "monopresheaf", "complete", "bijection",
                        "monomorphism", "conclusion", "connected")
            if k in report]
    bits = [f"{k}={report[k]}" for k in keys]
    return f"{report.get('command', '?')}: " + (", ".join(bits) or "done")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        # by name, so a command rebound after the parser was built still runs
        report = globals()[args.fn](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SearchBudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SpaceTooLarge as exc:
        print(f"size guard hit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SheafkitError as exc:
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        _emit(report, args.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(_summary(report), file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
