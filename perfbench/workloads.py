"""Seeded request lists for the three workloads.

A workload is a fixed list of requests drawn from a seed.  Each request is
one call into sheafkit (``cli.main(argv)`` or a public library function)
together with the report an independent oracle predicts for it.  The draws
depend only on the seed and on static properties of the generated input;
nothing here looks at measured time.  Each list is laid out on a fixed grid
of cost-determining properties and the seed fills the cells, so the cost of
a pass barely moves between seeds.

Why these workloads:

- grassmann-search stresses the basis search in ``vecsheaf.is_free_of_rank``,
  ``finalg.span`` and Grassmann value enumeration.  Its grid is every T0
  space of 1-4 points up to isomorphism, with each (q, k, n) the space's
  width and a static cost cap allow.  Taken in order of static cost, the
  cells go to grassmann and classify in turn, so both commands cover the
  whole range of cost; the seed relabels the spaces, so every seed runs
  nearly the same work.  (q, n, k) values repeat across requests.
- sheaf-ops loads JSON parsing, presheaf validation, compatible families and
  sheafification on set presheaves over 3-9 points, and never reaches the
  basis search, so a basis-search change should leave it unchanged.  Draws
  are stratified into bands of a cost predicted from table sizes.
- ring-search loads ring construction (``check_axioms`` is cubic in the ring
  size), ring and module isomorphism search, bundle gluing and the weighted
  embedding, on fixed slots of sizes, kinds and primes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import oracles
from topology import (CORPUS, Space, canonical, components, from_table, key,
                      opens, poset_classes, random_space, relabel, to_table,
                      width)


@dataclass
class Request:
    """One call into sheafkit and the report the oracle expects from it.

    `call` is the only timed part.  A CLI request's call returns the exit
    code and stdout; a library request's result goes through `summarize`
    (untimed) to become its report.
    """
    kind: str
    call: Callable[[], Any]
    expected: oracles.Expected
    summarize: Optional[Callable[[Any], dict]] = None
    extra: Optional[Callable[[dict], bool]] = None


class Inputs:
    """Writes generated JSON inputs under one directory, numbered in order."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, obj: Any) -> str:
        self.count += 1
        path = self.workdir / f"in{self.count:04d}.json"
        path.write_text(json.dumps(obj, sort_keys=True))
        return str(path)


def cli_request(sk, kind: str, argv: List[str], expected: oracles.Expected,
                extra=None) -> Request:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sk.cli.main(argv)
        return code, out.getvalue()
    return Request(kind, call, expected, extra=extra)


def draw_space(rng: random.Random, npoints: range, accept) -> Space:
    """Rejection-sample a random space whose static properties pass `accept`."""
    while True:
        space = random_space(rng, rng.choice(npoints))
        if accept(space):
            return space


# -- grassmann-search --------------------------------------------------------

# (width, q) -> allowed (k, n).  Width is the most maximal points any open
# has; cost grows with [n k]_q^width * C(q^(k*width), k).  The whitelist and
# the cap on `grassmann_cost` together keep a request below about 0.2 s.
GRASSMANN_GRID = {
    (1, 2): [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)],
    (1, 3): [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)],
    (2, 2): [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)],
    (2, 3): [(1, 1), (1, 2), (1, 3), (2, 2)],
    (3, 2): [(1, 1), (1, 2), (1, 3), (2, 2)],
    (3, 3): [(1, 1), (1, 2)],
    (4, 2): [(1, 1), (1, 2)],
    (4, 3): [(1, 1)],
}
GRASSMANN_MAX_POINTS = 4
GRASSMANN_MAX_COST = 10_000


def grassmann_cost(space: Space, q: int, k: int, n: int) -> int:
    """Static work estimate: per open, the values times the k-subsets of
    sections the basis search may scan, times the points checked."""
    g = oracles.gaussian_binomial(n, k, q)
    total = 0
    for u in opens(space):
        c = len(components(space, u))
        total += g ** c * (1 + math.comb(q ** (k * c), k)) * max(len(u), 1)
    return total


def grassmann_search(sk, seed: int, inputs: Inputs) -> List[Request]:
    """Every T0 space of 1-4 points up to isomorphism, with every (q, k, n)
    its width allows and the cost cap admits.  Taken in order of static
    cost, the cells go to grassmann and classify in turn.  The seed relabels
    each space (named corpus spaces keep their names half of the time)."""
    rng = random.Random(seed)
    corpus = {canonical(from_table(t)): from_table(t) for t in CORPUS.values()}
    rings = {q: inputs.write({"kind": "Fp", "p": q}) for q in (2, 3)}
    cells = [(cls, q, k, n) for cls in poset_classes(GRASSMANN_MAX_POINTS)
             for q in (2, 3) for k, n in GRASSMANN_GRID[(width(cls), q)]
             if grassmann_cost(cls, q, k, n) <= GRASSMANN_MAX_COST]
    cells.sort(key=lambda cell: grassmann_cost(*cell))
    reqs = []
    for i, (cls, q, k, n) in enumerate(cells):
        named = corpus.get(canonical(cls))
        space = named if named and rng.random() < 0.5 else relabel(rng, cls)
        path = inputs.write({"min_open": to_table(space)})
        if i % 2 == 0:
            argv = ["grassmann", "--space", path, "--ring", rings[q],
                    "-k", str(k), "-n", str(n)]
            reqs.append(cli_request(sk, "grassmann", argv,
                                    oracles.grassmann_expected(space, q, k, n)))
        else:
            argv = ["classify", "--space", path, "--ring", rings[q],
                    "-n", str(k), "-N", str(n)]
            reqs.append(cli_request(sk, "classify", argv,
                                    oracles.classify_expected(space, q, k, n),
                                    oracles.pairs_are_bijection))
    rng.shuffle(reqs)
    return reqs


# -- sheaf-ops ---------------------------------------------------------------

SHEAF_POINTS = range(3, 10)
SHEAF_KINDS = ("constant", "locally-constant")
SHEAF_SIZES = (2, 3)
# Bands of predicted presheaf-check time in microseconds, with the draws
# per (kind, |S|, band).  Stratifying on the prediction keeps the cost of a
# pass nearly the same for every seed.  The top band's presheaf-check and
# sheafify requests are the slowest; with as many draws as the others they
# would be exactly the slowest tenth, putting p90 on the gap below the
# band, so the top band takes two more draws and p90 falls inside it.
SHEAF_BANDS = ((1_000, 2_000, 7), (2_000, 4_000, 7), (4_000, 8_000, 7),
               (8_000, 16_000, 7), (16_000, 32_000, 9))
SHEAF_MAX_OPENS = 150
MAP_DOMAIN_POINTS = 4
SYMBOLS = "xyz"


def _presheaf_tables(space: Space, kind: str, s: int):
    ops = opens(space)
    comps = {u: components(space, u) for u in ops}

    def elements(u):
        if kind == "constant":
            return list(SYMBOLS[:s]) if u else ["*"]
        return ["".join(t) for t in itertools.product(SYMBOLS[:s], repeat=len(comps[u]))]

    def restriction(u, v):
        if kind == "constant":
            return {e: e if v else "*" for e in carriers[key(u)]}
        where = [next(i for i, c in enumerate(comps[u]) if cv <= c) for cv in comps[v]]
        return {e: "".join(e[i] for i in where) for e in carriers[key(u)]}

    carriers = {key(u): elements(u) for u in ops}
    restrictions = {f"{key(u)}|{key(v)}": restriction(u, v)
                    for u in ops for v in ops if v < u}
    return {"carriers": carriers, "restrictions": restrictions}


def presheaf_cost(space: Space, kind: str, s: int) -> float:
    """Predicted presheaf-check time in microseconds, from table sizes.

    The terms count restriction-table entries read from JSON, entries of the
    sheafified tables, and opens; the weights were fitted on this workload's
    draws and only order the draws into bands.
    """
    ops = opens(space)
    if len(ops) > SHEAF_MAX_OPENS:
        return math.inf
    below = {u: sum(1 for v in ops if v <= u) for u in ops}
    entries = sum(oracles.carrier_size(space, u, kind, s) * below[u] for u in ops)
    sheafified = sum(s ** len(components(space, u)) * below[u] for u in ops)
    return 2.5 * entries + 1.4 * sheafified + 250 * len(ops)


def _continuous_map(rng: random.Random, domain: Space, codomain: Space) -> Dict[str, str]:
    """A random order-preserving map, built up along a linear extension."""
    while True:
        f: Dict[str, str] = {}
        for y in sorted(domain, key=lambda y: len(domain[y])):
            lower = {f[z] for z in domain[y] if z != y}
            fits = [x for x in sorted(codomain) if lower <= codomain[x]]
            if not fits:
                break
            f[y] = rng.choice(fits)
        else:
            return f


def sheaf_ops(sk, seed: int, inputs: Inputs) -> List[Request]:
    rng = random.Random(seed)
    reqs = []
    cells = [(kind, s, low, high)
             for kind, s, (low, high, draws) in itertools.product(
                 SHEAF_KINDS, SHEAF_SIZES, SHEAF_BANDS)
             for _ in range(draws)]
    for kind, s, low, high in cells:
        space = draw_space(rng, SHEAF_POINTS,
                           lambda sp: low <= presheaf_cost(sp, kind, s) < high)
        sp_path = inputs.write({"min_open": to_table(space)})
        ps_path = inputs.write(_presheaf_tables(space, kind, s))
        domain = random_space(rng, MAP_DOMAIN_POINTS)
        map_path = inputs.write({"space": {"min_open": to_table(domain)},
                                 "assignment": _continuous_map(rng, domain, space)})
        base = ["--space", sp_path, "--presheaf", ps_path]
        reqs += [
            cli_request(sk, "presheaf-check", ["presheaf-check"] + base,
                        oracles.presheaf_check_expected(space, kind, s)),
            cli_request(sk, "sheafify", ["sheafify"] + base,
                        oracles.sheafify_expected(space, kind, s)),
            cli_request(sk, "stalks", ["stalks"] + base,
                        oracles.stalks_expected(space, s)),
            cli_request(sk, "pullback", ["pullback"] + base + ["--map", map_path],
                        oracles.pullback_expected(domain, s)),
        ]
    rng.shuffle(reqs)
    return reqs


# -- ring-search -------------------------------------------------------------

# Every slot below is fixed; the seed draws the ring, units or space that
# fills it.  Ring sizes bound the O(|R|^3) axiom check at 64 elements, and
# isomorphism pairs stay at or below 18 elements, past which the search
# explodes (Z/20 against Z/2 x Z/10 takes 0.6 s, Z/32 against F_2[t]/(t^5)
# about two minutes).
RING_BUILD_SIZES = range(12, 65)  # every size, so build costs form no steps
RING_ISO_SIZES = (4, 6, 8, 9, 10, 12, 14, 15, 16, 18)
BUNDLE_GROUPS = ((3, 1), (5, 1), (7, 1), (2, 2))  # (p, rank)
EMBED_POINTS = 4
EMBED_MAX_TARGET = 729  # stalk size q^(rank * cover size) of the target
RING_SLOT_DRAWS = 2  # enough requests that the latency tail is not sparse


def _prime_power(size: int):
    """(p, d) with size == p^d, or None."""
    factors = oracles.prime_powers(size)
    return factors[0] if len(factors) == 1 else None


def _kinds(size: int) -> List[str]:
    kinds = ["Zm"]
    if _prime_power(size):
        kinds.append("quotient")
    if any(size % a == 0 for a in range(2, size)):
        kinds.append("product")
    return kinds


def _random_poly(rng: random.Random, p: int, d: int) -> List[int]:
    return [rng.randrange(p) for _ in range(d)] + [1]


def _ring_of_size(rng: random.Random, size: int, kind: str) -> dict:
    """A random ring description of one kind with exactly `size` elements."""
    if kind == "Zm":
        return {"kind": "Zm", "m": size}
    if kind == "quotient":
        p, d = _prime_power(size)
        return {"kind": "quotient", "p": p, "poly": _random_poly(rng, p, d)}
    a = rng.choice([a for a in range(2, size) if size % a == 0])
    return {"kind": "product",
            "left": _ring_of_size(rng, a, rng.choice(_kinds(a))),
            "right": _ring_of_size(rng, size // a, rng.choice(_kinds(size // a)))}


def _isomorphic_variant(rng: random.Random, spec: dict) -> dict:
    """Another description of the same ring: Z/m split by the CRT, or a
    quotient by a polynomial with the same factor types."""
    factors = oracles.local_factors(spec)
    parts = []
    for f in factors:
        if f[0] == "Z":
            parts.append({"kind": "Zm", "m": f[1] ** f[2]})
        elif f[2] == 1 and f[3] == 1 and rng.random() < 0.5:
            parts.append({"kind": "Zm", "m": f[1]})
        else:
            p, d, e = f[1:]
            while True:
                g = _random_poly(rng, p, d)
                if oracles.factor_types(p, g) == [(d, 1)]:
                    break
            power = [1]
            for _ in range(e):
                power = [sum(power[i] * g[j - i] for i in range(len(power))
                             if 0 <= j - i < len(g)) % p
                         for j in range(len(power) + len(g) - 1)]
            parts.append({"kind": "quotient", "p": p, "poly": power})
    rng.shuffle(parts)
    out = parts[0]
    for part in parts[1:]:
        out = {"kind": "product", "left": out, "right": part}
    return out


def _build_ring(sk, spec: dict):
    f = sk.finalg
    kind = spec["kind"]
    if kind == "Fp":
        return f.make_field(spec["p"])
    if kind == "Zm":
        return f.make_mod_ring(spec["m"])
    if kind == "quotient":
        return f.make_quotient(spec["p"], spec["poly"])
    return f.make_product(_build_ring(sk, spec["left"]), _build_ring(sk, spec["right"]))


def _tables(ring) -> tuple:
    return ring.add_table, ring.mul_table, ring.one


def _ring_report(ring) -> dict:
    units = sum(1 for row in ring.mul_table if ring.one in row)
    return {"size": ring.size, "units": units, "field": units == ring.size - 1}


def _iso_report(result) -> dict:
    r, s, iso = result
    witness = list(iso.assignment) if iso is not None else None
    report = {"isomorphic": iso is not None, "witness": witness}
    report["witness_valid"] = oracles.witness_is_isomorphism(
        {"left": _tables(r), "right": _tables(s)}, report)
    return report


PSEUDO_CIRCLE_COVER = (frozenset("abc"), frozenset("abd"))


def _glued_bundle(sk, p: int, rank: int, g):
    """Glue A^rank on the pseudo-circle along (g_a, g_b) on the overlap {a, b}."""
    vs = sk.vecsheaf
    a = vs.constant_algebra_sheaf(sk.finspace.pseudo_circle(), sk.finalg.make_field(p))
    if rank == 1:
        mat = (((g[0], g[1]),),)
    else:
        mat = tuple(tuple((g[0][2 * i + j], g[1][2 * i + j]) for j in range(2))
                    for i in range(2))
    cocycle = vs.TransitionCocycle(a, PSEUDO_CIRCLE_COVER, rank, {(0, 1): mat})
    return vs.sheaf_from_cocycle(cocycle).sheaf


def _random_transition(rng: random.Random, p: int, rank: int):
    if rank == 1:
        return (rng.randrange(1, p), rng.randrange(1, p))
    return tuple(rng.choice(oracles.gl2(p)) for _ in range(2))


def _embed_inputs(rng: random.Random, p: int, rank: int, extra: int):
    """Space, cocycle and weights for a valid weighted cover.

    The cover is the whole space plus random nonempty opens; the whole space
    carries weight 1 and the others weight 0, which is a valid family.  The
    transitions to the whole space are random invertible locally constant
    matrices, and the others follow from the cocycle rule.
    """
    space = random_space(rng, EMBED_POINTS)
    ops = [u for u in opens(space) if u]
    cover = [frozenset(space)] + [rng.choice(ops) for _ in range(extra)]
    if rank == 1:
        mats, ident = [(c,) for c in range(1, p)], (1,)

        def mul(x, y):
            return (x[0] * y[0] % p,)

        def inv(x):
            return (pow(x[0], -1, p),)
    else:
        mats, ident = oracles.gl2(p), (1, 0, 0, 1)

        def mul(x, y):
            return oracles.mat_mul(x, y, p)

        def inv(x):
            return oracles.mat_inv(x, p)

    # g[(i, x)]: the transition from member i to the whole space at x
    g = {(0, x): ident for x in space}
    for i in range(1, len(cover)):
        for comp in components(space, cover[i]):
            m = rng.choice(mats)
            for x in comp:
                g[(i, x)] = m

    transitions = {}
    for i, j in itertools.combinations(range(len(cover)), 2):
        overlap = sorted(cover[i] & cover[j])
        if not overlap:
            continue
        at = {x: mul(inv(g[(i, x)]), g[(j, x)]) for x in overlap}
        transitions[f"{i},{j}"] = [[{x: str(at[x][r * rank + c]) for x in overlap}
                                    for c in range(rank)] for r in range(rank)]
    cocycle = {"cover": [sorted(u) for u in cover], "rank": rank,
               "transitions": transitions}
    weights = {"cover": [sorted(u) for u in cover],
               "weights": ["1"] + ["0"] * extra}
    return space, cocycle, weights


def _bundle_pair(rng: random.Random, p: int, rank: int, same: bool):
    """Two transitions whose bundles are isomorphic iff `same`."""
    g = _random_transition(rng, p, rank)
    if same:
        if rank == 1:
            c = rng.randrange(1, p)
            return g, (g[0] * c % p, g[1] * c % p)
        x, y = rng.choice(oracles.gl2(p)), rng.choice(oracles.gl2(p))
        return g, tuple(oracles.mat_mul(oracles.mat_mul(x, m, p), y, p) for m in g)
    while True:
        h = _random_transition(rng, p, rank)
        if oracles.bundle_class(p, rank, *h) != oracles.bundle_class(p, rank, *g):
            return g, h


def ring_search(sk, seed: int, inputs: Inputs) -> List[Request]:
    rng = random.Random(seed)
    reqs = []
    # one build of every kind each size admits: a quotient costs up to three
    # times a Z/m of the same size, so the seed must not choose the kind
    for size in RING_BUILD_SIZES:
        for kind in _kinds(size):
            spec = _ring_of_size(rng, size, kind)
            reqs.append(Request("ring-build", lambda spec=spec: _build_ring(sk, spec),
                                oracles.ring_expected(spec), summarize=_ring_report))
    for _ in range(RING_SLOT_DRAWS):
        reqs += _ring_slots(sk, rng, inputs)
    rng.shuffle(reqs)
    return reqs


def _ring_slots(sk, rng: random.Random, inputs: Inputs) -> List[Request]:
    """One request per slot, each slot filled by a fresh draw."""
    reqs = []
    for size in RING_ISO_SIZES:
        # each kind against an isomorphic variant and against every kind
        for kind, other in itertools.product(_kinds(size), [None] + _kinds(size)):
            left = _ring_of_size(rng, size, kind)
            right = (_isomorphic_variant(rng, left) if other is None
                     else _ring_of_size(rng, size, other))

            def call(left=left, right=right):
                r, s = _build_ring(sk, left), _build_ring(sk, right)
                return r, s, sk.finalg.find_ring_isomorphism(r, s)
            exp = {**oracles.ring_iso_expected(left, right), ("witness_valid",): True}
            reqs.append(Request("ring-iso", call, exp, summarize=_iso_report))
    for p, rank in BUNDLE_GROUPS:
        for same in (True, True, False, False):
            g, h = _bundle_pair(rng, p, rank, same)

            def call(p=p, rank=rank, g=g, h=h):
                return sk.vecsheaf.find_module_isomorphism(
                    _glued_bundle(sk, p, rank, g), _glued_bundle(sk, p, rank, h))
            reqs.append(Request("bundle-iso", call,
                                oracles.bundle_iso_expected(p, rank, g, h),
                                summarize=lambda m: {"isomorphic": m is not None}))
        for trivial in (True, False):
            g = _bundle_pair(rng, p, rank, False)[1]
            if trivial:
                g = (g[0], g[0])

            def call(p=p, rank=rank, g=g):
                e = _glued_bundle(sk, p, rank, g)
                return sk.vecsheaf.module_free_of_rank(e, frozenset(e.space.points), rank)
            reqs.append(Request("bundle-free", call,
                                oracles.bundle_free_expected(p, rank, g),
                                summarize=lambda r: {"free": r[0]}))
    for p, rank, extra in itertools.product((2, 3, 5), (1, 2), (1, 2)):
        if p ** (rank * (extra + 1)) > EMBED_MAX_TARGET:
            continue
        space, cocycle, weights = _embed_inputs(rng, p, rank, extra)
        argv = ["embed", "--space", inputs.write({"min_open": to_table(space)}),
                "--ring", inputs.write({"kind": "Fp", "p": p}),
                "--cocycle", inputs.write(cocycle), "--weights", inputs.write(weights)]
        reqs.append(cli_request(sk, "embed", argv,
                                oracles.embed_expected(rank, extra + 1)))
    reqs.append(cli_request(sk, "demo-counterexample", ["demo-counterexample"],
                            oracles.DEMO_EXPECTED))
    return reqs


WORKLOADS = {
    "grassmann-search": grassmann_search,
    "sheaf-ops": sheaf_ops,
    "ring-search": ring_search,
}
