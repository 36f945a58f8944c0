"""Independent oracles for every verdict the benchmark requests.

Nothing here imports sheafkit.  Each oracle predicts a report from the
generated input alone, by closed-form counting or by invariants:

- Grassmann value counts over an open U are the Gaussian binomial
  [n k]_q raised to the number of components of U, since a free subsheaf of
  the constant sheaf is a choice of subspace per component.
- Sheafified sections of a constant or locally constant set presheaf number
  |S|^components; the constant one (with a point over the empty open) is
  complete iff every nonempty open is connected.
- Finite rings are compared by their multiset of local factors: Z/p^e, or
  F_p[t]/(g^e) with g irreducible, which depends only on (p, deg g, e).
- Line bundles glued on the pseudo-circle from units (g_a, g_b) are
  classified by g_a/g_b; rank-2 ones over F_2 by the conjugacy class of
  G_a G_b^-1.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from topology import Space, components, key, opens

Path = Tuple[str, ...]
Expected = Dict[Path, Any]


# -- counting ----------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n k]_q by the q-Pascal rule [n k] = [n-1 k-1] + q^k [n-1 k]."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gaussian_binomial(n - 1, k - 1, q) + q ** k * gaussian_binomial(n - 1, k, q)


def grassmann_expected(space: Space, q: int, k: int, n: int) -> Expected:
    g = gaussian_binomial(n, k, q)
    exp: Expected = {("command",): "grassmann", ("k",): k, ("n",): n,
                     ("ring",): f"F_{q}",
                     ("sections_over_whole",): g ** len(components(space, space)),
                     ("monopresheaf",): True, ("complete_at_this_scale",): True}
    exp[("value_counts",)] = {key(u): g ** len(components(space, u))
                              for u in opens(space)}
    return exp


def classify_expected(space: Space, q: int, k: int, n: int) -> Expected:
    count = gaussian_binomial(n, k, q) ** len(components(space, space))
    return {("command",): "classify", ("k",): k, ("n",): n, ("ring",): f"F_{q}",
            ("counts", "sections"): count, ("counts", "subsheaves"): count,
            ("bijection",): True, ("embed_image_found",): True}


def pairs_are_bijection(report: dict) -> bool:
    pairs = report.get("pairs")
    count = report.get("counts", {}).get("sections")
    if not isinstance(pairs, list) or len(pairs) != count:
        return False
    return (sorted(p[0] for p in pairs) == list(range(count))
            and sorted(p[1] for p in pairs) == list(range(count)))


# -- set presheaves ----------------------------------------------------------

def carrier_size(space: Space, u, kind: str, s: int) -> int:
    if kind == "constant":
        return s if u else 1
    return s ** len(components(space, u))


def presheaf_check_expected(space: Space, kind: str, s: int) -> Expected:
    complete = kind == "locally-constant" or all(
        len(components(space, u)) == 1 for u in opens(space) if u)
    return {("command",): "presheaf-check", ("valid",): True,
            ("violations",): [], ("monopresheaf",): True,
            ("complete",): complete}


def sheafify_expected(space: Space, kind: str, s: int) -> Expected:
    per_open = {}
    for u in opens(space):
        carrier = carrier_size(space, u, kind, s)
        sections = s ** len(components(space, u))
        per_open[key(u)] = {"carrier": carrier, "sections": sections,
                            "unit_bijective": carrier == sections}
    return {("command",): "sheafify", ("opens",): per_open,
            ("unit_bijective_everywhere",): all(
                v["unit_bijective"] for v in per_open.values())}


def stalks_expected(space: Space, s: int) -> Expected:
    return {("command",): "stalks",
            ("stalk_sizes",): {x: s for x in sorted(space)}}


def pullback_expected(domain: Space, s: int) -> Expected:
    return {("command",): "pullback", ("domain_points",): sorted(domain),
            ("stalk_sizes",): {y: s for y in sorted(domain)}}


# -- finite rings ------------------------------------------------------------

def _strip(f: List[int]) -> List[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _divmod(f: Sequence[int], g: Sequence[int], p: int) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of f by the monic g over F_p."""
    rem = [c % p for c in f]
    quot = [0] * max(len(f) - len(g) + 1, 1)
    while len(_strip(rem)) >= len(g):
        shift, lead = len(rem) - len(g), rem[-1]
        quot[shift] = lead
        for i, c in enumerate(g):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
    return quot, rem


def _monic(p: int, d: int):
    for low in itertools.product(range(p), repeat=d):
        yield list(low) + [1]


def _irreducible(g: Sequence[int], p: int) -> bool:
    d = len(g) - 1
    return all(_divmod(g, h, p)[1]
               for e in range(1, d // 2 + 1) for h in _monic(p, e))


def factor_types(p: int, poly: Sequence[int]) -> List[Tuple[int, int]]:
    """(degree, multiplicity) of each irreducible factor of a monic poly."""
    f = _strip([c % p for c in poly])
    out = []
    for d in range(1, len(f)):
        for g in _monic(p, d):
            if len(f) - 1 < d:
                break
            if not _irreducible(g, p):
                continue
            e = 0
            while len(f) > 1:
                quot, rem = _divmod(f, g, p)
                if rem:
                    break
                f, e = _strip(quot), e + 1
            if e:
                out.append((d, e))
    return out


def prime_powers(m: int) -> List[Tuple[int, int]]:
    out, d = [], 2
    while m > 1:
        e = 0
        while m % d == 0:
            m, e = m // d, e + 1
        if e:
            out.append((d, e))
        d += 1
    return out


def local_factors(spec: dict) -> Tuple[tuple, ...]:
    """Sorted local factors: ("F", p, d, e) is F_{p^d}[s]/(s^e), ("Z", p, e)
    is Z/p^e with e >= 2.  Two rings are isomorphic iff these agree."""
    kind = spec["kind"]
    if kind == "Fp":
        out = [("F", spec["p"], 1, 1)]
    elif kind == "Zm":
        out = [("F", p, 1, 1) if e == 1 else ("Z", p, e)
               for p, e in prime_powers(spec["m"])]
    elif kind == "quotient":
        out = [("F", spec["p"], d, e) for d, e in factor_types(spec["p"], spec["poly"])]
    else:
        out = list(local_factors(spec["left"]) + local_factors(spec["right"]))
    return tuple(sorted(out))


def _factor_order(f: tuple) -> Tuple[int, int]:
    """(size, unit count) of one local factor."""
    if f[0] == "Z":
        _, p, e = f
        return p ** e, p ** e - p ** (e - 1)
    _, p, d, e = f
    q = p ** d
    return q ** e, q ** e - q ** (e - 1)


def ring_expected(spec: dict) -> Expected:
    factors = local_factors(spec)
    size = units = 1
    for f in factors:
        s, u = _factor_order(f)
        size, units = size * s, units * u
    field = len(factors) == 1 and factors[0][0] == "F" and factors[0][3] == 1
    return {("size",): size, ("units",): units, ("field",): field}


def ring_iso_expected(left: dict, right: dict) -> Expected:
    return {("isomorphic",): local_factors(left) == local_factors(right)}


def witness_is_isomorphism(tables: dict, report: dict) -> bool:
    """A returned witness must be a unital bijective ring homomorphism."""
    f = report.get("witness")
    if f is None:
        return True
    (ra, rm, r1), (sa, sm, s1) = tables["left"], tables["right"]
    n = len(ra)
    if sorted(f) != list(range(n)) or f[r1] != s1:
        return False
    return all(f[ra[a][b]] == sa[f[a]][f[b]] and f[rm[a][b]] == sm[f[a]][f[b]]
               for a in range(n) for b in range(n))


# -- glued bundles on the pseudo-circle --------------------------------------

def mat_mul(x: tuple, y: tuple, p: int) -> tuple:
    (a, b, c, d), (e, f, g, h) = x, y
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


def gl2(p: int) -> List[tuple]:
    return [m for m in itertools.product(range(p), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % p]


def mat_inv(x: tuple, p: int) -> tuple:
    return next(y for y in gl2(p) if mat_mul(x, y, p) == (1, 0, 0, 1))


def bundle_class(p: int, rank: int, ga, gb) -> Any:
    """Isomorphism invariant of the bundle glued by (ga, gb) over {a, b}."""
    if rank == 1:
        return ga * pow(gb, -1, p) % p
    ratio = mat_mul(ga, mat_inv(gb, p), p)
    return min(mat_mul(mat_mul(h, ratio, p), mat_inv(h, p), p) for h in gl2(p))


def bundle_iso_expected(p: int, rank: int, left, right) -> Expected:
    return {("isomorphic",): bundle_class(p, rank, *left) == bundle_class(p, rank, *right)}


def bundle_free_expected(p: int, rank: int, g) -> Expected:
    trivial = 1 if rank == 1 else (1, 0, 0, 1)
    return {("free",): bundle_class(p, rank, *g) == trivial}


def embed_expected(rank: int, cover_size: int) -> Expected:
    return {("command",): "embed", ("rank",): rank, ("cover_size",): cover_size,
            ("target_rank",): rank * cover_size, ("monomorphism",): True}


DEMO_EXPECTED: Expected = {
    ("command",): "demo-counterexample", ("presheaf_valid",): True,
    ("stalk_sizes",): {"x0": 4, "x1": 2},
    ("pullback_stalk_sizes",): {"f0": 4, "f1": 2},
    ("pullback_stalks_isomorphic",): False,
}


# -- checking ----------------------------------------------------------------

_MISSING = object()


def _get(report: Any, path: Path) -> Any:
    for part in path:
        if not isinstance(report, dict) or part not in report:
            return _MISSING
        report = report[part]
    return report


def agrees(report: Any, expected: Expected,
           extra: Optional[Callable[[dict], bool]] = None) -> bool:
    if not isinstance(report, dict):
        return False
    if any(_get(report, path) != value for path, value in expected.items()):
        return False
    return extra is None or extra(report)


def _perturb(value: Any) -> Any:
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "?"
    if isinstance(value, list):
        return value + [None]
    if isinstance(value, dict) and value:
        first = sorted(value)[0]
        return {**value, first: _perturb(value[first])}
    return [value]


def rejects_perturbations(report: dict, expected: Expected,
                          extra: Optional[Callable[[dict], bool]] = None) -> bool:
    """Self-test: a correct report passes, and changing any checked field of
    it, one at a time, makes the oracle reject it."""
    if not expected or not agrees(report, expected, extra):
        return False
    for path in expected:
        bad = copy.deepcopy(report)
        node = bad
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = _perturb(node[path[-1]])
        if agrees(bad, expected, extra):
            return False
    return True
