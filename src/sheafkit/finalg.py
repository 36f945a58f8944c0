"""Finite commutative unital rings, matrices, submodules, and brute-force
structure searches.

Ring elements are integer codes 0..size-1 with explicit add/mul tables, so
every downstream check is exact table lookup and works for any ring the
constructors can build (prime fields, Z/m, F_p[t]/(poly), products).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import (
    InvalidPolynomial,
    NonSquare,
    NotAField,
    NotPrime,
    RingError,
    SpaceTooLarge,
)

DEFAULT_ISO_SEARCH_BOUND = 64
# |R|^2 table entries at O(1) each; rings given as raw tables (`FinRing(...)`,
# `ring_from_ops`) then take an O(|R|^2 log|R|) axiom check
DEFAULT_MAX_RING_SIZE = 128

Vec = Tuple[int, ...]


class FinRing:
    """Finite commutative unital ring given by operation tables.

    `FinRing(...)` checks the tables with `check_axioms` and raises
    `RingError` on a violation, as does `ring_from_ops`, which calls it.
    The constructors `make_mod_ring`, `make_field`, `make_quotient` and
    `make_product` build Z/m, F_p[t]/(f) for a monic f, and products of
    rings, which are rings by construction; they build through
    `_constructed`, which skips the check.  The tests run `check_axioms`
    and a cubic oracle on their output up to the ring size guard.
    """

    _by_construction = False  # True on the rings `_constructed` builds

    def __init__(self, names: Sequence[str], add: Sequence[Sequence[int]],
                 mul: Sequence[Sequence[int]], zero: int, one: int,
                 label: str = ""):
        self.names = tuple(names)
        self.size = len(self.names)
        self.add_table = tuple(tuple(row) for row in add)
        self.mul_table = tuple(tuple(row) for row in mul)
        self.zero = zero
        self.one = one
        self.label = label or f"ring{self.size}"
        if not self._by_construction:
            problems = self.check_axioms()
            if problems:
                raise RingError("; ".join(problems))

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.add_table[a].index(self.zero)

    def elements(self) -> range:
        return range(self.size)

    def check_axioms(self) -> List[str]:
        """Exact check of the commutative unital ring axioms in O(|R|^2 log |R|).

        Returns the first witness found for each violated axiom.  Identities,
        inverses and commutativity are read a row at a time.  The axioms in
        three variables are checked only where one variable runs over a set S
        of additive generators (`_additive_generators`): every element is a
        sum (..(s1 + s2) + ..) + sk of members of S, and |S| <= log2 |R| once
        (R,+) is a group, since each new generator at least doubles the
        subgroup reached.  Each reduction below is exact when the axioms
        checked before it hold; when one of those fails, the ring is rejected
        anyway, and every witness reported is a real violation.
        """
        n, zero, one = self.size, self.zero, self.one
        add, mul = self.add_table, self.mul_table
        add_t, mul_t = tuple(zip(*add)), tuple(zip(*mul))
        elems = tuple(range(n))
        problems = []
        a = _first_difference(add_t[zero], elems)
        if a is not None:
            problems.append(f"{a}+0 != {a}")
        a = _first_difference(mul_t[one], elems)
        if a is not None:
            problems.append(f"{a}*1 != {a}")
        a = next((a for a in elems if zero not in add[a]), None)
        if a is not None:
            problems.append(f"{a} has no additive inverse")
        for op, table, table_t in (("add", add, add_t), ("mul", mul, mul_t)):
            a = _first_difference(table, table_t)
            if a is not None:
                b = _first_difference(table[a], table_t[a])
                problems.append(f"{op} not commutative at ({a},{b})")
        gens = _additive_generators(add, zero)
        # Light's test: the s with (x+s)+y = x+(s+y) for all x, y are closed
        # under +, as (x+(s+t))+y = ((x+s)+t)+y = (x+s)+(t+y) = x+(s+(t+y))
        # = x+((s+t)+y).  One row over y per (x, s).
        w = _first_mismatch((x, s, add[add[x][s]], tuple(map(add[x].__getitem__, add[s])))
                            for s in gens for x in elems)
        if w is not None:
            problems.append("add not associative at ({},{},{})".format(*w))
        # Once + is associative, the c with a(b+c) = ab+ac for all a, b are
        # closed under +: a(b+(c+d)) = a((b+c)+d) = (ab+ac)+ad = ab+a(c+d).
        # One row over b per (a, s).
        w = _first_mismatch((a, s, tuple(map(mul[a].__getitem__, add_t[s])),
                             tuple(map(add_t[mul[a][s]].__getitem__, mul[a])))
                            for a in elems for s in gens)
        if w is not None:
            a, s, b = w
            problems.append(f"distributivity fails at ({a},{b},{s})")
        # With * commutative and distributive, (ab)c and a(bc) are additive in
        # each of a, b and c, so they agree everywhere once they agree on S^3.
        w = next(((a, b, c) for a in gens for b in gens for c in gens
                  if mul[mul[a][b]][c] != mul[a][mul[b][c]]), None)
        if w is not None:
            problems.append("mul not associative at ({},{},{})".format(*w))
        if n > 1 and zero == one:
            problems.append("0 == 1 in a nontrivial ring")
        return problems

    def __repr__(self) -> str:
        return f"FinRing({self.label}, size={self.size})"


def _first_difference(xs: Sequence, ys: Sequence) -> Optional[int]:
    return next((i for i, (x, y) in enumerate(zip(xs, ys)) if x != y), None)


def _first_mismatch(rows) -> Optional[Tuple[int, int, int]]:
    """(i, j, k) for the first (i, j, lhs, rhs) of `rows` whose two rows
    differ, k the first position at which they do."""
    for i, j, lhs, rhs in rows:
        if lhs != rhs:
            return i, j, _first_difference(lhs, rhs)
    return None


def _additive_generators(add: Sequence[Sequence[int]], zero: int) -> List[int]:
    """Greedy S, in code order with 0 last, such that every element is a
    left-nested sum (..(s1 + s2) + ..) + sk of members of S.

    An element not yet reached joins S, and the sums reached so far are
    extended by it; O(|R| |S|).
    """
    n = len(add)
    reached = [False] * n
    sums: List[int] = []
    gens: List[int] = []
    for g in [x for x in range(n) if x != zero] + [zero]:
        if reached[g]:
            continue
        gens.append(g)
        work = [g] + [add[x][g] for x in sums]
        while work:
            x = work.pop()
            if not reached[x]:
                reached[x] = True
                sums.append(x)
                work.extend(add[x][s] for s in gens)
    return gens


def is_unit(r: FinRing, x: int) -> bool:
    return any(r.mul(x, y) == r.one for y in r.elements())


def is_field(r: FinRing) -> bool:
    return r.size > 1 and all(is_unit(r, x) for x in r.elements() if x != r.zero)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p ** 0.5) + 1))


def _check_ring_size(size: int) -> None:
    if size > DEFAULT_MAX_RING_SIZE:
        raise SpaceTooLarge(
            f"ring size {size} exceeds bound {DEFAULT_MAX_RING_SIZE}")


def _constructed(names: Sequence[str], add: Sequence[Sequence[int]],
                 mul: Sequence[Sequence[int]], zero: int, one: int,
                 label: str) -> FinRing:
    """A FinRing from tables that form a ring by construction, built by
    `FinRing.__init__` without the axiom check."""
    r = FinRing.__new__(FinRing)
    r._by_construction = True
    r.__init__(names, add, mul, zero, one, label)
    return r


def make_mod_ring(m: int) -> FinRing:
    if m < 2:
        raise RingError(f"modulus {m} < 2")
    _check_ring_size(m)
    names = [str(i) for i in range(m)]
    add = [[(i + j) % m for j in range(m)] for i in range(m)]
    mul = [[(i * j) % m for j in range(m)] for i in range(m)]
    return _constructed(names, add, mul, zero=0, one=1, label=f"Z/{m}")


def make_field(p: int) -> FinRing:
    _check_ring_size(p)  # before the primality test, which takes sqrt(p) steps
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    r = make_mod_ring(p)
    r.label = f"F_{p}"
    return r


def _poly_name(coeffs: Sequence[int]) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("t" if c == 1 else f"{c}t")
        else:
            terms.append(f"t^{i}" if c == 1 else f"{c}t^{i}")
    return "+".join(reversed(terms)) if terms else "0"


def make_quotient(p: int, poly: Sequence[int]) -> FinRing:
    """F_p[t]/(poly); poly is monic, coefficients low-to-high, degree >= 1.

    Element code sum(c_i p^i) encodes the residue sum(c_i t^i).
    """
    _check_ring_size(p)  # the coefficient field alone has p elements
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    poly = [c % p for c in poly]
    while poly and poly[-1] == 0:
        poly.pop()
    d = len(poly) - 1
    if d < 1 or poly[-1] != 1:
        raise InvalidPolynomial("modulus must be monic of degree >= 1")
    size = p ** d
    _check_ring_size(size)
    low = size // p  # codes of degree < d - 1

    # Code a = a0 + p*a' is the residue a0 + t*a', so each table row is read
    # off rows already built.  a + b = (a0 + b0) + t*(a' + b'):
    add = [list(range(size))]
    shift = [[(a0 + b0) % p for b0 in range(p)] for a0 in range(p)]
    for a in range(1, size):
        s, ra = shift[a % p], add[a // p]
        add.append([p * ra[b1] + c for b1 in range(low) for c in s])
    # t*a: shift the digits up and fold the top one h by t^d = -(f_0..f_{d-1})
    fold = [sum(-h * c % p * p ** i for i, c in enumerate(poly[:d])) for h in range(p)]
    times_t = [add[p * (a % low)][fold[a // low]] for a in range(size)]
    # c*a for constants c < p, by repeated addition
    scaled = [[0] * size]
    for c in range(1, p):
        scaled.append([add[x][a] for a, x in enumerate(scaled[-1])])
    # a*b = b0*a + t*(a*b'), with b' < b
    mul = []
    for a in range(size):
        adds = [add[scaled[c][a]] for c in range(p)]
        row = [0] * size
        for b1 in range(low):
            y = times_t[row[b1]]
            row[p * b1:p * b1 + p] = [r[y] for r in adds]
        mul.append(row)
    names = [_poly_name([code // p ** i % p for i in range(d)]) for code in range(size)]
    return _constructed(names, add, mul, zero=0, one=1,
                        label=f"F_{p}[t]/({_poly_name(poly)})")


def make_product(r: FinRing, s: FinRing) -> FinRing:
    """Direct product with componentwise operations; code = a*|s| + b."""
    m = s.size
    size = r.size * m
    _check_ring_size(size)
    names = [f"({r.names[a]},{s.names[b]})" for a in r.elements() for b in s.elements()]
    add = [[ra * m + sa for ra in r.add_table[a] for sa in s.add_table[b]]
           for a in r.elements() for b in s.elements()]
    mul = [[ra * m + sa for ra in r.mul_table[a] for sa in s.mul_table[b]]
           for a in r.elements() for b in s.elements()]
    return _constructed(names, add, mul,
                        zero=r.zero * m + s.zero,
                        one=r.one * m + s.one,
                        label=f"{r.label}x{s.label}")


def ring_from_ops(elements: Sequence, add_fn, mul_fn, zero, one,
                  label: str = "") -> FinRing:
    """Build an explicit FinRing from a finite element list and operations.

    Used to give ring structure to carriers produced by sheaf constructions
    (stalks of pullbacks, section sets), whose elements are arbitrary
    hashable values.
    """
    elems = list(elements)
    index = {e: i for i, e in enumerate(elems)}
    names = [str(e) for e in elems]
    add = [[index[add_fn(a, b)] for b in elems] for a in elems]
    mul = [[index[mul_fn(a, b)] for b in elems] for a in elems]
    return FinRing(names, add, mul, zero=index[zero], one=index[one], label=label)


@dataclass(frozen=True)
class RingMorphism:
    domain: FinRing
    codomain: FinRing
    assignment: Tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.assignment[a]


def validate_morphism(f: RingMorphism) -> bool:
    """Unital ring morphism check on the full tables."""
    r, s = f.domain, f.codomain
    if len(f.assignment) != r.size:
        return False
    if f.assignment[r.one] != s.one:
        return False
    for a in r.elements():
        for b in r.elements():
            if f.assignment[r.add(a, b)] != s.add(f.assignment[a], f.assignment[b]):
                return False
            if f.assignment[r.mul(a, b)] != s.mul(f.assignment[a], f.assignment[b]):
                return False
    return True


def _element_signatures(r: FinRing) -> List[Tuple[int, int, bool, int]]:
    """Per element, in O(|R|^2): additive order, number of distinct positive
    powers, whether it is a unit, and the size of its annihilator."""
    add, mul, zero = r.add_table, r.mul_table, r.zero
    sigs = []
    for x in r.elements():
        order, y = 1, x
        while y != zero:
            order, y = order + 1, add[y][x]
        powers, y = set(), x
        while y not in powers:
            powers.add(y)
            y = mul[y][x]
        sigs.append((order, len(powers), r.one in mul[x], mul[x].count(zero)))
    return sigs


def find_ring_isomorphism(r: FinRing, s: FinRing) -> Optional[RingMorphism]:
    """Exhaustive search for a unital ring isomorphism r -> s.

    Backtracking over element images in increasing code order, pruning on
    the add/mul tables, so the returned witness is lexicographically least.
    An isomorphism preserves every entry of `_element_signatures`, so each
    element's images are drawn from its own signature class only, and rings
    whose signature multisets differ are told apart before any search; this
    cuts only branches that hold no isomorphism.  0 and 1 are alone in their
    classes (additive order 1; the only idempotent unit), so they map to 0
    and 1.  Returns None after the search exhausts.
    """
    if r.size != s.size:
        return None
    if r.size > DEFAULT_ISO_SEARCH_BOUND:
        raise SpaceTooLarge(
            f"ring size {r.size} exceeds bound {DEFAULT_ISO_SEARCH_BOUND}")
    sig_r, sig_s = _element_signatures(r), _element_signatures(s)
    if sorted(sig_r) != sorted(sig_s):
        return None
    by_sig: Dict[Tuple[int, int, bool, int], List[int]] = {}
    for y, sig in enumerate(sig_s):
        by_sig.setdefault(sig, []).append(y)
    candidates = [by_sig[sig] for sig in sig_r]

    n = r.size
    r_add, r_mul, s_add, s_mul = r.add_table, r.mul_table, s.add_table, s.mul_table
    assignment: List[int] = [-1] * n
    used = [False] * n

    def consistent(a: int) -> bool:
        # elements 0..a are assigned, the rest are not
        fa = assignment[a]
        ra, rm, sa, sm = r_add[a], r_mul[a], s_add[fa], s_mul[fa]
        for b in range(a + 1):
            fb = assignment[b]
            ab = assignment[ra[b]]
            if ab >= 0 and sa[fb] != ab:
                return False
            mb = assignment[rm[b]]
            if mb >= 0 and sm[fb] != mb:
                return False
        return True

    def extend(a: int) -> bool:
        if a == n:
            return True
        for image in candidates[a]:
            if used[image]:
                continue
            assignment[a] = image
            used[image] = True
            if consistent(a) and extend(a + 1):
                return True
            assignment[a] = -1
            used[image] = False
        return False

    if not extend(0):
        return None
    f = RingMorphism(r, s, tuple(assignment))
    assert validate_morphism(f)
    return f


# -- matrices ----------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    ring: FinRing
    rows: int
    cols: int
    entries: Tuple[int, ...]  # row-major codes

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise RingError("entry count != rows*cols")

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def mul(self, other: "Matrix") -> "Matrix":
        assert self.cols == other.rows
        r = self.ring
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = r.zero
                for t in range(self.cols):
                    acc = r.add(acc, r.mul(self.at(i, t), other.at(t, j)))
                out.append(acc)
        return Matrix(r, self.rows, other.cols, tuple(out))

    def apply(self, v: Vec) -> Vec:
        assert len(v) == self.cols
        add, mul, n = self.ring.add_table, self.ring.mul_table, self.cols
        out = []
        for i in range(self.rows):  # a 0-column matrix sends () to zeros
            acc = self.ring.zero
            for a, b in zip(self.entries[i * n:i * n + n], v):
                acc = add[acc][mul[a][b]]
            out.append(acc)
        return tuple(out)


def identity_matrix(r: FinRing, n: int) -> Matrix:
    return Matrix(r, n, n, tuple(r.one if i == j else r.zero
                                 for i in range(n) for j in range(n)))


def is_invertible(m: Matrix) -> bool:
    """Whether the k rows of m span R^k, growing the span one row at a time
    and stopping at the first row with a nonzero multiple already in it.
    Over a finite ring, onto R^k is bijective, so the transpose of m is
    invertible, and with it m.  Rows, not columns: in entry product order
    a leading zero row is rejected at once."""
    if m.rows != m.cols:
        raise NonSquare(f"{m.rows}x{m.cols}")
    r, k = m.ring, m.cols
    acc = frozenset({zero_vec(r, k)})
    for i in range(k):
        multiples = nonzero_multiples(r, m.entries[i * k:i * k + k])
        if not acc.isdisjoint(multiples):
            return False
        if i + 1 < k:
            acc = grow_span(r, acc, multiples)
    return True


def inverse(m: Matrix) -> Matrix:
    """m^-1, whose column j is the preimage of e_j under v -> m v."""
    if m.rows != m.cols:
        raise NonSquare(f"{m.rows}x{m.cols}")
    r, k = m.ring, m.cols
    preimage = {m.apply(v): v for v in all_vecs(r, k)}
    if len(preimage) < r.size ** k:
        raise RingError("matrix is not invertible")
    ident = identity_matrix(r, k).entries
    cols = [preimage[ident[j * k:j * k + k]] for j in range(k)]
    return Matrix(r, k, k, tuple(col[i] for i in range(k) for col in cols))


def invertible_matrices(r: FinRing, k: int):
    """The invertible k x k matrices over r in entry product order, the
    product filtered by `is_invertible`: rows are chosen depth first in
    product order, and a row with a nonzero multiple in the span of the
    rows above it is cut with every matrix that continues it."""
    rows = [(row, nonzero_multiples(r, row))
            for row in itertools.product(r.elements(), repeat=k)]

    def extend(entries: Tuple[int, ...], acc: FrozenSet[Vec], depth: int):
        if depth == k:
            yield Matrix(r, k, k, entries)
            return
        for row, multiples in rows:
            if acc.isdisjoint(multiples):
                yield from extend(entries + row,
                                  grow_span(r, acc, multiples) if depth + 1 < k else acc,
                                  depth + 1)

    yield from extend((), frozenset({zero_vec(r, k)}), 0)


class MatrixActions:
    """The invertible k x k matrices over r as actions on r^k, in
    `invertible_matrices` order: each the tuple of the images of `vecs`, so
    the image of v sits at `index[v]`.  Listed only as far as some iteration
    has reached, so each matrix is built and applied once however often the
    list is walked."""

    def __init__(self, r: FinRing, k: int):
        self.vecs = tuple(all_vecs(r, k))
        self.index = {v: i for i, v in enumerate(self.vecs)}
        self.mats = invertible_matrices(r, k)
        self.listed: List[Tuple[Vec, ...]] = []

    def __iter__(self):
        listed, vecs, index = self.listed, self.vecs, self.index
        i = 0
        while True:
            if i == len(listed):
                mat = next(self.mats, None)
                if mat is None:
                    return
                # images share the tuples of `vecs`
                listed.append(tuple(vecs[index[mat.apply(v)]] for v in vecs))
            yield listed[i]
            i += 1


# -- vectors and submodules --------------------------------------------------

def vec_add(r: FinRing, u: Vec, v: Vec) -> Vec:
    return tuple(r.add(a, b) for a, b in zip(u, v))


def vec_scale(r: FinRing, c: int, v: Vec) -> Vec:
    return tuple(r.mul(c, a) for a in v)


def zero_vec(r: FinRing, n: int) -> Vec:
    return (r.zero,) * n


def all_vecs(r: FinRing, n: int) -> List[Vec]:
    return list(itertools.product(r.elements(), repeat=n))


def span(r: FinRing, n: int, gens: Sequence[Vec]) -> FrozenSet[Vec]:
    """R-linear span of the generators inside R^n."""
    acc = {zero_vec(r, n)}
    for g in gens:
        acc = {vec_add(r, s, vec_scale(r, c, g)) for s in acc for c in r.elements()}
    return frozenset(acc)


def nonzero_multiples(r: FinRing, g: Vec) -> List[Vec]:
    """c g for every c != 0 in r, in code order."""
    return [tuple([row[b] for b in g]) for c, row in enumerate(r.mul_table)
            if c != r.zero]


def grow_span(r: FinRing, acc: FrozenSet[Vec], multiples: List[Vec]) -> FrozenSet[Vec]:
    """The submodule acc + R g, given the nonzero multiples of g.  It has
    |acc| |R| elements iff no nonzero multiple of g lies in acc."""
    add = r.add_table
    return acc.union([tuple([add[a][b] for a, b in zip(s, m)])
                      for s in acc for m in multiples])


def vec_generators(r: FinRing, elems: Sequence[Vec]) -> List[Vec]:
    """Vectors of elems in order, each outside the subgroup the earlier
    ones generate, so that they generate elems if it is a subgroup."""
    gens: List[Vec] = []
    reached: set = set()
    for v in elems:
        if not reached:
            reached = {zero_vec(r, len(v))}
        if v in reached:
            continue
        gens.append(v)
        grown, kv = set(reached), v
        while kv not in reached:  # the cosets reached + kv, k = 1, 2, ...
            grown.update(vec_add(r, t, kv) for t in reached)
            kv = vec_add(r, kv, v)
        reached = grown
    return gens


def broken_law(m: Dict[Vec, Vec], elems: Sequence[Vec], r: FinRing,
               ry: FinRing, code: Sequence[int],
               gens: Optional[List[Vec]] = None) -> Optional[str]:
    """The first law, "additive" or "linear", that m breaks as a map from
    the submodule elems of r^n to ry-vectors semi-linear along the codes
    `code`: additivity before scaling.

    Both are checked against additive generators s of elems alone, `gens`
    when given.  If m(v+s) = m(v)+m(s) for every v and s, then m(0) = 0,
    and adding the terms of a sum w of generators one at a time gives
    m(v+w) = m(v)+m(w).  An additive m with m(as) = code[a] m(s) on the
    generators has it on their sums.  The zero module has no generator and
    is checked on itself.
    """
    if gens is None:
        gens = vec_generators(r, elems) or list(elems)
    for v in elems:
        if any(m[vec_add(r, v, s)] != vec_add(ry, m[v], m[s]) for s in gens):
            return "additive"
    for s in gens:
        if any(m[vec_scale(r, a, s)] != vec_scale(ry, code[a], m[s])
               for a in r.elements()):
            return "linear"
    return None


@dataclass(frozen=True)
class Submodule:
    ring: FinRing
    ambient_rank: int
    elements: FrozenSet[Vec]
    basis: Tuple[Vec, ...] = field(default=(), compare=False, repr=False)

    def sort_key(self) -> Tuple[Vec, ...]:
        return tuple(sorted(self.elements))

    def validate(self) -> bool:
        r = self.ring
        if zero_vec(r, self.ambient_rank) not in self.elements:
            return False
        for u in self.elements:
            for c in r.elements():
                if vec_scale(r, c, u) not in self.elements:
                    return False
            for v in self.elements:
                if vec_add(r, u, v) not in self.elements:
                    return False
        return True


def zero_submodule(r: FinRing, n: int) -> Submodule:
    return Submodule(r, n, frozenset({zero_vec(r, n)}))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def enumerate_free_submodules(r: FinRing, n: int, k: int) -> List[Submodule]:
    """All rank-k free submodules of r^n for a field r, in deterministic order.

    Enumerates reduced row echelon forms: one per subspace, grouped by pivot
    columns, each spanned through the add and mul tables and kept with its
    echelon rows as `basis`. Restricted to fields, where free of rank k means
    dimension k; over general finite rings freeness of a submodule is
    subtler and is not needed here.
    """
    if k == 0:
        return [zero_submodule(r, n)]
    if not is_field(r):
        raise NotAField(f"{r.label} is not a field")
    if k > n:
        return []
    out = []
    for pivots in itertools.combinations(range(n), k):
        free_pos = [(i, j) for i in range(k) for j in range(n)
                    if j > pivots[i] and j not in pivots]
        for vals in itertools.product(r.elements(), repeat=len(free_pos)):
            rows = [[r.zero] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = r.one
            for (pos, v) in zip(free_pos, vals):
                rows[pos[0]][pos[1]] = v
            basis = tuple(tuple(row) for row in rows)
            elements = frozenset([zero_vec(r, n)])
            for row in basis:
                elements = grow_span(r, elements, nonzero_multiples(r, row))
            out.append(Submodule(r, n, elements, basis))
    out.sort(key=Submodule.sort_key)
    return out


def enumerate_submodules_brute(r: FinRing, n: int, k: int) -> List[Submodule]:
    """Independent oracle: spans of all k-tuples of vectors, deduplicated.

    Keeps only spans of size |r|^k, which are exactly the free rank-k
    submodules over any finite commutative ring: the map r^k -> span is onto,
    so it is injective when both sides have |r|^k elements. Slower than the
    echelon enumeration but shares none of its code path.
    """
    target = r.size ** k
    seen = set()
    out = []
    for gens in itertools.product(all_vecs(r, n), repeat=k):
        s = span(r, n, gens)
        if len(s) == target and s not in seen:
            seen.add(s)
            out.append(Submodule(r, n, s))
    out.sort(key=Submodule.sort_key)
    return out
