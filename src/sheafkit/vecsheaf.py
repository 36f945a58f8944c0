"""Sheaves of modules over a sheaf of algebras on a finite space.

Sheaves are encoded stalkwise: a ring (or module) per point together with
restriction maps along specialization (y in min_open(x)).  On a finite space
this functor-on-points data determines the sheaf, and sections over an open
set are the compatible families of stalk values.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import (
    CocycleConditionViolated,
    InvalidWeights,
    SearchBudgetExceeded,
    SpaceTooLarge,
    TrivializationMismatch,
    ValidationError,
)
from .finalg import (
    FinRing,
    Matrix,
    MatrixActions,
    Submodule,
    Vec,
    all_vecs,
    broken_law,
    grow_span,
    identity_matrix,
    inverse,
    is_invertible,
    is_unit,
    nonzero_multiples,
    span,
    vec_generators,
    vec_scale,
    zero_vec,
)
from .finspace import FinSpace, Point, PointSet
from .presheaf import (
    RING,
    Carrier,
    Presheaf,
    compatible_families,
    germ_family_presheaf,
)

DEFAULT_SEARCH_BUDGET = 200_000
MAX_STALK_VECTORS = 10 ** 5  # vectors of one stalk a free sheaf may list


@dataclass
class Budget:
    """Search steps one command may take, shared by every search it runs.

    A step is one node of a freeness search that runs, one isomorphism
    candidate or one weight family.  A Grassmann build asks each (open,
    value) once.  A library call given no budget makes a fresh one per
    search.
    """
    limit: int = DEFAULT_SEARCH_BUDGET
    used: int = 0

    def spend(self, search: str, steps: int = 1) -> None:
        self.used += steps
        if self.used > self.limit:
            raise SearchBudgetExceeded(
                f"{search} exceeded the budget of {self.limit} steps")


class AlgebraSheaf:
    """Structure sheaf: a ring per point plus stalk restriction morphisms.

    ``res[(x, y)]`` (for y in min_open(x)) maps stalk codes at x to stalk
    codes at y; identity pairs are filled in automatically.  Sections over an
    open set are compatible code families, which makes the induced presheaf
    of sections complete by construction.
    """

    _additive_res = False  # True on constant sheaves

    def __init__(self, space: FinSpace, stalk_ring: Dict[Point, FinRing],
                 res: Dict[Tuple[Point, Point], Sequence[int]], label: str = ""):
        self.space = space
        self.stalk_ring = dict(stalk_ring)
        self.res: Dict[Tuple[Point, Point], Tuple[int, ...]] = {}
        for x in space.points:
            for y in space.min_open[x]:
                if x == y:
                    self.res[(x, x)] = tuple(range(stalk_ring[x].size))
                else:
                    self.res[(x, y)] = tuple(res[(x, y)])
        self.label = label or "A"

    def sections(self, u: PointSet) -> List[Tuple[int, ...]]:
        return compatible_families(
            self.space, u,
            lambda x: list(self.stalk_ring[x].elements()),
            lambda x, y, a: self.res[(x, y)][a])

    def to_presheaf(self) -> Presheaf:
        """The (complete) presheaf of sections, with ring-tagged carriers."""
        return germ_family_presheaf(
            self.space,
            lambda x: Carrier(RING, tuple(self.stalk_ring[x].elements()),
                              self.stalk_ring[x]),
            lambda x, y, a: self.res[(x, y)][a], lambda u: RING, self.label)


def _broken_restrictions(a: AlgebraSheaf, pts: List[Point], germs: Sequence[int]
                         ) -> List[Tuple[Point, Point]]:
    """The pairs (x, y), x in pts and y in min_open(x) and in pts, both in
    sorted order, at which the germ family (germs indexed like pts) breaks
    A's restriction.  pts are an open's sorted points, and the family is a
    section of A there iff there are none, as `compatible_families` lists
    sections; a cover member that is not open may leave y out of pts."""
    at = dict(zip(pts, germs))
    return [(x, y) for x in pts for y in sorted(a.space.min_open[x])
            if y in at and a.res[(x, y)][at[x]] != at[y]]


def constant_algebra_sheaf(space: FinSpace, ring: FinRing) -> AlgebraSheaf:
    """Sheaf of locally constant functions with values in the ring."""
    a = AlgebraSheaf(space, {x: ring for x in space.points},
                     {(x, y): tuple(range(ring.size))
                      for x in space.points for y in space.min_open[x]},
                     label=f"const({ring.label})")
    a._additive_res = True  # every restriction is the identity
    return a


class ModuleSheaf:
    """Module sheaf over an algebra sheaf, encoded stalkwise.

    The stalk at x is an explicit set of vectors in stalk_ring(x)^rank_at(x);
    restriction maps must be additive and semi-linear over the base.  The
    restriction dicts are kept, not copied, so pairs may share one; an
    identity pair left out of ``res`` gets the identity map.
    """

    # True on free and glued sheaves over a constant algebra sheaf: their
    # stalks are full and every restriction is additive
    _additive_res = False

    def __init__(self, base: AlgebraSheaf, rank_at: Dict[Point, int],
                 stalk_elems: Dict[Point, Tuple[Vec, ...]],
                 res: Dict[Tuple[Point, Point], Dict[Vec, Vec]]):
        self.base = base
        self.space = base.space
        self.rank_at = rank_at
        self.stalk_elems = stalk_elems
        self.res = {(x, y): res[(x, y)] if x != y or (x, x) in res
                    else {v: v for v in stalk_elems[x]}
                    for x in self.space.points for y in self.space.min_open[x]}
        self._generators = {}  # (id(stalk), ring) -> (stalk, its generators)

    def ring_at(self, x: Point) -> FinRing:
        return self.base.stalk_ring[x]

    def generators(self, x: Point) -> List[Vec]:
        """The stalk's additive generators, as `broken_law` takes them,
        computed once per stalk."""
        elems, r = self.stalk_elems[x], self.ring_at(x)
        key = (id(elems), r)  # points over one ring may share a stalk, held here
        if key not in self._generators:
            self._generators[key] = (elems, vec_generators(r, elems) or list(elems))
        return self._generators[key][1]

    def sections(self, u: PointSet) -> List[Tuple[Vec, ...]]:
        return compatible_families(
            self.space, u,
            lambda x: list(self.stalk_elems[x]),
            lambda x, y, v: self.res[(x, y)][v])

    def validate(self) -> List[str]:
        problems = []
        for x in self.space.points:
            r = self.ring_at(x)
            zero = zero_vec(r, self.rank_at[x])
            if zero not in self.stalk_elems[x]:
                problems.append(f"stalk at {x!r} misses zero")
            for y in sorted(self.space.min_open[x]):
                m = self.res[(x, y)]
                law = broken_law(m, self.stalk_elems[x], r, self.ring_at(y),
                                 self.base.res[(x, y)], self.generators(x))
                if law:
                    problems.append(f"res({x!r},{y!r}) not "
                                    + ("semi-linear" if law == "linear" else law))
                for z in sorted(self.space.min_open[y]):
                    mz = self.res[(y, z)]
                    mxz = self.res[(x, z)]
                    if any(mz[m[v]] != mxz[v] for v in self.stalk_elems[x]):
                        problems.append(
                            f"res composition fails {x!r}->{y!r}->{z!r}")
        return problems


def _guard_stalks(a: AlgebraSheaf, n: int, sheaf: str) -> None:
    """Refuse, naming the sheaf, when its largest stalk R^n over A would
    list more than MAX_STALK_VECTORS vectors."""
    r = max((a.stalk_ring[x] for x in sorted(a.space.points)), key=lambda r: r.size)
    # |R| >= 2 passes the bound within its bit length in factors
    if r.size ** min(n, MAX_STALK_VECTORS.bit_length()) > MAX_STALK_VECTORS:
        raise SpaceTooLarge(f"{sheaf}: stalk {r.label}^{n} "
                            f"exceeds bound {MAX_STALK_VECTORS} vectors")


def _stalk_vectors(a: AlgebraSheaf, n: int) -> Dict[Point, Tuple[Vec, ...]]:
    """The stalks R^n of A^n: one vector tuple per stalk ring, shared by
    the points over it."""
    vecs = {ring: tuple(all_vecs(ring, n)) for ring in set(a.stalk_ring.values())}
    return {x: vecs[a.stalk_ring[x]] for x in a.space.points}


def free_sheaf(a: AlgebraSheaf, n: int) -> ModuleSheaf:
    """The free module sheaf A^n with componentwise restriction."""
    space = a.space
    _guard_stalks(a, n, f"free sheaf {a.label}^{n}")
    stalks = _stalk_vectors(a, n)
    maps = {}  # one vector map per distinct base restriction, shared by its pairs
    for (x, y), codes in a.res.items():
        if codes not in maps:
            maps[codes] = {v: tuple(codes[c] for c in v) for v in stalks[x]}
    e = ModuleSheaf(a, {x: n for x in space.points}, stalks,
                    {pair: maps[codes] for pair, codes in a.res.items()})
    e._additive_res = a._additive_res
    return e


class _Componentwise:
    """A restriction of A^n, v -> its components' codes, on lookup."""
    __slots__ = ("codes",)

    def __init__(self, codes: Tuple[int, ...]):
        self.codes = codes

    def __getitem__(self, v: Vec) -> Vec:
        return tuple([self.codes[c] for c in v])


class _StalksOnRead(Mapping):
    """The stalks of A^n, listed under the stalk guard when first read, one
    tuple per stalk ring as in `free_sheaf`."""

    def __init__(self, a: AlgebraSheaf, n: int):
        self.a, self.n, self.listed = a, n, {}

    def __getitem__(self, x: Point) -> Tuple[Vec, ...]:
        r = self.a.stalk_ring[x]
        if r not in self.listed:
            _guard_stalks(self.a, self.n, f"free sheaf {self.a.label}^{self.n}")
            self.listed[r] = tuple(all_vecs(r, self.n))
        return self.listed[r]

    def __iter__(self):
        return iter(self.a.space.points)

    def __len__(self) -> int:
        return len(self.a.space.points)


# -- vector subsheaves of A^n ------------------------------------------------

@dataclass(frozen=True, slots=True)
class VectorSubsheaf:
    """Stalkwise family of submodules of the ambient free sheaf A^n: one
    (point, submodule) pair per point of its domain, in point order.

    The family fixes the domain and the vectors' length, so equality and
    hashing read the family alone, and subsheaves produced by independent
    enumerations or on other ambients compare equal.
    """
    ambient: ModuleSheaf = field(compare=False, hash=False)
    family: Tuple[Tuple[Point, FrozenSet[Vec]], ...]

    def family_at(self, x: Point) -> FrozenSet[Vec]:
        for y, vs in self.family:
            if y == x:
                return vs
        raise KeyError(x)

    def sort_key(self):
        return tuple((x, tuple(sorted(vs))) for x, vs in self.family)


def make_subsheaf(ambient: ModuleSheaf,
                  family: Dict[Point, FrozenSet[Vec]]) -> VectorSubsheaf:
    """The subsheaf over the open of family's keys."""
    return VectorSubsheaf(ambient, tuple((x, frozenset(family[x])) for x in sorted(family)))


def restrict_subsheaf(s: VectorSubsheaf, v: PointSet) -> VectorSubsheaf:
    """The part of s over the open v, which lies in its domain."""
    return VectorSubsheaf(s.ambient, tuple([e for e in s.family if e[0] in v]))


def full_subsheaf(ambient: ModuleSheaf, domain: PointSet) -> VectorSubsheaf:
    return make_subsheaf(ambient, {x: frozenset(ambient.stalk_elems[x]) for x in domain})


def zero_subsheaf(ambient: ModuleSheaf, domain: PointSet) -> VectorSubsheaf:
    return make_subsheaf(
        ambient, {x: frozenset({zero_vec(ambient.ring_at(x), ambient.rank_at[x])})
                  for x in domain})


def validate_subsheaf(s: VectorSubsheaf) -> List[str]:
    """Empty report iff each stalk is a submodule closed under restriction."""
    problems = []
    space = s.ambient.space
    for x, vs in s.family:
        sub = Submodule(s.ambient.ring_at(x), s.ambient.rank_at[x], vs)
        if not sub.validate():
            problems.append(f"family at {x!r} is not a submodule")
        for y in sorted(space.min_open[x]):
            m = s.ambient.res[(x, y)]
            if any(m[v] not in s.family_at(y) for v in vs):
                problems.append(
                    f"restriction {x!r}->{y!r} leaves the stalk family")
    return problems


def subsheaf_sections(s: VectorSubsheaf, u: PointSet) -> List[Tuple[Vec, ...]]:
    """Compatible germ families whose germ at every point lies in the stalk
    family there (germs drawn at the maximal points of u may restrict out of
    a family that is not closed under restriction)."""
    fams = [s.family_at(x) for x in sorted(u)]
    secs = compatible_families(s.ambient.space, u, lambda x: sorted(s.family_at(x)),
                               lambda x, y, v: s.ambient.res[(x, y)][v])
    return [sec for sec in secs if all(map(operator.contains, fams, sec))]


class BasisSetup:
    """What `_find_basis` over the open u at rank k needs besides the
    stalk sizes and sections, per point of sorted(u): its stalk ring R,
    the size |R|^k its stalk must have, its zero span, and the memo of
    germ multiples over R, `multiples[R]`, which every set-up given the
    same `multiples` shares.  Made once per (sheaf, open, k)."""

    def __init__(self, e: ModuleSheaf, u: PointSet, k: int,
                 multiples: Dict[FinRing, Dict[Vec, List[Vec]]]):
        self.u, self.k = u, k
        pts = sorted(u)
        self.rings = [e.ring_at(x) for x in pts]
        self.targets = [r.size ** k for r in self.rings]
        self.zeros = [frozenset({(r.zero,) * e.rank_at[x]})
                      for r, x in zip(self.rings, pts)]
        self.memos = [multiples.setdefault(r, {}) for r in self.rings]


def _find_basis(setup: BasisSetup, sizes: List[int],
                sections: Callable[[], List[Tuple[Vec, ...]]],
                budget: Optional[Budget]) -> Tuple[bool, Optional[Tuple]]:
    """First k-tuple of sections over the set-up's open u, in
    `itertools.combinations` order, whose germs at every point i of
    sorted(u) span a stalk of sizes[i] vectors in its stalk ring to its
    rank there.  `sections` is called only once every stalk has |ring|^k
    elements.

    Depth first, growing each point's span one germ at a time: a prefix of d
    sections whose germs span fewer than |ring|^d vectors at some point is
    cut.  Exact over any finite commutative ring, since germs spanning
    |ring|^k vectors make R^k -> R^n injective, and so every prefix too.
    Each visited node spends one budget step; a spent budget names the
    open, the rank and the steps used."""
    k = setup.k
    if not setup.rings:
        return True, ()
    if sizes != setup.targets:
        return False, None
    if k == 0:
        return True, ()
    budget = budget or Budget()
    secs = sections()
    rings, memos = setup.rings, setup.memos

    def extend(start: int, depth: int, spans: List[FrozenSet[Vec]]
               ) -> Optional[Tuple]:
        # `depth` sections are chosen and span spans[i] at point i
        for j in range(start, len(secs) - k + depth + 1):
            budget.spend("freeness search")
            grown = []
            for r, memo, acc, g in zip(rings, memos, spans, secs[j]):
                multiples = memo.get(g)
                if multiples is None:
                    multiples = memo[g] = nonzero_multiples(r, g)
                if not acc.isdisjoint(multiples):
                    break
                grown.append((r, acc, multiples))
            else:
                if depth + 1 == k:
                    return (secs[j],)
                rest = extend(j + 1, depth + 1,
                              [grow_span(*step) for step in grown])
                if rest is not None:
                    return (secs[j],) + rest
        return None

    try:
        witness = extend(0, 0, setup.zeros)
    except SearchBudgetExceeded as exc:
        raise _freeness_spent(exc, setup.u, k, budget) from None
    return witness is not None, witness


def _freeness_spent(exc: SearchBudgetExceeded, u: PointSet, k: int,
                    budget: Budget) -> SearchBudgetExceeded:
    """exc with the open u, the rank k and the steps used appended."""
    return SearchBudgetExceeded(f"{exc} over open {sorted(u)} at rank {k}, "
                                f"{budget.used} steps used")


def is_free_of_rank(s: VectorSubsheaf, u: PointSet, k: int,
                    budget: Optional[Budget] = None
                    ) -> Tuple[bool, Optional[Tuple]]:
    """Search for k sections over u, an open in the domain of s, whose germs
    form a basis at every point.

    Exhaustive over k-subsets of the section list in deterministic order;
    returns the first witness found, counted only when its germs span the
    family at each point.  They span |R|^k vectors there, as many as the
    family holds, so containment decides it; a family that is not a
    submodule is spanned by no witness.  Each call searches.
    """
    family = dict(s.family)
    pts = sorted(u)
    found, witness = _find_basis(BasisSetup(s.ambient, u, k, {}),
                                 [len(family[x]) for x in pts],
                                 lambda: subsheaf_sections(s, u), budget)
    if found and not all(span(s.ambient.ring_at(x), s.ambient.rank_at[x],
                              [sec[i] for sec in witness]) <= family[x]
                         for i, x in enumerate(pts)):
        return False, None
    return found, witness


def is_locally_free(s: VectorSubsheaf, u: PointSet, k: int,
                    budget: Optional[Budget] = None) -> bool:
    """Free on the minimal open of every point of u; minimal opens are the
    localizing cover on a finite space."""
    space = s.ambient.space
    return all(is_free_of_rank(s, space.min_open[x], k, budget)[0]
               for x in sorted(u))


def module_free_of_rank(e: ModuleSheaf, u: PointSet, k: int,
                        budget: Optional[Budget] = None
                        ) -> Tuple[bool, Optional[Tuple]]:
    """Freeness of a module sheaf over u: k sections whose germs are a basis
    of every stalk.  Same search as for subsheaves, against the full stalks."""
    return _find_basis(BasisSetup(e, u, k, {}),
                       [len(e.stalk_elems[x]) for x in sorted(u)],
                       lambda: e.sections(u), budget)


def module_locally_free(e: ModuleSheaf, u: PointSet, k: int,
                        budget: Optional[Budget] = None) -> bool:
    space = e.space
    return all(module_free_of_rank(e, space.min_open[x], k, budget)[0]
               for x in sorted(u))


# -- transition cocycles -----------------------------------------------------

SectionMatrix = Tuple[Tuple[Tuple[int, ...], ...], ...]  # entries are A-sections


@dataclass
class TransitionCocycle:
    """Invertible k x k matrices of overlap sections gluing local free pieces."""
    base: AlgebraSheaf
    cover: Tuple[PointSet, ...]
    rank: int
    transitions: Dict[Tuple[int, int], SectionMatrix]

    def overlap(self, i: int, j: int) -> PointSet:
        return self.cover[i] & self.cover[j]

    def germ_matrix(self, i: int, j: int, x: Point) -> Matrix:
        """Matrix over the stalk ring at x of the transition from chart j to i."""
        if i == j:
            return identity_matrix(self.base.stalk_ring[x], self.rank)
        g = self.transitions[(i, j)]
        pts = sorted(self.overlap(i, j))
        pos = pts.index(x)
        return Matrix(self.base.stalk_ring[x], self.rank, self.rank,
                      tuple(g[r][c][pos]
                            for r in range(self.rank) for c in range(self.rank)))


def validate_cocycle(c: TransitionCocycle) -> List[str]:
    return _chart_changes(c)[0]


def _chart_changes(c: TransitionCocycle
                   ) -> Tuple[List[str], Dict[Tuple[int, int], Dict[Point, Matrix]]]:
    """The cocycle's problems and, when it has none, its chart changes:
    for every ordered pair (i, j) of cover members and every x in their
    overlap, the germ at x of the change from chart j to chart i.  That is
    the identity on the diagonal, the given transition (i, j), or else the
    inverse of the given (j, i), inverted once per point.  The stalk size
    is guarded before anything is checked or listed.

    g_ij g_jl = g_il is checked for i < j < l, and g_ij g_ji = I where
    both are given.  That implies every triple: g_ii = I, a derived g_ji
    is the inverse, and AB = I gives BA = I over a commutative ring, so
    g_ji = g_ij^-1, and each order of i, j, l is the sorted one times
    inverses.  All m^3 triples are scanned, for the same problems, only
    when a check fails."""
    _guard_stalks(c.base, c.rank, f"glued sheaf of rank {c.rank}")
    problems = []
    m = len(c.cover)
    covered = set().union(*c.cover) if c.cover else set()
    if covered != set(c.base.space.points):
        problems.append("cover does not cover the space")
    for u in c.cover:
        if not c.base.space.is_open(u):
            problems.append("cover member is not open")
    given = {}  # (i, j) -> the germs of the given transition (i, j)
    for (i, j), g in c.transitions.items():
        ov = sorted(c.overlap(i, j))
        if len(g) != c.rank or any(len(row) != c.rank for row in g):
            problems.append(f"transition ({i},{j}) has wrong shape")
            continue
        for row in g:
            for entry in row:
                if len(entry) != len(ov):
                    problems.append(f"transition ({i},{j}) entry not an overlap section")
                    continue
                # entries must be sections of A over the overlap, otherwise
                # chart changes do not commute with the base restrictions
                problems += [f"transition ({i},{j}) entry incompatible at {x!r}->{y!r}"
                             for x, y in _broken_restrictions(c.base, ov, entry)]
        given[(i, j)] = {x: c.germ_matrix(i, j, x) for x in ov}
        for x in ov:
            if not is_invertible(given[(i, j)][x]):
                problems.append(f"transition ({i},{j}) not invertible at {x!r}")
    if problems:
        return problems, {}
    idents = {r: identity_matrix(r, c.rank) for r in set(c.base.stalk_ring.values())}
    changes = {}
    for i, j in itertools.product(range(m), repeat=2):
        ov = sorted(c.overlap(i, j))
        if i == j:
            changes[(i, j)] = {x: idents[c.base.stalk_ring[x]] for x in ov}
        elif (i, j) in given:
            changes[(i, j)] = given[(i, j)]
        elif (j, i) in given:
            changes[(i, j)] = {x: inverse(given[(j, i)][x]) for x in ov}
        elif ov and i < j:
            problems.append(f"no transition between charts {i} and {j}")
    if problems:
        return problems, {}
    # (i, j, i) checks g_ij g_ji = I
    implying = [(i, j, i) for i, j in given if i < j and (j, i) in given]
    implying += itertools.combinations(range(m), 3)
    for triples in (implying, itertools.product(range(m), repeat=3)):
        problems = [f"cocycle condition fails ({i},{j},{l}) at {x!r}"
                    for i, j, l in triples
                    for x in sorted(c.cover[i] & c.cover[j] & c.cover[l])
                    if changes[(i, j)][x].mul(changes[(j, l)][x]) != changes[(i, l)][x]]
        if not problems:
            break
    return problems, changes


@dataclass
class GluedSheaf:
    sheaf: ModuleSheaf
    cover: Tuple[PointSet, ...]
    rank: int
    # per cover index: point -> matrix carrying glued stalk coords to chart coords
    trivializations: Dict[int, Dict[Point, Matrix]]


def sheaf_from_cocycle(c: TransitionCocycle) -> GluedSheaf:
    """Glue the local free pieces A^k along the cocycle.

    The stalk at x uses the chart of the least cover index containing x;
    restriction along specialization composes the base restriction with the
    germ of the chart-change matrix.  The stalk size is guarded before the
    cocycle is checked.
    """
    problems, changes = _chart_changes(c)
    if problems:
        raise CocycleConditionViolated("; ".join(problems))
    a = c.base
    space = a.space
    k = c.rank
    chart = {x: min(i for i, u in enumerate(c.cover) if x in u) for x in space.points}
    stalk_elems = _stalk_vectors(a, k)
    res = {}
    for x in space.points:
        for y in space.min_open[x]:
            if y == x:
                continue
            change, codes = changes[(chart[y], chart[x])][y], a.res[(x, y)]
            res[(x, y)] = {v: change.apply(tuple(codes[comp] for comp in v))
                           for v in stalk_elems[x]}
    sheaf = ModuleSheaf(a, {x: k for x in space.points}, stalk_elems, res)
    sheaf._additive_res = a._additive_res
    trivs = {i: {x: changes[(i, chart[x])][x] for x in sorted(u)}
             for i, u in enumerate(c.cover)}
    return GluedSheaf(sheaf, c.cover, k, trivs)


# -- morphisms ---------------------------------------------------------------

@dataclass
class ModuleMorphism:
    source: ModuleSheaf
    target: ModuleSheaf
    maps: Dict[Point, Dict[Vec, Vec]]


def validate_module_morphism(m: ModuleMorphism) -> List[str]:
    """The components' broken laws and the pairs where naturality fails.
    Naturality is read on the source's additive generators where both
    sheaves restrict additively and both components are additive, since
    its two sides are then additive; on every stalk vector otherwise."""
    problems = []
    source = m.source
    space = source.space
    laws = {x: broken_law(m.maps[x], source.stalk_elems[x], source.ring_at(x),
                          source.ring_at(x), source.ring_at(x).elements(),
                          source.generators(x))
            for x in space.points}
    additive = source._additive_res and m.target._additive_res
    for x in space.points:
        h = m.maps[x]
        if laws[x]:
            problems.append(f"component at {x!r} not {laws[x]}")
        for y in sorted(space.min_open[x]):
            hy = m.maps[y]
            vs = (source.generators(x)
                  if additive and "additive" not in (laws[x], laws[y])
                  else source.stalk_elems[x])
            if any(m.target.res[(x, y)][h[v]] != hy[source.res[(x, y)][v]] for v in vs):
                problems.append(f"naturality fails {x!r}->{y!r}")
    return problems


def is_monomorphism(m: ModuleMorphism) -> bool:
    """True iff every stalk component is injective."""
    for x in m.source.space.points:
        images = set(m.maps[x].values())
        if len(images) != len(m.maps[x]):
            return False
    return True


def find_module_isomorphism(e: ModuleSheaf, f: ModuleSheaf,
                            budget: Optional[Budget] = None
                            ) -> Optional[ModuleMorphism]:
    """Exhaustive search for a natural family of linear bijections e -> f.

    Stalks must be full free modules; candidates at each point are the
    invertible matrices over the stalk ring, assigned in point order with
    naturality pruning against already-assigned specialization pairs.  The
    candidates of each (stalk ring, rank) are listed once per search.
    Naturality is read on generators where both sheaves restrict additively.
    Returns the lexicographically least witness, or None after exhaustion.
    """
    space = e.space
    pts = sorted(space.points)
    for x in pts:
        if e.rank_at[x] != f.rank_at[x]:
            return None
        full = e.ring_at(x).size ** e.rank_at[x]
        if len(e.stalk_elems[x]) != full or len(f.stalk_elems[x]) != full:
            raise ValidationError(f"isomorphism search requires full free stalks; "
                                  f"the stalk at {x!r} is not full")

    actions = {key: MatrixActions(*key) for key in {(e.ring_at(x), e.rank_at[x]) for x in pts}}
    acts = {x: actions[(e.ring_at(x), e.rank_at[x])] for x in pts}
    # per specialization pair x -> y: for each v at x (each generator, when
    # every map is additive), the positions of v at x and of its restriction
    additive = e._additive_res and f._additive_res
    positions = {(x, y): [(acts[x].index[v], acts[y].index[e.res[(x, y)][v]])
                          for v in (e.generators(x) if additive else e.stalk_elems[x])]
                 for x in pts for y in space.min_open[x]}
    assigned: Dict[Point, Tuple[Vec, ...]] = {}
    budget = budget or Budget()

    def natural_pair(x: Point, y: Point) -> bool:
        hx, hy, f_res = assigned[x], assigned[y], f.res[(x, y)]
        return all(f_res[hx[i]] == hy[j] for i, j in positions[(x, y)])

    def extend(i: int) -> bool:
        if i == len(pts):
            return True
        x = pts[i]
        for cand in acts[x]:
            budget.spend("isomorphism search")
            assigned[x] = cand
            ok = all(natural_pair(x, y) for y in space.min_open[x] if y in assigned) \
                and all(natural_pair(z, x) for z in assigned
                        if x in space.min_open[z])
            if ok and extend(i + 1):
                return True
            del assigned[x]
        return False

    if not extend(0):
        return None
    maps = {x: {v: assigned[x][acts[x].index[v]] for v in e.stalk_elems[x]}
            for x in pts}
    return ModuleMorphism(e, f, maps)


# -- weight families ---------------------------------------------------------

@dataclass
class WeightFamily:
    """Algebraic surrogate for a subordinate partition of unity.

    Global sections of A, one per cover member, with (a) zero germ outside
    the member and (b) a unit germ at every point for at least one member.
    These are the only two features of a partition of unity the embedding
    argument uses.
    """
    base: AlgebraSheaf
    cover: Tuple[PointSet, ...]
    weights: Tuple[Tuple[int, ...], ...]  # global sections, indexed like cover


def validate_weights(w: WeightFamily) -> List[str]:
    a = w.base
    pts = sorted(a.space.points)
    if len(w.weights) != len(w.cover):
        return ["weight count differs from cover size"]
    problems = []
    for i, sec in enumerate(w.weights):
        if (len(sec) != len(pts)
                or not all(0 <= germ < a.stalk_ring[x].size for x, germ in zip(pts, sec))
                or _broken_restrictions(a, pts, sec)):
            problems.append(f"weight {i} is not a global section")
            continue
        for x, germ in zip(pts, sec):
            if x not in w.cover[i] and germ != a.stalk_ring[x].zero:
                problems.append(f"weight {i} has nonzero germ at {x!r} off its support")
    for j, x in enumerate(pts):
        r = a.stalk_ring[x]  # a unit germ is an in-range code at x
        if not any(x in c and j < len(sec) and 0 <= sec[j] < r.size and is_unit(r, sec[j])
                   for c, sec in zip(w.cover, w.weights)):
            problems.append(f"no weight has a unit germ at {x!r}")
    return problems


def enumerate_weight_families(a: AlgebraSheaf, cover: Tuple[PointSet, ...],
                              budget: Optional[Budget] = None
                              ) -> List[WeightFamily]:
    """All valid weight families for the cover, by exhaustive search over
    tuples of global sections."""
    whole = frozenset(a.space.points)
    secs = a.sections(whole)
    budget = budget or Budget()
    budget.spend("weight-family search", len(secs) ** len(cover))
    out = []
    for choice in itertools.product(secs, repeat=len(cover)):
        w = WeightFamily(a, tuple(cover), tuple(map(tuple, choice)))
        if not validate_weights(w):
            out.append(w)
    return out


def trivial_weight_family(a: AlgebraSheaf) -> WeightFamily:
    whole = frozenset(a.space.points)
    return WeightFamily(a, (whole,), (tuple(a.stalk_ring[x].one for x in sorted(whole)),))


# -- the embedding construction ----------------------------------------------

def identity_trivialization(e: ModuleSheaf, u: PointSet, k: int) -> Dict[Point, Matrix]:
    return {x: identity_matrix(e.ring_at(x), k) for x in sorted(u)}


def embed_via_weights(e: ModuleSheaf, cover: Tuple[PointSet, ...],
                      trivializations: Dict[int, Dict[Point, Matrix]],
                      w: WeightFamily, k: int) -> ModuleMorphism:
    """Weighted juxtaposition of the local trivializations.

    Sends a stalk element u at x to the concatenation, over cover members,
    of (germ of weight i at x) * (chart-i coordinates of u), the block being
    zero when x lies outside member i.  With valid weights the result is a
    stalkwise-injective morphism into A^(k*m), m the cover size.  The
    target lists a stalk only when one is read, so only e's meet the stalk
    guard.  Naturality is read on generators where e restricts additively.
    """
    problems = validate_weights(w)
    if problems:
        raise InvalidWeights("; ".join(problems))
    if tuple(w.cover) != tuple(cover):
        raise InvalidWeights("weight family cover differs from embedding cover")
    a = e.base
    space = a.space
    # the weights' germs at each point, weights being global sections
    germs = dict(zip(sorted(space.points), zip(*w.weights)))
    m = len(cover)
    for i, u in enumerate(cover):
        psis = trivializations[i]
        for x in sorted(u):
            psi = psis[x]
            if psi.rows != k or psi.cols != k or not is_invertible(psi):
                raise TrivializationMismatch(
                    f"trivialization {i} at {x!r} is not a k x k isomorphism")
            vs = e.generators(x) if e._additive_res else e.stalk_elems[x]
            for y in sorted(space.min_open[x]):
                codes, psi_y, res = a.res[(x, y)], psis[y], e.res[(x, y)]
                if any(psi_y.apply(res[v]) != tuple([codes[c] for c in psi.apply(v)])
                       for v in vs):
                    raise TrivializationMismatch(
                        f"trivialization {i} not natural at {x!r}->{y!r}")

    n = k * m
    target = ModuleSheaf(a, {x: n for x in space.points}, _StalksOnRead(a, n),
                         {pair: _Componentwise(codes) for pair, codes in a.res.items()})
    target._additive_res = a._additive_res
    maps = {}
    for x in space.points:
        r = a.stalk_ring[x]
        comp = {}
        for v in e.stalk_elems[x]:
            blocks = []
            for i in range(m):
                if x in cover[i]:
                    blocks.extend(vec_scale(r, germs[x][i], trivializations[i][x].apply(v)))
                else:
                    blocks.extend(zero_vec(r, k))
            comp[v] = tuple(blocks)
        maps[x] = comp
    morph = ModuleMorphism(e, target, maps)
    problems = validate_module_morphism(morph)
    if problems:
        raise AssertionError("weighted embedding is not a module morphism: "
                             + "; ".join(problems))
    return morph
