"""Grassmann presheaves of A^n and the section/subsheaf classification.

G(U) collects the rank-k free subsheaves of A^n over U, V(U) the locally
free ones.  A value over U is its stalk family, held as the tuple of its
indices into the rank-k stalk candidate lists over sorted(U): restriction
is a projection of the tuple, equality is tuple equality, and germ
computation collapses to the value at the minimal open.  A value becomes a
`VectorSubsheaf` (`GrassmannPresheaf.subsheaf`) only where the public API
returns subsheaves and where the non-free-glue hunt reports its witness.

Each public build makes one `BuildState` on a fresh ambient A^n and passes
it to every helper; `classify` builds V on G's state.  The state holds the
opens, their components and the stalk candidates, listed once at first
need; the joins; and a join plan and a basis set-up per open `_free` asks
about, with one memo of germ multiples.  A build asks the freeness search
about each (open, value) once: G's build asks, and V, the checks and
`classify` read G's values.

G over the empty open and each connected open takes the families of its
stalk-family join that the freeness search accepts.  V there takes the
families whose restriction to each minimal open is a G value: the glues
of G, which are the sections of the sheaf G generates (the note above
`_sections`).  A disconnected open takes the product of its components'
values: sections over a disjoint union are tuples of sections over the
pieces, so a family there is (locally) free of rank k iff each piece is.
The checks (the monopresheaf verdict, the non-free-glue hunt and the
section count over the whole space) read sections from the same joins over
the empty and connected opens alone, and settle a disconnected open by its
components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import prod
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import NotLocallyFree, SpaceTooLarge, ValidationError
from .finalg import (FinRing, Submodule, Vec, enumerate_free_submodules,
                     gaussian_binomial, zero_vec)
from .finspace import PointSet, Point, components, enumerate_opens
from .presheaf import DEFAULT_STATE_BOUND, SET, Carrier, JoinPlan, Presheaf, is_monopresheaf
from .vecsheaf import (
    MAX_STALK_VECTORS,
    AlgebraSheaf,
    BasisSetup,
    Budget,
    ModuleSheaf,
    VectorSubsheaf,
    _find_basis,
    embed_via_weights,
    free_sheaf,
    identity_trivialization,
    is_free_of_rank,
    restrict_subsheaf,
    trivial_weight_family,
)


Value = Tuple[int, ...]  # candidate indices over the sorted points of its open


class BuildState:
    """What the rank-k builds on one ambient share, passed to every helper.

    Listed once, at first read: the opens in (size, lex) order, each
    one's components, the empty and connected opens, and each point's
    free rank-k stalk submodules (one list per (stalk ring, n)) with their
    indices by elements and their sorted vectors.  Kept as asked:
    restriction positions by open pair, tables by point pair
    (`_compatibility`), joins by open (`_join`), and for the freeness
    search (`_free`) a join plan and a basis set-up by open and one memo
    of germ multiples.  No answer is kept: a build asks about each (open,
    value) once.
    """

    def __init__(self, ambient: ModuleSheaf, k: int):
        self.ambient, self.space, self.k = ambient, ambient.space, k
        self.stalks = {x: (ambient.ring_at(x), ambient.rank_at[x])
                       for x in sorted(ambient.space.points)}
        self.positions: Dict[Tuple[PointSet, PointSet], List[int]] = {}
        self.tables: Dict[Tuple[Point, Point], Tuple[List[int], List[int], int]] = {}
        self.joins: Dict[PointSet, List[Value]] = {}
        self.searches: Dict[PointSet, Tuple[JoinPlan, BasisSetup]] = {}
        self.multiples: Dict[FinRing, Dict[Vec, List[Vec]]] = {}

    @cached_property
    def opens(self) -> List[PointSet]:
        return enumerate_opens(self.space)

    @cached_property
    def parts(self) -> Dict[PointSet, List[PointSet]]:
        return {u: components(self.space, u) for u in self.opens}

    @cached_property
    def connected(self) -> List[PointSet]:
        return [u for u in self.opens if len(self.parts[u]) <= 1]

    @cached_property
    def lists(self) -> Dict[Tuple[FinRing, int], List[Submodule]]:
        """The candidates per (stalk ring, rank), listed in point order:
        [n k]_q of q^k vectors each, refused before listing any when that
        is more than MAX_STALK_VECTORS vectors."""
        k, lists = self.k, {}
        for r, n in dict.fromkeys(self.stalks.values()):
            count = gaussian_binomial(n, k, r.size)
            if count * r.size ** k > MAX_STALK_VECTORS:
                raise SpaceTooLarge(
                    f"rank-{k} submodules of {r.label}^{n}: {count} candidates of "
                    f"{r.size ** k} vectors exceed bound {MAX_STALK_VECTORS} vectors")
            lists[(r, n)] = enumerate_free_submodules(r, n, k)
        return lists

    @cached_property
    def candidates(self) -> Dict[Point, List[Submodule]]:
        return {x: self.lists[rn] for x, rn in self.stalks.items()}

    @cached_property
    def index(self) -> Dict[Point, Dict[frozenset, int]]:
        index = {rn: {c.elements: i for i, c in enumerate(cs)}
                 for rn, cs in self.lists.items()}
        return {x: index[rn] for x, rn in self.stalks.items()}

    @cached_property
    def vectors(self) -> Dict[Point, List[List[Vec]]]:
        ordered = {rn: [sorted(c.elements) for c in cs] for rn, cs in self.lists.items()}
        return {x: ordered[rn] for x, rn in self.stalks.items()}

    def restrict(self, u: PointSet, v: PointSet, t: Value) -> Value:
        """The value t over u restricted to v ⊆ u: its entries over v."""
        pos = self.positions.get((u, v))
        if pos is None:
            pos = self.positions[(u, v)] = [i for i, x in enumerate(sorted(u)) if x in v]
        return t if len(pos) == len(t) else tuple([t[i] for i in pos])


@dataclass
class GrassmannPresheaf:
    base: AlgebraSheaf
    k: int
    ambient: ModuleSheaf
    values: Dict[PointSet, List[Value]]
    state: BuildState = field(repr=False, compare=False)

    def restrict(self, u: PointSet, v: PointSet, t: Value) -> Value:
        """The value t over u restricted to v ⊆ u: its entries over v."""
        return self.state.restrict(u, v, t)

    def subsheaf(self, u: PointSet, t: Value) -> VectorSubsheaf:
        """The value t over u as a subsheaf of the ambient."""
        return _subsheaf(self.state, u, t)

    def presheaf(self) -> Presheaf:
        """The values as a set-valued presheaf, restricting by projection."""
        return Presheaf(self.base.space,
                        {u: Carrier(SET, tuple(vals)) for u, vals in self.values.items()},
                        self.restrict)


def _compatibility(state: BuildState, x: Point, y: Point,
                   spend: Callable[[int], None]) -> Tuple[List[int], List[int], int]:
    """The table of (x, y), y in min_open(x): masks over y's candidates that
    contain the image of each candidate at x, masks over x's candidates whose
    image lies in each candidate at y, and the subset tests it took.

    A free rank-k submodule of R^n has |R|^k vectors, so an image of that
    size lies in a candidate only if it is that candidate: one dict lookup.
    A smaller image is tested against every candidate at y.  A table is
    charged its tests at every use, built then or earlier.
    """
    candidates, tables = state.candidates, state.tables
    if (x, y) in tables:
        spend(tables[(x, y)][2])
        return tables[(x, y)]
    res, at_y, position = state.ambient.res[(x, y)], candidates[y], state.index[y]
    size = state.ambient.ring_at(y).size ** state.k
    into, from_x, tests = [], [0] * len(at_y), 0
    for i, c in enumerate(candidates[x]):
        image = frozenset(res[v] for v in c.elements)
        if len(image) == size:
            cost, hits = 1, [position[image]] if image in position else []
        else:
            cost, hits = len(at_y), [j for j, d in enumerate(at_y) if image <= d.elements]
        spend(cost)
        tests += cost
        into.append(sum(1 << j for j in hits))
        for j in hits:
            from_x[j] |= 1 << i
    tables[(x, y)] = (into, from_x, tests)
    return tables[(x, y)]


def _stalk_families(state: BuildState, u: PointSet) -> List[Value]:
    """Per-point rank-k submodule choices closed under the ambient
    restrictions, as tuples of candidate indices over sorted(u), in
    lexicographic order.

    That order is `VectorSubsheaf.sort_key` order of the families: each
    point's candidates are sorted by `Submodule.sort_key`, its family
    entry's key, and every family lists the same points, so comparing two
    families' keys compares their candidate indices point by point over
    sorted(u).

    A join: each point draws its candidates from the intersection of the
    masks its already chosen neighbours allow, in ascending index.  Table
    tests and visited nodes count against DEFAULT_STATE_BOUND.
    """
    space, candidates = state.space, state.candidates
    pts = sorted(u)
    sizes = [len(candidates[x]) for x in pts]
    steps = 0

    def spend(n: int) -> None:
        nonlocal steps
        steps += n
        if steps > DEFAULT_STATE_BOUND:
            raise SpaceTooLarge(f"stalk-family join over open {pts} exceeds "
                                f"{DEFAULT_STATE_BOUND} steps at {steps}")

    # per point: (position of an earlier related point, masks over this
    # point's candidates indexed by that point's choice)
    constraints = [[(j, _compatibility(state, x, y, spend)[1]) if y in space.min_open[x]
                    else (j, _compatibility(state, y, x, spend)[0])
                    for j, y in enumerate(pts[:i])
                    if y in space.min_open[x] or x in space.min_open[y]]
                   for i, x in enumerate(pts)]
    out: List[Value] = []
    choice = [0] * len(pts)

    def rec(i: int) -> None:
        if i == len(pts):
            out.append(tuple(choice))
            return
        mask = (1 << sizes[i]) - 1
        for j, masks in constraints[i]:
            mask &= masks[choice[j]]
        spend(mask.bit_count())
        while mask:
            low = mask & -mask
            choice[i] = low.bit_length() - 1
            rec(i + 1)
            mask ^= low

    rec(0)
    return out


def _subsheaf(state: BuildState, u: PointSet, t: Value) -> VectorSubsheaf:
    """The value t over u as a subsheaf: candidate t[i] at the i-th point
    of sorted(u)."""
    return VectorSubsheaf(state.ambient, tuple([(x, state.candidates[x][i].elements)
                                                for x, i in zip(sorted(u), t)]))


def _candidate_index(state: BuildState,
                     family: Iterable[Tuple[Point, frozenset]]) -> Optional[Value]:
    """The value with family's stalk at each of its points, or None when
    some stalk is not a rank-k candidate there."""
    found = [state.index[x].get(vs) for x, vs in family]
    return None if None in found else tuple(found)


def _join(state: BuildState, u: PointSet) -> List[Value]:
    """The families of u's stalk-family join, kept in the build state."""
    joins = state.joins
    if u not in joins:
        joins[u] = _stalk_families(state, u)
    return joins[u]


# `_free` asks `is_free_of_rank`'s question about the value t over u without
# decoding it: the same rings, ranks, stalk sizes and sections, in the same
# order, for the same search.  `subsheaf_sections` lists the compatible
# families of the stalk families' sorted vectors and keeps those whose germ
# at every point lies in the family there; here it would keep them all.  A
# germ at y is the image under res(x, y) of a vector of the entry at a
# maximal point x, y in min_open(x), and every family asked about is closed
# under restriction: it is a family of u's join, as `_stalk_families` draws
# each point's candidate from the `_compatibility` masks of every related
# pair of points in u.  Each candidate is a submodule, so a witness spans
# it, as `is_free_of_rank` checks of a family it is given.

def _free(state: BuildState, u: PointSet, t: Value, budget: Optional[Budget]) -> bool:
    """Whether the value t over u is free of rank k: one basis search, on
    the join plan and basis set-up the state keeps for u."""
    search = state.searches.get(u)
    if search is None:
        search = state.searches[u] = (JoinPlan(state.space, u),
                                      BasisSetup(state.ambient, u, state.k, state.multiples))
    plan, setup = search
    vectors, res = state.vectors, state.ambient.res
    at = dict(zip(plan.pts, t))
    return _find_basis(
        setup, [len(vectors[x][i]) for x, i in at.items()],
        lambda: plan.run(lambda x: vectors[x][at[x]], lambda x, y, v: res[(x, y)][v]),
        budget)[0]


def _enumerate_values(state: BuildState, u: PointSet,
                      budget: Optional[Budget]) -> List[Value]:
    """The free values over u, in sort_key order: the families of its join
    that the search accepts."""
    return [t for t in _join(state, u) if _free(state, u, t, budget)]


def _glues(state: BuildState, u: PointSet,
           values: Callable[[PointSet], List[Value]]) -> List[Value]:
    """The families of u's join, in join order, whose restriction to the
    minimal open U_x of each x in sorted(u) is among values(U_x)."""
    restrict, min_open = state.restrict, state.space.min_open
    mins = [(min_open[x], set(values(min_open[x]))) for x in sorted(u)]
    return [t for t in _join(state, u) if all(restrict(u, ux, t) in vals for ux, vals in mins)]


def _searched(state: BuildState, budget: Optional[Budget]
              ) -> Callable[[PointSet], List[Value]]:
    """G's values over an open, searched the first time they are read."""
    values: Dict[PointSet, List[Value]] = {}

    def at(u: PointSet) -> List[Value]:
        if u not in values:
            values[u] = _enumerate_values(state, u, budget)
        return values[u]
    return at


def _placed_product(u: PointSet, parts: List[PointSet],
                    factors: List[List[Value]]) -> List[Value]:
    """Every choice of one tuple per component parts[i] of u from
    factors[i], its entries placed over sorted(u), sorted: the join's order,
    which is sort_key order."""
    count = prod(len(f) for f in factors)
    if count > DEFAULT_STATE_BOUND:
        raise SpaceTooLarge(f"value product over open {sorted(u)} exceeds "
                            f"{DEFAULT_STATE_BOUND} values at {count}")
    flat = [x for c in parts for x in sorted(c)]
    place = itemgetter(*sorted(range(len(flat)), key=flat.__getitem__))
    return sorted(place(sum(choice, ())) for choice in product(*factors))


def _build_values(state: BuildState,
                  connected: Callable[[PointSet], List[Value]]) -> GrassmannPresheaf:
    """Values in the state's ambient A^n over every open: connected(u) over
    the empty open and each connected open u, and over a disconnected open
    the placed product of its components' values (smaller opens, listed
    earlier)."""
    values: Dict[PointSet, List[Value]] = {}
    for u in state.opens:
        parts = state.parts[u]
        values[u] = (connected(u) if len(parts) <= 1 else
                     _placed_product(u, parts, [values[c] for c in parts]))
    return GrassmannPresheaf(state.ambient.base, state.k, state.ambient, values, state)


def enumerate_free_subsheaves(a: AlgebraSheaf, k: int, n: int, u: PointSet,
                              budget: Optional[Budget] = None
                              ) -> List[VectorSubsheaf]:
    """Rank-k free subsheaves of A^n over u (one Grassmann value list)."""
    state = BuildState(free_sheaf(a, n), k)
    return [_subsheaf(state, u, t) for t in _enumerate_values(state, u, budget)]


def enumerate_locally_free_subsheaves(a: AlgebraSheaf, k: int, n: int,
                                      u: PointSet,
                                      budget: Optional[Budget] = None
                                      ) -> List[VectorSubsheaf]:
    """Rank-k locally free subsheaves of A^n over u (one V value list): the
    families free on the minimal open of each point of u."""
    state = BuildState(free_sheaf(a, n), k)
    return [_subsheaf(state, u, t) for t in _glues(state, u, _searched(state, budget))]


def build_grassmann_presheaf(a: AlgebraSheaf, k: int, n: int,
                             budget: Optional[Budget] = None
                             ) -> GrassmannPresheaf:
    """The presheaf U -> {free rank-k subsheaves of A^n over U}."""
    state = BuildState(free_sheaf(a, n), k)
    return _build_values(state, lambda u: _enumerate_values(state, u, budget))


def build_v_presheaf(a: AlgebraSheaf, k: int, n: int,
                     budget: Optional[Budget] = None) -> GrassmannPresheaf:
    """The complete companion: U -> {locally free rank-k subsheaves}, the
    glues of G's values on the minimal opens."""
    state = BuildState(free_sheaf(a, n), k)
    at = _searched(state, budget)
    return _build_values(state, lambda u: _glues(state, u, at))


def grassmann_monopresheaf(g: GrassmannPresheaf) -> bool:
    """Values are separated by their restrictions to the minimal-open cover."""
    return is_monopresheaf(g.presheaf())


def _row(g: GrassmannPresheaf, u: PointSet, t: Value) -> Tuple[Value, ...]:
    """The restrictions of t over u to the minimal opens of sorted(u)."""
    space, restrict = g.base.space, g.state.restrict
    return tuple([restrict(u, space.min_open[x], t) for x in sorted(u)])


# A section of the sheaf G generates over u is a compatible row r of values
# r_x in values[U_x] over sorted(u): r_x|U_y = r_y for y in U_x.  Its glue t
# takes r_x's entry at each x.  Then t|U_x = r_x, as r_x's entry at y in U_x
# is r_y's; and t is closed, as each pair y in U_x lies inside U_x, where r_x
# is closed.  Conversely the restrictions unit(t) = `_row` of a family t of
# u's join whose restrictions are values form a row with glue t.  So
# `_sections` lists the sections by their glues.  A value is such a family,
# so unit is injective on the values, and onto the sections iff the glues
# are exactly the values.
#
# V takes the glues of G as its values, so V is complete: its glues are its
# values.  A family t of u's join is a glue of V iff t|U_x is a V value for
# each x in u, that is iff (t|U_x)|U_y = t|U_y is a G value for each x in u
# and y in U_x.  Each such y lies in u, and each y in u is one (take x = y),
# so this says t|U_y is a G value for every y in u: t is a V value over u.
# The V values are the locally free families, as a family of U_x's join is a
# G value iff it is free on U_x.
#
# A disconnected open u = c_1 ⊔ ... ⊔ c_m needs no walk.  Its values are the
# product of the components' values (`_build_values`); its rows are the
# product of the components' rows, since the minimal open of a point of u
# lies in that point's component, so compatibility links no two components;
# and unit acts componentwise, as t|U_x reads only the entries of x's
# component.  A product of injective (bijective) maps is injective
# (bijective), and each c_i is a connected open checked on its own, so the
# unit is injective (bijective) on every open iff it is on the connected
# (and empty) ones, and the rows over u number the product of the counts.

def _sections(g: GrassmannPresheaf, u: PointSet) -> List[Value]:
    """The sections of the generated sheaf over u as their glues (see
    above): over the empty or a connected open the families of its join
    whose restriction to each minimal open is a value, in join order, and
    over a disconnected open the placed product of its components'."""
    parts = g.state.parts[u]
    if len(parts) > 1:
        return _placed_product(u, parts, [_sections(g, c) for c in parts])
    return _glues(g.state, u, g.values.__getitem__)


def check_monopresheaf_not_complete(g: GrassmannPresheaf) -> dict:
    """Monopresheaf verdict, a hunt for a non-free glue and the number of
    sections over the whole space, from the sections over the empty and
    connected opens (see the note above `_sections`).  No freeness question
    is asked, so it takes no budget.

    A section of the generated sheaf glues to a locally free subsheaf; any
    glue that is not free witnesses non-completeness of the free-value
    presheaf.  A glue over a connected open is a family of its join, and
    G's values there are the join families the search accepts, so a glue
    is free iff it is a value: the hunt names the first glue that is not.
    Over field stalks, the only stalks the candidate lists accept, no
    witness exists: a glue is a family closed under restriction,
    restriction is an injective field map applied entrywise, so its reduced
    row echelon basis at x restricts to the one at each point of
    min_open(x), and these are k sections forming a basis at every point.
    """
    # a non-free glue over a disconnected open restricts to a non-free glue
    # over one of its components, an earlier open, so the first witness in
    # (size, lex) order lies on a connected open
    opens = g.state.connected
    sections = {u: _sections(g, u) for u in opens}
    witness = next(({"open": sorted(u), "family": g.subsheaf(u, t).sort_key()}
                    for u, values in ((u, set(g.values[u])) for u in opens)
                    for t in sections[u] if t not in values), None)
    return {
        # no two values over u have the same restrictions to the minimal opens
        "monopresheaf": all(len({_row(g, u, t) for t in g.values[u]}) == len(g.values[u])
                            for u in opens if u),
        "complete_at_this_scale": witness is None,
        "completeness_witness": witness,
        "sections_over_whole": prod(len(sections[c]) for c in
                                    g.state.parts[frozenset(g.base.space.points)]),
    }


def check_lemma_free_locally_free_same_germs(g: GrassmannPresheaf,
                                             v: GrassmannPresheaf) -> bool:
    """Germ sets of the free and locally free value presheaves coincide.

    The germ set at x is the value list at min_open(x); a locally free value
    there is already free on min_open(x), since the minimal open of x is the
    smallest neighborhood available for a local witness.  Values compare as
    index tuples where both builds list the same candidates.
    """
    space = g.base.space
    cg, cv = g.state.candidates, v.state.candidates
    for x in space.points:
        ux = space.min_open[x]
        if g.values[ux] != v.values[ux] or any(cg[y] != cv[y] for y in ux):
            return False
    return True


# -- sections of the generated Grassmann sheaf --------------------------------

@dataclass(frozen=True)
class GrassmannSection:
    """Compatible family of free rank-k values over the minimal opens; the
    ambient, not compared, is where it glues, also when the family is empty."""
    family: Tuple[Tuple[Point, VectorSubsheaf], ...]
    ambient: ModuleSheaf = field(compare=False, hash=False)

    def sort_key(self):
        return tuple((x, s.sort_key()) for x, s in self.family)


def enumerate_sections(g: GrassmannPresheaf, u: PointSet) -> List[GrassmannSection]:
    """All sections of the generated sheaf over u, in lexicographic order of
    their rows, which is `GrassmannSection.sort_key` order (see
    `_stalk_families`)."""
    space = g.base.space
    pts = sorted(u)
    return [GrassmannSection(tuple([(x, g.subsheaf(space.min_open[x], t))
                                    for x, t in zip(pts, row)]), g.ambient)
            for row in sorted(_row(g, u, t) for t in _sections(g, u))]


def section_to_subsheaf(s: GrassmannSection) -> VectorSubsheaf:
    """Glue a section's stalkwise values into one subsheaf of A^n: each
    value's own entry at its point."""
    return VectorSubsheaf(s.ambient, tuple([(x, val.family_at(x)) for x, val in s.family]))


def subsheaf_to_section(t: VectorSubsheaf, k: int,
                        budget: Optional[Budget] = None) -> GrassmannSection:
    """Restrict a locally free subsheaf to the minimal opens of its domain."""
    space = t.ambient.space
    family = []
    for x, _ in t.family:
        ux = space.min_open[x]
        piece = restrict_subsheaf(t, ux)
        if not is_free_of_rank(piece, ux, k, budget)[0]:
            raise NotLocallyFree(f"not free of rank {k} on min_open({x!r})")
        family.append((x, piece))
    return GrassmannSection(tuple(family), t.ambient)


# -- the universal (truncated) construction -----------------------------------

def build_universal_grassmann(a: AlgebraSheaf, n: int, truncation: int,
                              budget: Optional[Budget] = None
                              ) -> GrassmannPresheaf:
    """Rank-n Grassmann presheaf of A^N, N the finite truncation level."""
    if n > truncation:
        raise ValidationError(f"rank {n} exceeds truncation {truncation}")
    return build_grassmann_presheaf(a, n, truncation, budget)


def _included(family: Iterable[Tuple[Point, frozenset]], source: ModuleSheaf,
              ambient: ModuleSheaf) -> Tuple[Tuple[Point, frozenset], ...]:
    """Coordinate inclusion of a stalk family of source into ambient: stalk
    vectors padded with zeros."""
    out = []
    for x, vs in family:
        pad = ambient.rank_at[x] - source.rank_at[x]
        assert pad >= 0
        out.append((x, frozenset(v + zero_vec(source.ring_at(x), pad) for v in vs)))
    return tuple(out)


def include_subsheaf(t: VectorSubsheaf, ambient: ModuleSheaf) -> VectorSubsheaf:
    """Coordinate inclusion A^N -> A^(N'): pad stalk vectors with zeros."""
    return VectorSubsheaf(ambient, _included(t.family, t.ambient, ambient))


def classify(a: AlgebraSheaf, n: int, truncation: int,
             budget: Optional[Budget] = None) -> dict:
    """Pair global sections of the truncated universal Grassmann with the
    rank-n vector subsheaves of A^N.

    The subsheaves are V's values over the whole space, and V takes the
    glues of G as its values, so they are `_sections(g, whole)`; the
    sections, in enumerate_sections order, are the same glues sorted by
    row.  By the glue argument above `_sections`, unit and glue are mutually
    inverse bijections between them, so `bijection` holds and `pairs` is
    the permutation that sorts the values by row.
    """
    whole = frozenset(a.space.points)
    pts = sorted(whole)
    g = build_universal_grassmann(a, n, truncation, budget)
    subsheaves = _sections(g, whole)
    sections = sorted(subsheaves, key=lambda t: _row(g, whole, t))
    sub_index = {t: i for i, t in enumerate(subsheaves)}
    pairs = [[i, sub_index.get(t)] for i, t in enumerate(sections)]
    bijection = len(sections) == len(subsheaves) and all(j is not None for _, j in pairs)

    # Embedding cross-check: the image of the free rank-n sheaf under the
    # trivial-cover weighted embedding must be among the classified subsheaves.
    embed_image_found = None
    if bijection:
        e = free_sheaf(a, n)
        morph = embed_via_weights(
            e, (whole,), {0: identity_trivialization(e, whole, n)},
            trivial_weight_family(a), n)
        image = _included([(x, frozenset(morph.maps[x].values())) for x in pts],
                          morph.target, g.ambient)
        embed_image_found = _candidate_index(g.state, image) in sub_index

    return {
        "k": n,
        "n": truncation,
        "counts": {"sections": len(sections), "subsheaves": len(subsheaves)},
        "bijection": bijection,
        "pairs": pairs if bijection else [],
        "embed_image_found": embed_image_found,
    }
