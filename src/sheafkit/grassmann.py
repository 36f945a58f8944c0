"""Grassmann presheaves of A^n and the section/subsheaf classification.

G(U) collects the rank-k free subsheaves of A^n over U, V(U) the locally
free ones.  A value over U is its stalk family, held as the tuple of its
indices into the rank-k stalk candidate lists over sorted(U): restriction
is a projection of the tuple, equality is tuple equality, and germ
computation collapses to the value at the minimal open.  A value becomes a
`VectorSubsheaf` (`GrassmannPresheaf.subsheaf`) only where the public API
returns subsheaves and where the non-free-glue hunt reports its witness.

Each public call makes one `BuildState` from (A, n), which builds A^n
itself, and passes it to every helper (see its docstring for what it keeps).

G over the empty open and each connected open takes the families of its
stalk-family join that `_free` accepts, all of them over field stalks
(the proof above `_free`).  The join is the one `compatible_families`
runs (`presheaf._join_rows`), on candidate indices: a candidate at a
maximal point has as germ at each point below it the candidate its index
map names, and on A^n the index maps are injective functions that compose
like A's restrictions.  V there takes the families whose restriction to
each minimal open is a G value: the glues of G, which are the sections of
the sheaf G generates (the note above `_sections`).  One rule,
`_by_components`, gives G's values, V's values and the sections over any
open: a disconnected open takes the product of its components' values, as
sections over a disjoint union are tuples of sections over the pieces, so
a family there is (locally) free of rank k iff each piece is.  No join
and no search runs over a disconnected open, whose values are held as
their factors (`_Placed`) and listed only where an entry is read.
`classify` reads V over the whole space, and so G only on the minimal
opens; the checks read value counts, and sections over the empty and
connected opens alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import prod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import NotLocallyFree, SearchBudgetExceeded, SpaceTooLarge, ValidationError
from .finalg import (FinRing, RingMorphism, Submodule, Vec, enumerate_free_submodules,
                     gaussian_binomial, validate_morphism, zero_vec)
from .finspace import PointSet, Point, components, enumerate_opens
from .presheaf import DEFAULT_STATE_BOUND, SET, Carrier, Presheaf, _join_rows, _picker
from .vecsheaf import (
    MAX_STALK_VECTORS,
    AlgebraSheaf,
    Budget,
    ModuleSheaf,
    VectorSubsheaf,
    _freeness_spent,
    embed_via_weights,
    free_sheaf,
    identity_trivialization,
    is_free_of_rank,
    restrict_subsheaf,
    trivial_weight_family,
)


Value = Tuple[int, ...]  # candidate indices over the sorted points of its open


class BuildState:
    """What the rank-k builds in A^n share, passed to every helper.  It
    builds A^n itself, once A's restrictions pass `_check_ring_maps`, as
    the proof above `_free` and the index maps of `_compatibility` hold on
    A^n over field stalks and on no other ambient.

    Listed once, at first read: the opens in (size, lex) order, the
    empty and connected opens, and each point's free rank-k stalk
    submodules (one list per stalk ring) with their indices by elements
    and by echelon basis.  Kept as asked: projectors by open pair, index
    maps by restriction (`_compatibility`), and joins and G's values by
    open (`_join`, `_enumerate_values`).
    """

    def __init__(self, a: AlgebraSheaf, n: int, k: int):
        self.ambient = free_sheaf(a, n)
        _check_ring_maps(a)
        self.space, self.n, self.k = a.space, n, k
        self.rings = {x: a.stalk_ring[x] for x in sorted(a.space.points)}
        self.projectors: Dict[Tuple[PointSet, PointSet], Callable[[Value], Value]] = {}
        self.tables: Dict[tuple, List[int]] = {}
        self.joins: Dict[PointSet, List[Value]] = {}
        self.free: Dict[PointSet, List[Value]] = {}

    @cached_property
    def opens(self) -> List[PointSet]:
        return enumerate_opens(self.space)

    @cached_property
    def connected(self) -> List[PointSet]:
        return [u for u in self.opens if len(components(self.space, u)) <= 1]

    @cached_property
    def lists(self) -> Dict[FinRing, List[Submodule]]:
        """The candidates per stalk ring, listed in point order: [n k]_q of
        q^k vectors each, refused before listing any when that is more
        than MAX_STALK_VECTORS vectors."""
        n, k, lists = self.n, self.k, {}
        for r in dict.fromkeys(self.rings.values()):
            count = gaussian_binomial(n, k, r.size)
            if count * r.size ** k > MAX_STALK_VECTORS:
                raise SpaceTooLarge(
                    f"rank-{k} submodules of {r.label}^{n}: {count} candidates of "
                    f"{r.size ** k} vectors exceed bound {MAX_STALK_VECTORS} vectors")
            lists[r] = enumerate_free_submodules(r, n, k)
        return lists

    @cached_property
    def candidates(self) -> Dict[Point, List[Submodule]]:
        return {x: self.lists[r] for x, r in self.rings.items()}

    @cached_property
    def index(self) -> Dict[Point, Dict[frozenset, int]]:
        index = {r: {c.elements: i for i, c in enumerate(cs)} for r, cs in self.lists.items()}
        return {x: index[r] for x, r in self.rings.items()}

    @cached_property
    def echelon(self) -> Dict[FinRing, Dict[Tuple[Vec, ...], int]]:
        return {r: {c.basis: i for i, c in enumerate(cs)} for r, cs in self.lists.items()}

    def projector(self, u: PointSet, v: PointSet) -> Callable[[Value], Value]:
        """Values over u -> their entries over v ⊆ u, kept per pair."""
        get = self.projectors.get((u, v))
        if get is None:
            get = self.projectors[(u, v)] = _picker(
                [i for i, x in enumerate(sorted(u)) if x in v])
        return get


@dataclass
class GrassmannPresheaf:
    base: AlgebraSheaf
    k: int
    ambient: ModuleSheaf
    values: Dict[PointSet, Sequence[Value]]
    state: BuildState = field(repr=False, compare=False)

    def restrict(self, u: PointSet, v: PointSet, t: Value) -> Value:
        """The value t over u restricted to v ⊆ u: its entries over v."""
        return self.state.projector(u, v)(t)

    def subsheaf(self, u: PointSet, t: Value) -> VectorSubsheaf:
        """The value t over u as a subsheaf of the ambient."""
        return _subsheaf(self.state, u, t)

    def presheaf(self) -> Presheaf:
        """The values as a set-valued presheaf, restricting by projection."""
        return Presheaf(self.base.space,
                        {u: Carrier(SET, tuple(vals)) for u, vals in self.values.items()},
                        self.restrict)


def _compatibility(state: BuildState, x: Point, y: Point,
                   spend: Callable[[int], None]) -> List[int]:
    """The index map of (x, y), y in min_open(x): the index at y of the
    candidate that holds the image of each candidate at x.

    The image of a candidate's echelon basis is the echelon basis of the
    one candidate at y that holds the image (the note above `_free`), so
    each entry is one dict lookup.  Pairs with one restriction between the
    same rings share a map, charged one step per candidate at x at every
    use.
    """
    spend(len(state.candidates[x]))
    key = (state.rings[x], state.rings[y], state.ambient.base.res[(x, y)])
    if key not in state.tables:
        codes, at_y = key[2], state.echelon[key[1]]
        state.tables[key] = [at_y[tuple([tuple([codes[c] for c in row]) for row in cand.basis])]
                             for cand in state.candidates[x]]
    return state.tables[key]


def _stalk_families(state: BuildState, u: PointSet) -> List[Value]:
    """Per-point rank-k submodule choices closed under the ambient
    restrictions, as tuples of candidate indices over sorted(u), in
    lexicographic order.

    That order is `VectorSubsheaf.sort_key` order of the families: each
    point's candidates are sorted by `Submodule.sort_key`, its family
    entry's key, and every family lists the same points, so comparing two
    families' keys compares their candidate indices point by point over
    sorted(u).

    The join of `presheaf.compatible_families` (`_join_rows`), on A^n
    alone: a candidate at a maximal point m of u has as germ at each y in
    min_open(m) the candidate its index map names, as index maps compose
    like the restrictions they follow, and the families are sorted.  Each
    maximal point after the first that meets an earlier one has its
    choices fixed by the injective index maps, at most one per partial
    family, so over a connected open the join takes at most (index maps +
    maximal points) x candidates steps.  Index map entries and join nodes
    count against DEFAULT_STATE_BOUND.
    """
    min_open, pts = state.space.min_open, sorted(u)
    steps = 0

    def spend(n: int) -> None:
        nonlocal steps
        steps += n
        if steps > DEFAULT_STATE_BOUND:
            raise SpaceTooLarge(f"stalk-family join over open {pts} exceeds "
                                f"{DEFAULT_STATE_BOUND} steps at {steps}")

    # the maximal points in linked order, each next the first that meets
    # those before it: over a connected open each after the first does
    order, rest, reached = [], state.space.maximal_points(u), set()
    while rest:
        order.append(rest.pop(next((i for i, m in enumerate(rest) if reached & min_open[m]), 0)))
        reached |= min_open[order[-1]]
    # every index map is charged before any row is built
    cols = {m: [range(len(state.candidates[m])) if y == m else
                _compatibility(state, m, y, spend) for y in sorted(min_open[m])]
            for m in order}
    rows = {m: list(zip(*maps)) for m, maps in cols.items()}
    return sorted(_join_rows(state.space, u, rows, {}, spend))


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
    if u not in state.joins:
        state.joins[u] = _stalk_families(state, u)
    return state.joins[u]


# Over field stalks every family of a join is free of rank k, so `_free`
# answers without a search.  `BuildState.lists` admits only field stalks at
# k >= 1 (`enumerate_free_submodules` raises NotAField on any other ring)
# and only the zero family at k = 0, which the empty tuple of sections
# spans.  At k >= 1 a join family t over u holds a k-dimensional subspace
# t_x at each x, and res(x, y) maps t_x into t_y for y in min_open(x).  On
# A^n that map applies A's restriction, a unital ring morphism of fields
# (`_check_ring_maps`), to each entry: it keeps 0 and 1, so it sends the
# reduced row echelon basis of t_x to k vectors of t_y in reduced row
# echelon form with the same pivots, which are t_y's basis.  So the i-th
# basis rows at the points of u form a section, and the k of them a basis
# at every point.  The same argument makes each `_compatibility` map an
# injective function: a candidate at x lies, by its basis, in exactly one
# candidate at y, and a field morphism is injective, so distinct echelon
# bases at x have distinct images.  The maps compose as A's restrictions
# do: for z in min_open(y), y in min_open(x), the candidate the maps of
# (x, y) and (y, z) name holds the image of the candidate at x under
# res(x, z), so it is the one the map of (x, z) names.

def _check_ring_maps(a: AlgebraSheaf) -> None:
    """Refuse A unless each distinct restriction table is a unital ring
    morphism, as the proof above `_free` needs; a constant sheaf's
    identity tables pass unread."""
    if a._additive_res:
        return
    checked = set()
    for (x, y), codes in sorted(a.res.items()):
        r, s = a.stalk_ring[x], a.stalk_ring[y]
        if (r, s, codes) not in checked and not (
                all(0 <= c < s.size for c in codes)
                and validate_morphism(RingMorphism(r, s, codes))):
            raise ValidationError(f"restriction {x!r}->{y!r} of {a.label} "
                                  f"is not a unital ring morphism")
        checked.add((r, s, codes))


def _free(state: BuildState, u: PointSet, t: Value, budget: Optional[Budget]) -> bool:
    """Whether the value t over u is free of rank k: always, by the proof
    above, for one budget step over a nonempty open."""
    if u and budget is not None:
        try:
            budget.spend("freeness search")
        except SearchBudgetExceeded as exc:
            raise _freeness_spent(exc, u, state.k, budget) from None
    return True


def _enumerate_values(state: BuildState, u: PointSet,
                      budget: Optional[Budget]) -> List[Value]:
    """The free values over u, in sort_key order: the families of its join
    that `_free` accepts, asked once and kept in the build state."""
    if u not in state.free:
        state.free[u] = [t for t in _join(state, u) if _free(state, u, t, budget)]
    return state.free[u]


def _fills(state: BuildState, u: PointSet, vals: Sequence[Value]) -> bool:
    """Whether vals, families of u's join, are all of them."""
    return len(vals) == len(_join(state, u))


def _glues(state: BuildState, u: PointSet,
           values: Callable[[PointSet], List[Value]]) -> List[Value]:
    """The families of u's join, in join order, whose restriction to the
    minimal open U_x of each x in sorted(u) is among values(U_x), read only
    where they do not fill U_x's join (else every family restricts to one)."""
    min_open = state.space.min_open
    mins = [(state.projector(u, ux), set(vals)) for ux, vals in
            ((min_open[x], values(min_open[x])) for x in sorted(u))
            if not _fills(state, ux, vals)]
    return [t for t in _join(state, u) if all(get(t) in vals for get, vals in mins)]


def _placed_product(u: PointSet, parts: List[PointSet],
                    factors: List[List[Value]]) -> List[Value]:
    """Every choice of one tuple per component parts[i] of u from
    factors[i], its entries placed over sorted(u), in join (sort_key) order
    with no sort: a family over a connected part is fixed by its entry at
    any one point (the index maps are injective), so two choices first
    differ at the least point of the first part where they differ."""
    count = prod(len(f) for f in factors)
    if count > DEFAULT_STATE_BOUND:
        raise SpaceTooLarge(f"value product over open {sorted(u)} exceeds "
                            f"{DEFAULT_STATE_BOUND} values at {count}")
    flat = [x for c in parts for x in sorted(c)]
    place = _picker(sorted(range(len(flat)), key=flat.__getitem__))
    return [place(sum(choice, ())) for choice in product(*factors)]


class _Placed(Sequence):
    """A disconnected open's values held as its components' values: len is
    the product of their counts, and `_placed_product` lists them once read."""

    def __init__(self, u: PointSet, parts: List[PointSet], factors: List[List[Value]]):
        self.u, self.parts, self.factors = u, parts, factors

    def __len__(self) -> int:
        return prod(map(len, self.factors))

    @cached_property
    def listed(self) -> List[Value]:
        return _placed_product(self.u, self.parts, self.factors)

    def __getitem__(self, i):
        return self.listed[i]

    def __iter__(self):
        return iter(self.listed)


def _by_components(state: BuildState, u: PointSet,
                   connected: Callable[[PointSet], List[Value]]) -> Sequence[Value]:
    """connected(u) over the empty or a connected open u, and over a
    disconnected open connected over its components, held as factors."""
    parts = components(state.space, u)
    return (connected(u) if len(parts) <= 1 else
            _Placed(u, parts, [connected(c) for c in parts]))


def _locally_free(state: BuildState, u: PointSet, budget: Optional[Budget]) -> Sequence[Value]:
    """V's values over u: the glues of G's values on the minimal opens."""
    return _by_components(state, u, lambda c: _glues(
        state, c, lambda m: _enumerate_values(state, m, budget)))


def enumerate_free_subsheaves(a: AlgebraSheaf, k: int, n: int, u: PointSet,
                              budget: Optional[Budget] = None
                              ) -> List[VectorSubsheaf]:
    """Rank-k free subsheaves of A^n over u (one Grassmann value list)."""
    state = BuildState(a, n, k)
    return [_subsheaf(state, u, t) for t in _by_components(
        state, u, lambda c: _enumerate_values(state, c, budget))]


def enumerate_locally_free_subsheaves(a: AlgebraSheaf, k: int, n: int,
                                      u: PointSet,
                                      budget: Optional[Budget] = None
                                      ) -> List[VectorSubsheaf]:
    """Rank-k locally free subsheaves of A^n over u (one V value list): the
    families free on the minimal open of each point of u."""
    state = BuildState(a, n, k)
    return [_subsheaf(state, u, t) for t in _locally_free(state, u, budget)]


def _grassmann(state: BuildState, budget: Optional[Budget]) -> GrassmannPresheaf:
    """G's values in the state's ambient over every open."""
    return GrassmannPresheaf(state.ambient.base, state.k, state.ambient, {
        u: _by_components(state, u, lambda c: _enumerate_values(state, c, budget))
        for u in state.opens}, state)


def build_grassmann_presheaf(a: AlgebraSheaf, k: int, n: int,
                             budget: Optional[Budget] = None
                             ) -> GrassmannPresheaf:
    """The presheaf U -> {free rank-k subsheaves of A^n over U}."""
    return _grassmann(BuildState(a, n, k), budget)


def build_v_presheaf(a: AlgebraSheaf, k: int, n: int,
                     budget: Optional[Budget] = None) -> GrassmannPresheaf:
    """The complete companion: U -> {locally free rank-k subsheaves}, the
    glues of G's values on the minimal opens."""
    state = BuildState(a, n, k)
    return GrassmannPresheaf(a, k, state.ambient, {
        u: _locally_free(state, u, budget) for u in state.opens}, state)


def _row(state: BuildState, u: PointSet) -> Callable[[Value], Tuple[Value, ...]]:
    """t over u -> its restrictions to the minimal opens of sorted(u)."""
    gets = [state.projector(u, state.space.min_open[x]) for x in sorted(u)]
    return lambda t: tuple([get(t) for get in gets])


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
# product of the components' values (`_by_components`); its rows are the
# product of the components' rows, since the minimal open of a point of u
# lies in that point's component, so compatibility links no two components;
# and unit acts componentwise, as t|U_x reads only the entries of x's
# component.  A product of injective (bijective) maps is injective
# (bijective), and each c_i is a connected open checked on its own, so the
# unit is injective (bijective) on every open iff it is on the connected
# (and empty) ones, and the rows over u number the product of the counts.

def _sections(g: GrassmannPresheaf, u: PointSet) -> Sequence[Value]:
    """The sections of the generated sheaf over u as their glues (see
    above): over the empty or a connected open the families of its join
    whose restriction to each minimal open is a value, in join order, and
    over a disconnected open the placed product of its components'."""
    return _by_components(g.state, u, lambda c: _glues(g.state, c, g.values.__getitem__))


def check_monopresheaf_not_complete(g: GrassmannPresheaf) -> dict:
    """Monopresheaf verdict, a hunt for a non-free glue and the number of
    sections over the whole space, from the empty and connected opens (see
    the note above `_sections`).  No freeness question is asked, so it
    takes no budget.

    Values are separated on any ring: a value's row holds its entry at each
    point.  A section glues to a locally free subsheaf; a glue that is not
    free witnesses non-completeness.  A glue over a connected open is a
    family of its join, and G's values there are the join families `_free`
    accepts, so a glue is free iff it is a value.  Where every such open's
    values fill its join, as over field stalks (the proof above `_free`),
    the glues are the values; else the hunt names the first that is not.
    """
    # a non-free glue over a disconnected open restricts to a non-free glue
    # over one of its components, an earlier open, so the first witness in
    # (size, lex) order lies on a connected open
    opens, parts = g.state.connected, components(g.state.space, frozenset(g.base.space.points))
    if all(_fills(g.state, u, g.values[u]) for u in opens):
        witness, sections = None, {c: g.values[c] for c in parts}
    else:
        sections = {u: _sections(g, u) for u in opens}
        witness = next(({"open": sorted(u), "family": g.subsheaf(u, t).sort_key()}
                        for u in opens for values in [set(g.values[u])]
                        for t in sections[u] if t not in values), None)
    return {
        "monopresheaf": True,
        "complete_at_this_scale": witness is None,
        "completeness_witness": witness,
        "sections_over_whole": prod(len(sections[c]) for c in parts),
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
            for row in sorted(map(_row(g.state, u), _sections(g, u)))]


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

def _universal_state(a: AlgebraSheaf, n: int, truncation: int) -> BuildState:
    """The build state of rank n in A^N, N the finite truncation level."""
    if n > truncation:
        raise ValidationError(f"rank {n} exceeds truncation {truncation}")
    return BuildState(a, truncation, n)


def build_universal_grassmann(a: AlgebraSheaf, n: int, truncation: int,
                              budget: Optional[Budget] = None
                              ) -> GrassmannPresheaf:
    """Rank-n Grassmann presheaf of A^N, N the finite truncation level."""
    return _grassmann(_universal_state(a, n, truncation), budget)


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

    The subsheaves are V's values over the whole space, the glues of G's
    values on the minimal opens, which are the sections of the sheaf G
    generates; the sections, in enumerate_sections order, are the same glues
    sorted by row.  By the glue argument above `_sections`, unit and glue are
    mutually inverse bijections between them, so `bijection` holds and
    `pairs` is the permutation that sorts the values by row.
    """
    whole = frozenset(a.space.points)
    pts = sorted(whole)
    state = _universal_state(a, n, truncation)
    subsheaves = _locally_free(state, whole, budget)
    sections = sorted(subsheaves, key=_row(state, whole))
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
                          morph.target, state.ambient)
        embed_image_found = _candidate_index(state, image) in sub_index

    return {
        "k": n,
        "n": truncation,
        "counts": {"sections": len(sections), "subsheaves": len(subsheaves)},
        "bijection": bijection,
        "pairs": pairs if bijection else [],
        "embed_image_found": embed_image_found,
    }
