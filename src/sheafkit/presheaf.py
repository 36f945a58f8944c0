"""Presheaves of finite carriers on a finite T0 space.

The load-bearing simplification throughout: on a finite space the
neighborhood system of a point x has the minimal open U_x as smallest
element, so the direct limit defining the stalk collapses to the value at
U_x, and sections of the generated sheaf are finite compatible families of
germs indexed by points.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter, ne
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Tuple

from .errors import InvalidMorphism, SpaceTooLarge, ValidationError
from .finalg import FinRing, ring_from_ops, validate_morphism, RingMorphism
from .finspace import (FinSpace, PointSet, Point, ContinuousMap, components,
                       enumerate_opens, open_sort_key, opens_below)

Elem = Hashable
ElemMap = Dict[Elem, Elem]

DEFAULT_STATE_BOUND = 10 ** 6

SET, RING = "set", "ring"


@dataclass(frozen=True)
class Carrier:
    """Finite carrier attached to one open set.

    kind "set": bare elements.
    kind "ring": `ring` holds the structure; element i of `elements` is ring
    code i (for constructed presheaves the elements simply are the codes).
    """
    kind: str
    elements: Tuple[Elem, ...]
    ring: Optional[FinRing] = None

    def index(self, e: Elem) -> int:
        return self.elements.index(e)

    # ring operations transported along the element/code alignment, so they
    # work whether elements are raw codes or constructed values
    def ring_add(self, a: Elem, b: Elem) -> Elem:
        return self.elements[self.ring.add(self.index(a), self.index(b))]

    def ring_mul(self, a: Elem, b: Elem) -> Elem:
        return self.elements[self.ring.mul(self.index(a), self.index(b))]

    def ring_zero(self) -> Elem:
        return self.elements[self.ring.zero]

    def ring_one(self) -> Elem:
        return self.elements[self.ring.one]


@dataclass
class Presheaf:
    """Carriers on every open; `restrict(u, v, e)` sends e over u to v ⊆ u.
    `tables`, when given, holds restrict on each pair v ⊊ u as a dict by
    (u, v), and `row` reads it."""
    space: FinSpace
    carriers: Dict[PointSet, Carrier]
    restrict: Callable[[PointSet, PointSet, Elem], Elem]
    tables: Optional[Dict[Tuple[PointSet, PointSet], ElemMap]] = None

    def row(self, u: PointSet, v: PointSet) -> ElemMap:
        """restrict(u, v, -) as a dict on the carrier over u: from `tables`
        (readers look up only carrier elements, so other keys go unread),
        the identity when u = v, or else tabulated where it is defined."""
        if self.tables is None:
            return _tabulate(self, u, v)
        return self.tables[(u, v)] if u != v else {e: e for e in self.carriers[u].elements}

    def stalk_carrier(self, x: Point) -> Carrier:
        return self.carriers[self.space.min_open[x]]


def build_presheaf(space: FinSpace,
                   carrier_fn: Callable[[PointSet], Carrier],
                   restrict_fn: Callable[[PointSet, PointSet, Elem], Elem]) -> Presheaf:
    """Carriers over all opens, restricting by `restrict_fn`."""
    return Presheaf(space, {u: carrier_fn(u) for u in enumerate_opens(space)},
                    restrict_fn)


def _tabulate(p: Presheaf, u: PointSet, v: PointSet) -> ElemMap:
    """restrict(u, v, -) on the carrier over u, where it is defined."""
    table = {}
    for e in p.carriers[u].elements:
        try:
            table[e] = p.restrict(u, v, e)
        except KeyError:
            pass
    return table


def validate(p: Presheaf) -> List[str]:
    """Report of functor-law and structure violations; empty means valid.

    Validity is decided in one pass (`_valid`); only a presheaf that fails
    it is tabulated here.  Each restriction is tabulated over its source
    carrier.  One that is undefined somewhere (raises KeyError) or leaves
    its target is reported once and left out of every later check, and
    every triple of the others is scanned for composition.
    """
    opens = sorted(p.carriers, key=open_sort_key)
    if _valid(p, opens):
        return []
    problems = []
    tables = {(u, v): _tabulate(p, u, v) for u in opens for v in opens if v <= u}
    for u in opens:
        if any(tables[(u, u)].get(e) != e for e in p.carriers[u].elements):
            problems.append(f"restrict to itself not identity on {sorted(u)}")
    members = {u: set(p.carriers[u].elements) for u in opens}
    sound: Dict[PointSet, Dict[PointSet, ElemMap]] = {u: {} for u in opens}
    for (u, v), ruv in tables.items():
        undefined = [e for e in p.carriers[u].elements if e not in ruv]
        try:
            inside = members[v].issuperset(ruv.values())
        except TypeError:  # an unhashable value lies in no carrier
            inside = False
        if undefined:
            problems.append(
                f"restriction {sorted(u)}->{sorted(v)} undefined at {undefined[0]!r}")
        elif not inside:
            problems.append(
                f"restriction {sorted(u)}->{sorted(v)} leaves the carrier")
        else:
            sound[u][v] = ruv
    problems += [f"composition fails {sorted(u)}->{sorted(v)}->{sorted(w)}"
                 for u, v, w in _composition_failures(p, opens, sound)]
    for u, maps in sound.items():
        for v, m in maps.items():
            if not _ring_morphism(p, u, v, m):
                problems.append(
                    f"restriction {sorted(u)}->{sorted(v)} not a ring morphism")
    return problems


def _ring_morphism(p: Presheaf, u: PointSet, v: PointSet, m: ElemMap) -> bool:
    """False iff both carriers are rings and the map m from u's to v's is
    not a unital ring morphism."""
    cu, cv = p.carriers[u], p.carriers[v]
    if not cu.kind == RING == cv.kind:
        return True
    return validate_morphism(RingMorphism(
        cu.ring, cv.ring,
        tuple(cv.index(m[cu.elements[i]]) for i in range(cu.ring.size))))


def _composition_failures(p: Presheaf, opens: List[PointSet],
                          sound: Dict[PointSet, Dict[PointSet, ElemMap]]):
    """Triples u ⊇ v ⊇ w of sound maps with r(v,w) r(u,v) != r(u,w), in
    scan order."""
    for u in opens:
        for v, ruv in sound[u].items():
            for w, rvw in sound[v].items():
                ruw = sound[u].get(w)
                if ruw is not None and any(rvw[ruv[e]] != ruw[e]
                                           for e in p.carriers[u].elements):
                    yield u, v, w


# Validity in one pass.  Write r(u,w) for restrict(u, w, -), and call
# u -> u-{x} a cover step when x is maximal in u (then u-{x} is open).  For
# w ⊊ u open, let x be a point of u-w maximal in u-w: a point of u above x
# lies outside the open w (else x would too), so x is maximal in u, and
# u-{x} ⊇ w.  `_valid` reads the opens u in size order and checks
#   (a) the identity row r(u,u) on the carrier over u;
#   (b) each cover step u -> u-{x}, tabulated: defined and inside the
#       carrier over u-{x} (sound);
#   (c) every other pair (u,w), read once: r(u,w) = r(v,w) r(u,v) through
#       the cover step v = u-{x}, x the first maximal point of u outside w;
#   (d) each square of cover steps x != y of u:
#       r(u-x, u-xy) r(u, u-x) = r(u-y, u-xy) r(u, u-y);
#   (e) on ring carriers, that each cover step and each pair of (c) whose
#       v is not a ring carrier is a ring morphism.
# Each is a check `validate` makes (a square is two of its triples through
# (u, u-xy)), so a valid presheaf passes.  Conversely, by induction on
# |u-w|: each step u -> u-{y} with y ∉ w gives r(u,w) = r(u-y,w) r(u,u-y).
# At y = x that is (c).  Else x and y are maximal in u-y and u-x, so by
# induction on the pairs (u-y, w) and (u-x, w) and by the square (d),
#   r(u-y,w) r(u,u-y) = r(u-xy,w) r(u-y,u-xy) r(u,u-y)
#                     = r(u-xy,w) r(u-x,u-xy) r(u,u-x) = r(u-x,w) r(u,u-x),
# which is r(u,w) by (c); where u-xy = w, r(w,w) is the identity by (a).
# These are the cover triples (u, u-y, w), and
# with the identity law they give every triple u ⊇ v ⊇ w, by induction on
# |u-v|: for y maximal in u-v, y is maximal in u and v' = u-{y} ⊇ v, and
# the triples (u,v',w), (u,v',v), (v',v,w) give r(u,w) = r(v',w) r(u,v')
# = r(v,w) r(v',v) r(u,v') = r(v,w) r(u,v).  Every map of (c) equals a
# composite of sound maps, so it is defined and lands inside its carrier
# (equal values are carrier members), and one between ring carriers is a
# ring morphism: a composite of ring morphisms (by induction) when its v
# is a ring carrier, checked by (e) otherwise.  So `validate` reports
# nothing.

def _valid(p: Presheaf, opens: List[PointSet]) -> bool:
    """True iff `validate` reports nothing, decided in one pass over the
    opens in size order (the note above), reading each row once and only
    at the carrier's elements."""
    space = p.space
    rows: Dict[PointSet, Dict[PointSet, ElemMap]] = {}
    members = {u: set(p.carriers[u].elements) for u in opens}
    rings, below = {u for u in opens if p.carriers[u].kind == RING}, opens_below(space)
    try:
        for u in opens:
            elems = p.carriers[u].elements
            ruu = p.row(u, u)
            if [ruu[e] for e in elems] != list(elems):
                return False
            maxpts = space.maximal_points(u)
            tops, ring, ru = frozenset(maxpts), u in rings, rows.setdefault(u, {})
            steps = {}
            for x in maxpts:
                v = steps[x] = u - {x}
                ruv = ru[v] = p.row(u, v)
                if not members[v].issuperset([ruv[e] for e in elems]) or (
                        ring and not _ring_morphism(p, u, v, ruv)):
                    return False
            covers = set(steps.values())
            for w in [w for w in below[u] if w not in covers]:
                v = steps[min(tops - w)]
                ruv, rvw = ru[v], rows[v][w]
                ruw = ru[w] = p.row(u, w)
                if [ruw[e] for e in elems] != [rvw[ruv[e]] for e in elems]:
                    return False
                if ring and v not in rings and not _ring_morphism(p, u, w, ruw):
                    return False
            for j, x in enumerate(maxpts):
                for y in maxpts[j + 1:]:
                    v, w = steps[y], u - {x, y}
                    ruw, ruv, rvw = ru[w], ru[v], rows[v][w]
                    if [ruw[e] for e in elems] != [rvw[ruv[e]] for e in elems]:
                        return False
    except (KeyError, TypeError):  # undefined, or unhashable so in no carrier
        return False
    return True


# -- stalks ------------------------------------------------------------------

@dataclass
class Stalk:
    presheaf: Presheaf
    point: Point
    carrier: Carrier

    def germ(self, u: PointSet, e: Elem) -> Elem:
        """Germ at the stalk point of a section over u."""
        return self.presheaf.restrict(u, self.presheaf.space.min_open[self.point], e)


def stalk(p: Presheaf, x: Point) -> Stalk:
    return Stalk(p, x, p.stalk_carrier(x))


# -- separation --------------------------------------------------------------

def germ_map(p: Presheaf, u: PointSet) -> ElemMap:
    """Each element over u sent to its tuple of germs at the sorted points."""
    mins = [p.space.min_open[x] for x in sorted(u)]
    return {e: tuple(p.restrict(u, ux, e) for ux in mins)
            for e in p.carriers[u].elements}


def _injective(m: ElemMap) -> bool:
    return len(set(m.values())) == len(m)


def is_monopresheaf(p: Presheaf) -> bool:
    """True iff sections are determined by their germs at every point.

    Injectivity into the product of stalks over the minimal-open cover
    suffices for every cover, since any cover of U refines {U_x : x in U}.
    Empty opens are skipped (they admit no points).
    """
    return all(_injective(germ_map(p, u)) for u in p.carriers if u)


def restrictions_injective_for_cover(p: Presheaf, u: PointSet,
                                     cover: List[PointSet]) -> bool:
    """Direct separation check against an arbitrary open cover of u."""
    seen = {}
    for e in p.carriers[u].elements:
        key = tuple(p.restrict(u, v, e) for v in cover)
        if key in seen and seen[key] != e:
            return False
        seen[key] = e
    return True


# -- compatible germ families ------------------------------------------------

class JoinPlan:
    """What `compatible_families` over one open needs besides its choices
    and germs: the sorted points, the maximal points, and per maximal point
    m the sorted min_open(m), the positions among them of the points an
    earlier maximal point reaches, and the prefix positions of those
    points' germs.  Made once per open and run on any choices and
    `res` (`run`)."""

    def __init__(self, space: FinSpace, carrier_pts: PointSet):
        self.pts = pts = sorted(carrier_pts)
        self.maxpts = maxpts = space.maximal_points(carrier_pts)
        levels: List[Tuple[Point, List[Point], List[int], List[int]]] = []
        self.levels = levels
        if len(maxpts) < 2:  # min_open(m) or empty: no join
            return
        owner: Dict[Point, int] = {}
        width = 0
        for m in maxpts:
            ys = sorted(space.min_open[m])
            shared = [j for j, y in enumerate(ys) if y in owner]
            levels.append((m, ys, shared, [owner[ys[j]] for j in shared]))
            for j, y in enumerate(ys, width):
                owner.setdefault(y, j)
            width += len(ys)
        # a family read off a full prefix, over the sorted points
        self.family = itemgetter(*[owner[x] for x in pts])

    def run(self, elems_at: Callable[[Point], List[Elem]],
            res: Callable[[Point, Point, Elem], Elem]) -> List[Tuple[Elem, ...]]:
        """`compatible_families` over the plan's open (see there)."""
        maxpts = self.maxpts
        choices = [elems_at(m) for m in maxpts]
        states = 1
        for vals in choices:
            states *= max(len(vals), 1)
            if states > DEFAULT_STATE_BOUND:
                raise SpaceTooLarge(f"section enumeration over open {self.pts} exceeds "
                                    f"{DEFAULT_STATE_BOUND} states at {states}")
        if not maxpts:
            return [()]
        if len(maxpts) == 1:
            pts = self.pts
            return [tuple([res(maxpts[0], y, val) for y in pts]) for val in choices[0]]
        if not all(choices):  # an empty product calls no res
            return []
        # per maximal point: the prefix positions of the germs its choices
        # must agree with, and per choice (its germs at those points, its
        # germ row, a held KeyError); a prefix is its choices' germ rows
        # laid end to end
        levels = []
        for (m, ys, shared, fixed), vals in zip(self.levels, choices):
            rows = []
            for val in vals:
                row, err = [], None
                try:
                    for y in ys:
                        row.append(res(m, y, val))
                except KeyError as exc:
                    err = exc
                rows.append((tuple([row[j] for j in shared if j < len(row)]),
                             tuple(row), err))
            levels.append((fixed, rows))
        family = self.family
        out: List[Tuple[Elem, ...]] = []
        last = len(levels) - 1

        def join(i: int, prefix: Tuple[Elem, ...]) -> None:
            fixed, rows = levels[i]
            agreed = [prefix[o] for o in fixed]
            for germs, row, err in rows:
                if any(map(ne, agreed, germs)):
                    continue
                if err is not None:
                    raise err
                if i == last:
                    out.append(family(prefix + row))
                else:
                    join(i + 1, prefix + row)

        join(0, ())
        return out


def compatible_families(space: FinSpace, carrier_pts: PointSet,
                        elems_at: Callable[[Point], List[Elem]],
                        res: Callable[[Point, Point, Elem], Elem]) -> List[Tuple[Elem, ...]]:
    """All families (g_x) with g_y = res(x,y,g_x) whenever y ∈ min_open(x).

    Values are chosen at the maximal points of the open set and propagated
    downward; functoriality of `res` makes agreement at the propagated points
    equivalent to full compatibility. Families are tuples over sorted points,
    in `itertools.product` order of the choices.

    A nested-loop join over the maximal points in order: each choice's germs
    at the points below it are computed once, and under a prefix of choices
    a choice is kept iff its germs agree (by `!=`) with those the prefix
    fixed at the points they share.  The join walks the product in order and
    drops a combination where a plain loop over it would stop, so a KeyError
    that `res` raises surfaces iff such a loop reaches it first: it is held
    with the germs before it and raised when the join reaches its choice
    with no mismatch among them.  An open with one maximal point m is
    min_open(m), and its families are the germ rows of m's choices.

    The open's `JoinPlan`, made here, run once; a caller asking about one
    open many times keeps the plan and runs it.
    """
    return JoinPlan(space, carrier_pts).run(elems_at, res)


# -- sheafification ----------------------------------------------------------

@dataclass
class SheafSpace:
    """Sheaf generated by a presheaf: sections are compatible germ families."""
    source: Presheaf
    sections: Presheaf            # the complete presheaf of sections
    unit: Dict[PointSet, ElemMap]  # per open: source carrier -> section


def germ_family_presheaf(space: FinSpace, stalk: Callable[[Point], Carrier],
                         res: Callable[[Point, Point, Elem], Elem],
                         kind: Callable[[PointSet], str], label: str,
                         opens: Optional[List[PointSet]] = None) -> Presheaf:
    """Presheaf of the compatible families of germs g_x in stalk(x), listed
    over `opens` in their order (every open by default).

    The carrier over U holds the families over sorted(U).  With kind(U)
    "ring" they form a ring under the pointwise operations of the stalks,
    named `label(sorted(U))`; any other kind gives a set.  Restriction drops
    the points outside the smaller open when it is called.
    """
    opens = enumerate_opens(space) if opens is None else opens
    stalks = {x: stalk(x) for x in space.points}
    carriers: Dict[PointSet, Carrier] = {}
    for u in opens:
        fams = compatible_families(space, u, lambda x: list(stalks[x].elements), res)
        if kind(u) != RING:
            carriers[u] = Carrier(SET, tuple(fams))
            continue
        cs = [stalks[x] for x in sorted(u)]
        ring = ring_from_ops(
            fams,
            lambda a, b: tuple(c.ring_add(x, y) for c, x, y in zip(cs, a, b)),
            lambda a, b: tuple(c.ring_mul(x, y) for c, x, y in zip(cs, a, b)),
            zero=tuple(c.ring_zero() for c in cs),
            one=tuple(c.ring_one() for c in cs),
            label=f"{label}({sorted(u)})")
        carriers[u] = Carrier(RING, tuple(fams), ring)
    return Presheaf(space, carriers, lambda u, v, f: tuple(
        g for x, g in zip(sorted(u), f) if x in v))


def sheafify(p: Presheaf) -> SheafSpace:
    """Sections of the generated sheaf, with the unit map on every open."""
    space = p.space
    sections = germ_family_presheaf(
        space, p.stalk_carrier,
        lambda x, y, e: p.restrict(space.min_open[x], space.min_open[y], e),
        lambda u: p.carriers[u].kind, "sections")
    return SheafSpace(p, sections, {u: germ_map(p, u) for u in sections.carriers})


def unit_injective(s: SheafSpace, u: PointSet) -> bool:
    return _injective(s.unit[u])


def unit_bijective(s: SheafSpace, u: PointSet) -> bool:
    image = set(s.unit[u].values())
    return (len(image) == len(s.unit[u])
            and image == set(s.sections.carriers[u].elements))


class UnitCount(NamedTuple):
    """What the generated sheaf says about one open (`unit_counts`)."""
    carrier: int      # elements over the open
    sections: int     # sections of the generated sheaf over it
    injective: bool   # the unit is injective there
    bijective: bool   # and onto the sections


def unit_counts(p: Presheaf) -> Dict[PointSet, UnitCount]:
    """Per open of a valid presheaf whose carriers list no element twice, in
    `enumerate_opens` order: what `sheafify` with `unit_injective` and
    `unit_bijective` gives, listing sections over the empty and connected
    opens alone.

    Those count their `compatible_families`.  A disconnected open's sections
    are the tuples of its components' sections, since no minimal open meets
    two components, so they number the product of the components' counts.
    The unit sends a section e over u to its germs, a compatible family by
    functoriality, so it is bijective iff it is injective and the carrier
    size equals the count.  The germs at the maximal points of u determine
    the others, so it is injective iff e -> (e|U_m) over them is.
    """
    space, mins = p.space, p.space.min_open
    stalks = {x: list(p.stalk_carrier(x).elements) for x in space.points}
    germs = {x: {y: p.row(mins[x], mins[y]) for y in mins[x]} for x in space.points}

    def res(x: Point, y: Point, e: Elem) -> Elem:
        return germs[x][y][e]

    out: Dict[PointSet, UnitCount] = {}
    for u in enumerate_opens(space):
        parts = components(space, u)
        count = (len(compatible_families(space, u, stalks.__getitem__, res))
                 if len(parts) <= 1 else prod(out[c].sections for c in parts))
        elems = p.carriers[u].elements
        tops = [p.row(u, mins[m]) for m in space.maximal_points(u)]
        carrier = len(elems)
        injective = len({tuple([r[e] for r in tops]) for e in elems}) == carrier
        out[u] = UnitCount(carrier, count, injective, injective and carrier == count)
    return out


def is_complete(p: Presheaf) -> bool:
    """True iff the unit is bijective on every open (`unit_counts`) of a presheaf
    that passes `validate` (else ValidationError) and lists no element twice."""
    problems = validate(p)
    if problems:
        raise ValidationError(f"invalid presheaf: {problems[0]}")
    return all(c.bijective for c in unit_counts(p).values())


# -- pullback ----------------------------------------------------------------

def pullback(p: Presheaf, f: ContinuousMap,
             opens: Optional[List[PointSet]] = None) -> Presheaf:
    """Inverse-image sheaf along f: stalk at y is the stalk of p at f(y),
    listed over `opens` of the domain (every open by default).

    Sections over V ⊆ Y are compatible families of germs (g_y ∈ stalk_{f(y)});
    continuity makes the stalk restriction of p along f(y') ∈ min_open(f(y))
    available whenever y' ∈ min_open(y).
    """
    space_x = p.space
    return germ_family_presheaf(
        f.domain, lambda y: p.stalk_carrier(f(y)),
        lambda y, y2, e: p.restrict(space_x.min_open[f(y)], space_x.min_open[f(y2)], e),
        lambda v: p.stalk_carrier(f(min(v))).kind if v else SET, "pullback", opens)


# -- the two-algebra construction --------------------------------------------

def two_algebra_presheaf(space: FinSpace, x0: Point, a0: FinRing, a1: FinRing,
                         rho: RingMorphism) -> Presheaf:
    """Presheaf with value a0 on opens containing x0 and a1 elsewhere.

    Restriction is the identity within either regime and rho when the open
    drops x0. Its stalks are a0 at x0 and a1 at any point whose minimal open
    misses x0, which need not be isomorphic rings.
    """
    if rho.domain is not a0 or rho.codomain is not a1 or not validate_morphism(rho):
        raise InvalidMorphism("rho must be a unital morphism a0 -> a1")
    if x0 not in space.min_open:
        raise InvalidMorphism(f"{x0!r} not a point of the space")

    def carrier_fn(u: PointSet) -> Carrier:
        ring = a0 if x0 in u else a1
        return Carrier(RING, tuple(range(ring.size)), ring)

    def restrict_fn(u: PointSet, v: PointSet, e: int) -> int:
        if x0 in v:
            return e
        if x0 in u:
            return rho(e)
        return e

    return build_presheaf(space, carrier_fn, restrict_fn)


def constant_presheaf(space: FinSpace, ring: FinRing) -> Presheaf:
    """The (non-sheaf) constant assignment U -> ring with identity maps."""
    def carrier_fn(u: PointSet) -> Carrier:
        return Carrier(RING, tuple(range(ring.size)), ring)

    return build_presheaf(space, carrier_fn, lambda u, v, e: e)
