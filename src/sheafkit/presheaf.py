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
from typing import (Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

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
    at the carrier's elements.

    Each open u reads its rows through one getter over its carrier, and
    each cover step v = u-{x} gives a getter over the values of r(u,v),
    so a pair (u,w) compared through v costs two getter calls, whatever
    the carrier's size.
    """
    space, read = p.space, _reader(p)
    rows: Dict[PointSet, Dict[PointSet, ElemMap]] = {}
    members = {u: set(p.carriers[u].elements) for u in opens}
    rings, below = {u for u in opens if p.carriers[u].kind == RING}, opens_below(space)
    try:
        for u in opens:
            elems = p.carriers[u].elements
            get = _row_getter(elems)
            if get(p.row(u, u)) != elems:
                return False
            maxpts, ring, ru = space.maximal_points(u), u in rings, rows.setdefault(u, {})
            steps, then = {}, {}  # u-{x} by x; by v, r(v,-) read at the values of r(u,v)
            for x in maxpts:
                v = steps[x] = u - {x}
                ruv = ru[v] = read((u, v))
                image = get(ruv)
                if not members[v].issuperset(image) or (
                        ring and not _ring_morphism(p, u, v, ruv)):
                    return False
                then[v] = _row_getter(image)
            for w in below[u]:
                if w in then:
                    continue
                for x in maxpts:  # the first maximal point of u outside w
                    if x not in w:
                        break
                v = steps[x]
                ruw = ru[w] = read((u, w))
                if get(ruw) != then[v](rows[v][w]):
                    return False
                if ring and v not in rings and not _ring_morphism(p, u, w, ruw):
                    return False
            for j, x in enumerate(maxpts):
                for y in maxpts[j + 1:]:
                    v, w = steps[y], u - {x, y}
                    if get(ru[w]) != then[v](rows[v][w]):
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

def _picker(pos: List[int]) -> Callable[[tuple], tuple]:
    """t -> the tuple of t's entries at pos, in one `itemgetter` call."""
    if len(pos) > 1:
        return itemgetter(*pos)
    return itemgetter(slice(pos[0], pos[0] + 1) if pos else slice(0))


def _reader(p: Presheaf) -> Callable[[Tuple[PointSet, PointSet]], ElemMap]:
    """(u, v) -> p.row(u, v) for v ⊊ u, one C-level lookup where p has tables."""
    return p.tables.__getitem__ if p.tables is not None else lambda uv: _tabulate(p, *uv)


def _row_getter(keys: Sequence[Elem]) -> Callable[[ElemMap], tuple]:
    """m -> the tuple of m's values at keys: like `_picker` on positions,
    one `itemgetter` call for two or more keys."""
    if len(keys) > 1:
        return itemgetter(*keys)
    if keys:
        key = keys[0]
        return lambda m: (m[key],)
    return lambda m: ()


def _check_states(carrier_pts: PointSet, sizes: Iterable[int]) -> None:
    """SpaceTooLarge once the product of the sizes (each at least 1), taken
    in order, passes DEFAULT_STATE_BOUND: the section enumeration guard."""
    states = 1
    for size in sizes:
        states *= max(size, 1)
        if states > DEFAULT_STATE_BOUND:
            raise SpaceTooLarge(f"section enumeration over open {sorted(carrier_pts)} "
                                f"exceeds {DEFAULT_STATE_BOUND} states at {states}")


def _scan(rows: List[Tuple[Elem, ...]], shared: List[int], agreed: List[Elem],
          held: Dict[int, KeyError], rest: Callable[[tuple], tuple]
          ) -> Tuple[List[Tuple[Elem, ...]], Optional[KeyError]]:
    """rest(row) of each row whose germs at the shared positions agree with
    agreed, in order, up to the first with a held KeyError, and that error."""
    found = []
    for j, row in enumerate(rows):
        if not any(map(ne, agreed, [row[s] for s in shared if s < len(row)])):
            if j in held:
                return found, held[j]
            found.append(rest(row))
    return found, None


def _join_rows(space: FinSpace, carrier_pts: PointSet,
               rows: Dict[Point, List[Tuple[Elem, ...]]],
               held: Dict[Tuple[Point, int], KeyError],
               spend: Optional[Callable[[int], None]] = None) -> List[Tuple[Elem, ...]]:
    """The families over sorted(carrier_pts) of one choice per maximal
    point m, the j-th at m with germ row rows[m][j] over sorted(min_open(m)),
    in product order of the choices, the points taken in `rows` order.

    A prefix of choices, held as its germs at the points reached so far,
    keeps a choice iff their germs are equal at the points they share:
    each level's rows are grouped by those germs (a hash join), or scanned
    (`_scan`) where a row holds a KeyError, held[(m, j)], met in computing
    rows[m][j] after the germs it holds, and where any germ cannot be
    hashed; a level that shares no point keeps every row.  The prefixes
    after the first that reaches a held error are dropped, so the one
    raised at the end is the one a plain loop over the product would reach
    first.  spend, when given, is charged each level's kept choices, one
    per node of the join, before they are laid down.
    """
    owner: Dict[Point, int] = {}  # each reached point's position in a prefix
    partial: List[Tuple[Elem, ...]] = [()]
    err: Optional[KeyError] = None
    hashable = True
    try:  # a single level is read whole, unhashed
        hash(tuple(map(tuple, rows.values())) if len(rows) > 1 else ())
    except TypeError:  # some germ cannot be hashed: every level is scanned
        hashable = False
    for m, level in rows.items():
        ys = sorted(space.min_open[m])
        shared = [j for j, y in enumerate(ys) if y in owner]
        fresh = [j for j, y in enumerate(ys) if y not in owner]
        errs = {j: exc for (x, j), exc in held.items() if x == m}
        found: List[Sequence[Tuple[Elem, ...]]] = []  # the tails each prefix keeps
        if errs or not hashable:
            rest = _picker(fresh)
            for prefix in partial:
                tails, hit = _scan(level, shared, [prefix[owner[ys[j]]] for j in shared],
                                   errs, rest)
                found.append(tails)
                if hit is not None:  # the prefixes after this one are dropped
                    err = hit
                    break
        elif shared:
            key, rest, groups = _picker(shared), _picker(fresh), {}
            for row in level:
                groups.setdefault(key(row), []).append(rest(row))
            found = [groups.get(k, ()) for k in map(_picker([owner[ys[j]] for j in shared]),
                                                    partial)]
        else:  # every row is kept under every prefix
            found = [level] * len(partial)
        if spend is not None:
            spend(sum(map(len, found)))
        partial = [prefix + tail for prefix, tails in zip(partial, found) for tail in tails]
        for j in fresh:
            owner[ys[j]] = len(owner)
    if err is not None:
        raise err
    pos = [owner[x] for x in sorted(carrier_pts)]
    return partial if pos == list(range(len(owner))) else list(map(_picker(pos), partial))


def compatible_families(space: FinSpace, carrier_pts: PointSet,
                        elems_at: Callable[[Point], List[Elem]],
                        res: Callable[[Point, Point, Elem], Elem]) -> List[Tuple[Elem, ...]]:
    """All families (g_x) with g_y = res(x,y,g_x) whenever y ∈ min_open(x).

    Values are chosen at the maximal points of the open set and propagated
    downward; functoriality of `res` makes agreement at the propagated points
    equivalent to full compatibility. Families are tuples over sorted points,
    in `itertools.product` order of the choices.

    Each choice's germs below its point are computed once and joined by
    `_join_rows`, holding a KeyError from `res` with the germs before it;
    an empty product calls no res.
    """
    maxpts = space.maximal_points(carrier_pts)
    choices = [elems_at(m) for m in maxpts]
    _check_states(carrier_pts, map(len, choices))
    if len(maxpts) == 1:  # min_open(m), listed without the join's row building
        ys = sorted(carrier_pts)
        return [tuple([res(maxpts[0], y, val) for y in ys]) for val in choices[0]]
    if not all(choices):
        return []
    rows, held = {}, {}
    for m, vals in zip(maxpts, choices):
        ys, level = sorted(space.min_open[m]), rows.setdefault(m, [])
        for j, val in enumerate(vals):
            row = []
            try:
                for y in ys:
                    row.append(res(m, y, val))
            except KeyError as exc:
                held[(m, j)] = exc
            level.append(tuple(row))
    return _join_rows(space, carrier_pts, rows, held)


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
    `unit_bijective` gives, counting sections over the empty and connected
    opens alone, under `compatible_families`' guard.

    The empty open has one section, the empty family.  A connected open
    with one maximal point m is min_open(m), whose sections are the
    elements of the stalk at m; with more, the sections are the families
    `_join_rows` lists from the germ rows of its maximal points, each
    point's rows read once per call.  A disconnected open's sections are
    the tuples of its components' sections, since no minimal open meets
    two components, so they number the product of the components' counts.
    The unit sends a section e over u to its germs, a compatible family by
    functoriality, so it is bijective iff it is injective and the carrier
    size equals the count.  The germs at the maximal points of u determine
    the others, so it is injective iff e -> (e|U_m) over them is: each
    U_m's row is read through one getter over u's carrier, and the empty
    open's unit, with no germs, is injective iff it has at most one element.
    """
    space, mins, read = p.space, p.space.min_open, _reader(p)
    stalks = {x: p.carriers[mins[x]].elements for x in space.points}
    germ_rows: Dict[Point, List[Tuple[Elem, ...]]] = {}

    def rows_at(m: Point) -> List[Tuple[Elem, ...]]:
        """Each element of the stalk at m as its germs over sorted(min_open(m))."""
        if m not in germ_rows:
            get = _row_getter(stalks[m])
            germ_rows[m] = list(zip(*[get(p.row(mins[m], mins[y])) for y in sorted(mins[m])]))
        return germ_rows[m]

    out: Dict[PointSet, UnitCount] = {}
    for u in enumerate_opens(space):
        parts, maxpts = components(space, u), space.maximal_points(u)
        if len(parts) > 1:
            count = prod(out[c].sections for c in parts)
        else:
            _check_states(u, [len(stalks[m]) for m in maxpts])
            count = (len(_join_rows(space, u, {m: rows_at(m) for m in maxpts}, {}))
                     if len(maxpts) > 1 else len(stalks[maxpts[0]]) if maxpts else 1)
        elems = p.carriers[u].elements
        if len(maxpts) > 1:
            get = _row_getter(elems)
            injective = len(set(zip(*[get(read((u, mins[m]))) for m in maxpts]))) == len(elems)
        else:  # min_open(m), whose unit is its identity row, or the empty open
            injective = bool(maxpts) or len(elems) <= 1
        out[u] = UnitCount(len(elems), count, injective, injective and len(elems) == count)
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
