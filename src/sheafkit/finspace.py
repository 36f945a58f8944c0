"""Finite T0 topological spaces.

A finite space is encoded by the minimal open neighborhood of each point:
``min_open(x)`` is the smallest open set containing ``x``.  Every open set is
a union of minimal opens, so the map ``min_open`` determines the topology.
Equivalently the space is the Alexandrov topology of a finite poset under the
specialization order ``y <= x  iff  y in min_open(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .errors import (
    MinOpenNotOpen,
    NotT0,
    PointMissingFromOwnNeighborhood,
    SpaceTooLarge,
)

Point = str
PointSet = FrozenSet[Point]

DEFAULT_MAX_OPENS = 4096
DEFAULT_MAX_POINTS = 12


@dataclass(frozen=True)
class FinSpace:
    points: Tuple[Point, ...]
    min_open: Mapping[Point, PointSet]
    # answers by question, made at the first ask (`recall`, `opens_below`)
    memo: Dict[object, object] = field(default_factory=dict, init=False,
                                       repr=False, compare=False)

    def recall(self, key: tuple, make: Callable[[], list]) -> list:
        """A fresh copy of make(), which runs at the first ask of `key`."""
        if key not in self.memo:
            self.memo[key] = make()
        return list(self.memo[key])

    def is_open(self, s: Iterable[Point]) -> bool:
        carrier = frozenset(s)
        return all(self.min_open[x] <= carrier for x in carrier)

    def maximal_points(self, carrier: Iterable[Point]) -> List[Point]:
        """Points of `carrier` not contained in another point's minimal open.

        Every point of an open set specializes to one of its maximal points,
        so sections are determined by their values there.
        """
        carrier = frozenset(carrier)
        return self.recall(("maximal", carrier), lambda: sorted(carrier.difference(
            *[self.min_open[y] - {y} for y in carrier])))

    def __repr__(self) -> str:
        return f"FinSpace({sorted(self.points)})"


def build_space(min_open: Mapping[Point, Iterable[Point]]) -> FinSpace:
    """Validate a minimal-open table and return the corresponding space."""
    if not min_open:
        raise PointMissingFromOwnNeighborhood("empty point set")
    if len(min_open) > DEFAULT_MAX_POINTS:
        raise SpaceTooLarge(
            f"{len(min_open)} points exceeds bound {DEFAULT_MAX_POINTS}")
    points = tuple(sorted(min_open))
    table: Dict[Point, PointSet] = {x: frozenset(min_open[x]) for x in points}
    pointset = frozenset(points)
    for x in points:
        if x not in table[x]:
            raise PointMissingFromOwnNeighborhood(f"{x!r} not in its own minimal open")
        if not table[x] <= pointset:
            raise MinOpenNotOpen(f"min_open({x!r}) mentions unknown points")
        for y in table[x]:
            if not table[y] <= table[x]:
                raise MinOpenNotOpen(
                    f"min_open({y!r}) not contained in min_open({x!r})")
    seen: Dict[PointSet, Point] = {}
    for x in points:
        if table[x] in seen:
            raise NotT0(f"points {seen[table[x]]!r} and {x!r} share a minimal open")
        seen[table[x]] = x
    return FinSpace(points=points, min_open=table)


def open_sort_key(u: PointSet) -> Tuple[int, Tuple[Point, ...]]:
    return (len(u), tuple(sorted(u)))


def enumerate_opens(space: FinSpace) -> List[PointSet]:
    """All open sets, sorted by size then lexicographically.

    Opens are exactly the unions of minimal opens; we close {∅} under
    union with each minimal open.
    """
    return space.recall(("opens",), lambda: _opens(space))


def opens_below(space: FinSpace) -> Dict[PointSet, List[PointSet]]:
    """Each open's smaller opens in `enumerate_opens` order, shared: read only."""
    if "below" not in space.memo:
        opens = enumerate_opens(space)
        space.memo["below"] = {u: [w for w in opens[:i] if w < u] for i, u in enumerate(opens)}
    return space.memo["below"]


def _opens(space: FinSpace) -> List[PointSet]:
    opens = {frozenset()}
    for x in space.points:
        opens |= {u | space.min_open[x] for u in opens}
        if len(opens) > DEFAULT_MAX_OPENS:
            raise SpaceTooLarge(f"open count exceeds bound {DEFAULT_MAX_OPENS}")
    return sorted(opens, key=open_sort_key)


@dataclass(frozen=True)
class ContinuousMap:
    domain: FinSpace
    codomain: FinSpace
    assignment: Mapping[Point, Point]

    def __call__(self, x: Point) -> Point:
        return self.assignment[x]


def constant_map(domain: FinSpace, codomain: FinSpace, value: Point) -> ContinuousMap:
    return ContinuousMap(domain, codomain, {x: value for x in domain.points})


def validate_map(f: ContinuousMap) -> bool:
    """True iff f is total and continuous: f(min_open(x)) ⊆ min_open(f(x))."""
    if not all(x in f.assignment for x in f.domain.points):
        return False
    for x in f.domain.points:
        fx = f.assignment[x]
        if fx not in f.codomain.min_open:
            return False
        image = {f.assignment[y] for y in f.domain.min_open[x]}
        if not image <= f.codomain.min_open[fx]:
            return False
    return True


def components(space: FinSpace, u: PointSet) -> List[PointSet]:
    """The connected components of the open u, as opens ordered by least point.

    Points of u are linked when one lies in the other's minimal open, and
    every point lies in the minimal open of a maximal point of u, so the
    components are the unions of the maximal points' minimal opens linked
    by overlap: each is a union of minimal opens, so it is open.
    """
    return space.recall(("components", u), lambda: _components(space, u))


def _components(space: FinSpace, u: PointSet) -> List[PointSet]:
    out: List[PointSet] = []
    for m in space.maximal_points(u):
        merged = space.min_open[m]
        kept = []
        for c in out:
            if merged.isdisjoint(c):
                kept.append(c)
            else:
                merged = merged | c
        out = kept + [merged]
    return sorted(out, key=min)


def is_connected(space: FinSpace) -> bool:
    """True iff the space is not a disjoint union of two nonempty opens."""
    return len(components(space, frozenset(space.points))) == 1


# Standard small spaces used throughout the test corpus.

def point_space() -> FinSpace:
    return build_space({"p": ["p"]})


def sierpinski() -> FinSpace:
    """Two points: o open, c closed."""
    return build_space({"o": ["o"], "c": ["o", "c"]})


def chain3() -> FinSpace:
    """Three-point chain p1 < p2 < p3 (p1 open)."""
    return build_space({"p1": ["p1"], "p2": ["p1", "p2"], "p3": ["p1", "p2", "p3"]})


def discrete2() -> FinSpace:
    return build_space({"u": ["u"], "v": ["v"]})


def pseudo_circle() -> FinSpace:
    """Finite model of the circle: open points a, b; closed points c, d."""
    return build_space({
        "a": ["a"],
        "b": ["b"],
        "c": ["a", "b", "c"],
        "d": ["a", "b", "d"],
    })
