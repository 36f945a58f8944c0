"""Finite T0 spaces for the benchmark, written without sheafkit.

A space is a dict mapping each point to its minimal open neighbourhood (a
frozenset), which is the down-set of the point in the specialization order.
The generators draw spaces from a ``random.Random`` so a seed fixes them, and
the oracles use the same helpers to count components.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, List

Space = Dict[str, FrozenSet[str]]

NAMES = "abcdefghijklmnopqrstuvwxyz"

CORPUS: Dict[str, Dict[str, List[str]]] = {
    "point": {"p": ["p"]},
    "sierpinski": {"o": ["o"], "c": ["o", "c"]},
    "chain3": {"p1": ["p1"], "p2": ["p1", "p2"], "p3": ["p1", "p2", "p3"]},
    "discrete2": {"u": ["u"], "v": ["v"]},
    "pseudo_circle": {"a": ["a"], "b": ["b"], "c": ["a", "b", "c"],
                      "d": ["a", "b", "d"]},
}


def from_table(table: Dict[str, List[str]]) -> Space:
    return {x: frozenset(v) for x, v in table.items()}


def to_table(space: Space) -> Dict[str, List[str]]:
    return {x: sorted(space[x]) for x in sorted(space)}


def random_space(rng: random.Random, npoints: int) -> Space:
    """A random partial order on `npoints` named points.

    Each pair of a random linear order is related with one probability drawn
    per space.  A point takes the whole down-set of each earlier point it is
    related to, and those down-sets are final by then, so the result is
    transitive.
    """
    names = rng.sample(NAMES, npoints)
    density = rng.random()
    below = {x: {x} for x in names}
    for j, x in enumerate(names):
        for y in names[:j]:
            if rng.random() < density:
                below[x] |= below[y]
    return {x: frozenset(below[x]) for x in names}


def poset_classes(max_points: int) -> List[Space]:
    """One space per isomorphism class of T0 spaces with 1..max_points points.

    Every poset has a linear extension, so it suffices to relate earlier to
    later points; each class is kept once, by its least relabelled form.
    """
    out = []
    for n in range(1, max_points + 1):
        pts = NAMES[:n]
        pairs = [(i, j) for j in range(n) for i in range(j)]
        seen = set()
        for mask in range(1 << len(pairs)):
            rel = {pair for b, pair in enumerate(pairs) if mask >> b & 1}
            if any((i, k) not in rel for i, j in rel for j2, k in rel if j == j2):
                continue
            space = {pts[j]: frozenset([pts[j]] + [pts[i] for i, jj in rel if jj == j])
                     for j in range(n)}
            if canonical(space) not in seen:
                seen.add(canonical(space))
                out.append(space)
    return out


def canonical(space: Space) -> tuple:
    """An isomorphism invariant that separates classes: the least relation
    list over all orderings of the points."""
    pts = sorted(space)
    return len(pts), min(tuple(sorted((order.index(y), order.index(x))
                                      for x in pts for y in space[x] if y != x))
                         for order in itertools.permutations(pts))


def relabel(rng: random.Random, space: Space) -> Space:
    """The same space under fresh random point names."""
    names = dict(zip(space, rng.sample(NAMES, len(space))))
    return {names[x]: frozenset(names[y] for y in space[x]) for x in space}


def opens(space: Space) -> List[FrozenSet[str]]:
    """Every open set: the closure of {empty} under union with minimal opens,
    computed on bitmasks and listed in mask order."""
    pts = sorted(space)
    bit = {x: 1 << i for i, x in enumerate(pts)}
    masks = [sum(bit[y] for y in space[x]) for x in pts]
    found = {0}
    frontier = [0]
    while frontier:
        grown = {u | m for u in frontier for m in masks} - found
        found |= grown
        frontier = list(grown)
    return [frozenset(x for x in pts if u & bit[x]) for u in sorted(found)]


def maximal(space: Space, u) -> List[str]:
    return [x for x in u if not any(y != x and x in space[y] for y in u)]


def components(space: Space, u) -> List[FrozenSet[str]]:
    """Connected components of the open `u`, ordered by least point."""
    left = set(u)
    out = []
    while left:
        seed = min(left)
        comp, stack = {seed}, [seed]
        while stack:
            x = stack.pop()
            for y in list(left - comp):
                if y in space[x] or x in space[y]:
                    comp.add(y)
                    stack.append(y)
        left -= comp
        out.append(frozenset(comp))
    return sorted(out, key=min)


def width(space: Space) -> int:
    """Largest number of maximal points of any open (the widest antichain)."""
    return max(len(maximal(space, u)) for u in opens(space))


def key(u) -> str:
    return ",".join(sorted(u))
