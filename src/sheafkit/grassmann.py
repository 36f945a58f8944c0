"""Grassmann presheaves of A^n and the section/subsheaf classification.

G(U) collects the rank-k free subsheaves of A^n over U, V(U) the locally
free ones.  Values are stored extensionally as stalk families, so the
restriction maps are literal and germ computation collapses to the value at
the minimal open.

Every open's values come from one stalk-family join.  Sections over a
disjoint union of opens are tuples of sections over the pieces, so a family
is (locally) free of rank k there iff it is so on each piece: only the empty
open and connected opens run a freeness search, and every other open keeps
the families whose part over each component (`finspace.components`) is a
value there.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import NotLocallyFree, SpaceTooLarge, ValidationError
from .finalg import (Submodule, enumerate_free_submodules, gaussian_binomial,
                     zero_vec)
from .finspace import PointSet, Point, components, enumerate_opens
from .presheaf import (DEFAULT_STATE_BOUND, SET, Carrier, Presheaf,
                       compatible_families, is_complete, is_monopresheaf,
                       sheafify, unit_injective)
from .vecsheaf import (
    AlgebraSheaf,
    Budget,
    ModuleSheaf,
    VectorSubsheaf,
    embed_via_weights,
    free_sheaf,
    identity_trivialization,
    is_free_of_rank,
    is_locally_free,
    make_subsheaf,
    restrict_subsheaf,
    trivial_weight_family,
)


@dataclass
class GrassmannPresheaf:
    base: AlgebraSheaf
    k: int
    ambient: ModuleSheaf
    values: Dict[PointSet, List[VectorSubsheaf]]

    def presheaf(self) -> Presheaf:
        """The values as a set-valued presheaf, restricting subsheaves."""
        return Presheaf(self.base.space,
                        {u: Carrier(SET, tuple(vals)) for u, vals in self.values.items()},
                        lambda u, v, s: restrict_subsheaf(s, v))


# A build holds [n k]_q stalk candidates of q^k vectors per distinct stalk
# ring; it refuses before listing any when that is more vectors than this.
MAX_CANDIDATE_VECTORS = 10 ** 5


def _stalk_candidates(ambient: ModuleSheaf, k: int) -> Dict[Point, List[Submodule]]:
    """The rank-k free submodules of each stalk of the ambient, listed once
    per (stalk ring, n) and kept on the ambient with their compatibility
    tables, so every build on one ambient shares them."""
    if k not in ambient.stalk_joins:
        lists: Dict[Tuple, List[Submodule]] = {}
        for x in sorted(ambient.space.points):
            r, n = ambient.ring_at(x), ambient.rank_at[x]
            if (r, n) not in lists:
                count = gaussian_binomial(n, k, r.size)
                if count * r.size ** k > MAX_CANDIDATE_VECTORS:
                    raise SpaceTooLarge(
                        f"rank-{k} submodules of {r.label}^{n}: {count} candidates of "
                        f"{r.size ** k} vectors exceed bound {MAX_CANDIDATE_VECTORS} vectors")
                lists[(r, n)] = enumerate_free_submodules(r, n, k)
        ambient.stalk_joins[k] = ({x: lists[(ambient.ring_at(x), ambient.rank_at[x])]
                                   for x in ambient.space.points}, {})
    return ambient.stalk_joins[k][0]


def _compatibility(ambient: ModuleSheaf, k: int, x: Point, y: Point,
                   spend: Callable[[int], None]) -> Tuple[List[int], List[int], int]:
    """The table of (x, y), y in min_open(x): masks over y's candidates that
    contain the image of each candidate at x, masks over x's candidates whose
    image lies in each candidate at y, and the subset tests it took.

    A free rank-k submodule of R^n has |R|^k vectors, so an image of that
    size lies in a candidate only if it is that candidate: one dict lookup.
    A smaller image is tested against every candidate at y.  A table is
    charged its tests at every use, built then or earlier.
    """
    candidates, tables = ambient.stalk_joins[k]
    if (x, y) in tables:
        spend(tables[(x, y)][2])
        return tables[(x, y)]
    res, at_y = ambient.res[(x, y)], candidates[y]
    index = {c.elements: j for j, c in enumerate(at_y)}
    size = ambient.ring_at(y).size ** k
    into, from_x, tests = [], [0] * len(at_y), 0
    for i, c in enumerate(candidates[x]):
        image = frozenset(res[v] for v in c.elements)
        if len(image) == size:
            cost, hits = 1, [index[image]] if image in index else []
        else:
            cost, hits = len(at_y), [j for j, d in enumerate(at_y) if image <= d.elements]
        spend(cost)
        tests += cost
        into.append(sum(1 << j for j in hits))
        for j in hits:
            from_x[j] |= 1 << i
    tables[(x, y)] = (into, from_x, tests)
    return tables[(x, y)]


def _stalk_families(ambient: ModuleSheaf, u: PointSet, k: int
                    ) -> List[Tuple[Tuple[Point, frozenset], ...]]:
    """Per-point rank-k submodule choices closed under the ambient
    restrictions, as `VectorSubsheaf.family` tuples over sorted(u), in
    lexicographic order of candidate index.

    That order is `VectorSubsheaf.sort_key` order: each point's candidates
    are sorted by `Submodule.sort_key`, its family entry's key, and every
    family lists the same points, so comparing two families' keys compares
    their candidate indices point by point over sorted(u).

    A join: each point draws its candidates from the intersection of the
    masks its already chosen neighbours allow, in ascending index.  Table
    tests and visited nodes count against DEFAULT_STATE_BOUND.
    """
    space = ambient.space
    pts = sorted(u)
    candidates = _stalk_candidates(ambient, k)
    # one (point, elements) pair per candidate, shared by every family
    entries = [[(x, c.elements) for c in candidates[x]] for x in pts]
    steps = 0

    def spend(n: int) -> None:
        nonlocal steps
        steps += n
        if steps > DEFAULT_STATE_BOUND:
            raise SpaceTooLarge(f"stalk-family join over open {pts} exceeds "
                                f"{DEFAULT_STATE_BOUND} steps at {steps}")

    # per point: (position of an earlier related point, masks over this
    # point's candidates indexed by that point's choice)
    constraints = [[(j, _compatibility(ambient, k, x, y, spend)[1]) if y in space.min_open[x]
                    else (j, _compatibility(ambient, k, y, x, spend)[0])
                    for j, y in enumerate(pts[:i])
                    if y in space.min_open[x] or x in space.min_open[y]]
                   for i, x in enumerate(pts)]
    out: List[Tuple[Tuple[Point, frozenset], ...]] = []
    choice = [0] * len(pts)

    def rec(i: int) -> None:
        if i == len(pts):
            out.append(tuple(map(operator.getitem, entries, choice)))
            return
        mask = (1 << len(entries[i])) - 1
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


def _enumerate_values(ambient: ModuleSheaf, k: int, u: PointSet,
                      locally_free: bool, budget: Optional[Budget]
                      ) -> List[VectorSubsheaf]:
    """The free (or locally free) values over u, in sort_key order."""
    values = (VectorSubsheaf(ambient, fam) for fam in _stalk_families(ambient, u, k))
    if locally_free:
        return [s for s in values if is_locally_free(s, u, k, budget)]
    return [s for s in values if is_free_of_rank(s, u, k, budget)[0]]


def _build_values(ambient: ModuleSheaf, k: int, locally_free: bool,
                  budget: Optional[Budget]) -> GrassmannPresheaf:
    """Values in the ambient A^n over every open; locally free values must
    form a complete presheaf.

    Every open's values are families of the join, in its order, which is
    sort_key order.  The empty open and connected opens keep the families
    the freeness search accepts.  A disconnected open keeps the families
    whose part over each component is a value there; components are
    smaller opens, listed earlier, so their values are already built.
    That is exact: closure constraints link only related points, which
    share a component, so a family is closed iff each part is; sections
    over a disjoint union are tuples of sections over the components, so
    the family is free (or locally free) iff each part is.  Over field
    stalks no search rejects a closed family: its reduced row echelon bases
    restrict to one another, so they are k sections forming a basis at
    every point.
    """
    a = ambient.base
    values: Dict[PointSet, List[VectorSubsheaf]] = {}
    for u in enumerate_opens(a.space):
        parts = components(a.space, u)
        if len(parts) <= 1:
            values[u] = _enumerate_values(ambient, k, u, locally_free, budget)
            continue
        pts = sorted(u)
        where = [[i for i, x in enumerate(pts) if x in c] for c in parts]
        kept = [{t.family for t in values[c]} for c in parts]
        values[u] = [VectorSubsheaf(ambient, fam) for fam in _stalk_families(ambient, u, k)
                     if all(tuple([fam[i] for i in idx]) in fams
                            for idx, fams in zip(where, kept))]
    g = GrassmannPresheaf(a, k, ambient, values)
    if locally_free and not is_complete(g.presheaf()):
        raise AssertionError("locally-free value presheaf failed completeness")
    return g


def enumerate_free_subsheaves(a: AlgebraSheaf, k: int, n: int, u: PointSet,
                              budget: Optional[Budget] = None
                              ) -> List[VectorSubsheaf]:
    """Rank-k free subsheaves of A^n over u (one Grassmann value list)."""
    return _enumerate_values(free_sheaf(a, n), k, u, False, budget)


def enumerate_locally_free_subsheaves(a: AlgebraSheaf, k: int, n: int,
                                      u: PointSet,
                                      budget: Optional[Budget] = None
                                      ) -> List[VectorSubsheaf]:
    """Rank-k locally free subsheaves of A^n over u (one V value list)."""
    return _enumerate_values(free_sheaf(a, n), k, u, True, budget)


def build_grassmann_presheaf(a: AlgebraSheaf, k: int, n: int,
                             budget: Optional[Budget] = None
                             ) -> GrassmannPresheaf:
    """The presheaf U -> {free rank-k subsheaves of A^n over U}."""
    return _build_values(free_sheaf(a, n), k, False, budget)


def build_v_presheaf(a: AlgebraSheaf, k: int, n: int,
                     budget: Optional[Budget] = None) -> GrassmannPresheaf:
    """The complete companion: U -> {locally free rank-k subsheaves}."""
    return _build_values(free_sheaf(a, n), k, True, budget)


def grassmann_monopresheaf(g: GrassmannPresheaf) -> bool:
    """Values are separated by their restrictions to the minimal-open cover."""
    return is_monopresheaf(g.presheaf())


def _glue(ambient: ModuleSheaf,
          family: Iterable[Tuple[Point, VectorSubsheaf]]) -> VectorSubsheaf:
    """One subsheaf from (point, value over its minimal open) pairs in point
    order: each value's own entry at its point."""
    return VectorSubsheaf(ambient, tuple((x, val.family_at(x)) for x, val in family))


def check_monopresheaf_not_complete(g: GrassmannPresheaf,
                                    budget: Optional[Budget] = None) -> dict:
    """Monopresheaf verdict, a hunt for a non-free glue and the number of
    sections over the whole space, from one sheafify.

    A section of the generated sheaf glues to a locally free subsheaf; any
    glue that is not free witnesses non-completeness of the free-value
    presheaf.  At desk scale (constant coefficient sheaves) such witnesses
    may not exist, which the report states explicitly.
    """
    s = sheafify(g.presheaf())
    space = g.base.space
    whole = frozenset(space.points)
    # a non-free glue over a disconnected open restricts to a non-free glue
    # over one of its components, an earlier open, so the first witness in
    # (size, lex) order lies on a connected open
    glued = ((u, _glue(g.ambient, zip(sorted(u), row)))
             for u, c in s.sections.carriers.items()
             if len(components(space, u)) <= 1 for row in c.elements)
    witness = next(({"open": sorted(u), "family": t.sort_key()}
                    for u, t in glued if not is_free_of_rank(t, u, g.k, budget)[0]),
                   None)
    return {
        "monopresheaf": all(unit_injective(s, u) for u in s.unit if u),
        "complete_at_this_scale": witness is None,
        "completeness_witness": witness,
        "sections_over_whole": len(s.sections.carriers[whole].elements),
    }


def check_lemma_free_locally_free_same_germs(g: GrassmannPresheaf,
                                             v: GrassmannPresheaf) -> bool:
    """Germ sets of the free and locally free value presheaves coincide.

    The germ set at x is the value list at min_open(x); a locally free value
    there is already free on min_open(x), since the minimal open of x is the
    smallest neighborhood available for a local witness.
    """
    space = g.base.space
    for x in space.points:
        ux = space.min_open[x]
        if g.values[ux] != v.values[ux]:
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
    """All sections of the generated sheaf over u, deterministically ordered."""
    space = g.base.space
    rows = compatible_families(space, u, lambda x: g.values[space.min_open[x]],
                               lambda x, y, s: restrict_subsheaf(s, space.min_open[y]))
    pts = sorted(u)
    secs = [GrassmannSection(tuple(zip(pts, row)), g.ambient) for row in rows]
    secs.sort(key=GrassmannSection.sort_key)
    return secs


def section_to_subsheaf(s: GrassmannSection) -> VectorSubsheaf:
    """Glue a section's stalkwise values into one subsheaf of A^n."""
    return _glue(s.ambient, s.family)


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


def include_subsheaf(t: VectorSubsheaf, ambient: ModuleSheaf) -> VectorSubsheaf:
    """Coordinate inclusion A^N -> A^(N'): pad stalk vectors with zeros."""
    fam = {}
    for x, vs in t.family:
        pad = ambient.rank_at[x] - t.ambient.rank_at[x]
        assert pad >= 0
        fam[x] = frozenset(v + zero_vec(t.ambient.ring_at(x), pad) for v in vs)
    return make_subsheaf(ambient, fam)


def classify(a: AlgebraSheaf, n: int, truncation: int,
             budget: Optional[Budget] = None) -> dict:
    """Pair global sections of the truncated universal Grassmann with the
    rank-n vector subsheaves of A^N, checking the two maps are mutually
    inverse bijections."""
    whole = frozenset(a.space.points)
    g = build_universal_grassmann(a, n, truncation, budget)
    v = _build_values(g.ambient, n, True, budget)
    sections = enumerate_sections(g, whole)
    subsheaves = v.values[whole]

    sub_index = {t: i for i, t in enumerate(subsheaves)}
    known_sections = set(sections)
    pairs = []
    bijection = len(sections) == len(subsheaves)
    for i, s in enumerate(sections):
        t = section_to_subsheaf(s)
        j = sub_index.get(t)
        if j is None or subsheaf_to_section(t, n, budget) != s:
            bijection = False
            break
        pairs.append([i, j])
    if bijection:
        for j, t in enumerate(subsheaves):
            s = subsheaf_to_section(t, n, budget)
            if s not in known_sections or section_to_subsheaf(s) != t:
                bijection = False
                break

    # Embedding cross-check: the image of the free rank-n sheaf under the
    # trivial-cover weighted embedding must be among the classified subsheaves.
    embed_image_found = None
    if bijection:
        e = free_sheaf(a, n)
        morph = embed_via_weights(
            e, (whole,), {0: identity_trivialization(e, whole, n)},
            trivial_weight_family(a), n)
        fam = {x: frozenset(morph.maps[x].values()) for x in a.space.points}
        image = include_subsheaf(make_subsheaf(morph.target, fam), g.ambient)
        embed_image_found = image in sub_index

    return {
        "k": n,
        "n": truncation,
        "counts": {"sections": len(sections), "subsheaves": len(subsheaves)},
        "bijection": bijection,
        "pairs": pairs if bijection else [],
        "embed_image_found": embed_image_found,
    }
