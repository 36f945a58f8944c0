import dataclasses
import gc
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from sheafkit import cli, finspace, grassmann, presheaf, vecsheaf
from sheafkit.errors import (NotLocallyFree, SearchBudgetExceeded,
                             SpaceTooLarge, ValidationError)
from sheafkit.finalg import (enumerate_free_submodules, gaussian_binomial,
                             make_field, make_quotient, span)
from sheafkit.finspace import (
    build_space,
    chain3,
    components,
    discrete2,
    enumerate_opens,
    point_space,
    pseudo_circle,
    sierpinski,
)
from sheafkit.grassmann import (
    build_grassmann_presheaf,
    build_universal_grassmann,
    build_v_presheaf,
    check_lemma_free_locally_free_same_germs,
    check_monopresheaf_not_complete,
    classify,
    enumerate_free_subsheaves,
    enumerate_locally_free_subsheaves,
    enumerate_sections,
    include_subsheaf,
    section_to_subsheaf,
    subsheaf_to_section,
)
from sheafkit.presheaf import (compatible_families, is_complete, is_monopresheaf,
                               sheafify, unit_injective)
from sheafkit.vecsheaf import (
    AlgebraSheaf,
    Budget,
    VectorSubsheaf,
    constant_algebra_sheaf,
    free_sheaf,
    full_subsheaf,
    is_free_of_rank,
    is_locally_free,
    make_subsheaf,
    restrict_subsheaf,
    validate_subsheaf,
    zero_subsheaf,
)

from test_presheaf import families_or_key_error, product_loop_families

F2 = make_field(2)
F3 = make_field(3)

CORPUS = [point_space, sierpinski, chain3, discrete2, pseudo_circle]


def sierpinski_plus_point():
    return build_space({"o": ["o"], "c": ["o", "c"], "p": ["p"]})


def whole(space):
    return frozenset(space.points)


def subsheaves(g, u):
    """The values of g over u, decoded into subsheaves of its ambient."""
    return [g.subsheaf(u, t) for t in g.values[u]]


# -- value enumeration -------------------------------------------------------

def test_point_space_values_are_subspaces():
    """On a one-point space a subsheaf is just a subspace, so value counts
    must reproduce the subspace counts of the coefficient field."""
    a2 = constant_algebra_sheaf(point_space(), F2)
    a3 = constant_algebra_sheaf(point_space(), F3)
    u = whole(point_space())
    assert len(enumerate_free_subsheaves(a2, 1, 2, u)) == 3
    assert len(enumerate_free_subsheaves(a2, 2, 4, u)) == 35
    assert len(enumerate_free_subsheaves(a3, 1, 3, u)) == 13


def test_empty_open_has_one_value():
    a = constant_algebra_sheaf(sierpinski(), F2)
    g = build_grassmann_presheaf(a, 1, 2)
    assert len(g.values[frozenset()]) == 1


def test_sierpinski_value_counts():
    a = constant_algebra_sheaf(sierpinski(), F2)
    g = build_grassmann_presheaf(a, 1, 2)
    assert len(g.values[frozenset({"o"})]) == 3
    assert len(g.values[whole(sierpinski())]) == 3


def test_connected_constant_values_match_gaussian_binomial():
    """Constant coefficients on a connected space: a free subsheaf is a
    constant family, so the global count is the point-space count."""
    for make in (sierpinski, chain3, pseudo_circle):
        a = constant_algebra_sheaf(make(), F2)
        g = build_grassmann_presheaf(a, 1, 2)
        assert len(g.values[whole(make())]) == gaussian_binomial(2, 1, 2)


def test_disconnected_open_multiplies_values():
    # {a, b} is a discrete subspace of the pseudo-circle: one line per point
    a = constant_algebra_sheaf(pseudo_circle(), F2)
    g = build_grassmann_presheaf(a, 1, 2)
    assert len(g.values[frozenset({"a", "b"})]) == 9


def test_discrete_values_are_products():
    a = constant_algebra_sheaf(discrete2(), F2)
    g = build_grassmann_presheaf(a, 1, 2)
    assert len(g.values[frozenset({"u"})]) == 3
    assert len(g.values[whole(discrete2())]) == 9


def assert_values_match_the_search(a, ranks=range(4)):
    """G and V take a disconnected open's values as the product of its
    components' values; the join and search over that one open is the
    oracle.  A value is its family: it equals, and hashes like, the same
    family in a fresh ambient, and restricts to itself over its domain."""
    for n in ranks:
        fresh = free_sheaf(a, n)
        for k in range(n + 1):
            g = build_grassmann_presheaf(a, k, n)
            v = build_v_presheaf(a, k, n)
            for u in enumerate_opens(a.space):
                assert subsheaves(g, u) == enumerate_free_subsheaves(a, k, n, u)
                assert subsheaves(v, u) == enumerate_locally_free_subsheaves(a, k, n, u)
                for vals in (subsheaves(g, u), subsheaves(v, u)):
                    keys = [t.sort_key() for t in vals]
                    assert keys == sorted(set(keys))
                    for t in vals:
                        again = VectorSubsheaf(fresh, t.family)
                        assert again == t and hash(again) == hash(t)
                        assert restrict_subsheaf(t, u) == t


@pytest.mark.parametrize("make", CORPUS + [sierpinski_plus_point])
@pytest.mark.parametrize("ring", [F2, F3], ids=["F2", "F3"])
def test_values_match_the_search_on_each_open(make, ring):
    assert_values_match_the_search(constant_algebra_sheaf(make(), ring))


def f2_into_f4_plus_point():
    """F_2 stalks at c and p restricting into F_4 stalks on Sierpinski plus
    a point."""
    space = sierpinski_plus_point()
    small = {"c", "p"}
    return AlgebraSheaf(space, {x: F2 if x in small else make_quotient(2, [1, 1, 1])
                                for x in space.points},
                        {(x, y): (0, 1) for x in small for y in space.min_open[x]})


def test_values_match_the_search_on_each_open_into_a_larger_field():
    """F_2 stalks at c and p restricting into F_4 stalks: the disconnected
    opens {o, p} and {o, c, p} have components over different rings."""
    assert_values_match_the_search(f2_into_f4_plus_point())


def twisted_circle_plus_point():
    """F_4 stalks on the pseudo-circle beside an isolated point e, with
    Frobenius as the restriction from d to b: a closed family on the circle
    is F_2-rational there, and {a, b, c, d, e} is disconnected."""
    space = build_space({"a": ["a"], "b": ["b"], "c": ["a", "b", "c"],
                         "d": ["a", "b", "d"], "e": ["e"]})
    frobenius = (0, 1, 3, 2)  # t -> t^2 = t + 1 on the codes of F_2[t]/(t^2+t+1)
    res = {pair: (0, 1, 2, 3) for pair in [("c", "a"), ("c", "b"), ("d", "a")]}
    res[("d", "b")] = frobenius
    return AlgebraSheaf(space, {x: make_quotient(2, [1, 1, 1]) for x in space.points}, res)


def test_values_match_the_search_on_each_open_of_a_twisted_circle():
    assert_values_match_the_search(twisted_circle_plus_point(), range(3))


def assert_restriction_is_projection(g):
    """Oracle: the materialised subsheaves.  A value's projection onto an
    open v decodes to the restriction of its subsheaf to v, and each open's
    values decode in strictly ascending sort_key order."""
    restrict = g.presheaf().restrict
    for u, vals in g.values.items():
        keys = [t.sort_key() for t in subsheaves(g, u)]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for v in g.values:
            if v <= u:
                for t in vals:
                    assert g.subsheaf(v, restrict(u, v, t)) == \
                        restrict_subsheaf(g.subsheaf(u, t), v)


@pytest.mark.parametrize("make", CORPUS + [sierpinski_plus_point])
@pytest.mark.parametrize("ring", [F2, F3], ids=["F2", "F3"])
def test_restriction_is_projection_on_the_report_corpus(make, ring):
    a = constant_algebra_sheaf(make(), ring)
    for k, n in ((0, 1), (1, 2), (2, 3)):
        assert_restriction_is_projection(build_grassmann_presheaf(a, k, n))
        assert_restriction_is_projection(build_v_presheaf(a, k, n))


@pytest.mark.parametrize("make", [f2_into_f4_plus_point, twisted_circle_plus_point])
def test_restriction_is_projection_over_non_constant_stalks(make):
    a = make()
    for n in range(3):
        for k in range(n + 1):
            assert_restriction_is_projection(build_grassmann_presheaf(a, k, n))
            assert_restriction_is_projection(build_v_presheaf(a, k, n))


def refusing_e1_at_c(free):
    """`grassmann._free`, but refusing a value whose stalk at c holds e_1."""
    def refuse(state, u, t, budget):
        s = grassmann._subsheaf(state, u, t)
        if any(v[:1] == (1,) and not any(v[1:]) for x, vs in s.family if x == "c"
               for v in vs):
            return False
        return free(state, u, t, budget)
    return refuse


def test_a_disconnected_open_keeps_the_families_whose_parts_are_values(monkeypatch):
    """Over field stalks a closed family is free: the reduced row echelon
    basis at x restricts to the one at each point of min_open(x), so these
    are k sections forming a basis everywhere, and the freeness search
    rejects nothing.  Here freeness also refuses a family whose stalk at c
    holds e_1, so a disconnected open must drop exactly the join families
    whose part over c's component is refused, as the search over it does."""
    monkeypatch.setattr(grassmann, "_free", refusing_e1_at_c(grassmann._free))
    a = twisted_circle_plus_point()
    assert_values_match_the_search(a, range(3))
    # n = 2, k = 1: three F_2-rational lines on the circle, one refused,
    # times the five lines of F_4^2 at e
    g = build_grassmann_presheaf(a, 1, 2)
    assert len(grassmann._stalk_families(g.state, whole(a.space))) == 15
    assert len(g.values[whole(a.space)]) == 10


def test_a_disconnected_open_sorts_its_product_into_join_order():
    """A^2 over F_2 on a space whose component {a, c} has b sorted between
    its points: the product of the components' values lists (a, c) before
    b, and must be placed over [a, b, c] to give the join's order.  On A^n
    a value over a connected open is fixed by its entry at any one point,
    as the index maps are injective, so the product of value lists in join
    order comes out sorted with no sort: the factors given reversed list
    the product reversed."""
    space = build_space({"a": ["a"], "b": ["b"], "c": ["a", "c"]})
    a = constant_algebra_sheaf(space, F2)
    g = build_grassmann_presheaf(a, 1, 2)
    parts = [frozenset("ac"), frozenset("b")]
    factors = [g.values[c] for c in parts]
    assert factors == [[(0, 0), (1, 1), (2, 2)], [(0,), (1,), (2,)]]
    assert grassmann.components(space, whole(space)) == parts
    assert list(g.values[whole(space)]) == grassmann._enumerate_values(
        grassmann.BuildState(a, 2, 1), whole(space), None)
    assert g.values[whole(space)][:4] == [(0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 0, 1)]
    assert grassmann._placed_product(whole(space), parts, [f[::-1] for f in factors]) \
        == g.values[whole(space)][::-1]


def pairwise_stalk_families(ambient, u, k):
    """Oracle: per-point choices of rank-k free submodules over sorted(u),
    each kept when restriction maps it into, and is mapped into by, every
    related point chosen before it, checked vector by vector."""
    space = ambient.space
    pts = sorted(u)
    candidates = {x: enumerate_free_submodules(ambient.ring_at(x), ambient.rank_at[x], k)
                  for x in pts}
    out = []

    def closed(x, y, fx, fy):
        m = ambient.res[(x, y)]
        return all(m[v] in fy for v in fx)

    def rec(i, assign):
        if i == len(pts):
            out.append(dict(assign))
            return
        x = pts[i]
        for cand in candidates[x]:
            fx = cand.elements
            if all((y not in space.min_open[x] or closed(x, y, fx, fy))
                   and (x not in space.min_open[y] or closed(y, x, fy, fx))
                   for y, fy in assign.items()):
                assign[x] = fx
                rec(i + 1, assign)
                del assign[x]

    rec(0, {})
    return out


@pytest.mark.parametrize("make", CORPUS + [sierpinski_plus_point])
@pytest.mark.parametrize("ring", [F2, F3], ids=["F2", "F3"])
def test_stalk_join_matches_the_pairwise_scan(make, ring):
    """The indexed join keeps the oracle's families in the oracle's order."""
    a = constant_algebra_sheaf(make(), ring)
    for n in range(4):
        ambient = free_sheaf(a, n)
        for k in range(min(n, 2) + 1):
            state = grassmann.BuildState(a, n, k)
            for u in enumerate_opens(a.space):
                if len(components(a.space, u)) <= 1:
                    assert [dict(grassmann._subsheaf(state, u, f).family)
                            for f in grassmann._stalk_families(state, u)] \
                        == pairwise_stalk_families(ambient, u, k)


def test_stalk_join_matches_the_pairwise_scan_into_a_larger_field():
    """F_2 stalks restricting into F_4 stalks: an image has fewer vectors
    than a candidate at the smaller point, so the tables test subsets."""
    f4 = make_quotient(2, [1, 1, 1])
    for make, small in ((sierpinski, {"c"}), (pseudo_circle, {"c", "d"})):
        space = make()
        a = AlgebraSheaf(space, {x: F2 if x in small else f4 for x in space.points},
                         {(x, y): (0, 1) for x in small for y in space.min_open[x]})
        for n in range(4):
            ambient = free_sheaf(a, n)
            for k in range(min(n, 2) + 1):
                state = grassmann.BuildState(a, n, k)
                for u in enumerate_opens(space):
                    assert [dict(grassmann._subsheaf(state, u, f).family)
                            for f in grassmann._stalk_families(state, u)] \
                        == pairwise_stalk_families(ambient, u, k)


def relabelled_random_space(rng, npoints):
    """`random_space` with its points renamed by a random permutation, so
    that name order no longer follows the specialization order."""
    from test_presheaf import random_space
    space = random_space(rng, npoints)
    names = dict(zip(sorted(space.points), rng.sample(sorted(space.points), npoints)))
    return build_space({names[x]: [names[y] for y in space.min_open[x]]
                        for x in space.points})


def inclusion_sheaf(rng, space):
    """F_4 stalks on a random open, F_2 stalks elsewhere, restricting by
    the identity or the inclusion F_2 -> F_4 (codes 0 and 1)."""
    quad = rng.choice(enumerate_opens(space))
    rings = {x: F4 if x in quad else F2 for x in space.points}
    return AlgebraSheaf(space, rings, {(x, y): tuple(range(rings[x].size))
                                       for x in space.points for y in space.min_open[x]})


def test_stalk_join_matches_the_pairwise_scan_on_random_spaces():
    """The join in relation order against the oracle, which scans in name
    order and checks restrictions vector by vector: every empty or connected
    open of relabelled random T0 spaces of 4-6 points, over constant F_2
    and F_3, over F_2 -> F_4 inclusion sheaves and over the field sheaves
    of `random_field_sheaf`, whose Frobenius twists can leave a point's
    candidate mapped on by one related point and refused by another, as
    on the twisted circle, which is checked too; n <= 3 and k <= 2."""
    sheaves = [twisted_circle_plus_point()]
    for seed in range(12):
        rng = random.Random(seed)
        space = relabelled_random_space(rng, 4 + seed % 3)
        sheaves += [constant_algebra_sheaf(space, F2), constant_algebra_sheaf(space, F3),
                    inclusion_sheaf(rng, space), random_field_sheaf(rng, space)]
    reordered = kinds = 0
    for a in sheaves:
        kinds += len(set(a.stalk_ring.values())) > 1
        for n in range(4):
            for k in range(min(n, 2) + 1):
                state = grassmann.BuildState(a, n, k)
                ambient = free_sheaf(a, n)
                for u in state.connected:
                    reordered += grassmann._relation_order(a.space, u) != sorted(u)
                    assert [dict(grassmann._subsheaf(state, u, f).family)
                            for f in grassmann._stalk_families(state, u)] \
                        == pairwise_stalk_families(ambient, u, k), (n, k, sorted(u))
    assert reordered and kinds


def test_the_join_over_the_pseudo_circle_is_linear_in_its_candidates(monkeypatch):
    """Over the whole pseudo-circle at k = 2, n = 6 (651 planes per point)
    the join keeps 651 families within (related pairs + points) x 651
    steps: one table entry per candidate and related pair, and at most one
    node per candidate and point.  Joined in name order, the unrelated a
    and b took 651^2 nodes."""
    a = constant_algebra_sheaf(pseudo_circle(), F2)
    u = whole(a.space)
    state = grassmann.BuildState(a, 6, 2)
    pairs = sum(y in a.space.min_open[x] for x in u for y in u if x != y)
    assert (pairs, len(state.candidates["a"])) == (4, 651)
    monkeypatch.setattr(grassmann, "DEFAULT_STATE_BOUND", (pairs + len(u)) * 651)
    assert len(grassmann._stalk_families(state, u)) == 651


def test_free_sheaf_shares_a_map_per_distinct_base_restriction():
    """F_2 stalks into F_4 stalks on the pseudo-circle: the F_2 identity and
    the inclusion have the same codes, so they share one vector map, and
    the F_4 identity has its own."""
    f4 = make_quotient(2, [1, 1, 1])
    space = pseudo_circle()
    small = {"c", "d"}
    a = AlgebraSheaf(space, {x: F2 if x in small else f4 for x in space.points},
                     {(x, y): (0, 1) for x in small for y in space.min_open[x]})
    ambient = free_sheaf(a, 2)
    shared = {}
    for pair, codes in a.res.items():
        assert ambient.res[pair] is shared.setdefault(codes, ambient.res[pair])
    assert len(shared) == 2 and shared[(0, 1)] is not shared[(0, 1, 2, 3)]
    assert ambient.validate() == []


def test_classify_lists_stalk_candidates_once_per_ring(monkeypatch):
    """G and V of one classify run share the candidate lists of their
    ambient: one enumeration per distinct stalk ring, not per point and
    build."""
    calls = []
    enumerate_subs = grassmann.enumerate_free_submodules

    def counting(r, n, k):
        calls.append((r, n, k))
        return enumerate_subs(r, n, k)

    monkeypatch.setattr(grassmann, "enumerate_free_submodules", counting)
    report = classify(constant_algebra_sheaf(pseudo_circle(), F2), 1, 2)
    assert report["bijection"] is True
    assert calls == [(F2, 2, 1)]


def test_classify_lists_opens_and_components_once(monkeypatch):
    """A classify run reads V over the whole space and G on the minimal
    opens, so it lists no open and splits only the whole space."""
    listed, split = [], []
    opens, parts = grassmann.enumerate_opens, grassmann.components

    def counting_opens(space):
        listed.append(space)
        return opens(space)

    def counting_components(space, u):
        split.append(u)
        return parts(space, u)

    monkeypatch.setattr(grassmann, "enumerate_opens", counting_opens)
    monkeypatch.setattr(grassmann, "components", counting_components)
    a = constant_algebra_sheaf(pseudo_circle(), F2)
    assert classify(a, 1, 2)["bijection"] is True
    assert listed == [] and split == [whole(a.space)]


def test_classify_joins_each_connected_open_once(monkeypatch):
    """One classify run joins each minimal open once, for G's values
    there, and then the whole space, for V's; no other open."""
    joined = []
    stalk_families = grassmann._stalk_families

    def counting(state, u):
        joined.append(u)
        return stalk_families(state, u)

    monkeypatch.setattr(grassmann, "_stalk_families", counting)
    a = constant_algebra_sheaf(pseudo_circle(), F2)
    report = classify(a, 1, 2)
    assert report["bijection"] is True
    assert joined == [a.space.min_open[x] for x in "abcd"] + [whole(a.space)]
    assert frozenset({"a", "b"}) not in joined


def test_stalk_join_size_guard(monkeypatch):
    """Table entries and visited join nodes count against the state bound;
    past it the join names its open, over sorted(u), and count."""
    a = constant_algebra_sheaf(pseudo_circle(), F2)
    state = grassmann.BuildState(a, 2, 1)
    u = frozenset({"a", "b", "c"})
    # relation order c, a, b: 3 nodes at c, then per point one table of 3
    # entries from c and 3 nodes
    assert grassmann._relation_order(a.space, u) == ["c", "a", "b"]
    assert len(grassmann._stalk_families(state, u)) == 3
    monkeypatch.setattr(grassmann, "DEFAULT_STATE_BOUND", 14)
    with pytest.raises(SpaceTooLarge,
                       match=r"open \['a', 'b', 'c'\] exceeds 14 steps at 15"):
        grassmann._stalk_families(state, u)
    assert len(grassmann._stalk_families(state, frozenset({"a", "c"}))) == 3


def test_stalk_candidate_guard_precedes_enumeration(monkeypatch):
    built = []
    monkeypatch.setattr(grassmann, "enumerate_free_submodules",
                        lambda r, n, k: built.append((n, k)) or [])
    a = constant_algebra_sheaf(point_space(), F2)
    with pytest.raises(SpaceTooLarge, match="13910980083 candidates of 16 vectors"):
        build_grassmann_presheaf(a, 4, 12)
    assert built == []


def test_open_count_guard_precedes_the_candidate_guard(monkeypatch):
    """A build that trips both guards names the open count: the opens are
    listed before any stalk candidate is counted."""
    built = []
    monkeypatch.setattr(grassmann, "enumerate_free_submodules",
                        lambda r, n, k: built.append((n, k)) or [])
    monkeypatch.setattr(finspace, "DEFAULT_MAX_OPENS", 2)
    a = constant_algebra_sheaf(pseudo_circle(), F2)
    with pytest.raises(SpaceTooLarge, match="open count exceeds bound 2"):
        build_grassmann_presheaf(a, 4, 12)
    assert built == []


def test_one_open_lists_no_other_open(monkeypatch):
    """Values over one open of the 12-point discrete space list none of the
    4096 opens and split only the open asked for."""
    listed, split = [], []
    opens, parts = grassmann.enumerate_opens, grassmann.components
    monkeypatch.setattr(grassmann, "enumerate_opens",
                        lambda space: listed.append(space) or opens(space))
    monkeypatch.setattr(grassmann, "components",
                        lambda space, u: split.append(u) or parts(space, u))
    space = build_space({f"p{i:02d}": [f"p{i:02d}"] for i in range(12)})
    a = constant_algebra_sheaf(space, F2)
    free = enumerate_free_subsheaves(a, 1, 1, frozenset({"p00"}))
    assert [t.sort_key() for t in free] == [(("p00", ((0,), (1,))),)]
    assert enumerate_locally_free_subsheaves(a, 1, 1, frozenset({"p00"})) == free
    assert listed == [] and split == [frozenset({"p00"})] * 2


@pytest.mark.parametrize("make", CORPUS + [sierpinski_plus_point])
@pytest.mark.parametrize("ring", [F2, F3], ids=["F2", "F3"])
def test_a_disconnected_open_matches_the_direct_join_and_search(make, ring):
    """Over a disconnected open the public lists are the products of their
    components' lists; the oracle joins and searches over the open itself,
    as the library once did."""
    a = constant_algebra_sheaf(make(), ring)
    opens = [u for u in enumerate_opens(a.space) if len(components(a.space, u)) > 1]
    for n in range(3):
        for k in range(n + 1):
            for u in opens:
                state = grassmann.BuildState(a, n, k)
                free = grassmann._enumerate_values(state, u, None)
                glued = grassmann._glues(state, u, lambda c: grassmann._enumerate_values(
                    state, c, None))
                for listed, direct in ((enumerate_free_subsheaves(a, k, n, u), free),
                                       (enumerate_locally_free_subsheaves(a, k, n, u), glued)):
                    assert [t.sort_key() for t in listed] == \
                        [grassmann._subsheaf(state, u, t).sort_key() for t in direct]
    assert bool(opens) == (make in (discrete2, pseudo_circle, sierpinski_plus_point))


def test_a_disconnected_open_is_searched_on_its_components():
    """The 1225 rank-2 values in F_2^4 over {a, b} of the pseudo-circle take
    the 2 x 35 steps of the freeness asks over {a} and {b}, one per value,
    where asking over {a, b} itself takes 1225."""
    a = constant_algebra_sheaf(pseudo_circle(), F2)
    ab, used, direct = frozenset("ab"), Budget(), Budget()
    free = enumerate_free_subsheaves(a, 2, 4, ab, used)
    state = grassmann.BuildState(a, 4, 2)
    assert len(free) == len(grassmann._enumerate_values(state, ab, direct)) == 1225
    assert (used.used, direct.used) == (70, 1225)


def test_classify_asks_freeness_only_on_the_empty_and_minimal_opens(monkeypatch):
    asked = []
    free = grassmann._free

    def recording(state, u, t, budget):
        asked.append((state.space, u))
        return free(state, u, t, budget)

    monkeypatch.setattr(grassmann, "_free", recording)
    for make in CORPUS + [sierpinski_plus_point]:
        for ring in (F2, F3):
            for n, big_n in ((0, 1), (1, 2), (2, 3)):
                classify(constant_algebra_sheaf(make(), ring), n, big_n)
    assert asked
    assert all(not u or u in space.min_open.values() for space, u in asked)


def test_classify_lists_a_value_product_only_over_a_disconnected_whole_space(monkeypatch):
    listed = []
    placed_product = grassmann._placed_product

    def recording(u, parts, factors):
        listed.append(u)
        return placed_product(u, parts, factors)

    monkeypatch.setattr(grassmann, "_placed_product", recording)
    for make in CORPUS + [sierpinski_plus_point]:
        space = make()
        listed.clear()
        assert classify(constant_algebra_sheaf(space, F2), 1, 2)["bijection"] is True
        assert listed == ([whole(space)] if len(components(space, whole(space))) > 1 else [])


def test_sections_are_searched_only_on_connected_opens(monkeypatch):
    """G, V and the checks ask freeness (`_free`) only on the empty and
    connected opens."""
    asked = []
    free = grassmann._free

    def counting_free(state, u, t, budget):
        asked.append(len(components(state.space, u)))
        return free(state, u, t, budget)

    monkeypatch.setattr(grassmann, "_free", counting_free)
    for make in CORPUS + [sierpinski_plus_point]:
        for ring in (F2, F3):
            a = constant_algebra_sheaf(make(), ring)
            for k, n in ((1, 1), (1, 2), (2, 3)):
                g = build_grassmann_presheaf(a, k, n)
                build_v_presheaf(a, k, n)
                check_monopresheaf_not_complete(g)
    assert asked and max(asked) == 1


def test_values_are_valid_free_subsheaves():
    a = constant_algebra_sheaf(pseudo_circle(), F3)
    g = build_grassmann_presheaf(a, 1, 2)
    for u in g.values:
        for t in subsheaves(g, u):
            assert validate_subsheaf(t) == []
            assert is_free_of_rank(t, u, 1)[0]


def test_free_values_contained_in_locally_free_values():
    for make in CORPUS:
        a = constant_algebra_sheaf(make(), F2)
        u = whole(make())
        free_keys = {t.sort_key()
                     for t in enumerate_free_subsheaves(a, 1, 2, u)}
        lf_keys = {t.sort_key()
                   for t in enumerate_locally_free_subsheaves(a, 1, 2, u)}
        assert free_keys <= lf_keys


def test_pseudo_circle_no_twisted_line_in_constant_ambient():
    """Every locally free line in the constant F3^2 sheaf is already free:
    the ambient restrictions are identities, so local constancy propagates."""
    a = constant_algebra_sheaf(pseudo_circle(), F3)
    u = whole(pseudo_circle())
    free = enumerate_free_subsheaves(a, 1, 2, u)
    lf = enumerate_locally_free_subsheaves(a, 1, 2, u)
    assert [t.sort_key() for t in free] == [t.sort_key() for t in lf]
    assert len(free) == 4


def test_budget_guard():
    a = constant_algebra_sheaf(pseudo_circle(), F3)
    with pytest.raises(SearchBudgetExceeded):
        build_grassmann_presheaf(a, 1, 2, budget=Budget(2))


def test_classify_draws_on_one_budget():
    """classify searches only for G's values on the minimal opens: V, the
    sections and the pairing read them."""
    a = constant_algebra_sheaf(pseudo_circle(), F2)
    b = Budget()
    report = classify(a, 2, 3, b)
    built = Budget()
    for ux in set(a.space.min_open.values()):
        enumerate_free_subsheaves(a, 2, 3, ux, built)
    assert b.used == built.used
    assert classify(a, 2, 3, Budget(b.used)) == report
    with pytest.raises(SearchBudgetExceeded):
        classify(a, 2, 3, Budget(b.used - 1))


def test_reference_runs_use_the_budget_they_always_used():
    """Budget.used on the pseudo-circle for the runs that measure search
    work: classify (ring, k, N), then grassmann's build plus completeness
    hunt (ring, k, n).  Each is one step per freeness ask over a nonempty
    open, one ask per (open, value) that G's values are read on: the
    minimal opens for classify, every empty or connected open for
    grassmann."""
    a2 = constant_algebra_sheaf(pseudo_circle(), F2)
    a3 = constant_algebra_sheaf(pseudo_circle(), F3)
    used = []
    for a, k, big_n in ((a2, 2, 3), (a3, 2, 3), (a2, 2, 4), (a2, 1, 2)):
        b = Budget()
        classify(a, k, big_n, b)
        used.append(b.used)
    for a, k, n in ((a2, 2, 4), (a3, 1, 2)):
        b = Budget()
        check_monopresheaf_not_complete(build_grassmann_presheaf(a, k, n, b))
        used.append(b.used)
    assert used == [28, 52, 140, 12, 175, 20]


def test_completeness_hunt_draws_on_the_grassmann_budget():
    """The hunt reads G's values and charges nothing; the build's budget is
    the whole run's."""
    a = constant_algebra_sheaf(pseudo_circle(), F2)
    b = Budget()
    g = build_grassmann_presheaf(a, 1, 2, b)
    built = b.used
    verdict = check_monopresheaf_not_complete(g)
    assert b.used == built
    exact = Budget(built)
    assert check_monopresheaf_not_complete(build_grassmann_presheaf(a, 1, 2, exact)) == verdict
    with pytest.raises(SearchBudgetExceeded):
        build_grassmann_presheaf(a, 1, 2, Budget(built - 1))


BROKEN_CROSS_CHECKS = """
from sheafkit import grassmann, vecsheaf
from sheafkit.finalg import make_field
from sheafkit.finspace import sierpinski

a = vecsheaf.constant_algebra_sheaf(sierpinski(), make_field(2))
e = vecsheaf.free_sheaf(a, 1)
whole = frozenset(a.space.points)
vecsheaf.validate_module_morphism = lambda m: ["broken"]
try:
    vecsheaf.embed_via_weights(
        e, (whole,), {0: vecsheaf.identity_trivialization(e, whole, 1)},
        vecsheaf.trivial_weight_family(a), 1)
except AssertionError:
    raise SystemExit(0)
raise SystemExit("a failed cross-check went unreported")
"""


def test_cross_checks_survive_python_optimize():
    """The embedding's morphism check still raises under `python -O`, which
    strips bare asserts."""
    src = Path(grassmann.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_CROSS_CHECKS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# -- the checks against sheafify ---------------------------------------------

def sheafify_checks(g):
    """`check_monopresheaf_not_complete` read from `sheafify(g.presheaf())`
    over every open, disconnected ones included: the oracle of the checks
    on section rows.  The witness is the first section over a connected
    open that the unit does not reach, as a glue: a row glues to each
    value's own entry at its point."""
    space = g.base.space
    s = sheafify(g.presheaf())
    missed = ((u, row) for u, c in s.sections.carriers.items()
              if len(components(space, u)) <= 1
              for image in [set(s.unit[u].values())]
              for row in c.elements if row not in image)
    witness = next(({"open": sorted(u),
                     "family": g.subsheaf(u, tuple(t[sorted(space.min_open[x]).index(x)]
                                                   for x, t in zip(sorted(u), row))).sort_key()}
                    for u, row in missed), None)
    return {"monopresheaf": all(unit_injective(s, u) for u in s.unit if u),
            "complete_at_this_scale": witness is None,
            "completeness_witness": witness,
            "sections_over_whole": len(s.sections.carriers[whole(space)].elements)}


def constant_sheaf(make, ring):
    return lambda: constant_algebra_sheaf(make(), ring)


CHECK_SHEAVES = {f"{make.__name__} {ring.label}": constant_sheaf(make, ring)
                 for make in CORPUS + [sierpinski_plus_point] for ring in (F2, F3)}
CHECK_SHEAVES.update(f2_into_f4_plus_point=f2_into_f4_plus_point,
                     twisted_circle_plus_point=twisted_circle_plus_point)


@pytest.mark.parametrize("name", sorted(CHECK_SHEAVES))
def test_checks_on_section_rows_match_sheafify(name):
    """The report corpus and the non-constant field sheaves, n <= 2: the
    same verdicts, witness and section count as the oracle, the separation
    verdict as `is_monopresheaf`'s germ maps over every open, and the checks
    agree with `is_complete` on G, on V, which is complete, and on V once a
    value over a connected whole space is dropped."""
    a = CHECK_SHEAVES[name]()
    top = whole(a.space)
    for n in range(3):
        for k in range(n + 1):
            g = build_grassmann_presheaf(a, k, n)
            assert check_monopresheaf_not_complete(g) == sheafify_checks(g)
            assert is_monopresheaf(g.presheaf()) is check_monopresheaf_not_complete(g)[
                "monopresheaf"]
            v = build_v_presheaf(a, k, n)
            assert is_complete(v.presheaf())
            variants = [g, v]
            if len(components(a.space, top)) == 1 and v.values[top]:
                variants.append(dataclasses.replace(
                    v, values={**v.values, top: v.values[top][:-1]}))
            for h in variants:
                verdict = check_monopresheaf_not_complete(h)
                assert is_complete(h.presheaf()) == (verdict["monopresheaf"] and
                                                     verdict["complete_at_this_scale"])


def test_v_check_fails_when_a_glue_is_not_a_value():
    """Over the pseudo-circle, unlike a minimal open, the whole space's rows
    come from smaller opens, so a dropped value leaves a glue unmatched."""
    v = build_v_presheaf(constant_algebra_sheaf(pseudo_circle(), F2), 1, 2)
    top = whole(pseudo_circle())
    short = dataclasses.replace(v, values={**v.values, top: v.values[top][1:]})
    assert is_complete(v.presheaf())
    assert not is_complete(short.presheaf())


@pytest.mark.parametrize("name", ["pseudo_circle F_2", "twisted_circle_plus_point"])
def test_the_hunt_finds_the_witness_sheafify_finds(name):
    """Values from the real search, with the first value over the whole
    pseudo-circle dropped: that open is connected and not a minimal open,
    so the dropped value is still a glue there, and both hunts name it."""
    a = CHECK_SHEAVES[name]()
    g = build_grassmann_presheaf(a, 1, 2)
    circle = frozenset("abcd")
    dropped = g.values[circle][0]
    short = dataclasses.replace(g, values={**g.values, circle: g.values[circle][1:]})
    verdict = check_monopresheaf_not_complete(short)
    assert verdict["completeness_witness"] == {
        "open": ["a", "b", "c", "d"], "family": g.subsheaf(circle, dropped).sort_key()}
    assert verdict == sheafify_checks(short)


def test_the_checks_list_no_section_over_a_disconnected_open(monkeypatch):
    """The checks decide from value counts, listing no section, while every
    join family is a value; once `_free` refuses some, the hunt lists
    sections over the empty and connected opens alone."""
    opens = []
    original = grassmann._sections

    def recording(g, u):
        opens.append(len(components(g.base.space, u)))
        return original(g, u)

    monkeypatch.setattr(grassmann, "_sections", recording)
    for refused in (False, True):
        if refused:
            monkeypatch.setattr(grassmann, "_free", refusing_e1_at_c(grassmann._free))
        for make in (discrete2, pseudo_circle, sierpinski_plus_point):
            a = constant_algebra_sheaf(make(), F2)
            build_v_presheaf(a, 1, 2)
            check_monopresheaf_not_complete(build_grassmann_presheaf(a, 1, 2))
        assert (opens and max(opens) == 1) if refused else opens == []


def compatible_glues(g, u):
    """Oracle for `_sections`: the glues of `compatible_families` over the
    values on the minimal opens of sorted(u), in its order, each glue
    taking each value's own entry at its point."""
    space = g.base.space
    rows = compatible_families(space, u, lambda x: g.values[space.min_open[x]],
                               lambda x, y, t: g.restrict(space.min_open[x],
                                                          space.min_open[y], t))
    return [tuple(t[sorted(space.min_open[x]).index(x)] for x, t in zip(sorted(u), row))
            for row in rows]


def assert_sections_are_the_compatible_glues(a):
    """G, V, and G with the last value over the minimal open of each
    maximal point dropped, so that the join keeps families that are not
    sections while the values over the minimal opens still restrict to
    values."""
    tops = {ux for ux in a.space.min_open.values()
            if not any(ux < uy for uy in a.space.min_open.values())}
    for n in range(3):
        for k in range(n + 1):
            g = build_grassmann_presheaf(a, k, n)
            short = dataclasses.replace(g, values={**g.values,
                                                   **{ux: g.values[ux][:-1] for ux in tops}})
            for h in (g, build_v_presheaf(a, k, n), short):
                for u in enumerate_opens(a.space):
                    if len(components(a.space, u)) <= 1:
                        oracle = compatible_glues(h, u)
                        assert set(grassmann._sections(h, u)) == set(oracle)
                        assert grassmann._sections(h, u) == oracle


@pytest.mark.parametrize("name", sorted(CHECK_SHEAVES))
def test_sections_are_the_compatible_glues(name):
    assert_sections_are_the_compatible_glues(CHECK_SHEAVES[name]())


@pytest.mark.parametrize("seed", range(12))
def test_sections_are_the_compatible_glues_on_random_spaces(seed):
    """Random T0 spaces with their points renamed at random, so that a
    point may sort before or after the points below it."""
    from test_presheaf import random_space
    rng = random.Random(seed)
    space = random_space(rng, rng.randint(2, 6))
    name = dict(zip(sorted(space.points), rng.sample("abcdefgh", len(space.points))))
    renamed = build_space({name[x]: [name[y] for y in space.min_open[x]]
                           for x in space.points})
    assert_sections_are_the_compatible_glues(
        constant_algebra_sheaf(renamed, rng.choice([F2, F3])))


# Listing a value product: up to this many values are listed and compared,
# past DEFAULT_STATE_BOUND the guard must refuse them, in between none is.
LISTED = 20000


def assert_factors_list_in_join_order(h):
    """Every disconnected open's values, held as factors, count what they
    list, and list it in join (sorted) order without repeats, each value
    restricting to a value over each component."""
    space = h.base.space
    for u, vals in h.values.items():
        parts = components(space, u)
        if len(parts) > 1:
            if len(vals) > presheaf.DEFAULT_STATE_BOUND:
                with pytest.raises(SpaceTooLarge, match="value product over open"):
                    list(vals)
            elif len(vals) <= LISTED:
                listed = list(vals)
                assert len(listed) == len(vals)
                assert listed == sorted(set(listed))
                for c in parts:
                    assert {h.restrict(u, c, t) for t in listed} <= set(h.values[c])


def random_sheaves(seed):
    """Constant F_2 or F_3, and a `random_field_sheaf`, on a relabelled
    random T0 space of 4-6 points."""
    rng = random.Random(seed)
    space = relabelled_random_space(rng, 4 + seed % 3)
    return [constant_algebra_sheaf(space, [F2, F3][seed % 2]), random_field_sheaf(rng, space)]


@pytest.mark.parametrize("seed", range(12))
def test_a_disconnected_open_lists_its_factors_in_join_order_on_random_spaces(seed):
    """G and V over relabelled random T0 spaces, where a component's points
    may sort between another's: the placed product needs no sort."""
    for a in random_sheaves(seed):
        for n in range(4):
            for k in range(min(n, 2) + 1):
                assert_factors_list_in_join_order(build_grassmann_presheaf(a, k, n))
                assert_factors_list_in_join_order(build_v_presheaf(a, k, n))


def refusing_off_minimal_opens(free):
    """`grassmann._free`, but refusing, over each nonempty open that is not
    a minimal open, the values whose entry at the least point is candidate
    0: such a value still restricts to values on the minimal opens, so it
    is a glue that is not a value."""
    def refuse(state, u, t, budget):
        if u and u not in state.space.min_open.values() and t[0] == 0:
            return False
        return free(state, u, t, budget)
    return refuse


@pytest.mark.parametrize("seed", range(12))
def test_counted_verdicts_match_the_hunt_on_random_spaces(seed, monkeypatch):
    """The checks decide from value counts where every connected open's
    values fill its join: the same verdict as the hunt, forced by a
    `_fills` that answers no, and no step charged past one freeness ask
    per (nonempty connected open, join family).  Where `_free` refuses
    glues off the minimal opens, the hunt runs and matches `sheafify`."""
    sheaves, fills, free = random_sheaves(seed), grassmann._fills, grassmann._free
    for a in sheaves:
        for n in range(4):
            for k in range(min(n, 2) + 1):
                b = Budget()
                g = build_grassmann_presheaf(a, k, n, b)
                counted = check_monopresheaf_not_complete(g)
                assert b.used == sum(len(grassmann._join(g.state, u))
                                     for u in g.state.connected if u)
                assert counted["complete_at_this_scale"] is True
                monkeypatch.setattr(grassmann, "_fills", lambda state, u, vals: False)
                assert check_monopresheaf_not_complete(g) == counted
                monkeypatch.setattr(grassmann, "_fills", fills)
    monkeypatch.setattr(grassmann, "_free", refusing_off_minimal_opens(free))
    for a in sheaves:
        for n in range(3):
            for k in range(min(n, 2) + 1):
                g = build_grassmann_presheaf(a, k, n)
                if sum(map(len, g.values.values())) <= LISTED:
                    assert check_monopresheaf_not_complete(g) == sheafify_checks(g)


def test_sections_over_a_disconnected_whole_space_are_a_product(tmp_path, capsys,
                                                                monkeypatch):
    """The pseudo-circle beside an isolated point e over F_2, with the
    section-state bound at 20: the 27 states over ['a', 'b', 'e'] are never
    listed, so `grassmann` exits 0 with 3 * 3 sections over the whole space,
    and `classify` pairs those 9 sections with the 9 subsheaves."""
    monkeypatch.setattr(presheaf, "DEFAULT_STATE_BOUND", 20)
    sp, rg = tmp_path / "space.json", tmp_path / "ring.json"
    sp.write_text(json.dumps({"min_open": {"a": ["a"], "b": ["b"], "c": ["a", "b", "c"],
                                           "d": ["a", "b", "d"], "e": ["e"]}}))
    rg.write_text(json.dumps({"kind": "Fp", "p": 2}))
    files = ["--space", str(sp), "--ring", str(rg)]
    assert cli.main(["grassmann", *files, "-k", "1", "-n", "2"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["sections_over_whole"] == 9
    assert cli.main(["classify", *files, "-n", "1", "-N", "2"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"sections": 9, "subsheaves": 9}
    assert report["bijection"] is True


# -- presheaf structure ------------------------------------------------------

def test_restriction_of_value_is_value():
    a = constant_algebra_sheaf(chain3(), F3)
    g = build_grassmann_presheaf(a, 1, 2)
    opens = sorted(g.values, key=lambda s: (len(s), tuple(sorted(s))))
    for u in opens:
        keys_u = {t.sort_key() for t in subsheaves(g, u)}
        for v in opens:
            if not v <= u:
                continue
            from sheafkit.vecsheaf import restrict_subsheaf
            for t in subsheaves(g, u):
                assert restrict_subsheaf(t, v).sort_key() in \
                    {s.sort_key() for s in subsheaves(g, v)}
        assert len(keys_u) == len(g.values[u])


@pytest.mark.parametrize("make", CORPUS)
def test_grassmann_is_monopresheaf(make):
    a = constant_algebra_sheaf(make(), F2)
    assert is_monopresheaf(build_grassmann_presheaf(a, 1, 2).presheaf())


def test_monopresheaf_report_shape():
    a = constant_algebra_sheaf(sierpinski(), F2)
    report = check_monopresheaf_not_complete(build_grassmann_presheaf(a, 1, 2))
    assert report["monopresheaf"] is True
    assert report["complete_at_this_scale"] in (True, False)
    if report["complete_at_this_scale"]:
        assert report["completeness_witness"] is None


@pytest.mark.parametrize("make", CORPUS)
def test_v_presheaf_complete(make):
    a = constant_algebra_sheaf(make(), F2)
    assert is_complete(build_v_presheaf(a, 1, 2).presheaf())


def glues_are_values(v):
    """Oracle for V's completeness: the values over each open are exactly
    the glues of the compatible families of values over its minimal opens."""
    space = v.base.space
    for u in v.values:
        vals = subsheaves(v, u)
        rows = compatible_families(
            space, u, lambda x: subsheaves(v, space.min_open[x]),
            lambda x, y, s: restrict_subsheaf(s, space.min_open[y]))
        glued = [make_subsheaf(v.ambient, {x: val.family_at(x)
                                           for x, val in zip(sorted(u), row)})
                 for row in rows]
        if sorted(glued, key=VectorSubsheaf.sort_key) != vals:
            return False
    return True


@pytest.mark.parametrize("make", CORPUS)
@pytest.mark.parametrize("k,n", [(k, n) for n in range(3) for k in range(n + 1)])
def test_completeness_formulas_agree(make, k, n):
    """The presheaf module's separation and completeness, applied to G and V
    as presheaves, agree with the glue of minimal-open families."""
    a = constant_algebra_sheaf(make(), F2)
    g = build_grassmann_presheaf(a, k, n)
    v = build_v_presheaf(a, k, n)
    assert is_complete(v.presheaf()) and glues_are_values(v)
    assert is_complete(g.presheaf()) == \
        check_monopresheaf_not_complete(g)["complete_at_this_scale"]
    assert is_monopresheaf(g.presheaf())


@pytest.mark.parametrize("make", CORPUS)
@pytest.mark.parametrize("k,n", [(1, 2), (2, 3)])
def test_lemma_same_germs(make, k, n):
    a = constant_algebra_sheaf(make(), F2)
    g = build_grassmann_presheaf(a, k, n)
    v = build_v_presheaf(a, k, n)
    assert check_lemma_free_locally_free_same_germs(g, v)


# -- sections and the correspondence -----------------------------------------

def test_sierpinski_sections():
    a = constant_algebra_sheaf(sierpinski(), F2)
    g = build_grassmann_presheaf(a, 1, 2)
    secs = enumerate_sections(g, whole(sierpinski()))
    assert len(secs) == 3
    for s in secs:
        t = section_to_subsheaf(s)
        assert validate_subsheaf(t) == []


def test_discrete_sections_multiply():
    a = constant_algebra_sheaf(discrete2(), F3)
    g = build_grassmann_presheaf(a, 1, 2)
    assert len(enumerate_sections(g, whole(discrete2()))) == 16  # 4 * 4


def test_section_subsheaf_round_trip():
    """On every open, the empty one included."""
    for make in CORPUS:
        a = constant_algebra_sheaf(make(), F2)
        g = build_grassmann_presheaf(a, 1, 2)
        for u in enumerate_opens(a.space):
            for s in enumerate_sections(g, u):
                t = section_to_subsheaf(s)
                assert subsheaf_to_section(t, 1).sort_key() == s.sort_key()


def test_subsheaf_section_round_trip():
    """On every open, the empty one included."""
    for make in CORPUS:
        a = constant_algebra_sheaf(make(), F3)
        for u in enumerate_opens(a.space):
            for t in enumerate_locally_free_subsheaves(a, 1, 2, u):
                s = subsheaf_to_section(t, 1)
                assert section_to_subsheaf(s).sort_key() == t.sort_key()


def test_subsheaf_to_section_rejects_non_locally_free():
    a = constant_algebra_sheaf(sierpinski(), F2)
    amb = free_sheaf(a, 2)
    u = whole(sierpinski())
    mixed = make_subsheaf(amb, {
        "o": frozenset(span(F2, 2, [(1, 0), (0, 1)])),
        "c": frozenset(span(F2, 2, [(1, 0)])),
    })
    with pytest.raises(NotLocallyFree):
        subsheaf_to_section(mixed, 1)


def test_classify_enumerates_each_subsheaf_once(monkeypatch):
    """classify asks each freeness question once per ambient, in G's
    build, and lists the stalk-family join of each open once."""
    asked, joined = [], []
    free, stalk_families = grassmann._free, grassmann._stalk_families

    def counting_free(state, u, t, budget):
        asked.append((state, u, t))
        return free(state, u, t, budget)

    def counting_join(state, u):
        joined.append((state, u))
        return stalk_families(state, u)

    monkeypatch.setattr(grassmann, "_free", counting_free)
    monkeypatch.setattr(grassmann, "_stalk_families", counting_join)
    report = classify(constant_algebra_sheaf(pseudo_circle(), F2), 1, 2)
    assert report["bijection"] is True
    assert asked and len(asked) == len(set(asked))
    assert joined and len(joined) == len(set(joined))


def test_classify_searches_each_value_once_without_decoding(monkeypatch):
    """classify on the pseudo-circle asks about each (open, value) once,
    runs no basis search, and asks no freeness question through a decoded
    subsheaf."""
    asked, searched, decoded = [], [], []
    free, find_basis, is_free = grassmann._free, vecsheaf._find_basis, is_free_of_rank

    def counting_free(state, u, t, budget):
        asked.append((state, u, t))
        return free(state, u, t, budget)

    def counting_search(*args):
        searched.append(args)
        return find_basis(*args)

    def decoding(*args):
        decoded.append(args)
        return is_free(*args)

    monkeypatch.setattr(grassmann, "_free", counting_free)
    monkeypatch.setattr(vecsheaf, "_find_basis", counting_search)
    monkeypatch.setattr(grassmann, "is_free_of_rank", decoding)
    monkeypatch.setattr(vecsheaf, "is_free_of_rank", decoding)
    report = classify(constant_algebra_sheaf(pseudo_circle(), F2), 1, 2)
    assert report["bijection"] is True
    assert decoded == [] and searched == []
    assert asked and len(asked) == len(set(asked))


def test_classify_plans_each_search_once_per_open(monkeypatch):
    """classify on the pseudo-circle asks freeness about the minimal opens,
    all of them connected: once per family of each one's join, and about
    each open in one run of asks."""
    asked = []
    free = grassmann._free

    def counting_free(state, u, t, budget):
        asked.append((state, u))
        return free(state, u, t, budget)

    monkeypatch.setattr(grassmann, "_free", counting_free)
    a = constant_algebra_sheaf(pseudo_circle(), F2)
    assert classify(a, 1, 2)["bijection"] is True
    opens = list(dict.fromkeys(u for _, u in asked))
    assert set(opens) == set(a.space.min_open.values())
    assert all(len(components(a.space, u)) <= 1 for u in opens)
    assert [u for _, u in asked] == [u for u in opens
                                     for _ in grassmann._join(asked[0][0], u)]
    assert len(asked) > len(opens)


def test_a_kept_join_plan_matches_compatible_families_and_the_product_loop():
    """One `JoinPlan` per open of each check sheaf, run on the sections of
    A, of A^1 and A^2, of A^2 drawn from each point's first rank-1
    candidate, and of A^1 whose germs of nonzero vectors are missing along
    every other specialization pair (a KeyError): the families, or the
    KeyError raised, of a fresh `compatible_families` call and of the
    product loop."""
    kinds = set()
    for name in sorted(CHECK_SHEAVES):
        a = CHECK_SHEAVES[name]()
        space = a.space
        e1, e2 = free_sheaf(a, 1), free_sheaf(a, 2)
        first = {x: sorted(cs[0].elements)
                 for x, cs in grassmann.BuildState(a, 2, 1).candidates.items()}
        cut = set(sorted(pair for pair in e1.res if pair[0] != pair[1])[::2])

        def partial(x, y, v):
            if (x, y) in cut and any(v):
                raise KeyError((x, y, v))
            return e1.res[(x, y)][v]

        inputs = [(lambda x: list(a.stalk_ring[x].elements()),
                   lambda x, y, c: a.res[(x, y)][c]),
                  (lambda x: list(e1.stalk_elems[x]), lambda x, y, v: e1.res[(x, y)][v]),
                  (lambda x: list(e2.stalk_elems[x]), lambda x, y, v: e2.res[(x, y)][v]),
                  (first.get, lambda x, y, v: e2.res[(x, y)][v]),
                  (lambda x: list(e1.stalk_elems[x]), partial)]
        for u in enumerate_opens(space):
            plan = presheaf.JoinPlan(space, u)
            for elems_at, res in inputs:
                args = (space, u, elems_at, res)
                outcome = families_or_key_error(plan.run, elems_at, res)
                for oracle in (compatible_families, product_loop_families):
                    assert outcome == families_or_key_error(oracle, *args), (name, u)
                kinds.add("raised" if isinstance(outcome, tuple) else "listed")
    assert kinds == {"raised", "listed"}


@pytest.mark.parametrize("name", sorted(CHECK_SHEAVES))
def test_free_on_index_tuples_matches_is_free_of_rank(name):
    """The oracle of `grassmann._free`: `is_free_of_rank` on the decoded
    value over a fresh free sheaf.  Every join family over every connected
    open (the minimal opens among them), n <= 2, asked twice on one
    ambient: the verdict of the oracle, for one budget step per ask over a
    nonempty open."""
    a = CHECK_SHEAVES[name]()
    for n in range(3):
        ambient = free_sheaf(a, n)
        for k in range(n + 1):
            state = grassmann.BuildState(a, n, k)
            for u in enumerate_opens(a.space):
                if len(components(a.space, u)) > 1:
                    continue
                for t in grassmann._join(state, u):
                    family = grassmann._subsheaf(state, u, t).family
                    answer = is_free_of_rank(VectorSubsheaf(free_sheaf(a, n), family), u, k)
                    for _ in range(2):
                        b = Budget()
                        assert grassmann._free(state, u, t, b) == answer[0]
                        assert b.used == (1 if u else 0)


F4 = make_quotient(2, [1, 1, 1])
FROBENIUS = (0, 1, 3, 2)  # t -> t^2 = t + 1 on the codes of F_2[t]/(t^2+t+1)


def random_field_sheaf(rng, space):
    """Field stalks on `space`: F_3 on some components, and F_2 on the rest
    but F_4 on a random open among them, restricting by the identity, the
    inclusion F_2 -> F_4 (codes 0 and 1) or, between F_4 stalks, at random
    the identity or Frobenius, drawn again until they compose."""
    whole_space = frozenset(space.points)
    odd = set().union(*[c for c in components(space, whole_space) if rng.random() < 0.3])
    quad = rng.choice(enumerate_opens(space)) - odd
    rings = {x: F3 if x in odd else F4 if x in quad else F2 for x in space.points}
    pairs = [(x, y) for x in sorted(space.points) for y in sorted(space.min_open[x])
             if x != y]
    for _ in range(50):
        res = {(x, y): rng.choice([tuple(range(4)), FROBENIUS]) if rings[x] is F4
               else tuple(range(rings[x].size)) for x, y in pairs}
        res.update({(x, x): tuple(range(rings[x].size)) for x in space.points})
        if all(res[(x, z)] == tuple(res[(y, z)][c] for c in res[(x, y)])
               for x, y in pairs for z in space.min_open[y]):
            break
    else:
        res = {(x, y): tuple(range(rings[x].size)) for x, y in pairs}
    return AlgebraSheaf(space, rings, {pair: res[pair] for pair in pairs})


def test_every_join_family_is_free_on_random_field_sheaves():
    """The proof above `grassmann._free`, against two oracles that search:
    on random field sheaves of at most 4 points, every join family over
    every empty or connected open, n <= 3, is free by `is_free_of_rank`
    and, at k <= 2, by `brute_free` (at k = n = 3 a family is the whole
    stalk, and the brute scan of its sections' triples takes seconds)."""
    from test_presheaf import random_space
    from test_vecsheaf import brute_free
    seen, scanned = set(), 0
    for seed in range(24):
        rng = random.Random(seed)
        a = random_field_sheaf(rng, random_space(rng, rng.randint(1, 4)))
        seen |= {r.label for r in a.stalk_ring.values()}
        seen |= {"F_2 -> F_4" for (x, y) in a.res if a.stalk_ring[x] is F2
                 and a.stalk_ring[y] is F4}
        seen |= {"Frobenius" for codes in a.res.values() if codes == FROBENIUS}
        for n in range(4):
            for k in range(n + 1):
                state = grassmann.BuildState(a, n, k)
                for u in state.connected:
                    for t in grassmann._join(state, u):
                        family = dict(grassmann._subsheaf(state, u, t).family)
                        assert grassmann._free(state, u, t, None)
                        s = make_subsheaf(free_sheaf(a, n), family)
                        assert is_free_of_rank(s, u, k)[0], (seed, n, k, sorted(u))
                        if k <= 2:
                            assert brute_free(s.ambient, family, u, k)[0]
                            scanned += 1
    assert seen == {"F_2", "F_3", F4.label, "F_2 -> F_4", "Frobenius"}
    assert scanned


@pytest.mark.parametrize("codes", [(0, 1, 3, 2, 4), (0, 2, 3, 1), (0, 0), (0, 7)],
                         ids=["not additive", "times t", "zero", "out of range"])
def test_a_restriction_that_is_not_a_ring_morphism_is_refused(codes):
    """The proof above `grassmann._free` needs every restriction of A to be
    a unital ring morphism: c -> o on the Sierpinski space by a table that
    is not additive over F_5, multiplication by t on F_4, the zero map
    F_2 -> F_4, and a code outside F_4, each refused by every build."""
    ring_c = {5: make_field(5), 4: F4, 2: F2}[len(codes)]
    ring_o = F4 if len(codes) <= 4 else ring_c
    a = AlgebraSheaf(sierpinski(), {"c": ring_c, "o": ring_o}, {("c", "o"): codes})
    for build in (lambda: build_grassmann_presheaf(a, 1, 1),
                  lambda: build_v_presheaf(a, 0, 1), lambda: classify(a, 1, 1),
                  lambda: enumerate_free_subsheaves(a, 1, 1, frozenset("o"))):
        with pytest.raises(ValidationError,
                           match=r"restriction 'c'->'o' of A is not a unital ring morphism"):
            build()


def test_a_build_state_is_freed_without_the_cyclic_collector():
    """The state holds its ambient and no object it reaches holds it, so
    dropping the presheaf and its verdict frees it by reference counts."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = build_grassmann_presheaf(constant_algebra_sheaf(pseudo_circle(), F2), 1, 2)
        verdict = check_monopresheaf_not_complete(g)
        state = weakref.ref(g.state)
        assert state().ambient is g.ambient and verdict["complete_at_this_scale"]
        del g, verdict
        assert state() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("ring", [F2, F3], ids=["F2", "F3"])
def test_freeness_over_a_minimal_open_is_freeness_of_the_restriction(ring):
    """is_free_of_rank(s, U_x, k) on a subsheaf over the whole space gives
    the answer, witness and budget charge of the same question about
    restrict_subsheaf(s, U_x), on fresh ambients and on one ambient alike."""
    a = constant_algebra_sheaf(pseudo_circle(), ring)
    u = whole(a.space)
    for t in enumerate_locally_free_subsheaves(a, 1, 2, u):
        for x in sorted(u):
            ux = a.space.min_open[x]
            for k in range(3):
                answers = []
                for restrict in (False, True):
                    s = make_subsheaf(free_sheaf(a, 2), dict(t.family))
                    if restrict:
                        s = restrict_subsheaf(s, ux)
                    b = Budget()
                    answers.append((is_free_of_rank(s, ux, k, b), b.used))
                assert answers[0] == answers[1]
                assert answers[0][0][0] == (k == 1)
        amb = free_sheaf(a, 2)
        s = make_subsheaf(amb, dict(t.family))
        for x in sorted(u):
            ux = a.space.min_open[x]
            first, second = Budget(), Budget()
            answer = is_free_of_rank(s, ux, 1, first)
            assert is_free_of_rank(restrict_subsheaf(s, ux), ux, 1, second) == answer
            assert second.used == first.used


# -- universal construction and truncation -----------------------------------

def test_universal_requires_room():
    """A rank above the truncation level is invalid input, not a search
    that ran out."""
    a = constant_algebra_sheaf(point_space(), F2)
    with pytest.raises(ValidationError, match="rank 2 exceeds truncation 1"):
        build_universal_grassmann(a, 2, 1)


def test_include_subsheaf_preserves_rank_and_freeness():
    a = constant_algebra_sheaf(sierpinski(), F2)
    u = whole(sierpinski())
    big = free_sheaf(a, 3)
    for t in enumerate_free_subsheaves(a, 1, 2, u):
        padded = include_subsheaf(t, big)
        assert validate_subsheaf(padded) == []
        assert is_free_of_rank(padded, u, 1)[0]
        assert is_locally_free(padded, u, 1)


def test_truncation_monotone():
    """Zero-padding maps the level-N values injectively into level N+1."""
    a = constant_algebra_sheaf(sierpinski(), F2)
    u = whole(sierpinski())
    for big_n in (2, 3):
        small = enumerate_free_subsheaves(a, 1, big_n, u)
        ambient = free_sheaf(a, big_n + 1)
        large_keys = {t.sort_key()
                      for t in enumerate_free_subsheaves(a, 1, big_n + 1, u)}
        images = {include_subsheaf(t, ambient).sort_key() for t in small}
        assert len(images) == len(small)
        assert images <= large_keys


@pytest.mark.parametrize("make", [point_space, sierpinski, discrete2])
def test_classify_reports_bijection(make):
    a = constant_algebra_sheaf(make(), F2)
    report = classify(a, 1, 2)
    assert report["bijection"] is True
    assert report["counts"]["sections"] == report["counts"]["subsheaves"]
    pair_lhs = [i for i, _ in report["pairs"]]
    pair_rhs = sorted(j for _, j in report["pairs"])
    assert pair_lhs == list(range(report["counts"]["sections"]))
    assert pair_rhs == list(range(report["counts"]["subsheaves"]))


def test_classify_counts_on_point_space():
    a = constant_algebra_sheaf(point_space(), F3)
    report = classify(a, 1, 3)
    assert report["counts"]["sections"] == 13


def test_classify_embed_image_found():
    for make in (point_space, sierpinski):
        a = constant_algebra_sheaf(make(), F2)
        report = classify(a, 1, 2)
        assert report["embed_image_found"] is True


@pytest.mark.parametrize("stalks", [full_subsheaf, zero_subsheaf], ids=["full", "zero"])
def test_a_family_outside_the_candidates_has_no_value_index(stalks, monkeypatch):
    """The full stalk and the zero stalk are no rank-1 candidate of F_2^2:
    the lookup gives no index, and classify reports the image not found."""
    a = constant_algebra_sheaf(sierpinski(), F2)
    g = build_grassmann_presheaf(a, 1, 2)
    u = whole(a.space)
    assert grassmann._candidate_index(g.state, stalks(g.ambient, u).family) is None
    for t in g.values[u]:
        assert grassmann._candidate_index(g.state, g.subsheaf(u, t).family) == t
    monkeypatch.setattr(grassmann, "_included", lambda family, source, ambient:
                        stalks(ambient, frozenset(x for x, _ in family)).family)
    report = classify(a, 1, 2)
    assert report["bijection"] is True and report["embed_image_found"] is False


def brute_section_families(g, u):
    """Oracle: filter raw products of germ values by pairwise compatibility
    on overlaps of the minimal opens."""
    from sheafkit.vecsheaf import restrict_subsheaf
    space = g.base.space
    pts = sorted(u)
    choices = [subsheaves(g, space.min_open[x]) for x in pts]
    out = []
    for row in itertools.product(*choices):
        ok = True
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                ov = space.min_open[x] & space.min_open[y]
                if restrict_subsheaf(row[i], ov).sort_key() != \
                        restrict_subsheaf(row[j], ov).sort_key():
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(v.sort_key() for v in row))
    return sorted(out)


@pytest.mark.parametrize("make", CORPUS)
def test_sections_match_brute_force_compatibility(make):
    a = constant_algebra_sheaf(make(), F2)
    g = build_grassmann_presheaf(a, 1, 2)
    u = whole(make())
    fast = sorted(tuple(val.sort_key() for _, val in s.family)
                  for s in enumerate_sections(g, u))
    assert fast == brute_section_families(g, u)
