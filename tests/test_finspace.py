import itertools
import random
import typing

import pytest

from sheafkit import finspace
from sheafkit.errors import (
    MinOpenNotOpen,
    NotT0,
    PointMissingFromOwnNeighborhood,
    SpaceTooLarge,
)
from sheafkit.finspace import (
    ContinuousMap,
    FinSpace,
    build_space,
    chain3,
    components,
    constant_map,
    discrete2,
    enumerate_opens,
    is_connected,
    point_space,
    pseudo_circle,
    sierpinski,
    validate_map,
)

CORPUS = [point_space, sierpinski, chain3, discrete2, pseudo_circle]


def sierpinski_plus_point():
    return build_space({"o": ["o"], "c": ["o", "c"], "p": ["p"]})


def brute_force_opens(space):
    """Oracle: scan all subsets for the open-set condition."""
    pts = sorted(space.points)
    out = []
    for r in range(len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            s = frozenset(sub)
            if all(space.min_open[x] <= s for x in s):
                out.append(s)
    return sorted(out, key=lambda u: (len(u), tuple(sorted(u))))


def test_build_singleton():
    s = build_space({"p": ["p"]})
    assert s.points == ("p",)


def test_build_sierpinski():
    s = sierpinski()
    assert s.min_open["c"] == frozenset({"o", "c"})


def test_build_pseudo_circle():
    s = pseudo_circle()
    assert s.min_open["c"] == frozenset({"a", "b", "c"})
    assert s.min_open["d"] == frozenset({"a", "b", "d"})


def test_build_rejects_missing_self():
    with pytest.raises(PointMissingFromOwnNeighborhood):
        build_space({"a": ["b"], "b": ["b"]})


def test_build_rejects_non_open_min_open():
    # min_open(b) = {a,b} but min_open(a) = {c,a} is not inside it
    with pytest.raises(MinOpenNotOpen):
        build_space({"a": ["c", "a"], "b": ["a", "b"], "c": ["c"]})


def test_build_rejects_non_t0():
    with pytest.raises(NotT0):
        build_space({"a": ["a", "b"], "b": ["a", "b"]})


def test_build_rejects_too_many_points():
    with pytest.raises(SpaceTooLarge):
        build_space({str(i): [str(i)] for i in range(13)})


def test_enumerate_opens_point():
    s = point_space()
    assert enumerate_opens(s) == [frozenset(), frozenset({"p"})]


def test_enumerate_opens_sierpinski():
    s = sierpinski()
    assert enumerate_opens(s) == [frozenset(), frozenset({"o"}),
                                  frozenset({"c", "o"})]


def test_enumerate_opens_pseudo_circle_count():
    assert len(enumerate_opens(pseudo_circle())) == 7


def test_enumerate_opens_guard(monkeypatch):
    s = discrete2()
    monkeypatch.setattr(finspace, "DEFAULT_MAX_OPENS", 2)
    with pytest.raises(SpaceTooLarge, match="open count exceeds bound 2"):
        enumerate_opens(s)


@pytest.mark.parametrize("make", CORPUS)
def test_enumerate_opens_matches_brute_force(make):
    s = make()
    assert enumerate_opens(s) == brute_force_opens(s)


@pytest.mark.parametrize("make", CORPUS)
def test_opens_closed_under_union_and_intersection(make):
    s = make()
    opens = set(enumerate_opens(s))
    for u in opens:
        for v in opens:
            assert u | v in opens
            assert u & v in opens


@pytest.mark.parametrize("make", CORPUS)
def test_minimal_opens_transitive(make):
    s = make()
    for x in s.points:
        for y in s.min_open[x]:
            assert s.min_open[y] <= s.min_open[x]


@pytest.mark.parametrize("make", CORPUS)
def test_constant_and_identity_maps_continuous(make):
    s = make()
    ident = ContinuousMap(s, s, {x: x for x in s.points})
    assert validate_map(ident)
    for target in s.points:
        assert validate_map(constant_map(s, s, target))


def test_sierpinski_swap_not_continuous():
    s = sierpinski()
    assert not validate_map(ContinuousMap(s, s, {"o": "c", "c": "o"}))


def test_partial_map_is_not_valid():
    # the image of min_open(c) = {o, c} mentions o, which has no image
    s = sierpinski()
    assert not validate_map(ContinuousMap(s, s, {"c": "o"}))


@pytest.mark.parametrize("make_dom", CORPUS)
@pytest.mark.parametrize("make_cod", [sierpinski, discrete2])
def test_continuity_matches_preimage_criterion(make_dom, make_cod):
    dom, cod = make_dom(), make_cod()
    opens = enumerate_opens(cod)
    for images in itertools.product(cod.points, repeat=len(dom.points)):
        f = ContinuousMap(dom, cod, dict(zip(dom.points, images)))
        preimage_ok = all(
            dom.is_open({x for x in dom.points if f(x) in v}) for v in opens)
        assert validate_map(f) == preimage_ok


def test_is_connected_examples():
    assert is_connected(sierpinski())
    assert is_connected(pseudo_circle())
    assert is_connected(chain3())
    assert not is_connected(discrete2())
    assert not is_connected(sierpinski_plus_point())


def splits(opens, u):
    """Oracle: u is a disjoint union of two nonempty opens."""
    return any(v and w and not (v & w) and (v | w) == u
               for v in opens for w in opens)


@pytest.mark.parametrize("make", CORPUS + [sierpinski_plus_point])
def test_is_connected_matches_open_partition_scan(make):
    s = make()
    opens = enumerate_opens(s)
    assert is_connected(s) == (not splits(opens, frozenset(s.points)))
    for u in opens:
        parts = components(s, u)
        assert parts == sorted(parts, key=min)
        assert frozenset().union(*parts) == u
        assert sum(map(len, parts)) == len(u)  # pairwise disjoint
        for c in parts:
            assert c in opens and c
            assert not splits(opens, c)


def linked_parts(space, u):
    """Oracle: the classes of u under the links y in min_open(x), grown
    point by point, ordered by least point."""
    parts = []
    for x in sorted(u):
        touching = [c for c in parts
                    if any(x in space.min_open[y] or y in space.min_open[x] for y in c)]
        parts = [c for c in parts if c not in touching] + [
            frozenset({x}).union(*touching)]
    return sorted(parts, key=min)


def test_components_and_maximal_points_match_their_definitions():
    """Every open of random T0 spaces on 1-9 points: components against the
    link classes, maximal points against the pairwise definition."""
    for seed in range(150):
        rng = random.Random(seed)
        names = [f"p{i}" for i in range(rng.randint(1, 9))]
        rng.shuffle(names)
        below = {x: {x} for x in names}
        density = rng.choice([0.1, 0.3, 0.5])
        for j, x in enumerate(names):
            for y in names[:j]:
                if rng.random() < density:
                    below[x] |= below[y]
        space = build_space(below)
        for u in enumerate_opens(space):
            assert components(space, u) == linked_parts(space, u)
            assert space.maximal_points(u) == [
                x for x in sorted(u)
                if not any(y != x and x in space.min_open[y] for y in u)]


def test_memoized_answers_are_fresh_lists():
    """Mutating a list that `enumerate_opens`, `components` or
    `maximal_points` returned leaves the next answer as it was."""
    space = pseudo_circle()
    whole = frozenset(space.points)
    for ask in (lambda: enumerate_opens(space),
                lambda: components(space, frozenset("ab")),
                lambda: space.maximal_points(whole)):
        first = ask()
        expected = list(first)
        first.append(frozenset("zz"))
        first.reverse()
        assert ask() == expected
        assert ask() is not ask()


def test_spaces_on_the_same_points_keep_their_own_answers():
    """The Sierpinski space and the discrete space on {c, o}, asked in
    either order, each answer for their own topology."""
    tables = {"sierpinski": {"o": ["o"], "c": ["o", "c"]},
              "discrete": {"o": ["o"], "c": ["c"]}}
    whole = frozenset({"c", "o"})
    for order in (("sierpinski", "discrete"), ("discrete", "sierpinski")):
        spaces = [build_space(tables[name]) for name in order]
        answers = [(enumerate_opens(s), components(s, whole), s.maximal_points(whole))
                   for s in spaces]
        for s, got in zip(spaces, answers):
            assert got == (brute_force_opens(s), linked_parts(s, whole),
                           [x for x in sorted(whole)
                            if not any(y != x and x in s.min_open[y] for y in whole)])
        assert answers[0] != answers[1]


@pytest.mark.parametrize("cls", [FinSpace, ContinuousMap])
def test_type_hints_resolve(cls):
    assert set(typing.get_type_hints(cls)) == set(cls.__dataclass_fields__)
