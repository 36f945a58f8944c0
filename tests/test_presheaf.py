import collections
import itertools
import json
import random

import pytest

from sheafkit.errors import InvalidMorphism, SpaceTooLarge, ValidationError
from sheafkit import presheaf
from sheafkit.finalg import (
    RingMorphism,
    find_ring_isomorphism,
    make_field,
    make_quotient,
)
from sheafkit.finspace import (
    build_space,
    chain3,
    components,
    constant_map,
    discrete2,
    enumerate_opens,
    open_sort_key,
    point_space,
    pseudo_circle,
    sierpinski,
)
from sheafkit.presheaf import (
    RING,
    SET,
    Carrier,
    Presheaf,
    build_presheaf,
    constant_presheaf,
    is_complete,
    is_monopresheaf,
    pullback,
    restrictions_injective_for_cover,
    sheafify,
    stalk,
    two_algebra_presheaf,
    unit_bijective,
    unit_counts,
    unit_injective,
    validate,
)
from sheafkit.vecsheaf import constant_algebra_sheaf

F2 = make_field(2)
F3 = make_field(3)
DUAL = make_quotient(2, [0, 0, 1])
RHO = RingMorphism(DUAL, F2, tuple(c % 2 for c in range(4)))


def counterexample_presheaf():
    """Value DUAL on opens containing the closed point c, F2 elsewhere."""
    return two_algebra_presheaf(sierpinski(), "c", DUAL, F2, RHO)


def corpus_presheaves():
    out = [
        ("constant F2 sierpinski", constant_presheaf(sierpinski(), F2)),
        ("constant F3 discrete2", constant_presheaf(discrete2(), F3)),
        ("constant F3 pseudo-circle", constant_presheaf(pseudo_circle(), F3)),
        ("two-algebra sierpinski", counterexample_presheaf()),
        ("two-algebra discrete2",
         two_algebra_presheaf(discrete2(), "u", DUAL, F2, RHO)),
    ]
    return out


def test_constant_presheaf_valid():
    assert validate(constant_presheaf(sierpinski(), F2)) == []


def test_counterexample_presheaf_valid():
    assert validate(counterexample_presheaf()) == []


def test_identity_violation_reported():
    p = constant_presheaf(sierpinski(), F2)
    u = frozenset({"o"})
    restrict = p.restrict
    p.restrict = lambda a, b, e: (1 - e if (a, b) == (u, u)
                                  else restrict(a, b, e))
    assert any("identity" in msg for msg in validate(p))


def test_composition_violation_reported():
    p = constant_presheaf(pseudo_circle(), F3)
    u = frozenset(p.space.points)
    v = frozenset({"a", "b"})
    restrict = p.restrict
    p.restrict = lambda a, b, e: ((e + 1) % 3 if (a, b) == (u, v)
                                  else restrict(a, b, e))
    assert any("composition" in msg for msg in validate(p))


def test_restriction_raising_key_error_is_undefined():
    space = sierpinski()
    u, v = frozenset({"o", "c"}), frozenset({"o"})

    def restrict(a, b, e):
        if (a, b, e) == (u, v, 1):
            raise KeyError(e)
        return e

    p = build_presheaf(space, lambda w: Carrier(RING, (0, 1), F2), restrict)
    assert validate(p) == [f"restriction {sorted(u)}->{sorted(v)} undefined at 1"]


@pytest.mark.parametrize("name,p", corpus_presheaves())
def test_corpus_functor_laws(name, p):
    # ring-valued presheaves too are decided by the one pass, with no scan
    assert presheaf._valid(p, sorted(p.carriers, key=open_sort_key))
    assert validate(p) == []


# -- validate against the scan over every triple -----------------------------

def full_scan_validate(p):
    """Functor-law report on a set presheaf by the scan over every triple
    u ⊇ v ⊇ w, with each value tested against the target carrier's tuple:
    `validate` as it was before composition was checked on cover steps."""
    problems = []
    opens = sorted(p.carriers, key=lambda u: (len(u), tuple(sorted(u))))
    tables = {}
    for u in opens:
        for v in opens:
            if v <= u:
                tables[(u, v)] = {}
                for e in p.carriers[u].elements:
                    try:
                        tables[(u, v)][e] = p.restrict(u, v, e)
                    except KeyError:
                        pass
    for u in opens:
        if any(tables[(u, u)].get(e) != e for e in p.carriers[u].elements):
            problems.append(f"restrict to itself not identity on {sorted(u)}")
    sound = {u: {} for u in opens}
    for (u, v), ruv in tables.items():
        undefined = [e for e in p.carriers[u].elements if e not in ruv]
        if undefined:
            problems.append(
                f"restriction {sorted(u)}->{sorted(v)} undefined at {undefined[0]!r}")
        elif any(ruv[e] not in p.carriers[v].elements for e in p.carriers[u].elements):
            problems.append(f"restriction {sorted(u)}->{sorted(v)} leaves the carrier")
        else:
            sound[u][v] = ruv
    for u in opens:
        for v, ruv in sound[u].items():
            for w, rvw in sound[v].items():
                ruw = sound[u].get(w)
                if ruw is not None and any(rvw[ruv[e]] != ruw[e]
                                           for e in p.carriers[u].elements):
                    problems.append(f"composition fails {sorted(u)}->{sorted(v)}->{sorted(w)}")
    return problems


def random_space(rng, npoints):
    """A T0 space on p0..p{n-1} whose specialization order only goes up in
    index, each pair related with probability 0.4 before closing."""
    names = [f"p{i}" for i in range(npoints)]
    below = {x: {x} for x in names}
    for j, x in enumerate(names):
        for y in names[:j]:
            if rng.random() < 0.4:
                below[x] |= below[y]
    return build_space(below)


def set_presheaf(space, kind, s):
    """The set presheaf on symbols "xyz"[:s] of `kind`: "constant" (one
    element over the empty open), "constant-everywhere" (s elements there
    too) or "locally-constant" (one symbol per connected component), with
    its restriction tables over every pair v ⊆ u, read on each call."""
    opens = enumerate_opens(space)
    comps = {u: components(space, u) for u in opens}

    def elements(u):
        if kind.startswith("constant"):
            return tuple("xyz"[:s]) if u or kind == "constant-everywhere" else ("*",)
        return tuple("".join(t) for t in itertools.product("xyz"[:s], repeat=len(comps[u])))

    def value(u, v, e):
        if kind.startswith("constant"):
            return e if v or kind == "constant-everywhere" else "*"
        return "".join(e[next(i for i, c in enumerate(comps[u]) if cv <= c)]
                       for cv in comps[v])

    carriers = {u: Carrier(SET, elements(u)) for u in opens}
    tables = {(u, v): {e: value(u, v, e) for e in carriers[u].elements}
              for u in opens for v in opens if v <= u}
    return Presheaf(space, carriers, lambda u, v, e: tables[(u, v)][e]), tables


FAULTS = ("none", "cover", "longer", "identity", "undefined", "outside", "unhashable")


def perturb(rng, p, tables, fault):
    """Break one restriction entry as `fault` names; False when the
    presheaf has no entry to break that way."""
    if fault == "none":
        return True
    steps = {"cover": lambda n: n == 1, "longer": lambda n: n >= 2,
             "identity": lambda n: n == 0}.get(fault, lambda n: True)
    pairs = [(u, v) for (u, v) in tables
             if steps(len(u) - len(v))
             and (fault not in ("cover", "longer", "identity")
                  or len(p.carriers[v].elements) >= 2)]
    if not pairs:
        return False
    u, v = rng.choice(pairs)
    table = tables[(u, v)]
    e = rng.choice(sorted(table))
    if fault == "undefined":
        del table[e]
    elif fault in ("outside", "unhashable"):
        table[e] = "q" if fault == "outside" else ["x"]
    else:
        table[e] = rng.choice([t for t in p.carriers[v].elements if t != table[e]])
    return True


PROPERTY_SPACES = [point_space(), sierpinski(), chain3(), discrete2(), pseudo_circle()]


@pytest.mark.parametrize("seed", range(30))
def test_validate_matches_the_full_scan(seed):
    rng = random.Random(seed)
    space = (PROPERTY_SPACES[seed] if seed < len(PROPERTY_SPACES)
             else random_space(rng, rng.randint(3, 6)))
    kinds = ("constant", "constant-everywhere", "locally-constant")
    for kind, s, fault in itertools.product(kinds, (2, 3), FAULTS):
        p, tables = set_presheaf(space, kind, s)
        if perturb(rng, p, tables, fault):
            assert validate(p) == full_scan_validate(p), (kind, s, fault)


def parsed(p, tables):
    """p with its restriction tables on the pairs v ⊊ u as they stand,
    written as a JSON presheaf and read back by `cli.parse_presheaf`, so
    its rows come from the parsed tables and not from `_tabulate`."""
    from sheafkit.cli import parse_presheaf
    key = {u: ",".join(sorted(u)) for u in p.carriers}
    obj = {"carriers": {key[u]: list(c.elements) for u, c in p.carriers.items()},
           "restrictions": {f"{key[u]}|{key[v]}": table
                            for (u, v), table in tables.items() if v < u}}
    q = parse_presheaf(p.space, json.loads(json.dumps(obj)))
    assert q.tables is not None
    return q


JSON_VALUES = {"null": None, "list": ["x"], "object": {"k": "x"}}


def set_entry(rng, tables, value):
    """Set one entry of a table on a pair v ⊊ u to value; False when every
    such table is empty."""
    pairs = [uv for uv, table in tables.items() if uv[1] < uv[0] and table]
    if not pairs:
        return False
    table = tables[rng.choice(pairs)]
    table[rng.choice(sorted(table))] = value
    return True


@pytest.mark.parametrize("seed", range(30))
def test_validate_on_parsed_tables_matches_the_full_scan(seed):
    """The perturbed presheaves of `test_validate_matches_the_full_scan`
    (the same draws), then the same kinds on 0 to 3 symbols, so carriers of
    0, 1 and more elements read through each shape of row getter, as given
    and with an entry set to a JSON null, list or object: each written as
    JSON and parsed, and `validate` of the parsed presheaf against the full
    scan, and its one-pass decision against the report.  A perturbed
    identity table is not written, as a parsed presheaf restricts an open
    to itself by the identity."""
    rng = random.Random(seed)
    space = (PROPERTY_SPACES[seed] if seed < len(PROPERTY_SPACES)
             else random_space(rng, rng.randint(3, 6)))
    kinds = ("constant", "constant-everywhere", "locally-constant")
    cases = []
    for kind, s, fault in itertools.product(kinds, (2, 3), FAULTS):
        p, tables = set_presheaf(space, kind, s)
        if perturb(rng, p, tables, fault):
            cases.append((p, tables, (kind, s, fault)))
    for kind, s, fault in itertools.product(kinds, range(4), ("none",) + tuple(JSON_VALUES)):
        p, tables = set_presheaf(space, kind, s)
        if fault == "none" or set_entry(rng, tables, JSON_VALUES[fault]):
            cases.append((p, tables, (kind, s, fault)))
    verdicts = set()
    for p, tables, case in cases:
        q = parsed(p, tables)
        report = validate(q)
        assert report == full_scan_validate(q), case
        assert presheaf._valid(q, sorted(q.carriers, key=open_sort_key)) == (report == [])
        verdicts.add(report == [])
    assert verdicts == {True, False}


def test_wrong_map_on_a_longer_step_fails_the_cover_check(monkeypatch):
    # only the direct map {p1,p2,p3} -> {p1} is wrong: every cover step is
    # sound, and the one-pass decision fails on comparing that map with the
    # composite through {p1,p2}; only then are the triples scanned
    decisions, scans = [], []
    valid, failures = presheaf._valid, presheaf._composition_failures
    monkeypatch.setattr(presheaf, "_valid", lambda *args:
                        decisions.append(valid(*args)) or decisions[-1])
    monkeypatch.setattr(presheaf, "_composition_failures", lambda *args:
                        scans.append(True) or failures(*args))
    p, tables = set_presheaf(chain3(), "constant", 2)
    assert validate(p) == [] and decisions == [True] and scans == []
    tables[(frozenset({"p1", "p2", "p3"}), frozenset({"p1"}))]["x"] = "y"
    report = validate(p)
    assert decisions == [True, False] and scans == [True]
    assert report == full_scan_validate(p)
    assert len(report) == 1 and report[0].startswith("composition fails")


def test_a_broken_cover_step_only_a_square_sees_fails_validation():
    """On the pseudo-circle only the cover step {a,b,c,d} -> {a,b,c} (drop
    the maximal point d) is wrong, by a bijection of the carrier.  It is
    sound, and every longer pair from the whole space is compared through
    the other cover step (drop c), so only the square of c and d sees it."""
    p, tables = set_presheaf(pseudo_circle(), "constant", 2)
    tables[(frozenset("abcd"), frozenset("abc"))].update(x="y", y="x")
    assert not presheaf._valid(p, sorted(p.carriers, key=open_sort_key))
    report = validate(p)
    assert report == full_scan_validate(p)
    assert report == [f"composition fails ['a', 'b', 'c', 'd']->['a', 'b', 'c']->{w}"
                      for w in (["a"], ["b"], ["a", "b"])]


def doubling_presheaf(space, set_opens, doubled):
    """F_3 on every open but the set carriers {0, 1, 2} on `set_opens`;
    restriction doubles an element when u is in `doubled` and v is not, and
    is the identity otherwise, so every composite agrees."""
    def carrier(u):
        return Carrier(SET, (0, 1, 2)) if u in set_opens else Carrier(RING, (0, 1, 2), F3)

    return build_presheaf(space, carrier, lambda u, v, e: 2 * e % 3
                          if u in doubled and v not in doubled else e)


def test_restrictions_that_are_not_ring_morphisms_are_reported():
    """Doubling on F_3 is additive but sends 1 to 2.  On the Sierpinski
    space a cover step doubles; on the chain p1 < p2 < p3 only the maps
    from the whole space double, and the cover step goes to a set carrier,
    so only the longer pairs, through a set carrier, break the law."""
    whole = frozenset({"p1", "p2", "p3"})
    for space, set_opens, doubled, broken in (
            (sierpinski(), (), {frozenset("oc")}, [[], ["o"]]),
            (chain3(), {frozenset({"p1", "p2"})}, {whole}, [[], ["p1"]])):
        u = sorted(max(doubled, key=len))
        p = doubling_presheaf(space, set_opens, doubled)
        assert validate(p) == [f"restriction {u}->{v} not a ring morphism"
                               for v in broken]
        assert validate(doubling_presheaf(space, set_opens, set())) == []


# -- stalks ------------------------------------------------------------------

def test_section_enumeration_guard_names_its_open_and_count(monkeypatch):
    """Two maximal points of three choices each: 9 states pass a bound of 5."""
    monkeypatch.setattr(presheaf, "DEFAULT_STATE_BOUND", 5)
    with pytest.raises(SpaceTooLarge) as hit:
        presheaf.compatible_families(pseudo_circle(), frozenset({"a", "b"}),
                                     lambda x: [0, 1, 2], lambda x, y, e: e)
    assert str(hit.value) == "section enumeration over open ['a', 'b'] exceeds 5 states at 9"


@pytest.mark.parametrize("bound, message", [
    (2, "section enumeration over open ['a'] exceeds 2 states at 3"),
    (3, "section enumeration over open ['a', 'b', 'c', 'd'] exceeds 3 states at 9")])
def test_unit_counts_raise_the_section_guard_on_the_first_open_listed(monkeypatch,
                                                                      bound, message):
    """Three symbols on the pseudo-circle.  `compatible_families` over each
    empty or connected open in turn refuses first {a}, one maximal point,
    under a bound of 2, and the whole space, two maximal points, under 3.
    `unit_counts` raises the same message, on tabulated and parsed rows."""
    monkeypatch.setattr(presheaf, "DEFAULT_STATE_BOUND", bound)
    space = pseudo_circle()
    p, tables = set_presheaf(space, "constant", 3)
    with pytest.raises(SpaceTooLarge) as first:
        for u in enumerate_opens(space):
            if len(components(space, u)) <= 1:
                presheaf.compatible_families(
                    space, u, lambda x: list(p.stalk_carrier(x).elements),
                    lambda x, y, e: p.restrict(space.min_open[x], space.min_open[y], e))
    assert str(first.value) == message
    for q in (p, parsed(p, tables)):
        with pytest.raises(SpaceTooLarge) as hit:
            unit_counts(q)
        assert str(hit.value) == message


# On the pseudo-circle the maximal points are c and d.  c has one choice,
# whose germ at a is a0; d has d0 (germ a0) and d1 (germ a1).  A plain loop
# over the product meets d1 only at (c0, d1), reads its germ at a first and
# stops there, so it never asks for the germ of d1 at b.
PC_RES = {("c", "a", "c0"): "a0", ("c", "b", "c0"): "b0", ("c", "c", "c0"): "c0",
          ("d", "a", "d0"): "a0", ("d", "b", "d0"): "b0", ("d", "d", "d0"): "d0",
          ("d", "a", "d1"): "a1", ("d", "d", "d1"): "d1"}
PC_ELEMS = {"c": ["c0"], "d": ["d0", "d1"]}


def test_compatible_families_raises_the_key_error_a_plain_loop_reaches():
    res = {key: v for key, v in PC_RES.items() if key != ("d", "b", "d0")}
    with pytest.raises(KeyError, match="'d', 'b', 'd0'"):
        presheaf.compatible_families(pseudo_circle(), frozenset("abcd"), PC_ELEMS.get,
                                     lambda x, y, e: res[(x, y, e)])


def test_compatible_families_raises_the_key_error_the_product_order_reaches_first():
    """c0 and c1 give a the germs a0 and a1, and d0 and d1 agree with them
    there but have no germ at b: a plain loop reaches (c0, d0) before
    (c1, d1), so d0's KeyError is raised, not d1's."""
    res = {("c", "a", "c0"): "a0", ("c", "b", "c0"): "b0", ("c", "c", "c0"): "c0",
           ("c", "a", "c1"): "a1", ("c", "b", "c1"): "b0", ("c", "c", "c1"): "c1",
           ("d", "a", "d0"): "a0", ("d", "a", "d1"): "a1"}
    args = (pseudo_circle(), frozenset("abcd"), {"c": ["c0", "c1"], "d": ["d0", "d1"]}.get,
            lambda x, y, e: res[(x, y, e)])
    for families in (presheaf.compatible_families, product_loop_families):
        assert families_or_key_error(families, *args) == ("KeyError", (("d", "b", "d0"),))


def test_compatible_families_skips_a_key_error_a_plain_loop_never_reaches():
    assert presheaf.compatible_families(
        pseudo_circle(), frozenset("abcd"), PC_ELEMS.get,
        lambda x, y, e: PC_RES[(x, y, e)]) == [("a0", "b0", "c0", "d0")]


# -- the join against the product loop ---------------------------------------

def product_loop_families(space, carrier_pts, elems_at, res):
    """`compatible_families` as a plain loop over the product of the choices
    at the maximal points, guard included: the join's oracle."""
    pts = sorted(carrier_pts)
    maxpts = space.maximal_points(carrier_pts)
    states = 1
    for m in maxpts:
        states *= max(len(elems_at(m)), 1)
        if states > presheaf.DEFAULT_STATE_BOUND:
            raise SpaceTooLarge(f"section enumeration over open {pts} exceeds "
                                f"{presheaf.DEFAULT_STATE_BOUND} states at {states}")
    below = [sorted(space.min_open[m]) for m in maxpts]
    out = []
    for choice in itertools.product(*[elems_at(m) for m in maxpts]):
        assign = {}
        ok = True
        for m, ys, val in zip(maxpts, below, choice):
            for y in ys:
                v = res(m, y, val)
                if y in assign:
                    if assign[y] != v:
                        ok = False
                        break
                else:
                    assign[y] = v
            if not ok:
                break
        if ok:
            out.append(tuple(assign[x] for x in pts))
    return out


def families_or_key_error(families, *args):
    try:
        return families(*args)
    except KeyError as exc:
        return "KeyError", exc.args


def join_against_the_product_loop(space, elems_at, res):
    """Each open's families by the join, or the args of its KeyError, after
    checking that the product loop gives the same."""
    outcomes = []
    for u in enumerate_opens(space):
        args = (space, u, elems_at, res)
        outcome = families_or_key_error(presheaf.compatible_families, *args)
        assert outcome == families_or_key_error(product_loop_families, *args), sorted(u)
        outcomes.append(outcome)
    return outcomes


REPORT_CORPUS_SPACES = PROPERTY_SPACES + [
    build_space({"o": ["o"], "c": ["o", "c"], "p": ["p"]})]


def test_unit_counts_match_sheafify():
    """Carrier size, section count and the unit's injectivity and
    bijectivity per open, in open order, against `sheafify` on the
    report-corpus spaces under every set presheaf kind and on the ring
    corpus; `is_complete`, which reads them, against the unit of `sheafify`
    on every open."""
    seen, verdicts = set(), set()
    presheaves = [set_presheaf(space, kind, s)[0] for space in REPORT_CORPUS_SPACES
                  for kind in ("constant", "constant-everywhere", "locally-constant")
                  for s in (2, 3)]
    for p in presheaves + [p for _, p in corpus_presheaves()]:
        sh = sheafify(p)
        expected = {u: (len(p.carriers[u].elements), len(sh.sections.carriers[u].elements),
                        unit_injective(sh, u), unit_bijective(sh, u))
                    for u in enumerate_opens(p.space)}
        counts = unit_counts(p)
        assert list(counts.items()) == list(expected.items())
        seen |= {c[2:] for c in counts.values()}
        verdicts.add(is_complete(p))
        assert is_complete(p) == all(unit_bijective(sh, u) for u in p.carriers)
    assert seen == {(True, True), (True, False), (False, False)}
    assert verdicts == {True, False}


def test_unit_counts_on_parsed_tables_match_sheafify():
    """The set presheaves of `test_unit_counts_match_sheafify`, and the
    same kinds on 0 and 1 symbols, so carriers of 0, 1 and more elements
    read through each shape of row getter, written as JSON and parsed:
    `unit_counts` reads the parsed tables and gives, per open in open
    order, the carrier size, section count and the unit's injectivity and
    bijectivity that `sheafify` of the parsed presheaf gives."""
    sizes, seen = set(), set()
    for space, kind, s in itertools.product(
            REPORT_CORPUS_SPACES, ("constant", "constant-everywhere", "locally-constant"),
            range(4)):
        q = parsed(*set_presheaf(space, kind, s))
        sh = sheafify(q)
        expected = {u: (len(q.carriers[u].elements), len(sh.sections.carriers[u].elements),
                        unit_injective(sh, u), unit_bijective(sh, u))
                    for u in enumerate_opens(space)}
        counts = unit_counts(q)
        assert list(counts.items()) == list(expected.items()), (kind, s)
        sizes |= {min(c.carrier, 2) for c in counts.values()}
        seen |= {c[2:] for c in counts.values()}
    assert sizes == {0, 1, 2}
    assert seen == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("fault", ("none", "undefined", "cover", "longer"))
def test_join_matches_the_product_loop_on_set_presheaves(fault):
    """Every open of the report-corpus spaces, under the constant and the
    locally constant set presheaves, as given and with one entry broken."""
    rng = random.Random(fault)
    for space in REPORT_CORPUS_SPACES:
        for kind, s in itertools.product(
                ("constant", "constant-everywhere", "locally-constant"), (2, 3)):
            p, tables = set_presheaf(space, kind, s)
            perturb(rng, p, tables, fault)
            join_against_the_product_loop(
                space, lambda x: list(p.stalk_carrier(x).elements),
                lambda x, y, e: p.restrict(space.min_open[x], space.min_open[y], e))


def test_join_matches_the_product_loop_on_random_partial_tables():
    """Random T0 spaces of 1-6 points, up to three choices per point, some
    points with none, and germs in {0, 1} missing from the table (KeyError)
    one time in ten."""
    kinds = set()
    for seed in range(300):
        rng = random.Random(seed)
        space = random_space(rng, rng.randint(1, 6))
        elems = {x: [f"{x}{i}" for i in range(rng.choice((0, 1, 2, 3, 3)))]
                 for x in space.points}
        table = {(x, y, e): e if x == y else rng.choice("01")
                 for x in space.points for y in sorted(space.min_open[x])
                 for e in elems[x] if rng.random() < 0.9}
        for outcome in join_against_the_product_loop(
                space, elems.get, lambda x, y, e: table[(x, y, e)]):
            kinds.add("raised" if isinstance(outcome, tuple) else
                      "listed" if outcome else "empty")
    assert kinds == {"raised", "listed", "empty"}


@pytest.mark.parametrize("listed_from, count", [("abcd", 4), ("c", 0)])
def test_unhashable_germs_are_joined_by_a_scan(listed_from, count):
    """A parsed pseudo-circle presheaf whose restrictions from the opens
    holding a point of listed_from send every element to a list, and the
    others to a string.  The germs that c gives a and b cannot be hashed,
    so the join scans for d's choices that agree with c's, and `pullback`
    along the identity and `sheafify` list the product loop's families:
    over the whole space 4, or none where d's germs are strings."""
    from sheafkit.cli import parse_presheaf
    from sheafkit.finspace import ContinuousMap, opens_below
    space = pseudo_circle()
    key = {u: ",".join(sorted(u)) for u in enumerate_opens(space)}
    p = parse_presheaf(space, {
        "carriers": {k: ["s0", "s1"] for k in key.values()},
        "restrictions": {f"{key[u]}|{key[v]}": dict.fromkeys(
            ["s0", "s1"], ["g"] if u & set(listed_from) else "g")
            for u, below in opens_below(space).items() for v in below}})
    elems_at = lambda x: list(p.stalk_carrier(x).elements)
    res = lambda x, y, e: p.restrict(space.min_open[x], space.min_open[y], e)
    whole = frozenset(space.points)
    listed = {u: product_loop_families(space, u, elems_at, res) for u in key}
    assert len(listed[whole]) == count
    for q in (pullback(p, ContinuousMap(space, space, {x: x for x in space.points})),
              sheafify(p).sections):
        assert {u: list(c.elements) for u, c in q.carriers.items()} == listed


def test_an_empty_choice_list_at_a_later_maximal_point_calls_no_res():
    """c's germs are all undefined and d has no choices: the product is
    empty, so a plain loop asks for no germ and raises nothing."""
    def undefined(x, y, e):
        raise KeyError((x, y, e))

    whole = frozenset("abcd")
    elems = {"a": ["a0"], "b": ["b0"], "c": ["c0", "c1"], "d": []}
    assert product_loop_families(pseudo_circle(), whole, elems.get, undefined) == []
    assert presheaf.compatible_families(pseudo_circle(), whole, elems.get, undefined) == []


def test_join_asks_for_each_germ_once():
    """Three choices at every point of the pseudo-circle, all germs 0: the
    product loop asks for d's germs once per choice at c, the join once per
    (maximal point, choice, point below), and over a minimal open exactly
    its germ rows."""
    space = pseudo_circle()
    elems = dict.fromkeys(space.points, [0, 1, 2])
    for u in [frozenset(space.points)] + [space.min_open[x] for x in space.points]:
        calls = collections.Counter()

        def res(x, y, e):
            calls[(x, e, y)] += 1
            return 0

        families = presheaf.compatible_families(space, u, elems.get, res)
        assert len(families) == 3 ** len(space.maximal_points(u))
        assert set(calls.values()) == {1}
        assert len(calls) == sum(3 * len(space.min_open[m]) for m in space.maximal_points(u))


def test_constant_sheaf_stalk():
    p = constant_presheaf(sierpinski(), F2)
    assert len(stalk(p, "o").carrier.elements) == 2


def test_counterexample_stalks():
    p = counterexample_presheaf()
    assert len(stalk(p, "c").carrier.elements) == 4  # the dual numbers
    assert len(stalk(p, "o").carrier.elements) == 2  # F2


def test_germ_is_restriction_to_minimal_open():
    p = counterexample_presheaf()
    s = stalk(p, "o")
    whole = frozenset({"o", "c"})
    for e in p.carriers[whole].elements:
        assert s.germ(whole, e) == p.restrict(whole, frozenset({"o"}), e)


# -- separation --------------------------------------------------------------

def test_constant_presheaf_monopresheaf_on_connected_space():
    assert is_monopresheaf(constant_presheaf(sierpinski(), F2))
    assert is_monopresheaf(constant_presheaf(pseudo_circle(), F3))


def test_counterexample_is_monopresheaf():
    assert is_monopresheaf(counterexample_presheaf())


def non_separated_presheaf():
    """F2^2 over the whole discrete space, first-coordinate projection to
    both singletons: (0,0) and (0,1) share every germ."""
    space = discrete2()
    whole = frozenset(space.points)

    def carrier_fn(u):
        if u == whole:
            return Carrier(SET, ((0, 0), (0, 1), (1, 0), (1, 1)))
        return Carrier(SET, (0, 1))

    def restrict_fn(u, v, e):
        if u == v:
            return e
        if u == whole:
            return e[0] if v else 0
        return 0

    return build_presheaf(space, carrier_fn, restrict_fn)


def test_projection_presheaf_not_separated():
    p = non_separated_presheaf()
    assert validate(p) == []
    assert not is_monopresheaf(p)


@pytest.mark.parametrize("name,p", corpus_presheaves())
def test_monopresheaf_criterion_matches_all_covers(name, p):
    """Minimal-open cover verdict agrees with separation along every cover."""
    space = p.space
    opens = enumerate_opens(space)
    verdict = is_monopresheaf(p)
    for u in opens:
        if not u:
            continue
        nonempty = [v for v in opens if v and v <= u]
        for r in range(1, len(nonempty) + 1):
            for cover in itertools.combinations(nonempty, r):
                if frozenset().union(*cover) != u:
                    continue
                assert restrictions_injective_for_cover(p, u, list(cover)) or \
                    not verdict


# -- sheafification ----------------------------------------------------------

def test_sheafify_constant_on_discrete_enlarges_sections():
    p = constant_presheaf(discrete2(), F3)
    s = sheafify(p)
    whole = frozenset({"u", "v"})
    assert len(s.sections.carriers[whole].elements) == 9
    assert len(set(s.unit[whole].values())) == 3
    assert not unit_bijective(s, whole)


def test_sheafify_counterexample_sections():
    p = counterexample_presheaf()
    s = sheafify(p)
    whole = frozenset({"o", "c"})
    secs = s.sections.carriers[whole].elements
    # compatibility forces the germ at o to be rho of the germ at c
    assert len(secs) == 4
    pts = sorted(whole)  # [c, o]
    for fam in secs:
        assert fam[pts.index("o")] == RHO(fam[pts.index("c")])


def test_sheafified_sections_are_complete():
    for name, p in corpus_presheaves():
        s = sheafify(p)
        assert is_complete(s.sections), name


def test_is_complete_examples():
    assert not is_complete(constant_presheaf(discrete2(), F3))
    assert not is_complete(counterexample_presheaf())  # fails at the empty open


def test_is_complete_counts_a_disconnected_open_past_the_section_guard():
    """33 symbols on four discrete points have 33^4 = 1,185,921 sections
    over the whole space, past the 10^6 guard that `sheafify` hits."""
    space = build_space({x: [x] for x in "abcd"})
    symbols = tuple(f"s{i}" for i in range(33))
    p = build_presheaf(space, lambda u: Carrier(SET, symbols), lambda u, v, e: e)
    with pytest.raises(SpaceTooLarge):
        sheafify(p)
    assert is_complete(p) is False


def test_is_complete_refuses_an_invalid_presheaf():
    p = constant_presheaf(sierpinski(), F2)
    u = frozenset({"o"})
    restrict = p.restrict
    p.restrict = lambda a, b, e: 1 - e if (a, b) == (u, u) else restrict(a, b, e)
    with pytest.raises(ValidationError, match="invalid presheaf: restrict to itself"):
        is_complete(p)


@pytest.mark.parametrize("name,p", corpus_presheaves())
def test_sheafify_preserves_stalks(name, p):
    s = sheafify(p)
    space = p.space
    for x in space.points:
        ux = space.min_open[x]
        assert len(s.sections.carriers[ux].elements) == \
            len(p.carriers[ux].elements)
        # the unit commutes with germ maps
        for u in s.unit:
            if x not in u:
                continue
            for e in p.carriers[u].elements:
                lhs = s.sections.restrict(u, ux, s.unit[u][e])
                rhs = s.unit[ux][p.restrict(u, ux, e)]
                assert lhs == rhs


@pytest.mark.parametrize("name,p", corpus_presheaves())
def test_sheafify_idempotent(name, p):
    s = sheafify(p)
    s2 = sheafify(s.sections)
    for u in s.sections.carriers:
        assert unit_bijective(s2, u)


@pytest.mark.parametrize("name,p", corpus_presheaves())
def test_complete_implies_monopresheaf(name, p):
    if is_complete(p):
        assert is_monopresheaf(p)
    s = sheafify(p)
    assert is_monopresheaf(s.sections)


# -- pullbacks ---------------------------------------------------------------

def test_pullback_along_identity_is_sheafification():
    p = counterexample_presheaf()
    space = p.space
    from sheafkit.finspace import ContinuousMap
    ident = ContinuousMap(space, space, {x: x for x in space.points})
    q = pullback(p, ident)
    s = sheafify(p)
    for u in q.carriers:
        assert set(q.carriers[u].elements) == \
            set(s.sections.carriers[u].elements)


def test_pullback_constant_maps_of_counterexample():
    p = counterexample_presheaf()
    pt = point_space()
    y = frozenset({"p"})
    q0 = pullback(p, constant_map(pt, p.space, "c"))
    q1 = pullback(p, constant_map(pt, p.space, "o"))
    assert len(q0.carriers[y].elements) == 4
    assert len(q1.carriers[y].elements) == 2
    assert find_ring_isomorphism(q0.carriers[y].ring,
                                 q1.carriers[y].ring) is None


def test_pullback_constant_map_stalks_isomorphic_to_target_stalk():
    p = counterexample_presheaf()
    pc = pseudo_circle()
    for target in p.space.points:
        q = pullback(p, constant_map(pc, p.space, target))
        for yy in pc.points:
            qring = q.stalk_carrier(yy).ring
            pring = stalk(p, target).carrier.ring
            assert find_ring_isomorphism(qring, pring) is not None


# -- germ-family carriers ----------------------------------------------------

SIER = sierpinski()
SIER_BUILDERS = {
    "sheafify": lambda: sheafify(constant_presheaf(SIER, F2)).sections,
    "pullback": lambda: pullback(constant_presheaf(SIER, F2),
                                 constant_map(SIER, SIER, "c")),
    "to_presheaf": lambda: constant_algebra_sheaf(SIER, F2).to_presheaf(),
}


@pytest.mark.parametrize("name, empty_kind, label", [
    ("sheafify", RING, "sections"),
    ("pullback", SET, "pullback"),
    ("to_presheaf", RING, "const(F_2)"),
])
def test_germ_family_carrier_kinds_and_labels(name, empty_kind, label):
    """On the empty open sheafify keeps the source's ring kind, pullback
    gives a set and to_presheaf a ring; ring carriers are named after the
    construction and the sorted points of their open."""
    q = SIER_BUILDERS[name]()
    empty = q.carriers[frozenset()]
    assert empty.kind == empty_kind and empty.elements == ((),)
    for u in enumerate_opens(SIER):
        if u:
            c = q.carriers[u]
            assert c.kind == RING and c.ring.label == f"{label}({sorted(u)})"
    if empty_kind == RING:
        assert empty.ring.label == f"{label}([])"


# -- the two-algebra construction --------------------------------------------

def test_two_algebra_carriers():
    p = counterexample_presheaf()
    whole = frozenset({"o", "c"})
    assert p.carriers[whole].ring is DUAL
    assert p.carriers[frozenset({"o"})].ring is F2
    assert p.carriers[frozenset()].ring is F2


def test_two_algebra_isolated_point():
    p = two_algebra_presheaf(discrete2(), "u", DUAL, F2, RHO)
    assert len(stalk(p, "u").carrier.elements) == 4
    assert len(stalk(p, "v").carrier.elements) == 2


def test_two_algebra_degenerate_is_constant():
    ident = RingMorphism(F2, F2, (0, 1))
    p = two_algebra_presheaf(sierpinski(), "c", F2, F2, ident)
    q = constant_presheaf(sierpinski(), F2)
    assert all(p.carriers[u].ring is q.carriers[u].ring for u in p.carriers)
    assert all(p.restrict(u, v, e) == q.restrict(u, v, e)
               for u in p.carriers for v in p.carriers if v <= u
               for e in p.carriers[u].elements)


def test_two_algebra_rejects_non_morphism():
    bad = RingMorphism(DUAL, F2, (0, 0, 0, 0))
    with pytest.raises(InvalidMorphism):
        two_algebra_presheaf(sierpinski(), "c", DUAL, F2, bad)
