import functools
import itertools
import random
import tracemalloc

import pytest

import sheafkit.finalg as finalg_module
import sheafkit.vecsheaf as vecsheaf_module

from sheafkit.errors import (
    CocycleConditionViolated,
    InvalidWeights,
    SearchBudgetExceeded,
    SpaceTooLarge,
    TrivializationMismatch,
    ValidationError,
)
from sheafkit.finalg import (
    Matrix,
    broken_law,
    invertible_matrices,
    is_invertible,
    make_field,
    make_mod_ring,
    make_quotient,
    span,
)
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
from sheafkit.presheaf import is_complete
from sheafkit.vecsheaf import (
    AlgebraSheaf,
    Budget,
    ModuleMorphism,
    ModuleSheaf,
    TransitionCocycle,
    WeightFamily,
    constant_algebra_sheaf,
    embed_via_weights,
    enumerate_weight_families,
    find_module_isomorphism,
    free_sheaf,
    full_subsheaf,
    identity_trivialization,
    is_free_of_rank,
    is_locally_free,
    is_monomorphism,
    make_subsheaf,
    module_free_of_rank,
    module_locally_free,
    sheaf_from_cocycle,
    subsheaf_sections,
    trivial_weight_family,
    validate_cocycle,
    validate_module_morphism,
    validate_subsheaf,
    validate_weights,
    zero_subsheaf,
)

F2 = make_field(2)
F3 = make_field(3)

SIER = sierpinski()
PC = pseudo_circle()
D2 = discrete2()

A2_SIER = constant_algebra_sheaf(SIER, F2)
A3_PC = constant_algebra_sheaf(PC, F3)
A2_D2 = constant_algebra_sheaf(D2, F2)

UC, UD = frozenset("abc"), frozenset("abd")
X_PC = frozenset(PC.points)
X_SIER = frozenset(SIER.points)
X_D2 = frozenset(D2.points)


def mobius_cocycle():
    # overlap {a,b}: germ 1 at a, -1 at b
    return TransitionCocycle(A3_PC, (UC, UD), 1, {(0, 1): (((1, 2),),)})


def untwisted_cocycle():
    return TransitionCocycle(A3_PC, (UC, UD), 1, {(0, 1): (((1, 1),),)})


# -- structure sheaves -------------------------------------------------------

def test_constant_algebra_sheaf_sections():
    assert len(A2_SIER.sections(X_SIER)) == 2       # connected: constants
    assert len(A2_D2.sections(X_D2)) == 4           # one value per component
    assert len(A3_PC.sections(X_PC)) == 3


def test_algebra_sheaf_section_presheaf_is_complete():
    assert is_complete(A2_SIER.to_presheaf())
    assert is_complete(A2_D2.to_presheaf())


# -- free sheaves and subsheaves ---------------------------------------------

def test_free_sheaf_ranks():
    e0 = free_sheaf(A2_SIER, 0)
    assert all(len(e0.stalk_elems[x]) == 1 for x in SIER.points)
    e1 = free_sheaf(A2_SIER, 1)
    assert len(e1.sections(X_SIER)) == 2
    e2 = free_sheaf(A2_SIER, 2)
    assert len(e2.sections(X_SIER)) == 4
    assert len(e2.sections(frozenset({"o"}))) == 4


def test_free_sheaf_of_a_constant_sheaf_holds_one_map():
    """Every pair of a constant algebra sheaf restricts codes identically,
    so every pair of its free sheaf holds the same vector map."""
    e = free_sheaf(A3_PC, 2)
    maps = list(e.res.values())
    assert len(maps) == 8 and all(m is maps[0] for m in maps)
    assert e.validate() == []


def test_free_sheaf_memory_does_not_grow_with_the_pairs():
    """2^14 vectors per stalk on the ten specialization pairs of a 4-point
    chain: one vector list and one map, not a map per pair."""
    chain4 = build_space({"p1": ["p1"], "p2": ["p1", "p2"], "p3": ["p1", "p2", "p3"],
                          "p4": ["p1", "p2", "p3", "p4"]})
    a = constant_algebra_sheaf(chain4, F2)
    tracemalloc.start()
    try:
        e = free_sheaf(a, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(e.res) == 10 and len(e.stalk_elems["p4"]) == 2 ** 14
    assert peak < 10_000_000


def test_first_broken_law_is_reported():
    """Restrictions and morphism components name the first law they break,
    additivity before scaling.  Frobenius on F_4 is additive, not linear."""
    a = constant_algebra_sheaf(SIER, make_quotient(2, [1, 1, 1]))
    e = free_sheaf(a, 1)
    frobenius = {(0,): (0,), (1,): (1,), (2,): (3,), (3,): (2,)}
    constant = {v: (1,) for v in e.stalk_elems["c"]}
    for m, law in ((frobenius, "semi-linear"), (constant, "additive")):
        broken = ModuleSheaf(a, e.rank_at, e.stalk_elems, {**e.res, ("c", "o"): m})
        assert f"res('c','o') not {law}" in broken.validate()
    for m, law in ((frobenius, "linear"), (constant, "additive")):
        h = {x: {v: v for v in e.stalk_elems[x]} for x in SIER.points}
        problems = validate_module_morphism(ModuleMorphism(e, e, {**h, "c": m}))
        assert f"component at 'c' not {law}" in problems


def all_pairs_law(m, elems, r, ry, code):
    """The law m breaks, additivity on every pair before scaling of every
    vector by every scalar: the oracle of `broken_law`."""
    add = lambda ring, v, w: tuple(ring.add(a, b) for a, b in zip(v, w))
    scale = lambda ring, c, v: tuple(ring.mul(c, a) for a in v)
    if any(m[add(r, v, w)] != add(ry, m[v], m[w]) for v in elems for w in elems):
        return "additive"
    if any(m[scale(r, a, v)] != scale(ry, code[a], m[v])
           for v in elems for a in r.elements()):
        return "linear"
    return None


def test_broken_law_on_generators_matches_all_pairs():
    """Random maps on r^n, n <= 2, over five rings: linear, Frobenius-twisted
    (F_4, additive but not linear unless the codes twist too), a linear map
    with one value changed, and maps with random values."""
    f4 = make_quotient(2, [1, 1, 1])
    frobenius = tuple(f4.mul(a, a) for a in f4.elements())
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        r = rng.choice([F2, F3, make_mod_ring(4), make_mod_ring(6), f4])
        n = rng.choice([0, 1, 2])
        elems = list(itertools.product(r.elements(), repeat=n))
        rng.shuffle(elems)
        matrix = [[rng.choice(r.elements()) for _ in range(n)] for _ in range(n)]
        m = {v: tuple(functools.reduce(r.add, map(r.mul, row, v), r.zero)
                      for row in matrix)
             for v in elems}
        code = tuple(r.elements())
        shape = rng.choice(["linear", "frobenius", "changed", "random"])
        if shape == "frobenius" and r is f4:
            m = {v: tuple(frobenius[a] for a in w) for v, w in m.items()}
            code = rng.choice([code, frobenius])
        elif shape == "changed":
            m[rng.choice(elems)] = tuple(rng.choice(r.elements()) for _ in range(n))
        elif shape == "random":
            m = {v: tuple(rng.choice(r.elements()) for _ in range(n)) for v in elems}
        law = all_pairs_law(m, elems, r, r, code)
        assert broken_law(m, elems, r, r, code) == law, (seed, shape)
        seen.add(law)
    assert seen == {None, "additive", "linear"}


@pytest.mark.parametrize("a,n", [(A2_SIER, 2), (A3_PC, 2), (A2_D2, 1)])
def test_module_sheaf_semilinearity(a, n):
    assert free_sheaf(a, n).validate() == []


def test_validate_subsheaf_full_and_zero():
    amb = free_sheaf(A2_SIER, 2)
    assert validate_subsheaf(full_subsheaf(amb, X_SIER)) == []
    assert validate_subsheaf(zero_subsheaf(amb, X_SIER)) == []


def test_validate_subsheaf_mismatched_lines():
    amb = free_sheaf(A2_SIER, 2)
    bad = make_subsheaf(amb, {
        "c": frozenset(span(F2, 2, [(1, 0)])),
        "o": frozenset(span(F2, 2, [(0, 1)])),
    })
    assert validate_subsheaf(bad)


def constant_line(amb, domain, vec, ring):
    return make_subsheaf(amb, {x: frozenset(span(ring, 2, [vec])) for x in domain})


def test_subsheaf_sections_counts():
    amb = free_sheaf(A2_SIER, 2)
    assert len(subsheaf_sections(full_subsheaf(amb, X_SIER), X_SIER)) == 4
    line = constant_line(amb, X_SIER, (1, 1), F2)
    assert len(subsheaf_sections(line, X_SIER)) == 2
    assert len(subsheaf_sections(zero_subsheaf(amb, X_SIER), X_SIER)) == 1


def test_is_free_of_rank_examples():
    amb = free_sheaf(A2_SIER, 2)
    ok, witness = is_free_of_rank(full_subsheaf(amb, X_SIER), X_SIER, 2)
    assert ok and len(witness) == 2
    line = constant_line(amb, X_SIER, (1, 1), F2)
    ok, witness = is_free_of_rank(line, X_SIER, 1)
    assert ok and witness == (((1, 1), (1, 1)),)
    assert not is_free_of_rank(zero_subsheaf(amb, X_SIER), X_SIER, 1)[0]
    assert is_free_of_rank(zero_subsheaf(amb, X_SIER), X_SIER, 0)[0]


@pytest.mark.parametrize("make", [point_space, sierpinski, chain3, discrete2,
                                  pseudo_circle])
@pytest.mark.parametrize("ring", [F2, F3], ids=["F2", "F3"])
def test_module_and_subsheaf_freeness_agree(make, ring):
    a = constant_algebra_sheaf(make(), ring)
    whole = frozenset(a.space.points)
    for n in (1, 2):
        e = free_sheaf(a, n)
        for k in range(n + 2):
            verdict = module_free_of_rank(e, whole, k)
            assert verdict == is_free_of_rank(full_subsheaf(e, whole), whole, k)
            assert verdict[0] == (k == n)


def test_module_free_of_rank_budget():
    with pytest.raises(SearchBudgetExceeded):
        module_free_of_rank(free_sheaf(A2_SIER, 1), X_SIER, 1, budget=Budget(0))
    assert module_free_of_rank(free_sheaf(A2_SIER, 1), X_SIER, 1, budget=Budget(2))[0]


def test_module_free_of_rank_spent_budget_names_its_open_rank_and_count():
    with pytest.raises(SearchBudgetExceeded) as spent:
        module_free_of_rank(free_sheaf(A3_PC, 2), X_PC, 2, Budget(3))
    assert str(spent.value) == ("freeness search exceeded the budget of 3 steps "
                                "over open ['a', 'b', 'c', 'd'] at rank 2, 4 steps used")


def test_free_implies_locally_free():
    amb = free_sheaf(A2_SIER, 2)
    for s in (full_subsheaf(amb, X_SIER),
              constant_line(amb, X_SIER, (1, 1), F2),
              constant_line(amb, X_SIER, (0, 1), F2)):
        k = 2 if s.family_at("o") == frozenset(amb.stalk_elems["o"]) else 1
        assert is_free_of_rank(s, X_SIER, k)[0]
        assert is_locally_free(s, X_SIER, k)


# -- cocycle sheaves ---------------------------------------------------------

def test_identity_cocycle_gives_free_sheaf():
    glued = sheaf_from_cocycle(untwisted_cocycle())
    assert glued.sheaf.validate() == []
    assert find_module_isomorphism(glued.sheaf, free_sheaf(A3_PC, 1)) is not None
    assert module_free_of_rank(glued.sheaf, X_PC, 1)[0]


def test_mobius_locally_free_not_free():
    glued = sheaf_from_cocycle(mobius_cocycle())
    assert glued.sheaf.validate() == []
    assert module_locally_free(glued.sheaf, X_PC, 1)
    ok, witness = module_free_of_rank(glued.sheaf, X_PC, 1)
    assert not ok and witness is None
    # only the zero global section survives the twist
    assert len(glued.sheaf.sections(X_PC)) == 1


def test_mobius_not_isomorphic_to_free():
    glued = sheaf_from_cocycle(mobius_cocycle())
    assert find_module_isomorphism(glued.sheaf, free_sheaf(A3_PC, 1)) is None


def test_mobius_not_isomorphic_to_untwisted():
    mob = sheaf_from_cocycle(mobius_cocycle())
    triv = sheaf_from_cocycle(untwisted_cocycle())
    assert find_module_isomorphism(mob.sheaf, triv.sheaf) is None


def test_cohomologous_cocycles_isomorphic():
    # rescale chart 0 by the unit -1: transition becomes (-1)*(1,-1) = (-1,1)
    mob = sheaf_from_cocycle(mobius_cocycle())
    rescaled = sheaf_from_cocycle(
        TransitionCocycle(A3_PC, (UC, UD), 1, {(0, 1): (((2, 1),),)}))
    iso = find_module_isomorphism(mob.sheaf, rescaled.sheaf)
    assert iso is not None
    assert validate_module_morphism(iso) == []
    assert is_monomorphism(iso)


def test_module_isomorphism_refuses_a_stalk_that_is_not_full_as_invalid_input():
    """A rank-2 stalk holding one line of F_2^2 is invalid input for the
    search, not a spent budget, and the error names its point."""
    a = constant_algebra_sheaf(point_space(), F2)
    line = ModuleSheaf(a, {"p": 2}, {"p": ((0, 0), (1, 0))}, {})
    assert line.validate() == []
    for e, f in ((line, free_sheaf(a, 2)), (free_sheaf(a, 2), line)):
        with pytest.raises(ValidationError, match="the stalk at 'p' is not full"):
            find_module_isomorphism(e, f, budget=Budget())


def glued_pc_bundle(a, rank, g):
    """A^rank on the pseudo-circle glued along g = (g_a, g_b), row-major
    matrices at the overlap points a and b."""
    mat = tuple(tuple((g[0][rank * i + j], g[1][rank * i + j]) for j in range(rank))
                for i in range(rank))
    return sheaf_from_cocycle(TransitionCocycle(a, (UC, UD), rank, {(0, 1): mat})).sheaf


def prime_field_actions(p, k):
    """Oracle: every invertible k x k matrix over F_p, in itertools.product
    order of its row-major entries, as its action {v: m v} on F_p^k (codes of
    a prime field are residues); invertible means the action is a bijection."""
    vecs = list(itertools.product(range(p), repeat=k))
    acts = []
    for m in itertools.product(range(p), repeat=k * k):
        act = {v: tuple(sum(m[k * i + j] * v[j] for j in range(k)) % p for i in range(k))
               for v in vecs}
        if len(set(act.values())) == len(vecs):
            acts.append((m, act))
    return acts


def first_natural_assignment(e, f, acts):
    """Oracle: the first assignment of invertible matrices to the points, in
    sorted point order and `acts` order, that is natural on every
    specialization pair; no pruning."""
    space = e.space
    pts = sorted(space.points)
    for choice in itertools.product(acts, repeat=len(pts)):
        h = {x: act for x, (_, act) in zip(pts, choice)}
        if all(f.res[(x, y)][h[x][v]] == h[y][e.res[(x, y)][v]]
               for x in pts for y in space.min_open[x] for v in e.stalk_elems[x]):
            return {x: {v: h[x][v] for v in e.stalk_elems[x]} for x in pts}
    return None


# Budget.used of each search below, as the search that re-enumerated every
# matrix at every node spent it: one step per candidate tried.
PINNED_ISO_STEPS = [4, 18, 4, 18, 5, 100, 6, 100, 4, 294, 4, 294, 65, 178, 7, 294]


def test_module_isomorphism_witness_and_budget_match_the_unpruned_oracle():
    def mat_mul(x, y, p, k):
        return tuple(sum(x[k * i + s] * y[k * s + j] for s in range(k)) % p
                     for i in range(k) for j in range(k))

    rng = random.Random(5)
    used, outcomes = [], set()
    for p, rank in ((3, 1), (5, 1), (7, 1), (2, 2)):
        a = constant_algebra_sheaf(PC, make_field(p))
        acts = prime_field_actions(p, rank)
        mats = [m for m, _ in acts]
        ident = tuple(int(i == j) for i in range(rank) for j in range(rank))
        for same in (True, False, True, False):
            g = (rng.choice(mats), rng.choice(mats))
            c = rng.choice([m for m in mats if m != ident])
            x = rng.choice(mats)
            if same:  # retrivialize chart 0 by x and chart 1 by c: h = x g c
                h = tuple(mat_mul(mat_mul(x, m, p, rank), c, p, rank) for m in g)
            else:  # multiply the holonomy g_a^-1 g_b by c != 1
                h = (g[0], mat_mul(g[1], c, p, rank))
            e, f = glued_pc_bundle(a, rank, g), glued_pc_bundle(a, rank, h)
            budget = Budget()
            iso = find_module_isomorphism(e, f, budget=budget)
            expected = first_natural_assignment(e, f, acts)
            assert (iso and iso.maps) == expected, (p, rank, g, h)
            if same or rank == 1:
                assert (iso is not None) == same
            outcomes.add(iso is not None)
            used.append(budget.used)
    assert outcomes == {True, False}
    assert used == PINNED_ISO_STEPS


def test_module_isomorphism_lists_matrices_only_as_far_as_the_budget_reaches(monkeypatch):
    # rank 3 over F_5: 5^9 matrices.  Holonomy diag(2,1,1) against the
    # trivial bundle: no isomorphism, so the search runs until the budget
    # trips, with every point's candidates walked many times.
    listed = []

    def counted(r, k):
        for mat in invertible_matrices(r, k):
            listed.append(mat.entries)
            yield mat

    a = constant_algebra_sheaf(PC, make_field(5))
    ident = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    e, f = free_sheaf(a, 3), glued_pc_bundle(a, 3, (ident, (2, 0, 0, 0, 1, 0, 0, 0, 1)))
    monkeypatch.setattr(finalg_module, "invertible_matrices", counted)
    limit = 1000
    with pytest.raises(SearchBudgetExceeded):
        find_module_isomorphism(e, f, budget=Budget(limit))
    # each matrix is drawn at most once, in product order, and no further
    # than the (limit + 1)-th invertible one: the last candidate paid for
    assert 0 < len(listed) <= limit + 1
    expected = []
    for n, m in enumerate(itertools.product(range(5), repeat=9), 1):
        expected += [m] if is_invertible(Matrix(a.stalk_ring["a"], 3, 3, m)) else []
        if len(expected) == len(listed):
            break
    assert listed == expected
    assert n < 5 ** 9 // 100


def signed_permutations(k):
    """(row-major positions of the entries, odd) for each permutation of k."""
    out = []
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        out.append(([k * i + j for i, j in enumerate(perm)], inversions % 2))
    return out


def unit_determinant(r, perms, entries):
    """Oracle: the Leibniz determinant from the ring tables is a unit, which
    over a commutative ring is invertibility."""
    add, mul = r.add_table, r.mul_table
    det = r.zero
    for positions, odd in perms:
        term = r.one
        for i in positions:
            term = mul[term][entries[i]]
        det = add[det][r.neg(term) if odd else term]
    return r.one in mul[det]


@pytest.mark.parametrize("ring", [F2, F3, make_mod_ring(4)], ids=["F2", "F3", "Z4"])
def test_invertible_matrices_are_the_filtered_product(ring):
    """The rows grown depth first give the sequence that filtering the
    entry product by `is_invertible` gives, up to 20,000 matrices, and by
    a unit determinant at every k <= 3 (Z/4 at k = 3 has 4^9)."""
    for k in range(4):
        listed = [m.entries for m in invertible_matrices(ring, k)]
        product = list(itertools.product(ring.elements(), repeat=k * k))
        perms = signed_permutations(k)
        assert listed == [m for m in product if unit_determinant(ring, perms, m)]
        if len(product) <= 20_000:
            assert listed == [m for m in product if is_invertible(Matrix(ring, k, k, m))]


def test_module_isomorphism_keeps_listed_matrices_small():
    # each listed rank-3 action over F_5 is one tuple of its 125 images,
    # shared with the vector list: about 1 KB, where a {v: m v} dict is 4.7 KB
    a = constant_algebra_sheaf(PC, make_field(5))
    ident = (1, 0, 0, 0, 1, 0, 0, 0, 1)
    e, f = free_sheaf(a, 3), glued_pc_bundle(a, 3, (ident, (2, 0, 0, 0, 1, 0, 0, 0, 1)))
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded):
            find_module_isomorphism(e, f, budget=Budget(1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_cocycle_condition_violated():
    # entry not a section of A over the overlap: {a,b} germs must be free
    # to differ, but a non-invertible germ breaks the cocycle gate
    bad = TransitionCocycle(A3_PC, (UC, UD), 1, {(0, 1): (((0, 1),),)})
    with pytest.raises(CocycleConditionViolated):
        sheaf_from_cocycle(bad)


def test_cocycle_incompatible_entry_rejected():
    # on sierpinski the overlap X is connected: germs (1, 2) are not a section
    a = constant_algebra_sheaf(SIER, F3)
    bad = TransitionCocycle(a, (X_SIER, X_SIER), 1, {(0, 1): (((1, 2),),)})
    with pytest.raises(CocycleConditionViolated):
        sheaf_from_cocycle(bad)


def test_missing_transition_is_a_problem():
    """Overlapping charts with no transition either way are one problem per
    unordered pair; charts that do not overlap need none."""
    missing = TransitionCocycle(A3_PC, (UC, UD, X_PC), 1, {(0, 2): (((1, 1, 1),),)})
    assert validate_cocycle(missing) == ["no transition between charts 0 and 1",
                                         "no transition between charts 1 and 2"]
    with pytest.raises(CocycleConditionViolated,
                       match="no transition between charts 0 and 1"):
        sheaf_from_cocycle(missing)
    disjoint = TransitionCocycle(A2_D2, (frozenset("u"), frozenset("v")), 1, {})
    assert validate_cocycle(disjoint) == []


def test_reverse_transition_inverted_once_per_point(monkeypatch):
    """Given only (1, 0), the change (0, 1) is its inverse, computed once at
    each overlap point; the glued sheaf is the one (0, 1) given directly
    makes."""
    inverses = []
    invert = vecsheaf_module.inverse
    monkeypatch.setattr(vecsheaf_module, "inverse",
                        lambda m: inverses.append(m) or invert(m))
    reverse = sheaf_from_cocycle(
        TransitionCocycle(A3_PC, (UC, UD), 1, {(1, 0): (((1, 2),),)}))
    assert len(inverses) == 2
    direct = sheaf_from_cocycle(mobius_cocycle())
    assert reverse.sheaf.res == direct.sheaf.res
    assert reverse.trivializations == direct.trivializations


def test_validate_cocycle_guards_the_stalk_before_any_check(monkeypatch):
    """validate_cocycle refuses a glued stalk F_2^40 as sheaf_from_cocycle
    does, before any 40 x 40 germ is tested or inverted."""
    def unreachable(m):
        raise AssertionError("a germ was checked before the stalk guard")

    monkeypatch.setattr(vecsheaf_module, "is_invertible", unreachable)
    monkeypatch.setattr(vecsheaf_module, "inverse", unreachable)
    a = constant_algebra_sheaf(point_space(), F2)
    p = frozenset(a.space.points)
    ident = tuple(tuple((F2.one if r == c else F2.zero,) for c in range(40))
                  for r in range(40))
    reverse_only = TransitionCocycle(a, (p, p), 40, {(1, 0): ident})
    with pytest.raises(SpaceTooLarge, match=r"^glued sheaf of rank 40: stalk F_2\^40 "
                                            r"exceeds bound 100000 vectors$"):
        validate_cocycle(reverse_only)


def table_mul(r, k, x, y):
    """Row-major k x k product from the ring tables."""
    add, mul = r.add_table, r.mul_table
    return tuple(functools.reduce(lambda acc, t: add[acc][mul[x[k * i + t]][y[k * t + j]]],
                                  range(k), r.zero)
                 for i in range(k) for j in range(k))


def table_identity(r, k):
    return tuple(r.one if i == j else r.zero for i in range(k) for j in range(k))


def full_cocycle_scan(c):
    """Oracle: the problems of a cocycle whose transitions are sections with
    invertible germs, one on each overlapping pair of charts, from the ring
    tables alone: chart changes (identity, given, or a given one inverted by
    search over every matrix), then all m^3 ordered triples."""
    k, m = c.rank, len(c.cover)

    def germ(i, j, x):
        ov = sorted(c.cover[i] & c.cover[j])
        g = c.transitions[(i, j)]
        return tuple(g[r][col][ov.index(x)] for r in range(k) for col in range(k))

    @functools.lru_cache(maxsize=None)
    def change(i, j, x):
        r = c.base.stalk_ring[x]
        if i == j:
            return table_identity(r, k)
        if (i, j) in c.transitions:
            return germ(i, j, x)
        g = germ(j, i, x)
        return next(h for h in itertools.product(r.elements(), repeat=k * k)
                    if table_mul(r, k, g, h) == table_identity(r, k))

    problems = []
    for i, j, l in itertools.product(range(m), repeat=3):
        for x in sorted(c.cover[i] & c.cover[j] & c.cover[l]):
            r = c.base.stalk_ring[x]
            if table_mul(r, k, change(i, j, x), change(j, l, x)) != change(i, l, x):
                problems.append(f"cocycle condition fails ({i},{j},{l}) at {x!r}")
    return problems


@functools.lru_cache(maxsize=None)
def unit_matrices(r, k):
    """The k x k matrices over r with a unit determinant."""
    return [g for g in itertools.product(r.elements(), repeat=k * k)
            if unit_determinant(r, signed_permutations(k), g)]


def random_cocycle(rng, space, ring, k, m, corrupt):
    """A cocycle on m charts of space over ring at rank k: chart i carries
    matrices h_i, constant on each component of U_i, and g_ij = h_i h_j^-1.
    Each overlapping pair is given forward, backward or both ways.  With
    `corrupt`, some given transitions take a random invertible matrix on one
    component of their overlap."""
    whole = frozenset(space.points)
    opens = [u for u in enumerate_opens(space) if u]
    cover = [rng.choice(opens) for _ in range(m)]
    if frozenset().union(*cover) != whole:
        cover[0] = whole
    units = unit_matrices(ring, k)
    h = {}
    for i, u in enumerate(cover):
        for comp in components(space, u):
            g = rng.choice(units)
            h.update({(i, x): g for x in comp})

    def inverse_of(g):
        return next(v for v in units if table_mul(ring, k, g, v) == table_identity(ring, k))

    transitions = {}
    for i, j in itertools.combinations(range(m), 2):
        ov = sorted(cover[i] & cover[j])
        if not ov:
            continue
        for a, b in rng.choice([[(i, j)], [(j, i)], [(i, j), (j, i)]]):
            germs = {x: table_mul(ring, k, h[(a, x)], inverse_of(h[(b, x)])) for x in ov}
            if corrupt and rng.random() < 0.4:
                g = rng.choice(units)
                germs.update({x: g for x in rng.choice(components(space, frozenset(ov)))})
            transitions[(a, b)] = tuple(
                tuple(tuple(germs[x][k * r + col] for x in ov) for col in range(k))
                for r in range(k))
    return TransitionCocycle(constant_algebra_sheaf(space, ring), tuple(cover), k,
                             transitions)


def test_cocycle_problems_match_the_full_triple_scan():
    """validate_cocycle checks g_ij g_jl = g_il for i < j < l and the
    two-way pairs, and scans every triple only on a failure: its problems
    are the full scan's on 2-4 charts of five spaces, ranks 1-2, over F_2,
    F_3 and Z/4, with and without corrupted transitions."""
    rings = [F2, F3, make_mod_ring(4)]
    spaces = [point_space(), sierpinski(), chain3(), discrete2(), pseudo_circle()]
    seen = set()
    for seed in range(240):
        rng = random.Random(seed)
        c = random_cocycle(rng, rng.choice(spaces), rng.choice(rings), rng.choice([1, 2]),
                           rng.choice([2, 3, 4]), corrupt=seed % 2 == 1)
        problems = validate_cocycle(c)
        assert problems == full_cocycle_scan(c), seed
        two_way = any((j, i) in c.transitions for i, j in c.transitions if i < j)
        seen.add((bool(problems), two_way))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_a_two_way_pair_that_is_not_mutually_inverse_fails():
    """(0, 1) and (1, 0) both given, inverse at a but not at b: each
    triple through both directions fails at b, as the full scan says."""
    c = TransitionCocycle(A3_PC, (UC, UD), 1, {(0, 1): (((1, 1),),), (1, 0): (((1, 2),),)})
    expected = ["cocycle condition fails (0,1,0) at 'b'",
                "cocycle condition fails (1,0,1) at 'b'"]
    assert validate_cocycle(c) == full_cocycle_scan(c) == expected
    with pytest.raises(CocycleConditionViolated) as raised:
        sheaf_from_cocycle(c)
    assert str(raised.value) == "; ".join(expected)
    inverse_pair = TransitionCocycle(A3_PC, (UC, UD), 1,
                                     {(0, 1): (((1, 2),),), (1, 0): (((1, 2),),)})
    assert validate_cocycle(inverse_pair) == full_cocycle_scan(inverse_pair) == []


# -- morphisms ---------------------------------------------------------------

def test_identity_morphism_is_mono():
    e = free_sheaf(A2_SIER, 2)
    ident = ModuleMorphism(e, e, {x: {v: v for v in e.stalk_elems[x]}
                                  for x in SIER.points})
    assert validate_module_morphism(ident) == []
    assert is_monomorphism(ident)


def test_zero_morphism_not_mono():
    e = free_sheaf(A2_SIER, 1)
    zero = ModuleMorphism(e, e, {x: {v: (0,) for v in e.stalk_elems[x]}
                                 for x in SIER.points})
    assert validate_module_morphism(zero) == []
    assert not is_monomorphism(zero)


# -- weight families ---------------------------------------------------------

def test_trivial_weight_family_valid():
    assert validate_weights(trivial_weight_family(A3_PC)) == []


def test_indicator_weights_valid_on_discrete():
    cover = (frozenset({"u"}), frozenset({"v"}))
    w = WeightFamily(A2_D2, cover, ((1, 0), (0, 1)))
    assert validate_weights(w) == []


def test_no_proper_weight_family_on_pseudo_circle():
    # connectedness forces global sections to be constant, so any section
    # vanishing at one point vanishes everywhere
    assert enumerate_weight_families(A3_PC, (UC, UD)) == []


def test_weight_support_violation_reported():
    cover = (frozenset({"u"}), frozenset({"v"}))
    w = WeightFamily(A2_D2, cover, ((1, 1), (0, 1)))
    assert any("support" in msg for msg in validate_weights(w))


def listed_weight_problems(w):
    """Oracle for validate_weights: a weight is a global section when the
    listing of A's sections over the whole space holds it."""
    a = w.base
    pts = sorted(a.space.points)
    global_secs = set(a.sections(frozenset(pts)))
    if len(w.weights) != len(w.cover):
        return ["weight count differs from cover size"]
    problems = []
    for i, sec in enumerate(w.weights):
        if tuple(sec) not in global_secs:
            problems.append(f"weight {i} is not a global section")
            continue
        problems += [f"weight {i} has nonzero germ at {x!r} off its support"
                     for x, germ in zip(pts, sec)
                     if x not in w.cover[i] and germ != a.stalk_ring[x].zero]
    rings = [a.stalk_ring[x] for x in pts]
    return problems + [
        f"no weight has a unit germ at {x!r}" for j, (x, r) in enumerate(zip(pts, rings))
        if not any(x in w.cover[i] and j < len(sec) and sec[j] in r.elements()
                   and any(r.mul(sec[j], y) == r.one for y in r.elements())
                   for i, sec in enumerate(w.weights))]


def outcome(check, w):
    """The problem list, or the type of the error the check raises."""
    try:
        return check(w)
    except Exception as exc:
        return type(exc)


Q2 = make_quotient(2, [0, 0, 1])  # F_2[t]/(t^2), code c0 + 2 c1


def lifted_algebra_sheaf(space, lifted):
    """A over `space` with stalk F_2[t]/(t^2) at the points of `lifted` and
    F_2 elsewhere; a restriction from a lifted point to one that is not
    sets t = 0, and every other restriction keeps the code."""
    rings = {x: Q2 if x in lifted else F2 for x in space.points}
    return AlgebraSheaf(space, rings, {
        (x, y): tuple(c % rings[y].size for c in range(rings[x].size))
        for x in space.points for y in space.min_open[x]})


WEIGHT_ORACLE_SHEAVES = {
    "pseudo-circle F3": A3_PC,
    "pseudo-circle lifted": lifted_algebra_sheaf(PC, "cd"),
    "chain3 F3": constant_algebra_sheaf(chain3(), F3),
    "chain3 lifted": lifted_algebra_sheaf(chain3(), {"p2", "p3"}),
    "discrete2 F2": A2_D2,
    "discrete2 lifted": lifted_algebra_sheaf(D2, "u"),
}


@pytest.mark.parametrize("name", WEIGHT_ORACLE_SHEAVES)
def test_weight_check_matches_the_section_listing(name):
    """validate_weights, which checks each weight against A's restrictions,
    gives the listing oracle's problems (or its error) on global sections,
    random code tuples, wrong lengths and codes outside the stalk ring."""
    a = WEIGHT_ORACLE_SHEAVES[name]
    pts = sorted(a.space.points)
    secs = a.sections(frozenset(pts))
    opens = enumerate_opens(a.space)
    rng = random.Random(28)
    kinds = {kind: 0 for kind in ("section", "codes", "length", "range")}

    def weight():
        kind = rng.choice(list(kinds))
        kinds[kind] += 1
        if kind == "section":
            return rng.choice(secs)
        codes = [rng.randrange(a.stalk_ring[x].size) for x in pts]
        if kind == "length":
            return tuple(codes[:rng.randrange(len(pts))] if rng.random() < 0.5
                         else codes + [0])
        if kind == "range":
            j = rng.randrange(len(pts))
            codes[j] = rng.choice([-1, a.stalk_ring[pts[j]].size, 7])
        return tuple(codes)

    results = []
    for _ in range(400):
        cover = tuple(rng.choice(opens) for _ in range(rng.randint(1, 3)))
        count = len(cover) + (rng.random() < 0.1)
        w = WeightFamily(a, cover, tuple(weight() for _ in range(count)))
        results.append(outcome(validate_weights, w))
        assert results[-1] == outcome(listed_weight_problems, w), w.weights
    assert min(kinds.values()) > 50
    assert [] in results and any(isinstance(r, list) and r for r in results)


@pytest.mark.parametrize("weight", [(1, 1, 1), (1, 1, 1, 3), (1, 1, 1, -1)])
def test_a_weight_without_an_in_range_code_at_a_point_has_no_unit_germ_there(weight):
    """A short weight, or one whose code at d lies outside F_3, is reported
    as no global section, and no weight has a unit germ at d; -1 does not
    wrap to the unit 2."""
    w = WeightFamily(A3_PC, (X_PC,), (weight,))
    assert validate_weights(w) == ["weight 0 is not a global section",
                                   "no weight has a unit germ at 'd'"]


def test_section_checks_list_no_section_of_a(monkeypatch):
    """Weights and transition entries are checked against A's restrictions,
    so the weight check, the cocycle check, gluing and the embedding run
    with AlgebraSheaf.sections unavailable."""
    def listing(self, u):
        raise AssertionError("A's sections were listed")

    monkeypatch.setattr(AlgebraSheaf, "sections", listing)
    cover = (frozenset({"u"}), frozenset({"v"}))
    assert validate_weights(WeightFamily(A2_D2, cover, ((1, 0), (0, 1)))) == []
    assert validate_weights(WeightFamily(A2_D2, cover, ((1, 1), (0, 1)))) == [
        "weight 0 has nonzero germ at 'v' off its support"]
    chain = constant_algebra_sheaf(chain3(), F3)
    assert validate_weights(WeightFamily(chain, (frozenset(chain.space.points),),
                                         ((1, 2, 1),))) == ["weight 0 is not a global section"]
    assert validate_cocycle(mobius_cocycle()) == []
    bad = TransitionCocycle(A3_PC, (X_PC, UC), 1, {(0, 1): (((1, 1, 2),),)})
    assert validate_cocycle(bad) == [
        "transition (0,1) entry incompatible at 'c'->'a'",
        "transition (0,1) entry incompatible at 'c'->'b'"]
    glued = sheaf_from_cocycle(untwisted_cocycle())
    trivs = {0: {**glued.trivializations[1], **glued.trivializations[0]}}
    m = embed_via_weights(glued.sheaf, (X_PC,), trivs, trivial_weight_family(A3_PC), 1)
    assert is_monomorphism(m)


# -- the embedding -----------------------------------------------------------

def test_embed_trivial_cover_is_the_trivialization():
    e = free_sheaf(A2_SIER, 2)
    w = trivial_weight_family(A2_SIER)
    m = embed_via_weights(e, (X_SIER,),
                          {0: identity_trivialization(e, X_SIER, 2)}, w, 2)
    assert is_monomorphism(m)
    for x in SIER.points:
        for v in e.stalk_elems[x]:
            assert m.maps[x][v] == v


def test_embed_indicator_weights_on_discrete():
    e = free_sheaf(A2_D2, 1)
    cover = (frozenset({"u"}), frozenset({"v"}))
    w = WeightFamily(A2_D2, cover, ((1, 0), (0, 1)))
    trivs = {0: identity_trivialization(e, cover[0], 1),
             1: identity_trivialization(e, cover[1], 1)}
    m = embed_via_weights(e, cover, trivs, w, 1)
    assert is_monomorphism(m)
    assert next(iter(m.target.rank_at.values())) == 2


def test_embed_zero_sheaf_vacuously_mono():
    e = free_sheaf(A2_SIER, 0)
    w = trivial_weight_family(A2_SIER)
    m = embed_via_weights(e, (X_SIER,),
                          {0: identity_trivialization(e, X_SIER, 0)}, w, 0)
    assert is_monomorphism(m)


def test_embed_glued_sheaf_with_trivial_cover():
    glued = sheaf_from_cocycle(untwisted_cocycle())
    # the untwisted glue is free, so chart 0 extends to a global trivialization
    w = trivial_weight_family(A3_PC)
    trivs = {0: {x: (glued.trivializations[0][x]
                     if x in glued.trivializations[0]
                     else glued.trivializations[1][x])
                 for x in PC.points}}
    m = embed_via_weights(glued.sheaf, (X_PC,), trivs, w, 1)
    assert is_monomorphism(m)


def test_embed_rejects_invalid_weights():
    e = free_sheaf(A2_D2, 1)
    cover = (frozenset({"u"}), frozenset({"v"}))
    bad = WeightFamily(A2_D2, cover, ((1, 1), (0, 1)))
    with pytest.raises(InvalidWeights):
        embed_via_weights(e, cover,
                          {0: identity_trivialization(e, cover[0], 1),
                           1: identity_trivialization(e, cover[1], 1)},
                          bad, 1)


def test_embed_rejects_non_iso_trivialization():
    e = free_sheaf(A3_PC, 1)
    w = trivial_weight_family(A3_PC)
    zero_triv = {x: Matrix(F3, 1, 1, (0,)) for x in PC.points}
    with pytest.raises(TrivializationMismatch):
        embed_via_weights(e, (X_PC,), {0: zero_triv}, w, 1)


def test_embed_mono_for_every_valid_family():
    """Conditional embedding: weights in, monomorphism out, quantified over
    every valid weight family of the singleton cover of the discrete space."""
    cover = (frozenset({"u"}), frozenset({"v"}))
    e = free_sheaf(A2_D2, 1)
    trivs = {0: identity_trivialization(e, cover[0], 1),
             1: identity_trivialization(e, cover[1], 1)}
    families = enumerate_weight_families(A2_D2, cover)
    assert families
    for w in families:
        assert is_monomorphism(embed_via_weights(e, cover, trivs, w, 1))


# -- naturality on additive generators ----------------------------------------
#
# Sheaves that free_sheaf and sheaf_from_cocycle build restrict additively,
# and their naturality identities are read on the stalks' additive
# generators.  A ModuleSheaf built by hand may restrict by any map, and is
# read on every stalk vector; the oracles below read every vector always.

F5 = make_field(5)
A5_SIER = constant_algebra_sheaf(SIER, F5)
# fixes 0 and 1, swaps 2 and 3: agrees with the identity on the generator 1
SWAP_2_3 = {(0,): (0,), (1,): (1,), (2,): (3,), (3,): (2,), (4,): (4,)}


def by_hand(e, **res):
    """The module sheaf of e's data, built by hand (so not known to restrict
    additively), with the restrictions `res` (c->o as `co`) replaced."""
    pairs = {tuple(name): m for name, m in res.items()}
    return ModuleSheaf(e.base, e.rank_at, e.stalk_elems, {**e.res, **pairs})


def per_vector_problems(m):
    """Oracle for validate_module_morphism: every law and every naturality
    identity checked on every stalk vector."""
    problems = []
    for x in m.source.space.points:
        r, h = m.source.ring_at(x), m.maps[x]
        law = all_pairs_law(h, m.source.stalk_elems[x], r, r, r.elements())
        if law:
            problems.append(f"component at {x!r} not {law}")
        for y in m.source.space.min_open[x]:
            if any(m.target.res[(x, y)][h[v]] != m.maps[y][m.source.res[(x, y)][v]]
                   for v in m.source.stalk_elems[x]):
                problems.append(f"naturality fails {x!r}->{y!r}")
    return problems


def test_isomorphism_search_reads_every_vector_of_a_sheaf_built_by_hand():
    """c->o restricting by a map that is not additive but agrees with the
    identity on the generator 1: the search must find no isomorphism with
    the free line, as the per-vector oracle says, where naturality read on
    generators alone would accept the identity.  The same map as a base
    restriction makes free_sheaf's restriction not additive either."""
    free = free_sheaf(A5_SIER, 1)
    odd = by_hand(free, co=SWAP_2_3)
    odd_base = free_sheaf(AlgebraSheaf(SIER, {x: F5 for x in SIER.points},
                                       {("c", "o"): (0, 1, 3, 2, 4)}), 1)
    assert odd_base.res[("c", "o")] == SWAP_2_3
    acts = prime_field_actions(5, 1)
    for e, f in ((odd, free), (free, odd), (odd, odd), (by_hand(free), free),
                 (odd_base, free), (free, odd_base)):
        iso = find_module_isomorphism(e, f, budget=Budget())
        assert (iso and iso.maps) == first_natural_assignment(e, f, acts)
    assert find_module_isomorphism(odd, free) is None
    assert find_module_isomorphism(odd_base, free) is None
    assert find_module_isomorphism(odd, odd) is not None


def test_bundle_witnesses_do_not_depend_on_the_generator_reading():
    """Glued bundles are searched on generators; the same bundles built by
    hand are searched on every vector, with the same witness and steps."""
    rng = random.Random(7)
    for p, rank in ((3, 1), (5, 1), (2, 2)):
        a = constant_algebra_sheaf(PC, make_field(p))
        mats = [m for m, _ in prime_field_actions(p, rank)]
        for _ in range(3):
            e, f = (glued_pc_bundle(a, rank, (rng.choice(mats), rng.choice(mats)))
                    for _ in range(2))
            read_on_generators, read_on_vectors = Budget(), Budget()
            iso = find_module_isomorphism(e, f, budget=read_on_generators)
            again = find_module_isomorphism(by_hand(e), by_hand(f), budget=read_on_vectors)
            assert (iso and iso.maps) == (again and again.maps)
            assert read_on_generators.used == read_on_vectors.used


def test_morphism_check_reads_every_vector_unless_all_maps_are_additive():
    """Each case breaks naturality off the generator 1 only: a source built
    by hand, a component that is not additive, and (over F_4, where
    Frobenius is additive but not linear) a component read on generators
    because it passes additivity.  Every report is the per-vector one."""
    free = free_sheaf(A5_SIER, 1)
    ident = {x: {v: v for v in free.stalk_elems[x]} for x in SIER.points}
    f4 = make_quotient(2, [1, 1, 1])
    free4 = free_sheaf(constant_algebra_sheaf(SIER, f4), 1)
    frobenius = {(a,): (f4.mul(a, a),) for a in f4.elements()}
    cases = [
        (ModuleMorphism(by_hand(free, co=SWAP_2_3), free, ident),
         ["naturality fails 'c'->'o'"]),
        (ModuleMorphism(free, free, {**ident, "o": SWAP_2_3}),
         ["component at 'o' not additive", "naturality fails 'c'->'o'"]),
        (ModuleMorphism(free4, free4, {"c": {v: v for v in free4.stalk_elems["c"]},
                                       "o": frobenius}),
         ["component at 'o' not linear", "naturality fails 'c'->'o'"]),
        (ModuleMorphism(by_hand(free), by_hand(free), ident), []),
    ]
    for m, expected in cases:
        assert sorted(validate_module_morphism(m)) == sorted(expected)
        assert validate_module_morphism(m) == per_vector_problems(m)


def test_embedding_checks_a_trivialization_of_a_sheaf_built_by_hand_on_every_vector():
    """The identity trivializes the free line but not the sheaf whose c->o
    map swaps 2 and 3; naturality read on generators alone would pass it."""
    w = trivial_weight_family(A5_SIER)
    for e, natural in ((by_hand(free_sheaf(A5_SIER, 1), co=SWAP_2_3), False),
                       (by_hand(free_sheaf(A5_SIER, 1)), True)):
        psi = identity_trivialization(e, X_SIER, 1)
        oracle = all(psi[y].apply(e.res[(x, y)][v]) == psi[x].apply(v)
                     for x in SIER.points for y in SIER.min_open[x]
                     for v in e.stalk_elems[x])
        assert oracle == natural
        if natural:
            m = embed_via_weights(e, (X_SIER,), {0: psi}, w, 1)
            assert m.maps == embed_via_weights(free_sheaf(A5_SIER, 1), (X_SIER,),
                                               {0: psi}, w, 1).maps
        else:
            with pytest.raises(TrivializationMismatch,
                               match=r"^trivialization 0 not natural at 'c'->'o'$"):
                embed_via_weights(e, (X_SIER,), {0: psi}, w, 1)


def test_embedding_target_is_the_free_sheaf_listed_on_read():
    """The target A^(k m) restricts as free_sheaf's and lists the same
    stalks once one is read."""
    glued = sheaf_from_cocycle(untwisted_cocycle())
    trivs = {0: {x: (glued.trivializations[0][x] if x in glued.trivializations[0]
                     else glued.trivializations[1][x]) for x in PC.points}}
    target = embed_via_weights(glued.sheaf, (X_PC,), trivs,
                               trivial_weight_family(A3_PC), 1).target
    free = free_sheaf(A3_PC, 1)
    assert target.rank_at == free.rank_at
    for pair, m in free.res.items():
        assert {v: target.res[pair][v] for v in m} == m
    assert dict(target.stalk_elems) == free.stalk_elems
    assert target.stalk_elems["a"] is target.stalk_elems["d"]
    assert target.validate() == []


# -- the freeness kernel -----------------------------------------------------

def brute_span(r, gens):
    """Every R-combination of `gens`, from the ring tables alone."""
    out = set()
    for coeffs in itertools.product(range(r.size), repeat=len(gens)):
        v = (r.zero,) * len(gens[0])
        for c, g in zip(coeffs, gens):
            v = tuple(r.add_table[a][r.mul_table[c][b]] for a, b in zip(v, g))
        out.add(v)
    return out


def brute_free(amb, family, u, k):
    """First k-tuple of compatible sections, in combinations order, whose
    germs span |R|^k vectors at every point: a scan of every tuple."""
    pts = sorted(u)
    if not pts:
        return True, ()
    rings = [amb.ring_at(x) for x in pts]
    if any(len(family[x]) != r.size ** k for x, r in zip(pts, rings)):
        return False, None
    if k == 0:
        return True, ()
    secs = [sec for sec in itertools.product(*[sorted(family[x]) for x in pts])
            if all(amb.res[(x, y)][sec[i]] == sec[pts.index(y)]
                   for i, x in enumerate(pts) for y in amb.space.min_open[x])]
    for combo in itertools.combinations(secs, k):
        if all(len(brute_span(r, [sec[i] for sec in combo])) == r.size ** k
               for i, r in enumerate(rings)):
            return True, combo
    return False, None


def assert_freeness_matches_brute(amb, subs_by_size, k_max):
    """Every subsheaf over every open with stalks of one size |R|^d drawn
    from `subs_by_size`, against the brute scan for k in 0..k_max."""
    space = amb.space
    for u in enumerate_opens(space):
        pts = sorted(u)
        for subs in subs_by_size.values():
            for choice in itertools.product(subs, repeat=len(pts)):
                family = dict(zip(pts, choice))
                s = make_subsheaf(amb, family)
                for k in range(k_max + 1):
                    assert is_free_of_rank(s, u, k) == \
                        brute_free(amb, family, u, k), (pts, k)


@pytest.mark.parametrize("make", [point_space, sierpinski, chain3, discrete2,
                                  pseudo_circle])
@pytest.mark.parametrize("ring", [F2, F3, make_mod_ring(4)],
                         ids=["F2", "F3", "Z4"])
def test_freeness_matches_a_brute_scan(make, ring):
    """Constant ambients A^n, n in 1..2, one per n; over Z/4 some stalks of
    4 elements are not free (2(Z/4)^2), so some verdicts turn on the span
    size rather than the stalk size."""
    a = constant_algebra_sheaf(make(), ring)
    for n in (1, 2):
        vecs = list(itertools.product(range(ring.size), repeat=n))
        subs = {frozenset(brute_span(ring, gens)) if gens
                else frozenset({(ring.zero,) * n})
                for d in range(n + 1) for gens in itertools.product(vecs, repeat=d)}
        by_size = {d: sorted(w for w in subs if len(w) == ring.size ** d)
                   for d in range(n + 1)}
        assert_freeness_matches_brute(free_sheaf(a, n), by_size, n + 1)


def test_freeness_reads_the_family_below_the_maximal_points():
    """span{(1,0)} at c and span{(0,1)} at o is not closed under restriction:
    the germ (1,0) drawn at c restricts out of the family at o, so the only
    section is zero and the family is not free of rank 1."""
    amb = free_sheaf(A2_SIER, 2)
    s = make_subsheaf(amb, {"c": frozenset({(0, 0), (1, 0)}),
                             "o": frozenset({(0, 0), (0, 1)})})
    assert validate_subsheaf(s)
    assert subsheaf_sections(s, X_SIER) == [((0, 0), (0, 0))]
    assert is_free_of_rank(s, X_SIER, 1) == (False, None)


@pytest.mark.parametrize("ring, family", [
    (F3, {(0, 0), (1, 0), (0, 1)}),
    (F2, {(1, 0), (0, 1)}),
], ids=["F3-three-vectors", "F2-pair"])
def test_a_family_that_is_no_submodule_is_not_free(ring, family):
    """|R| vectors of R^2 at one point, as many as a line holds, that no
    line spans: the first section's germ spans a line outside the family,
    so there is no witness, and the section map refuses the family."""
    from sheafkit.errors import NotLocallyFree
    from sheafkit.grassmann import subsheaf_to_section
    p = frozenset({"p"})
    s = make_subsheaf(free_sheaf(constant_algebra_sheaf(point_space(), ring), 2),
                      {"p": frozenset(family)})
    assert validate_subsheaf(s) == ["family at 'p' is not a submodule"]
    assert is_free_of_rank(s, p, 1) == (False, None)
    assert not is_locally_free(s, p, 1)
    with pytest.raises(NotLocallyFree):
        subsheaf_to_section(s, 1)


def test_freeness_matches_a_brute_scan_on_the_mobius_sheaf():
    """The glued Mobius line is locally free but not free: the full stalks
    have the right size and no global section spans them."""
    e = sheaf_from_cocycle(mobius_cocycle()).sheaf
    assert_freeness_matches_brute(
        e, {0: [frozenset({(F3.zero,)})], 1: [frozenset(e.stalk_elems["a"])]}, 2)
    assert not is_free_of_rank(full_subsheaf(e, X_PC), X_PC, 1)[0]


def test_repeated_freeness_question_is_answered_and_charged_alike():
    amb = free_sheaf(A3_PC, 2)
    first = full_subsheaf(amb, X_PC)
    again = make_subsheaf(amb, {x: frozenset(set(first.family_at(x)))
                               for x in PC.points})
    assert again == first and again.family_at("a") is not first.family_at("a")
    b = Budget()
    answer = is_free_of_rank(first, X_PC, 2, b)
    used = b.used
    assert answer[0] and used > 1
    assert is_free_of_rank(again, X_PC, 2, b) == answer
    assert b.used == 2 * used
    short = Budget(2 * used - 1)
    assert is_free_of_rank(first, X_PC, 2, short) == answer
    with pytest.raises(SearchBudgetExceeded, match="freeness search exceeded"):
        is_free_of_rank(again, X_PC, 2, short)


def test_spent_freeness_budget_names_its_open_rank_and_count():
    """On a first and on a repeated search alike, a spent budget keeps its
    message and adds the open, the rank and the steps used."""
    b = Budget()
    is_free_of_rank(full_subsheaf(free_sheaf(A3_PC, 2), X_PC), X_PC, 2, b)
    used = b.used
    message = (f"freeness search exceeded the budget of {used - 1} steps over open "
               f"['a', 'b', 'c', 'd'] at rank 2, {used} steps used")
    with pytest.raises(SearchBudgetExceeded) as searched:
        is_free_of_rank(full_subsheaf(free_sheaf(A3_PC, 2), X_PC), X_PC, 2,
                        Budget(used - 1))
    assert str(searched.value) == message
    amb = free_sheaf(A3_PC, 2)
    is_free_of_rank(full_subsheaf(amb, X_PC), X_PC, 2)
    with pytest.raises(SearchBudgetExceeded) as repeated:
        is_free_of_rank(full_subsheaf(amb, X_PC), X_PC, 2, Budget(used - 1))
    assert str(repeated.value) == message
