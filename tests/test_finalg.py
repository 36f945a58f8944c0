import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit.errors import NotAField, NotPrime, RingError, SearchBudgetExceeded
from sheafkit.finalg import (
    DEFAULT_MAX_RING_SIZE,
    FinRing,
    Matrix,
    RingMorphism,
    Submodule,
    all_vecs,
    det,
    enumerate_free_submodules,
    enumerate_submodules_brute,
    find_ring_isomorphism,
    gaussian_binomial,
    identity_matrix,
    is_field,
    is_invertible,
    is_unit,
    make_field,
    make_mod_ring,
    make_product,
    make_quotient,
    validate_morphism,
)

F2 = make_field(2)
F3 = make_field(3)
Z4 = make_mod_ring(4)
Z6 = make_mod_ring(6)
DUAL = make_quotient(2, [0, 0, 1])   # F_2[t]/(t^2)
F4 = make_quotient(2, [1, 1, 1])     # F_2[t]/(t^2+t+1)
PROD22 = make_product(F2, F2)

RINGS = [F2, F3, Z4, Z6, DUAL, F4, PROD22]


def name_code(r, name):
    return r.names.index(name)


def test_make_field_requires_prime():
    with pytest.raises(NotPrime):
        make_field(4)


def test_make_field_f2():
    assert F2.size == 2 and F2.mul(1, 1) == 1


def test_quotient_dual_numbers_nilpotent():
    t = name_code(DUAL, "t")
    assert DUAL.size == 4
    assert DUAL.mul(t, t) == DUAL.zero


def test_quotient_f4_is_field():
    assert is_field(F4)


def test_product_has_no_nonzero_nilpotents():
    assert PROD22.size == 4

    def nilpotent(x):
        power = x
        for _ in range(PROD22.size):
            if power == PROD22.zero:
                return True
            power = PROD22.mul(power, x)
        return power == PROD22.zero

    assert not any(nilpotent(x) for x in PROD22.elements() if x != PROD22.zero)


@pytest.mark.parametrize("r", RINGS, ids=lambda r: r.label)
def test_ring_axioms_hold(r):
    assert r.check_axioms() == []


def test_corrupted_table_rejected():
    add = [list(row) for row in F2.add_table]
    add[1][1] = 1  # breaks inverses / associativity
    with pytest.raises(RingError):
        FinRing(F2.names, add, F2.mul_table, F2.zero, F2.one)


class TableBuilt(Exception):
    pass


def test_ring_size_guard_refuses_before_building(monkeypatch):
    z11, z12 = make_mod_ring(11), make_mod_ring(12)

    def table_built(*args, **kwargs):
        raise TableBuilt

    monkeypatch.setattr(FinRing, "__init__", table_built)
    with pytest.raises(SearchBudgetExceeded, match="ring size 1099511627776 "
                                                   "exceeds bound 128"):
        make_quotient(2, [0] * 40 + [1])
    for too_large in (lambda: make_mod_ring(DEFAULT_MAX_RING_SIZE + 1),
                      lambda: make_field(131), lambda: make_field(2 ** 61 - 1),
                      lambda: make_quotient(3, [0] * 5 + [1]),
                      lambda: make_quotient(131, [0, 1]),
                      lambda: make_product(z11, z12)):
        with pytest.raises(SearchBudgetExceeded, match="exceeds bound 128"):
            too_large()
    # at the bound the tables are built
    for at_bound in (lambda: make_mod_ring(DEFAULT_MAX_RING_SIZE),
                     lambda: make_quotient(2, [0] * 7 + [1]),
                     lambda: make_product(make_mod_ring(8), make_mod_ring(16))):
        with pytest.raises(TableBuilt):
            at_bound()


def test_is_unit_examples():
    assert is_unit(F2, F2.one)
    assert not is_unit(DUAL, name_code(DUAL, "t"))
    assert not is_unit(Z6, 2)
    assert is_unit(Z6, 5)


# -- determinants ------------------------------------------------------------

def det_by_permutations(m):
    """Oracle: signed permutation-sum definition."""
    r = m.ring
    acc = r.zero
    for perm in itertools.permutations(range(m.rows)):
        term = r.one
        for i, j in enumerate(perm):
            term = r.mul(term, m.at(i, j))
        inversions = sum(1 for a in range(m.rows) for b in range(a + 1, m.rows)
                         if perm[a] > perm[b])
        acc = r.add(acc, term if inversions % 2 == 0 else r.neg(term))
    return acc


def test_det_examples():
    assert det(identity_matrix(F2, 3)) == F2.one
    m = Matrix(F2, 2, 2, (1, 1, 0, 1))
    assert det(m) == F2.one and is_invertible(m)
    t = name_code(DUAL, "t")
    m2 = Matrix(DUAL, 2, 2, (t, DUAL.zero, DUAL.zero, DUAL.one))
    assert det(m2) == t and not is_invertible(m2)


@pytest.mark.parametrize("r", [F2, F3, Z6, DUAL], ids=lambda r: r.label)
def test_det_matches_permutation_sum(r):
    for size in (2, 3):
        grids = itertools.product(r.elements(), repeat=size * size)
        # deterministic thinning for the larger rings
        step = max(1, (r.size ** (size * size)) // 200)
        for i, entries in enumerate(grids):
            if i % step:
                continue
            m = Matrix(r, size, size, entries)
            assert det(m) == det_by_permutations(m)


@pytest.mark.parametrize("r", [F2, F3, Z6, DUAL], ids=lambda r: r.label)
def test_invertible_iff_bijective(r):
    # over a commutative ring, M is invertible iff v -> Mv is a bijection
    for size in (1, 2):
        for entries in itertools.product(r.elements(), repeat=size * size):
            m = Matrix(r, size, size, entries)
            image = {m.apply(v) for v in all_vecs(r, size)}
            assert is_invertible(m) == (len(image) == r.size ** size)


# -- free submodules ---------------------------------------------------------

def test_enumerate_free_submodules_counts():
    assert len(enumerate_free_submodules(F2, 2, 1)) == 3
    assert len(enumerate_free_submodules(F2, 4, 2)) == 35
    assert len(enumerate_free_submodules(F3, 3, 1)) == 13


def test_enumerate_free_submodules_rank_zero():
    subs = enumerate_free_submodules(Z6, 3, 0)
    assert len(subs) == 1 and len(subs[0].elements) == 1


def test_enumerate_free_submodules_rejects_non_field():
    with pytest.raises(NotAField):
        enumerate_free_submodules(Z6, 2, 1)


@pytest.mark.parametrize("q,r", [(2, F2), (3, F3)])
def test_counts_match_gaussian_binomial(q, r):
    for n in range(5):
        for k in range(n + 1):
            assert len(enumerate_free_submodules(r, n, k)) == \
                gaussian_binomial(n, k, q)


@pytest.mark.parametrize("r,n,k", [
    (F2, 2, 1), (F2, 3, 1), (F2, 3, 2), (F2, 4, 2), (F2, 4, 3),
    (F3, 2, 1), (F3, 3, 1), (F3, 3, 2),
])
def test_enumeration_matches_brute_force_spans(r, n, k):
    echelon = enumerate_free_submodules(r, n, k)
    brute = enumerate_submodules_brute(r, n, k)
    assert [s.elements for s in echelon] == [s.elements for s in brute]


def test_submodule_validate():
    line = enumerate_free_submodules(F2, 2, 1)[0]
    assert line.validate()
    bad = Submodule(F2, 2, frozenset({(1, 0)}))
    assert not bad.validate()


# -- isomorphism search ------------------------------------------------------

def test_iso_identity_on_f2():
    f = find_ring_isomorphism(F2, F2)
    assert f is not None and f.assignment == (0, 1)


def test_iso_absent_different_sizes():
    assert find_ring_isomorphism(DUAL, F2) is None


def test_iso_absent_nilpotent_obstruction():
    assert find_ring_isomorphism(DUAL, PROD22) is None


def test_iso_absent_characteristic_obstruction():
    assert find_ring_isomorphism(DUAL, Z4) is None


def test_iso_found_for_equal_rings():
    f = find_ring_isomorphism(DUAL, DUAL)
    assert f is not None and validate_morphism(f)


@pytest.mark.parametrize("r", RINGS, ids=lambda r: r.label)
@pytest.mark.parametrize("s", RINGS, ids=lambda r: r.label)
def test_iso_search_symmetric(r, s):
    assert (find_ring_isomorphism(r, s) is None) == \
        (find_ring_isomorphism(s, r) is None)


def test_morphism_validation():
    rho = RingMorphism(DUAL, F2, tuple(c % 2 for c in range(4)))
    assert validate_morphism(rho)
    bad = RingMorphism(DUAL, F2, (0, 0, 0, 0))
    assert not validate_morphism(bad)


# -- algebraic law property tests -------------------------------------------

ring_strategy = st.sampled_from(RINGS)


@given(ring_strategy, st.data())
@settings(max_examples=200, deadline=None)
def test_ring_laws_random_elements(r, data):
    a = data.draw(st.integers(0, r.size - 1))
    b = data.draw(st.integers(0, r.size - 1))
    c = data.draw(st.integers(0, r.size - 1))
    assert r.add(a, b) == r.add(b, a)
    assert r.mul(a, r.add(b, c)) == r.add(r.mul(a, b), r.mul(a, c))
    assert r.add(a, r.neg(a)) == r.zero


@given(st.sampled_from([F2, F3, DUAL]), st.data())
@settings(max_examples=100, deadline=None)
def test_det_is_multiplicative(r, data):
    size = data.draw(st.integers(1, 2))
    ents = st.integers(0, r.size - 1)
    m1 = Matrix(r, size, size,
                tuple(data.draw(ents) for _ in range(size * size)))
    m2 = Matrix(r, size, size,
                tuple(data.draw(ents) for _ in range(size * size)))
    assert det(m1.mul(m2)) == r.mul(det(m1), det(m2))
