import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafkit.errors import NonSquare, NotAField, NotPrime, RingError, SpaceTooLarge
from sheafkit.finalg import (
    DEFAULT_ISO_SEARCH_BOUND,
    DEFAULT_MAX_RING_SIZE,
    FinRing,
    Matrix,
    RingMorphism,
    Submodule,
    all_vecs,
    enumerate_free_submodules,
    enumerate_submodules_brute,
    find_ring_isomorphism,
    gaussian_binomial,
    identity_matrix,
    inverse,
    is_field,
    is_invertible,
    is_unit,
    make_field,
    make_mod_ring,
    make_product,
    make_quotient,
    ring_from_ops,
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


# -- the table constructors against per-pair oracles -------------------------

def oracle_poly_name(coeffs):
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            power = "" if i == 0 else "t" if i == 1 else f"t^{i}"
            terms.append(str(c) if i == 0 else power if c == 1 else f"{c}{power}")
    return "+".join(reversed(terms)) or "0"


def quotient_oracle(p, poly):
    """Names, add and mul tables and label of F_p[t]/(poly), code sum(c_i p^i):
    both operands decoded, polynomials multiplied, the product reduced by
    long division.  Shares no code with `make_quotient`."""
    f = [c % p for c in poly]
    while f[-1] == 0:
        f.pop()
    d = len(f) - 1
    size = p ** d

    def decode(code):
        return [code // p ** i % p for i in range(d)]

    def encode(cs):
        return sum(c % p * p ** i for i, c in enumerate(cs))

    def reduce(cs):
        cs = list(cs)
        for top in range(len(cs) - 1, d - 1, -1):
            lead = cs[top]
            for i in range(d + 1):
                cs[top - d + i] -= lead * f[i]
        return cs[:d]

    add, mul = [], []
    for a in range(size):
        ca = decode(a)
        add.append([encode([x + y for x, y in zip(ca, decode(b))]) for b in range(size)])
        row = []
        for b in range(size):
            prod = [0] * (2 * d - 1)
            for i, x in enumerate(ca):
                for j, y in enumerate(decode(b)):
                    prod[i + j] += x * y
            row.append(encode(reduce(prod)))
        mul.append(row)
    names = tuple(oracle_poly_name(decode(a)) for a in range(size))
    return names, add, mul, f"F_{p}[t]/({oracle_poly_name(f)})"


def assert_quotient_matches_oracle(p, poly):
    r = make_quotient(p, poly)
    names, add, mul, label = quotient_oracle(p, poly)
    assert r.names == names, (p, poly)
    assert r.add_table == tuple(map(tuple, add)), (p, poly)
    assert r.mul_table == tuple(map(tuple, mul)), (p, poly)
    assert r.label == label
    assert (r.zero, r.one) == (0, 1)


PRIMES_TO_128 = [p for p in range(2, 129) if all(p % q for q in range(2, p))]


def test_quotient_tables_match_the_oracle_on_every_monic_poly_to_32():
    count = 0
    for p in [p for p in PRIMES_TO_128 if p <= 32]:
        d = 1
        while p ** d <= 32:
            for low in itertools.product(range(p), repeat=d):
                assert_quotient_matches_oracle(p, list(low) + [1])
                count += 1
            d += 1
    assert count == 62 + 39 + 30 + sum(p for p in PRIMES_TO_128 if 7 <= p <= 32)


@pytest.mark.parametrize("p,d", [(7, 2), (2, 6), (3, 4), (11, 2), (5, 3), (2, 7)],
                         ids=lambda v: str(v))
def test_quotient_tables_match_the_oracle_on_sampled_polys(p, d):
    rng = random.Random(p ** d)
    for _ in range(2):
        assert_quotient_matches_oracle(p, [rng.randrange(p) for _ in range(d)] + [1])


@pytest.mark.parametrize("p,poly", [
    (3, [-1, 0, 1]),           # negative coefficient
    (3, [5, 7, 4]),            # coefficients >= p, leading 4 = 1 mod 3
    (5, [-3, 12, -4, 6, 0]),   # both, and a trailing zero
    (2, [1, 1, 0, 1, 0, 0]),   # trailing zeros
    (7, [-7, 8]),              # degree 1: t + 0
])
def test_quotient_tables_match_the_oracle_on_unreduced_input(p, poly):
    assert_quotient_matches_oracle(p, poly)


def product_components(rings):
    """Per code of the left-nested product of `rings`, its component codes."""
    codes = [()]
    for r in rings:
        codes = [c + (x,) for c in codes for x in range(r.size)]
    return codes


def test_product_tables_match_componentwise_divmod():
    z3, z4 = make_mod_ring(3), make_mod_ring(4)
    # F_2 with 0 and 1 coded the other way round: zero is code 1, one code 0
    swapped = ring_from_ops([1, 0], lambda a, b: (a + b) % 2, lambda a, b: a * b,
                            0, 1, label="F_2'")
    assert (swapped.zero, swapped.one) == (1, 0)
    for rings in ([F2, z3], [z4, DUAL], [F4, Z6], [F2, z3, z4], [DUAL, F2, F3],
                  [Z6, PROD22], [swapped, z3], [z3, swapped, F2], [swapped, swapped]):
        prod = rings[0]
        for r in rings[1:]:
            prod = make_product(prod, r)
        # the left-nested code is the mixed-radix code of the components
        comps = product_components(rings)
        assert len(comps) == prod.size
        for x, cx in enumerate(comps):
            for y, cy in enumerate(comps):
                assert comps[prod.add_table[x][y]] == tuple(
                    r.add_table[a][b] for r, a, b in zip(rings, cx, cy))
                assert comps[prod.mul_table[x][y]] == tuple(
                    r.mul_table[a][b] for r, a, b in zip(rings, cx, cy))
        assert comps[prod.zero] == tuple(r.zero for r in rings)
        assert comps[prod.one] == tuple(r.one for r in rings)
    # right-nested: the code is the divmod of the outer product
    inner = make_product(F3, F2)
    nested = make_product(DUAL, inner)
    for x in nested.elements():
        a, b = divmod(x, inner.size)
        for y in nested.elements():
            c, d = divmod(y, inner.size)
            assert divmod(nested.add_table[x][y], inner.size) == (
                DUAL.add_table[a][c], inner.add_table[b][d])
            assert divmod(nested.mul_table[x][y], inner.size) == (
                DUAL.mul_table[a][c], inner.mul_table[b][d])
        assert nested.names[x] == f"({DUAL.names[a]},{inner.names[b]})"
    assert divmod(nested.zero, inner.size) == (DUAL.zero, inner.zero)
    assert divmod(nested.one, inner.size) == (DUAL.one, inner.one)
    assert nested.label == "F_2[t]/(t^2)xF_3xF_2"


@pytest.mark.parametrize("r", RINGS, ids=lambda r: r.label)
def test_ring_axioms_hold(r):
    assert r.check_axioms() == []


def test_corrupted_table_rejected():
    add = [list(row) for row in F2.add_table]
    add[1][1] = 1  # breaks inverses / associativity
    with pytest.raises(RingError):
        FinRing(F2.names, add, F2.mul_table, F2.zero, F2.one)


# -- the axiom check against a cubic oracle ----------------------------------

def cubic_axioms_hold(add, mul, zero, one):
    """Oracle: every commutative unital ring axiom at every element, pair
    and triple.  Shares no code with `FinRing.check_axioms`."""
    n = len(add)
    rng = range(n)
    if n > 1 and zero == one:
        return False
    for a in rng:
        if add[a][zero] != a or mul[a][one] != a:
            return False
        if all(add[a][b] != zero for b in rng):
            return False
        for b in rng:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                return False
            for c in rng:
                if (add[add[a][b]][c] != add[a][add[b][c]]
                        or mul[mul[a][b]][c] != mul[a][mul[b][c]]
                        or mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]):
                    return False
    return True


def violated_axiom(problem, add, mul, zero, one):
    """The axiom a `check_axioms` message names ("add associative", ...), if
    its witness really violates it; None if it does not."""
    ops = {"add": add, "mul": mul}
    checks = [
        (r"(\d+)\+0 != \1", "add identity", lambda a: add[a][zero] != a),
        (r"(\d+)\*1 != \1", "mul identity", lambda a: mul[a][one] != a),
        (r"(\d+) has no additive inverse", "inverse", lambda a: zero not in add[a]),
        (r"(add|mul) not commutative at \((\d+),(\d+)\)", "{} commutative",
         lambda op, a, b: ops[op][a][b] != ops[op][b][a]),
        (r"(add|mul) not associative at \((\d+),(\d+),(\d+)\)", "{} associative",
         lambda op, a, b, c: ops[op][ops[op][a][b]][c] != ops[op][a][ops[op][b][c]]),
        (r"distributivity fails at \((\d+),(\d+),(\d+)\)", "distributive",
         lambda a, b, c: mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]),
        (r"0 == 1 in a nontrivial ring", "nontrivial", lambda: zero == one),
    ]
    for pattern, axiom, violated in checks:
        m = re.fullmatch(pattern, problem)
        if m:
            args = [int(g) if g.isdigit() else g for g in m.groups()]
            return axiom.format(*args) if violated(*args) else None
    return None


def distinct_rings(limit):
    """Every ring `make_mod_ring`, `make_quotient` and `make_product` (nested
    once) build with at most `limit` elements, one per distinct table."""
    base = [make_mod_ring(m) for m in range(2, limit + 1)]
    for p in (2, 3, 5, 7, 11, 13):
        d = 1
        while p ** d <= limit:
            base += [make_quotient(p, list(low) + [1])
                     for low in itertools.product(range(p), repeat=d)]
            d += 1
    products = [make_product(r, s) for r in base for s in base
                if r.size * s.size <= limit]
    nested = [make_product(r, s) for r, s in itertools.product(base + products, repeat=2)
              if r.size * s.size <= limit]
    seen, out = set(), []
    for r in base + nested:
        key = (r.add_table, r.mul_table, r.zero, r.one)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


SMALL_RINGS = distinct_rings(16)


def ring_of_size(rng, size, kind):
    """A ring of one kind ("Zm", "quotient", "product") with `size`
    elements: Z/size, F_p[t]/(f) for a random monic f of degree d when size
    is p^d, or a product split at a random divisor with random kinds."""
    if kind == "Zm":
        return make_mod_ring(size)
    if kind == "quotient":
        p = next(p for p in PRIMES_TO_128 if size % p == 0)
        d = next(d for d in range(1, size) if p ** d == size)
        return make_quotient(p, [rng.randrange(p) for _ in range(d)] + [1])
    a = rng.choice([a for a in range(2, size) if size % a == 0])
    return make_product(*(ring_of_size(rng, b, rng.choice(size_kinds(b)))
                          for b in (a, size // a)))


def size_kinds(size):
    """The kinds with a ring of `size` elements."""
    p = next(p for p in PRIMES_TO_128 if size % p == 0)
    return (["Zm"] + ["quotient"] * any(p ** d == size for d in range(1, size))
            + ["product"] * (size != p))


def test_axiom_check_agrees_with_the_cubic_oracle_on_built_rings():
    """The constructors skip the axiom check (`finalg._constructed`), so the
    check and the cubic oracle run here on their output: every ring of at
    most 16 elements, one ring of each kind at every size ring-search
    builds (12-64), and a sample above that up to the size guard."""
    assert len(SMALL_RINGS) > 100
    rng = random.Random(11)
    per_kind = [ring_of_size(rng, size, kind)
                for size in range(12, 65) for kind in size_kinds(size)]
    assert len(per_kind) == 53 + 19 + 40  # Z/m; prime powers; composites
    above = [ring_of_size(rng, size, kind) for size, kind in
             [(72, "product"), (81, "quotient"), (100, "Zm"),
              (DEFAULT_MAX_RING_SIZE, "quotient")]]
    for r in SMALL_RINGS + per_kind + above:
        assert r.check_axioms() == [], r.label
        assert cubic_axioms_hold(r.add_table, r.mul_table, r.zero, r.one), r.label


def test_axiom_check_agrees_with_the_cubic_oracle_on_corrupted_tables():
    """One entry, a symmetric pair (which keeps commutativity, so the checks
    in three variables are reached) or two entries changed at random."""
    rng = random.Random(11)
    verdicts = {True: 0, False: 0}
    for trial in range(10000):
        r = rng.choice(SMALL_RINGS)
        n = r.size
        add = [list(row) for row in r.add_table]
        mul = [list(row) for row in r.mul_table]
        table = rng.choice((add, mul))
        for _ in range(1 + trial % 2):
            i, j = rng.randrange(n), rng.randrange(n)
            v = rng.choice([x for x in range(n) if x != table[i][j]])
            table[i][j] = v
            if trial % 3:
                table[j][i] = v
        expected = cubic_axioms_hold(add, mul, r.zero, r.one)
        verdicts[expected] += 1
        try:
            FinRing(r.names, add, mul, r.zero, r.one)
        except RingError as exc:
            assert not expected, (r.label, add, mul)
            problems = str(exc).split("; ")
            axioms = [violated_axiom(p, add, mul, r.zero, r.one) for p in problems]
            assert None not in axioms, (r.label, problems)
            assert len(set(axioms)) == len(axioms), problems
        else:
            assert expected, (r.label, add, mul)
    assert verdicts[False] > 9000 and verdicts[True] > 0


@pytest.mark.parametrize("r", [Z4, PROD22], ids=lambda r: r.label)
@pytest.mark.parametrize("op", ["add", "mul"])
def test_axiom_check_agrees_with_the_cubic_oracle_on_every_table_of_four_elements(r, op):
    """Every commutative table with the right identity row in place of one of
    r's tables: loops, non-associative and non-distributive products."""
    unit = r.zero if op == "add" else r.one
    free = [(a, b) for a in range(4) for b in range(a, 4) if unit not in (a, b)]
    accepted = 0
    for values in itertools.product(range(4), repeat=len(free)):
        table = [list(row) for row in (r.add_table if op == "add" else r.mul_table)]
        for (a, b), v in zip(free, values):
            table[a][b] = table[b][a] = v
        add, mul = (table, r.mul_table) if op == "add" else (r.add_table, table)
        expected = cubic_axioms_hold(add, mul, r.zero, r.one)
        try:
            FinRing(r.names, add, mul, r.zero, r.one)
        except RingError as exc:
            assert not expected, table
            axioms = [violated_axiom(p, add, mul, r.zero, r.one)
                      for p in str(exc).split("; ")]
            assert None not in axioms, (table, str(exc))
        else:
            assert expected, table
            accepted += 1
    assert accepted > 0


def test_axiom_check_agrees_with_the_cubic_oracle_on_every_f2_algebra_of_dimension_3():
    """Every commutative unital F_2-bilinear product on F_2^3 (code = bit
    vector, 1 the unit): distributive by construction, associative or not."""
    add = [[a ^ b for b in range(8)] for a in range(8)]
    names = [str(c) for c in range(8)]
    outcomes = set()
    for e11, e12, e22 in itertools.product(range(8), repeat=3):
        basis = [[1, 2, 4], [2, e11, e12], [4, e12, e22]]
        mul = [[0] * 8 for _ in range(8)]
        for a, b in itertools.product(range(8), repeat=2):
            for i, j in itertools.product(range(3), repeat=2):
                if a >> i & 1 and b >> j & 1:
                    mul[a][b] ^= basis[i][j]
        expected = cubic_axioms_hold(add, mul, 0, 1)
        outcomes.add(expected)
        try:
            FinRing(names, add, mul, 0, 1)
        except RingError as exc:
            assert not expected, (e11, e12, e22)
            assert violated_axiom(str(exc), add, mul, 0, 1) == "mul associative"
        else:
            assert expected, (e11, e12, e22)
    assert outcomes == {True, False}


def test_broken_table_fails_with_one_bounded_line():
    z64 = make_mod_ring(64)
    add = [list(row) for row in z64.add_table]
    add[1][1] = 5
    add[5][5] = 1
    with pytest.raises(RingError) as info:
        FinRing(z64.names, add, z64.mul_table, z64.zero, z64.one)
    message = str(info.value)
    assert "\n" not in message and len(message) < 400
    problems = message.split("; ")
    axioms = [violated_axiom(p, add, z64.mul_table, 0, 1) for p in problems]
    assert None not in axioms and len(set(axioms)) == len(axioms)
    assert "add associative" in axioms


class AxiomCheckRun(Exception):
    pass


def nonassociative_mul(a, b):
    """A commutative, unital, F_2-bilinear product on F_2^3 (bits 1, x, y)
    with x*x = y, x*y = 0 and y*y = x, so (x*x)*y = x != 0 = x*(x*y)."""
    basis = [[1, 2, 4], [2, 4, 0], [4, 0, 2]]
    out = 0
    for i, j in itertools.product(range(3), repeat=2):
        if a >> i & 1 and b >> j & 1:
            out ^= basis[i][j]
    return out


def test_constructors_build_without_the_axiom_check(monkeypatch):
    def axiom_check(self):
        raise AxiomCheckRun
    monkeypatch.setattr(FinRing, "check_axioms", axiom_check)
    built = [make_mod_ring(12), make_field(13), make_quotient(3, [1, 0, 1]),
             make_product(make_field(2), make_quotient(2, [0, 0, 1]))]
    assert [(r.label, r.size) for r in built] == [
        ("Z/12", 12), ("F_13", 13), ("F_3[t]/(t^2+1)", 9), ("F_2xF_2[t]/(t^2)", 8)]
    assert [r.neg(r.one) for r in built] == [11, 12, 2, 5]
    # tables given directly still go through the check
    with pytest.raises(AxiomCheckRun):
        FinRing(F2.names, F2.add_table, F2.mul_table, F2.zero, F2.one)
    with pytest.raises(AxiomCheckRun):
        ring_from_ops([0, 1], lambda a, b: a ^ b, lambda a, b: a & b, 0, 1)


def test_tables_given_directly_are_still_checked():
    z12 = make_mod_ring(12)
    add = [list(row) for row in z12.add_table]
    add[3][4] = add[4][3] = 8
    with pytest.raises(RingError, match="add not associative"):
        FinRing(z12.names, add, z12.mul_table, z12.zero, z12.one)
    with pytest.raises(RingError, match=r"^mul not associative at \(\d+,\d+,\d+\)$"):
        ring_from_ops(range(8), lambda a, b: a ^ b, nonassociative_mul, 0, 1)


class TableBuilt(Exception):
    pass


def test_ring_size_guard_refuses_before_building(monkeypatch):
    z11, z12 = make_mod_ring(11), make_mod_ring(12)

    def table_built(*args, **kwargs):
        raise TableBuilt

    monkeypatch.setattr(FinRing, "__init__", table_built)
    with pytest.raises(SpaceTooLarge, match="ring size 1099511627776 "
                                            "exceeds bound 128"):
        make_quotient(2, [0] * 40 + [1])
    for too_large in (lambda: make_mod_ring(DEFAULT_MAX_RING_SIZE + 1),
                      lambda: make_field(131), lambda: make_field(2 ** 61 - 1),
                      lambda: make_quotient(3, [0] * 5 + [1]),
                      lambda: make_quotient(131, [0, 1]),
                      lambda: make_product(z11, z12)):
        with pytest.raises(SpaceTooLarge, match="exceeds bound 128"):
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
    # invertible exactly when the permutation-sum determinant is a unit
    assert is_invertible(identity_matrix(F2, 3))
    assert is_invertible(identity_matrix(F2, 0))
    m = Matrix(F2, 2, 2, (1, 1, 0, 1))
    assert det_by_permutations(m) == F2.one and is_invertible(m)
    t = name_code(DUAL, "t")
    m2 = Matrix(DUAL, 2, 2, (t, DUAL.zero, DUAL.zero, DUAL.one))
    assert det_by_permutations(m2) == t and not is_invertible(m2)
    for square_only in (is_invertible, inverse):
        with pytest.raises(NonSquare):
            square_only(Matrix(F2, 1, 2, (1, 0)))


@pytest.mark.parametrize("r", [F2, F3, Z6, DUAL], ids=lambda r: r.label)
def test_det_matches_permutation_sum(r):
    # the span test against a unit test of the signed permutation sum
    for size in (0, 1, 2, 3):
        grids = itertools.product(r.elements(), repeat=size * size)
        # deterministic thinning for the larger rings
        step = max(1, (r.size ** (size * size)) // 200)
        for i, entries in enumerate(grids):
            if i % step:
                continue
            m = Matrix(r, size, size, entries)
            assert is_invertible(m) == is_unit(r, det_by_permutations(m))


@pytest.mark.parametrize("r", [F2, F3, Z6, DUAL], ids=lambda r: r.label)
def test_invertible_iff_bijective(r):
    # over a commutative ring, M is invertible iff v -> Mv is a bijection
    for size in (1, 2):
        for entries in itertools.product(r.elements(), repeat=size * size):
            m = Matrix(r, size, size, entries)
            image = {m.apply(v) for v in all_vecs(r, size)}
            assert is_invertible(m) == (len(image) == r.size ** size)


@pytest.mark.parametrize("r", [F2, F3, Z4, Z6, DUAL], ids=lambda r: r.label)
def test_inverse_round_trip(r):
    for size in range(4 if r is F2 else 3):
        ident = identity_matrix(r, size)
        for entries in itertools.product(r.elements(), repeat=size * size):
            m = Matrix(r, size, size, entries)
            if is_invertible(m):
                m_inv = inverse(m)
                assert m.mul(m_inv) == m_inv.mul(m) == ident
            else:
                with pytest.raises(RingError):
                    inverse(m)


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


def test_iso_search_size_guard():
    """Rings of equal size above the search bound are refused as a size
    guard, not as a spent budget; at the bound the search runs."""
    big = make_mod_ring(DEFAULT_ISO_SEARCH_BOUND + 1)
    with pytest.raises(SpaceTooLarge, match="ring size 65 exceeds bound 64"):
        find_ring_isomorphism(big, big)
    at_bound = make_mod_ring(DEFAULT_ISO_SEARCH_BOUND)
    assert find_ring_isomorphism(at_bound, at_bound) is not None


@pytest.mark.parametrize("r", RINGS, ids=lambda r: r.label)
@pytest.mark.parametrize("s", RINGS, ids=lambda r: r.label)
def test_iso_search_symmetric(r, s):
    assert (find_ring_isomorphism(r, s) is None) == \
        (find_ring_isomorphism(s, r) is None)


def brute_ring_isomorphism(r, s):
    """Oracle: the least bijection fixing 0 and 1 that keeps both tables,
    over every permutation of the other elements, without pruning."""
    if r.size != s.size:
        return None
    rest_r = [x for x in range(r.size) if x not in (r.zero, r.one)]
    rest_s = [y for y in range(s.size) if y not in (s.zero, s.one)]
    rows = list(itertools.product(range(r.size), repeat=2))
    for images in itertools.permutations(rest_s):
        f = [0] * r.size
        f[r.zero], f[r.one] = s.zero, s.one
        for x, y in zip(rest_r, images):
            f[x] = y
        if all(f[r.add_table[a][b]] == s.add_table[f[a]][f[b]]
               and f[r.mul_table[a][b]] == s.mul_table[f[a]][f[b]]
               for a, b in rows):
            return tuple(f)
    return None


def iso_oracle_rings():
    f2, z4, z2 = make_field(2), make_mod_ring(4), make_mod_ring(2)
    quotients = [make_quotient(2, poly) for poly in (
        [0, 0, 1], [1, 1, 1], [1, 0, 1], [0, 1, 1],  # F_2[t]/(t^2), F_4, ...
        [0, 0, 0, 1], [1, 1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1])]
    quotients += [make_quotient(3, [1, 1]), make_quotient(5, [2, 1]),
                  make_quotient(7, [3, 1])]
    products = [make_product(f2, f2), make_product(z2, make_field(3)),
                make_product(make_field(3), z2), make_product(f2, z4),
                make_product(z4, f2), make_product(f2, DUAL), make_product(DUAL, f2),
                make_product(f2, F4), make_product(PROD22, f2),
                make_product(f2, PROD22)]
    return [make_mod_ring(m) for m in range(2, 9)] + quotients + products


def test_iso_search_matches_the_brute_oracle():
    rings = iso_oracle_rings()
    pairs = [(r, s) for r in rings for s in rings if r.size == s.size]
    assert len(pairs) > 150
    found = 0
    for r, s in pairs:
        f = find_ring_isomorphism(r, s)
        expected = brute_ring_isomorphism(r, s)
        assert (f.assignment if f else None) == expected, (r.label, s.label)
        found += expected is not None
    assert 0 < found < len(pairs)


@pytest.mark.parametrize("r,s", [
    (make_mod_ring(32), make_quotient(2, [0, 0, 0, 0, 0, 1])),
    (make_mod_ring(20), make_product(make_mod_ring(2), make_mod_ring(10))),
], ids=["Z32-F2[t]/(t^5)", "Z20-Z2xZ10"])
def test_iso_search_refuses_on_invariants(r, s):
    assert find_ring_isomorphism(r, s) is None
    assert find_ring_isomorphism(s, r) is None


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
