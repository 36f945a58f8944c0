"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the verdict
lines on passing runs as well)."""

import itertools
import time

from sheafkit.cli import demo_counterexample
from sheafkit.finalg import (
    RingMorphism,
    enumerate_submodules_brute,
    gaussian_binomial,
    make_field,
    make_quotient,
)
from sheafkit.finspace import (
    chain3,
    discrete2,
    point_space,
    pseudo_circle,
    sierpinski,
)
from sheafkit.grassmann import (
    build_grassmann_presheaf,
    build_v_presheaf,
    check_lemma_free_locally_free_same_germs,
    classify,
    enumerate_locally_free_subsheaves,
    enumerate_sections,
    include_subsheaf,
    section_to_subsheaf,
    subsheaf_to_section,
)
from sheafkit.presheaf import (
    SET,
    Carrier,
    build_presheaf,
    constant_presheaf,
    is_complete,
    is_monopresheaf,
    sheafify,
    two_algebra_presheaf,
    unit_bijective,
)
from sheafkit.vecsheaf import (
    constant_algebra_sheaf,
    embed_via_weights,
    enumerate_weight_families,
    find_module_isomorphism,
    free_sheaf,
    identity_trivialization,
    is_monomorphism,
    module_free_of_rank,
    module_locally_free,
    sheaf_from_cocycle,
    trivial_weight_family,
    validate_weights,
)
from sheafkit.vecsheaf import TransitionCocycle

F2 = make_field(2)
F3 = make_field(3)

SPACES = [point_space, sierpinski, chain3, discrete2, pseudo_circle]
RINGS = [F2, F3]
RANKS = [(1, 2), (1, 3), (2, 3)]


def verdict(number, ok, text):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_counterexample_reproduction():
    start = time.perf_counter()
    report = demo_counterexample()
    elapsed = time.perf_counter() - start
    ok = (report["presheaf_valid"] is True
          and report["stalk_sizes"] == {"x0": 4, "x1": 2}
          and report["pullback_stalk_sizes"] == {"f0": 4, "f1": 2}
          and report["pullback_stalks_isomorphic"] is False
          and elapsed < 1.0)
    verdict(1, ok, f"stalks 4/2, no ring isomorphism, pullbacks differ "
                   f"({elapsed:.3f}s)")


def test_criterion_2_gaussian_binomial_oracle():
    start = time.perf_counter()
    pt = point_space()
    u = frozenset(pt.points)
    ok = True
    for q in (2, 3):
        field = make_field(q)
        a = constant_algebra_sheaf(pt, field)
        for n in range(5):
            for k in range(n + 1):
                g = build_grassmann_presheaf(a, k, n)
                count = len(enumerate_sections(g, u))
                if count != gaussian_binomial(n, k, q):
                    ok = False
                if q ** (n * k) <= 100_000:
                    brute = len(enumerate_submodules_brute(field, n, k))
                    if count != brute:
                        ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    verdict(2, ok, f"point-space section counts match subspace counts for "
                   f"q in 2,3 and n <= 4 ({elapsed:.1f}s)")


def test_criterion_3_classification_bijection():
    start = time.perf_counter()
    ok = True
    checked = 0
    for make, ring, (k, n) in itertools.product(SPACES, RINGS, RANKS):
        a = constant_algebra_sheaf(make(), ring)
        u = frozenset(a.space.points)
        g = build_grassmann_presheaf(a, k, n)
        sections = enumerate_sections(g, u)
        subsheaves = enumerate_locally_free_subsheaves(a, k, n, u)
        if len(sections) != len(subsheaves):
            ok = False
            break
        sub_keys = {t.sort_key() for t in subsheaves}
        for s in sections:
            t = section_to_subsheaf(s)
            if t.sort_key() not in sub_keys:
                ok = False
            if subsheaf_to_section(t, k).sort_key() != s.sort_key():
                ok = False
        for t in subsheaves:
            s = subsheaf_to_section(t, k)
            if section_to_subsheaf(s).sort_key() != t.sort_key():
                ok = False
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 30 and elapsed < 300.0
    verdict(3, ok, f"sections and locally free subsheaves biject with "
                   f"identity round trips on {checked} instances "
                   f"({elapsed:.1f}s)")


def test_criterion_4_same_germs():
    ok = True
    for make, ring, (k, n) in itertools.product(SPACES, RINGS, RANKS):
        a = constant_algebra_sheaf(make(), ring)
        g = build_grassmann_presheaf(a, k, n)
        v = build_v_presheaf(a, k, n)
        if not check_lemma_free_locally_free_same_germs(g, v):
            ok = False
    verdict(4, ok, "free and locally free value presheaves share all germs "
                   "across the corpus")


def corpus_presheaves():
    dual = make_quotient(2, [0, 0, 1])
    rho = RingMorphism(dual, F2, tuple(c % 2 for c in range(4)))
    yield constant_presheaf(sierpinski(), F2)
    yield constant_presheaf(discrete2(), F3)
    yield constant_presheaf(pseudo_circle(), F3)
    yield two_algebra_presheaf(sierpinski(), "c", dual, F2, rho)
    yield two_algebra_presheaf(discrete2(), "u", dual, F2, rho)


def test_criterion_5_sheafification_laws():
    ok = True
    for p in corpus_presheaves():
        s = sheafify(p)
        # completes are fixed by the unit
        if is_complete(p) and not all(unit_bijective(s, u)
                                      for u in s.sections.carriers):
            ok = False
        # idempotence up to bijection
        s2 = sheafify(s.sections)
        if not all(unit_bijective(s2, u) for u in s.sections.carriers):
            ok = False
        # stalk preservation: counts and germ-map commutation
        space = p.space
        for x in space.points:
            ux = space.min_open[x]
            if len(s.sections.carriers[ux].elements) != \
                    len(p.carriers[ux].elements):
                ok = False
            for u in s.unit:
                if x not in u:
                    continue
                for e in p.carriers[u].elements:
                    lhs = s.sections.restrict(u, ux, s.unit[u][e])
                    rhs = s.unit[ux][p.restrict(u, ux, e)]
                    if lhs != rhs:
                        ok = False
    verdict(5, ok, "unit bijective on complete presheaves, sheafify "
                   "idempotent, stalks preserved")


def non_separated_fixture():
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


def test_criterion_6_monopresheaf_verdicts():
    ok = True
    for make, ring, (k, n) in itertools.product(SPACES, RINGS, RANKS):
        a = constant_algebra_sheaf(make(), ring)
        if not is_monopresheaf(build_grassmann_presheaf(a, k, n).presheaf()):
            ok = False
    if is_monopresheaf(non_separated_fixture()):
        ok = False
    verdict(6, ok, "all Grassmann presheaves separated; the projection "
                   "fixture is not")


def test_criterion_7_weighted_embedding():
    start = time.perf_counter()
    ok = True
    # single-open covers on every corpus instance
    for make, ring in itertools.product(SPACES, RINGS):
        a = constant_algebra_sheaf(make(), ring)
        u = frozenset(a.space.points)
        for k in (1, 2):
            e = free_sheaf(a, k)
            w = trivial_weight_family(a)
            if validate_weights(w):
                ok = False
            m = embed_via_weights(e, (u,),
                                  {0: identity_trivialization(e, u, k)}, w, k)
            if not is_monomorphism(m):
                ok = False
    # the singleton cover of the discrete space, every valid weight family
    d2 = discrete2()
    cover = (frozenset({"u"}), frozenset({"v"}))
    for ring in RINGS:
        a = constant_algebra_sheaf(d2, ring)
        families = enumerate_weight_families(a, cover)
        if not families:
            ok = False
        e = free_sheaf(a, 1)
        trivs = {0: identity_trivialization(e, cover[0], 1),
                 1: identity_trivialization(e, cover[1], 1)}
        for w in families:
            if not is_monomorphism(embed_via_weights(e, cover, trivs, w, 1)):
                ok = False
    # exhaustive absence on the twisted pseudo-circle cover
    a3 = constant_algebra_sheaf(pseudo_circle(), F3)
    twisted_cover = (frozenset("abc"), frozenset("abd"))
    if enumerate_weight_families(a3, twisted_cover):
        ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    verdict(7, ok, f"valid weights always yield stalkwise-injective "
                   f"embeddings; the twisted cover admits none ({elapsed:.1f}s)")


def test_criterion_8_locally_free_not_free():
    a3 = constant_algebra_sheaf(pseudo_circle(), F3)
    uc, ud = frozenset("abc"), frozenset("abd")
    x = frozenset(pseudo_circle().points)
    twisted = sheaf_from_cocycle(
        TransitionCocycle(a3, (uc, ud), 1, {(0, 1): (((1, 2),),)})).sheaf
    plain = sheaf_from_cocycle(
        TransitionCocycle(a3, (uc, ud), 1, {(0, 1): (((1, 1),),)})).sheaf
    ok = (module_locally_free(twisted, x, 1)
          and not module_free_of_rank(twisted, x, 1)[0]
          and module_free_of_rank(plain, x, 1)[0]
          and find_module_isomorphism(twisted, plain) is None)
    verdict(8, ok, "the (1,-1) glue is locally free, not free, and not "
                   "isomorphic to the (1,1) glue")


def test_criterion_9_truncation_monotonicity():
    ok = True
    n = 1
    for make in (point_space, sierpinski):
        a = constant_algebra_sheaf(make(), F2)
        u = frozenset(a.space.points)
        counts = []
        for big_n in (n, n + 1, n + 2):
            report = classify(a, n, big_n)
            if report["bijection"] is not True:
                ok = False
            counts.append(report["counts"]["subsheaves"])
            # coordinate inclusion carries level-N values into level N+1
            small = enumerate_locally_free_subsheaves(a, n, big_n, u)
            ambient = free_sheaf(a, big_n + 1)
            larger = {t.sort_key()
                      for t in enumerate_locally_free_subsheaves(
                          a, n, big_n + 1, u)}
            images = {include_subsheaf(t, ambient).sort_key() for t in small}
            if len(images) != len(small) or not images <= larger:
                ok = False
        if counts != sorted(counts):
            ok = False
    verdict(9, ok, "classification counts embed along the coordinate "
                   "inclusion for three truncation levels")
