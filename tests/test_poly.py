import functools
import itertools
import math
import random

import pytest

from qmds import poly
from qmds.field import field_for_prime_power, make_field
from qmds.poly import (
    Poly,
    _quadratic_factor_marks,
    is_irreducible,
    lagrange_interpolate,
    root_free_monic,
)

F4 = make_field(2, 1)
F9 = make_field(3, 1)
F16 = make_field(2, 2)
F64 = make_field(2, 3)


def random_poly(F, max_deg, rng):
    return Poly(F, [rng.randrange(F.order) for _ in range(max_deg + 1)])


def test_normalization_and_degree():
    f = Poly(F9, (1, 2, 0, 0))
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    assert Poly(F9).degree == -1
    assert Poly.zero(F9).is_zero()
    assert Poly.one(F9).degree == 0
    assert Poly.x(F9).degree == 1
    assert Poly.monomial(F9, 3).coeffs == (0, 0, 0, 1)


def test_coeff_out_of_range_rejected():
    with pytest.raises(ValueError):
        Poly(F4, (5,))


def test_arithmetic_agrees_with_evaluation():
    rng = random.Random(2)
    for _ in range(50):
        f = random_poly(F9, 4, rng)
        g = random_poly(F9, 4, rng)
        for x in F9.elements():
            assert (f + g)(x) == F9.add(f(x), g(x))
            assert (f * g)(x) == F9.mul(f(x), g(x))
            assert (f - g)(x) == F9.sub(f(x), g(x))
            assert (-f)(x) == F9.neg(f(x))


def test_divmod_invariant():
    rng = random.Random(3)
    for _ in range(50):
        f = random_poly(F9, 6, rng)
        g = random_poly(F9, 3, rng)
        if g.is_zero():
            continue
        quot, rem = divmod(f, g)
        assert rem.degree < g.degree
        assert quot * g + rem == f


def test_frobenius_poly_examples():
    assert Poly.x(F9).frobenius() == Poly.monomial(F9, F9.q)
    c = F9.generator
    assert Poly.constant(F9, c).frobenius() == Poly.constant(F9, F9.frobenius(c))


def test_frobenius_poly_pointwise_oracle():
    rng = random.Random(5)
    for _ in range(40):
        f = random_poly(F9, 3, rng)
        g = f.frobenius()
        for a in F9.elements():
            assert g(a) == F9.frobenius(f(a))
        if not f.is_zero():
            assert g.degree == f.degree * F9.q


@pytest.mark.parametrize("F", [F4, F9], ids=["F4", "F9"])
@pytest.mark.parametrize("deg", [2, 3])
def test_irreducibility_matches_root_test_at_low_degree(F, deg):
    # degree 2 and 3: reducible over a field iff there is a linear factor
    for coeffs in itertools.product(range(F.order), repeat=deg):
        f = Poly(F, list(coeffs) + [1])
        has_root = any(f(x) == 0 for x in F.elements())
        assert is_irreducible(f) == (not has_root)


def test_root_free_monic_is_first_in_enumeration_order():
    # at degree 2 the first irreducible equals the first root-free candidate
    for F in (F4, F9):
        got = root_free_monic(F, 2)
        for idx in range(F.order ** 2):
            c0, c1 = idx % F.order, idx // F.order
            cand = Poly(F, (c0, c1, 1))
            if all(cand(x) != 0 for x in F.elements()):
                assert got == cand
                break
        else:
            pytest.fail("no root-free quadratic found")


@pytest.mark.parametrize("F", [F4, F9], ids=["F4", "F9"])
@pytest.mark.parametrize("deg", [2, 3, 4])
def test_root_free_monic_properties(F, deg):
    m = root_free_monic(F, deg)
    assert m.is_monic()
    assert m.degree == deg
    assert all(m(x) != 0 for x in F.elements())


@functools.lru_cache(maxsize=None)
def monic_polys(F, degree):
    """Every monic polynomial of the degree, constant term fastest-varying."""
    return tuple(Poly(F, coeffs[::-1] + (1,))
                 for coeffs in itertools.product(range(F.order), repeat=degree))


def reference_irreducible(f):
    """Trial division by every monic polynomial of degree 1..d/2."""
    if f.degree < 1:
        return False
    return not any((f % g).is_zero()
                   for k in range(1, f.degree // 2 + 1) for g in monic_polys(f.field, k))


def test_is_irreducible_on_every_monic_quartic_over_gf4():
    verdicts = [is_irreducible(f) == reference_irreducible(f) for f in monic_polys(F4, 4)]
    assert all(verdicts) and len(verdicts) == 256


@pytest.mark.parametrize("F,degrees", [(F9, (4, 5, 6)), (F16, (4, 5, 6)), (F64, (4, 5))],
                         ids=["F9", "F16", "F64"])
def test_is_irreducible_on_random_polynomials(F, degrees):
    # GF(64) stops at degree 5: trial division at degree 6 would try 64^3
    # cubics per irreducible input.
    rng = random.Random(F.order)
    seen = set()
    for degree in degrees:
        for _ in range(30):
            f = Poly(F, [rng.randrange(F.order) for _ in range(degree)]
                     + [rng.randrange(1, F.order)])
            verdict = reference_irreducible(f)
            assert is_irreducible(f) == verdict, f
            seen.add(verdict)
    assert seen == {False, True}


def random_root_free(F, degree, count, rng):
    """`count` distinct random monic polynomials of the degree without a root."""
    found = []
    while len(found) < count:
        f = Poly(F, [rng.randrange(F.order) for _ in range(degree)] + [1])
        if f not in found and all(f(x) for x in F.elements()):
            found.append(f)
    return found


# GF(289) is past LOOKUP_TABLE_MAX_ORDER, so the test runs on the methods there.
@pytest.mark.parametrize("F", [F4, F9, F16, F64, make_field(17, 1)],
                         ids=["F4", "F9", "F16", "F64", "F289"])
def test_is_irreducible_rejects_root_free_reducible_products(F):
    # No factor of degree 1, so only gcds past x**Q - x can reject these.
    rng = random.Random(F.order + 1)
    quadratics = random_root_free(F, 2, 6, rng)
    cubics = random_root_free(F, 3, 2, rng)
    assert all(is_irreducible(f) for f in quadratics + cubics)
    products = [quadratics[0] * quadratics[0], quadratics[0] * cubics[0],
                cubics[0] * cubics[1], (cubics[1] * cubics[1]).scaled(F.generator)]
    for _ in range(5):
        g, h = rng.sample(quadratics, 2)
        products.append(g * h)
    for f in products:
        assert all(f(x) for x in F.elements())
        assert not is_irreducible(f), f


# The polynomials the extended family scales by, (q, degree) -> coefficients:
# every pair with degree >= 4 of the default sweep grid, (16, 4) of
# construct-highdeg, (13, 5) and (127, 5), where the first root-free
# candidate is reducible, and degree 2 at the largest q.  Pinned from a search that
# tested every root-free candidate for irreducibility, before the sieve.
PINNED_SCALING_POLYS = {
    (16, 4): (1, 4, 1, 0, 1),
    (13, 5): (6, 1, 0, 0, 0, 1),
    (9, 8): (2, 0, 0, 0, 0, 0, 0, 0, 1),
    (9, 7): (3, 1, 0, 0, 0, 0, 0, 1),
    (9, 6): (2, 0, 1, 0, 0, 0, 1),
    (9, 5): (2, 0, 0, 0, 0, 1),
    (9, 4): (2, 0, 0, 0, 1),
    (8, 7): (2, 0, 0, 0, 0, 0, 0, 1),
    (8, 6): (6, 1, 1, 0, 0, 0, 1),
    (8, 5): (8, 1, 0, 0, 0, 1),
    (8, 4): (1, 2, 1, 0, 1),
    (7, 6): (2, 0, 0, 0, 0, 0, 1),
    (7, 5): (4, 1, 0, 0, 0, 1),
    (7, 4): (2, 0, 0, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (127, 5): (9, 1, 0, 0, 0, 1),
    (128, 2): (6, 1, 1),
    (127, 2): (2, 0, 1),
    (125, 2): (2, 0, 1),
}


@pytest.mark.parametrize("q,degree", PINNED_SCALING_POLYS)
def test_root_free_monic_returns_the_pinned_polynomial(q, degree):
    assert root_free_monic(field_for_prime_power(q), degree).coeffs == \
        PINNED_SCALING_POLYS[q, degree]


@pytest.mark.parametrize("F,deg", [
    pytest.param(F, deg, id=f"{deg}-F{F.order}")
    for F, top in ((F4, 6), (F9, 5)) for deg in range(2, top + 1)])
def test_root_free_monic_is_the_first_reference_irreducible(F, deg):
    first = next(f for f in monic_polys(F, deg) if reference_irreducible(f))
    assert root_free_monic(F, deg) == first


def reference_quadratic_factor_marks(F, high):
    """The mark of each (c1, c0), in the order c1 * Q + c0, by trial
    division of the candidate by every monic irreducible quadratic."""
    quadratics = [g for g in monic_polys(F, 2) if reference_irreducible(g)]
    return [any((Poly(F, (c0, c1) + high) % r).is_zero() for r in quadratics)
            for c1 in range(F.order) for c0 in range(F.order)]


def superblock_highs(F, degree, count, rng):
    """c_2, ..., c_(l-1), 1 of `count` superblocks: the first, the last and
    random ones, or all of them when there are no more than `count`."""
    every = list(itertools.product(range(F.order), repeat=degree - 2))
    if len(every) > count:
        every = [every[0], every[-1]] + rng.sample(every[1:-1], count - 2)
    return [digits[::-1] + (1,) for digits in every]


@pytest.mark.parametrize("F,degree,count", [
    (F4, 4, 16), (F4, 5, 64), (F4, 6, 256),
    (F9, 4, 8), (F9, 5, 8), (F9, 6, 8),
    (F16, 4, 3), (F16, 5, 3),
], ids=lambda v: f"F{v.order}" if hasattr(v, "order") else str(v))
def test_quadratic_factor_marks_match_trial_division(F, degree, count):
    rng = random.Random(F.order * degree)
    for high in superblock_highs(F, degree, count, rng):
        marks = _quadratic_factor_marks(F, high)
        bits = [bool(marks[i >> 3] >> (i & 7) & 1) for i in range(F.order ** 2)]
        assert bits == reference_quadratic_factor_marks(F, high), high


# Calls to the irreducibility test per search, (q, degree) -> (before the
# sieve starts, after).  The sieve starts after Q**2 // 64 failed tests:
# 1,024 at Q = 256, 102 at Q = 81, 64 at Q = 64.  Testing every root-free
# candidate up to the answer would take 16,449 calls at (16, 4), 1,089 at
# (8, 4) and 2,361 at (9, 6).  (13, 5) ends at its second test, long
# before the sieve would pay off.  At (8, 6) the reducible root-free
# candidates before the answer are all products of two cubics, which the
# sieve cannot see, so all 1,387 are still tested.
IRREDUCIBILITY_TESTS = {
    (16, 4): (1024, 0),
    (8, 4): (64, 0),
    (13, 5): (2, 0),
    (7, 5): (1, 0),
    (9, 6): (102, 704),
    (8, 6): (64, 1323),
}


@pytest.mark.parametrize("q,degree", IRREDUCIBILITY_TESTS)
def test_root_free_monic_sieves_before_testing_irreducibility(q, degree, monkeypatch):
    calls = []
    test = poly._irreducible_from

    def counting(f, start):
        calls.append(start)
        return test(f, start)

    monkeypatch.setattr(poly, "_irreducible_from", counting)
    # __wrapped__ skips the cache, so the search runs here
    m = root_free_monic.__wrapped__(field_for_prime_power(q), degree)
    assert m.coeffs == PINNED_SCALING_POLYS[q, degree]
    # a root-free candidate has no linear factor, and one the sieve leaves
    # no quadratic factor either, so the test starts past them
    before, after = IRREDUCIBILITY_TESTS[q, degree]
    assert calls == [2] * before + [3] * after


@pytest.mark.parametrize("q,degree", [(13, 5), (127, 5)])
def test_root_free_monic_does_not_sieve_for_an_early_answer(q, degree, monkeypatch):
    # both answers are the second root-free candidate; marking a superblock
    # would cost about 450 tests at Q = 169 and take 32 MB at Q = 16129
    def no_marks(F, high):
        raise AssertionError("the search built marks")

    monkeypatch.setattr(poly, "_quadratic_factor_marks", no_marks)
    m = root_free_monic.__wrapped__(field_for_prime_power(q), degree)
    assert m.coeffs == PINNED_SCALING_POLYS[q, degree]


def test_sieve_waits_for_its_cost_and_stays_small():
    assert poly._tests_before_sieve(64) == 64
    assert poly._tests_before_sieve(256) == 1024
    assert poly._tests_before_sieve(poly.SIEVE_MAX_ORDER) == 2 ** 18
    # a superblock's marks, Q**2 / 8 bytes, stay within 2 MB
    assert poly.SIEVE_MAX_ORDER ** 2 // 8 <= 2 ** 21
    assert poly._tests_before_sieve(poly.SIEVE_MAX_ORDER + 1) == math.inf
    assert poly._tests_before_sieve(128 ** 2) == math.inf


def test_root_free_monic_rejects_low_degree():
    with pytest.raises(ValueError):
        root_free_monic(F4, 1)


def test_root_free_monic_deterministic():
    assert root_free_monic(F9, 2) == root_free_monic(F9, 2)


def test_lagrange_single_point():
    g = lagrange_interpolate(F9, [F9.generator], [7])
    assert g == Poly.constant(F9, 7)


def test_lagrange_recovers_polynomials():
    rng = random.Random(6)
    points = list(range(8))
    for _ in range(40):
        f = random_poly(F9, 7, rng)
        g = lagrange_interpolate(F9, points, [f(x) for x in points])
        assert g == f


def test_lagrange_rejects_bad_input():
    with pytest.raises(ValueError):
        lagrange_interpolate(F9, [1, 1], [0, 0])
    with pytest.raises(ValueError):
        lagrange_interpolate(F9, [1, 2], [0])
    with pytest.raises(ValueError):
        lagrange_interpolate(F9, [], [])
