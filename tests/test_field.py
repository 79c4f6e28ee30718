import random

import pytest

from qmds.field import (
    DEFAULT_ELEMENT_BOUND,
    MAX_ELEMENT_BOUND,
    PrimeField,
    factor_prime_power,
    field_for_prime_power,
    is_prime,
    make_field,
)
from qmds.poly import Poly, root_free_monic

# towers with q <= 9 (the construction range)
SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
# towers with q <= 16 (the exhaustive identity range)
UP_TO_16 = SMALL + [(11, 1), (13, 1), (2, 4)]


def test_smallest_towers():
    F4 = make_field(2, 1)
    assert F4.order == 4
    assert set(F4.subfield_elements()) == {0, 1}

    F9 = make_field(3, 1)
    assert len(F9.subfield_elements()) == 3

    F16 = make_field(2, 2)
    assert F16.order == 16
    fixed = {x for x in F16.elements() if F16.pow(x, 4) == x}
    assert fixed == set(F16.subfield_elements())
    assert len(fixed) == 4


# The modulus of every tower with p**(2e) <= MAX_ELEMENT_BOUND, ascending
# coefficients.  Every element encoding in every file depends on it.  The
# table was generated with the GF(p)-only search that the shared
# `root_free_monic` search replaced.
MODULI = {
    (2, 1): (1, 1, 1), (2, 2): (1, 1, 0, 0, 1), (2, 3): (1, 1, 0, 0, 0, 0, 1),
    (2, 4): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 5): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 6): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 7): (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 0, 1), (3, 2): (2, 1, 0, 0, 1), (3, 3): (2, 1, 0, 0, 0, 0, 1),
    (3, 4): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (3, 5): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1), (5, 1): (2, 0, 1),
    (5, 2): (2, 0, 0, 0, 1), (5, 3): (2, 1, 0, 0, 0, 0, 1), (7, 1): (1, 0, 1),
    (7, 2): (1, 1, 0, 0, 1), (11, 1): (1, 0, 1), (11, 2): (2, 1, 0, 0, 1),
    (13, 1): (2, 0, 1), (13, 2): (2, 0, 0, 0, 1), (17, 1): (3, 0, 1),
    (19, 1): (1, 0, 1), (23, 1): (1, 0, 1), (29, 1): (2, 0, 1),
    (31, 1): (1, 0, 1), (37, 1): (2, 0, 1), (41, 1): (3, 0, 1),
    (43, 1): (1, 0, 1), (47, 1): (1, 0, 1), (53, 1): (2, 0, 1),
    (59, 1): (1, 0, 1), (61, 1): (2, 0, 1), (67, 1): (1, 0, 1),
    (71, 1): (1, 0, 1), (73, 1): (5, 0, 1), (79, 1): (1, 0, 1),
    (83, 1): (1, 0, 1), (89, 1): (3, 0, 1), (97, 1): (5, 0, 1),
    (101, 1): (2, 0, 1), (103, 1): (1, 0, 1), (107, 1): (1, 0, 1),
    (109, 1): (2, 0, 1), (113, 1): (3, 0, 1), (127, 1): (1, 0, 1),
    (131, 1): (1, 0, 1), (137, 1): (3, 0, 1), (139, 1): (1, 0, 1),
    (149, 1): (2, 0, 1), (151, 1): (1, 0, 1), (157, 1): (2, 0, 1),
    (163, 1): (1, 0, 1), (167, 1): (1, 0, 1), (173, 1): (2, 0, 1),
    (179, 1): (1, 0, 1), (181, 1): (2, 0, 1), (191, 1): (1, 0, 1),
    (193, 1): (5, 0, 1), (197, 1): (2, 0, 1), (199, 1): (1, 0, 1),
    (211, 1): (1, 0, 1), (223, 1): (1, 0, 1), (227, 1): (1, 0, 1),
    (229, 1): (2, 0, 1), (233, 1): (3, 0, 1), (239, 1): (1, 0, 1),
    (241, 1): (7, 0, 1), (251, 1): (1, 0, 1),
}


def test_every_admissible_modulus_is_pinned():
    admissible = {(p, e) for p in range(2, 2 ** 8 + 1) if is_prime(p)
                  for e in range(1, 9) if p ** (2 * e) <= MAX_ELEMENT_BOUND}
    assert set(MODULI) == admissible
    for (p, e), modulus in MODULI.items():
        assert root_free_monic(PrimeField(p), 2 * e).coeffs == modulus, (p, e)


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 8)  # 2^16 elements exceeds the default bound
    make_field(2, 8, element_bound=2 ** 16)  # override admits it


def test_factor_prime_power():
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(7) == (7, 1)
    for bad in (1, 6, 12):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def test_field_for_prime_power_builds_the_right_tower():
    T = field_for_prime_power(9)
    assert (T.p, T.e, T.q, T.order) == (3, 2, 9, 81)
    with pytest.raises(ValueError):
        field_for_prime_power(6)


@pytest.mark.parametrize("p,e", SMALL)
def test_field_axioms_on_random_triples(p, e):
    F = make_field(p, e)
    rng = random.Random(p * 100 + e)
    for _ in range(300):
        a, b, c = (rng.randrange(F.order) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # characteristic
    acc = 0
    for _ in range(p):
        acc = F.add(acc, 1)
    assert acc == 0


def test_canonical_encoding_is_discrete_log_based():
    F = make_field(3, 1)
    M = F.order - 1
    for i in range(M):
        for j in range(M):
            assert F.mul(1 + i, 1 + j) == 1 + (i + j) % M


def test_frobenius_examples():
    F4 = make_field(2, 1)
    w = F4.generator
    assert F4.frobenius(1) == 1
    assert F4.frobenius(w) == F4.mul(w, w) == F4.add(w, 1)


@pytest.mark.parametrize("p,e", UP_TO_16)
def test_frobenius_is_an_involutive_automorphism(p, e):
    F = make_field(p, e)
    for x in F.elements():
        assert F.frobenius(F.frobenius(x)) == x
        # power-table oracle for the map itself
        assert F.frobenius(x) == F.pow(x, F.q)
    for x in F.elements():
        for y in F.elements():
            assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))
            assert F.frobenius(F.add(x, y)) == F.add(F.frobenius(x), F.frobenius(y))


def test_frobenius_automorphism_sampled_beyond_256():
    F = make_field(5, 2)  # 625 elements
    rng = random.Random(7)
    for _ in range(500):
        x, y = rng.randrange(F.order), rng.randrange(F.order)
        assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))
        assert F.frobenius(F.add(x, y)) == F.add(F.frobenius(x), F.frobenius(y))


def test_norm_examples():
    F9 = make_field(3, 1)
    w = F9.generator
    w4 = F9.mul(F9.mul(w, w), F9.mul(w, w))  # power-table oracle
    assert F9.norm(w) == w4
    assert w4 == F9.add(1, 1)  # the element -1 == 2 of GF(3)
    for F in (make_field(2, 1), F9):
        assert F.norm(0) == 0
        assert F.norm(1) == 1
        for x in F.elements():
            assert F.in_subfield(F.norm(x))


@pytest.mark.parametrize("p,e", UP_TO_16)
def test_norm_is_surjective_onto_subfield_units(p, e):
    F = make_field(p, e)
    image = {F.norm(x) for x in F.nonzero_elements()}
    assert image == set(F.subfield_elements()) - {0}


@pytest.mark.parametrize("p,e", UP_TO_16)
def test_solve_norm_defining_property_and_minimality(p, e):
    F = make_field(p, e)
    g = F.norm(F.generator)
    for w in F.subfield_elements():
        if w == 0:
            continue
        v = F.solve_norm(w)
        assert F.norm(v) == w
        # smallest discrete log: the chain of powers of norm(generator)
        # reaches w exactly at exponent v - 1
        cur, j = 1, 0
        while cur != w:
            cur = F.mul(cur, g)
            j += 1
        assert v == 1 + j


def test_solve_norm_examples_and_errors():
    F4 = make_field(2, 1)
    assert F4.solve_norm(1) == 1
    F9 = make_field(3, 1)
    two = F9.add(1, 1)
    assert F9.solve_norm(two) == F9.generator
    with pytest.raises(ValueError):
        F9.solve_norm(0)
    outside = next(x for x in F9.elements() if not F9.in_subfield(x))
    with pytest.raises(ValueError):
        F9.solve_norm(outside)


def test_roots_of_unity():
    F4 = make_field(2, 1)
    assert F4.root_of_unity(3) == F4.generator
    F9 = make_field(3, 1)
    assert F9.root_of_unity(4) == F9.pow(F9.generator, 2)
    for p, e in UP_TO_16:
        F = make_field(p, e)
        theta = F.root_of_unity(F.q + 1)
        assert F.pow(theta, F.q + 1) == 1
        assert all(F.pow(theta, j) != 1 for j in range(1, F.q + 1))
    with pytest.raises(ValueError):
        F9.root_of_unity(3)  # does not divide 8


@pytest.mark.parametrize("p,e", UP_TO_16)
def test_unity_root_factorization(p, e):
    # prod over all (q+1)-th roots theta**l of (x - theta**l) == x**(q+1) - 1
    F = make_field(p, e)
    theta = F.root_of_unity(F.q + 1)
    prod = Poly.one(F)
    for l in range(F.q + 1):
        prod = prod * Poly(F, (F.neg(F.pow(theta, l)), 1))
    expected = Poly(F, [F.neg(1)] + [0] * F.q + [1])
    assert prod == expected


@pytest.mark.parametrize("p,e", UP_TO_16)
def test_unity_root_cofactor_products(p, e):
    # prod_{l != m} (theta**m - theta**l) == theta**(q*m)
    F = make_field(p, e)
    theta = F.root_of_unity(F.q + 1)
    for m in range(F.q + 1):
        acc = 1
        for l in range(F.q + 1):
            if l != m:
                acc = F.mul(acc, F.sub(F.pow(theta, m), F.pow(theta, l)))
        assert acc == F.pow(theta, F.q * m)


def test_subfield_enumeration_order():
    F = make_field(3, 2)  # q = 9
    sub = F.subfield_elements()
    assert sub[0] == 0 and sub[1] == 1
    g = F.norm(F.generator)
    for i in range(2, len(sub)):
        assert sub[i] == F.mul(sub[i - 1], g)
    assert len(sub) == 9
    assert all(F.in_subfield(x) for x in sub)


def test_pow_conventions():
    F = make_field(3, 1)
    assert F.pow(0, 0) == 1  # evaluation convention for generator rows
    assert F.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_as_dict_shape():
    F = make_field(2, 1)
    assert F.as_dict() == {"p": 2, "e": 1, "modulus": [1, 1, 1]}
    assert F.as_dict()["modulus"][-1] == 1  # monic


def test_default_bound_value():
    assert DEFAULT_ELEMENT_BOUND == 2 ** 14
