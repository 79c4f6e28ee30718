import collections
import functools
import itertools
import math
import random
import re

import pytest

from qmds import poly
from qmds.field import PrimeField, field_for_prime_power, make_field
from qmds.poly import (
    Poly,
    _cubic_pair_marks,
    _discriminant_parity,
    _power,
    _product,
    _quadratic_factor_marks,
    _remainder,
    is_irreducible,
    lagrange_interpolate,
    root_free_monic,
)

F4 = make_field(2, 1)
F9 = make_field(3, 1)
F16 = make_field(2, 2)
F64 = make_field(2, 3)
F256 = make_field(2, 4)  # the largest tower with byte tables
F289 = make_field(17, 1)  # past them: op_tables are views on the methods


def random_poly(F, max_deg, rng):
    return Poly(F, [rng.randrange(F.order) for _ in range(max_deg + 1)])


def test_normalization_and_degree():
    f = Poly(F9, (1, 2, 0, 0))
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    assert Poly(F9).degree == -1
    assert Poly.zero(F9).is_zero()
    assert Poly.one(F9).degree == 0
    assert Poly(F9, (0, 1)).degree == 1
    assert Poly(F9, (0, 0, 0, 1)).degree == 3


def test_coeff_out_of_range_rejected():
    with pytest.raises(ValueError):
        Poly(F4, (5,))


def test_poly_edges_division_by_zero_frobenius_of_zero_equality_and_repr():
    f = Poly(F9, (1, 2, 1))
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        divmod(f, Poly.zero(F9))
    assert Poly.zero(F9).frobenius() == Poly.zero(F9)
    assert f.__eq__((1, 2, 1)) is NotImplemented and f != (1, 2, 1)
    assert repr(f) == "Poly(FieldTower(p=3, e=1), (1, 2, 1))"
    # irreducibility needs degree >= 1
    assert not is_irreducible(Poly.one(F9)) and not is_irreducible(Poly.zero(F9))


@pytest.mark.parametrize("F", [F9, F256, F289], ids=lambda F: f"F{F.order}")
def test_arithmetic_agrees_with_evaluation(F):
    rng = random.Random(2)
    points = F.elements() if F.order <= 16 else random.Random(F.order).sample(F.elements(), 32)
    for _ in range(50):
        f = random_poly(F, 4, rng)
        g = random_poly(F, 4, rng)
        for x in points:
            assert (f + g)(x) == F.add(f(x), g(x))
            assert (f * g)(x) == F.mul(f(x), g(x))
            assert (f - g)(x) == F.sub(f(x), g(x))
            assert (-f)(x) == F.neg(f(x))
    zero = Poly.zero(F)
    assert zero * f == f * zero == zero


@pytest.mark.parametrize("F", [F9, F256, F289], ids=lambda F: f"F{F.order}")
def test_divmod_invariant(F):
    rng = random.Random(3)
    for _ in range(50):
        f = random_poly(F, 6, rng)
        g = random_poly(F, 3, rng)
        if g.is_zero():
            continue
        quot, rem = divmod(f, g)
        assert rem.degree < g.degree
        assert quot * g + rem == f
    # a zero dividend, a dividend of lower degree and a constant divisor
    g = Poly(F, (1, 2, 3))
    assert divmod(Poly.zero(F), g) == (Poly.zero(F), Poly.zero(F))
    x = Poly(F, (0, 1))
    assert divmod(x, g) == (Poly.zero(F), x)
    assert divmod(g, Poly(F, (3,))) == (g.scaled(F.inv(3)), Poly.zero(F))


# -- the coefficient-list kernels against schoolbook arithmetic ----------

KERNEL_FIELDS = [PrimeField(2), PrimeField(3), PrimeField(251), F9, F256, F289,
                 make_field(2, 5)]


def schoolbook_ops(F):
    """(add, mul) as plain functions: arithmetic mod p on a PrimeField, the
    tower's methods on a FieldTower; neither reads op_tables."""
    if isinstance(F, PrimeField):
        p = F.p
        return (lambda x, y: (x + y) % p), (lambda x, y: x * y % p)
    return F.add, F.mul


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def schoolbook_product(F, a, b):
    add, mul = schoolbook_ops(F)
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return out if a and b else []


def schoolbook_divmod(F, a, b):
    """Long division: take c x**s * b off the top term, s from the top down."""
    add, mul = schoolbook_ops(F)
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for s in reversed(range(len(quot))):
        c = mul(rem[s + len(b) - 1], F.inv(b[-1]))
        quot[s] = c
        for j, y in enumerate(b):
            rem[s + j] = add(rem[s + j], F.neg(mul(c, y)))
    return trimmed(quot), trimmed(rem)


def schoolbook_mulmod(F, a, b, f):
    rem = schoolbook_divmod(F, schoolbook_product(F, a, b), f)[1]
    return rem + [0] * (len(f) - 1 - len(rem))


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=lambda F: f"{type(F).__name__}{F.order}")
def test_kernels_match_schoolbook_arithmetic(F):
    """_product, _remainder with and without the quotient, _product with a
    tail (mulmod) and _power, on zero operands, short dividends, divisors
    whose leading coefficient is not 1, and squares, which take their own
    path in characteristic 2."""
    rng = random.Random(F.order)
    _, mul = schoolbook_ops(F)

    def coeffs(n):
        return [rng.randrange(F.order) for _ in range(n)]

    for _ in range(40):
        a, b = coeffs(rng.randrange(7)), coeffs(rng.randrange(7))
        assert _product(F, a, b) == schoolbook_product(F, a, b)
        assert _product(F, a, a) == schoolbook_product(F, a, a)
        assert _product(F, [0] * len(a), b) == [0] * len(schoolbook_product(F, a, b))

        divisor = coeffs(rng.randrange(1, 5)) + [rng.randrange(1, F.order)]
        for dividend in (trimmed(a), trimmed(coeffs(9)), [], [5 % F.order]):
            expected = schoolbook_divmod(F, dividend, divisor)
            assert _remainder(F, dividend, divisor, quotient=True) == expected
            assert _remainder(F, dividend, divisor) == expected[1]

        # f of degree d, usually not monic: x**d == tail (mod f)
        d = rng.randrange(1, 6)
        f = coeffs(d) + [rng.randrange(1, F.order)]
        minus_lc_inv = F.neg(F.inv(f[-1]))
        tail = [mul(minus_lc_inv, c) for c in f[:-1]]
        x, y = coeffs(d), coeffs(d)
        assert _product(F, x, y, tail) == schoolbook_mulmod(F, x, y, f)
        assert _product(F, x, x, tail) == schoolbook_mulmod(F, x, x, f)
        assert _product(F, [0] * d, y, tail) == [0] * d
        for m in (1, 2, 3, F.order, rng.randrange(1, 300)):
            expected = x
            for _ in range(m - 1):
                expected = schoolbook_mulmod(F, expected, x, f)
            assert _power(F, x, m, tail) == expected, m
        assert _power(F, [0] * d, 5, tail) == [0] * d


def test_frobenius_poly_examples():
    assert Poly(F9, (0, 1)).frobenius() == Poly(F9, (0,) * F9.q + (1,))
    c = F9.generator
    assert Poly(F9, (c,)).frobenius() == Poly(F9, (F9.frobenius(c),))


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
    (121, 2): (2, 0, 1),
    (64, 3): (2, 0, 0, 1),
    (32, 2): (8, 1, 1),
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


def reference_root_free(F, upper):
    """The c_0 with x**l + ... + c_1 x + c_0 root-free, for upper = [c_1,
    ..., c_(l-1), 1], by evaluating at every point with `schoolbook_ops`."""
    add, mul = schoolbook_ops(F)
    image = set()
    for x in F.elements():
        acc = 0
        for c in reversed(upper):
            acc = mul(add(acc, c), x)
        image.add(acc)
    return [c0 for c0 in F.elements() if F.neg(c0) not in image]


def sample_blocks(F, degree, rng):
    """Blocks of one superblock and the next: g = x**l, blocks whose middle
    coefficients are zero, random ones, two that share c_2..c_(l-1), and
    one whose zero coefficients c_3..c_(l-1) come before a nonzero c_2 in
    Horner's order."""
    Q = F.order
    blocks = [[0] * (degree - 1) + [1], [1] + [0] * (degree - 2) + [1],
              [Q - 1] + [0] * (degree - 2) + [1]]
    if degree > 2:
        blocks.append([rng.randrange(Q)] + [0] * (degree - 3) + [rng.randrange(1, Q), 1])
        blocks.append([0] * (degree - 2) + [rng.randrange(1, Q), 1])
    for _ in range(3):
        blocks.append([rng.randrange(Q) for _ in range(degree - 1)] + [1])
    blocks.append([rng.randrange(Q)] + blocks[-1][1:])
    if degree > 3:
        blocks.append([rng.randrange(Q), rng.randrange(1, Q)] + [0] * (degree - 3) + [1])
    return blocks


# towers past the byte tables, where the search computes its images in bulk
BULK_FIELDS = [make_field(17, 1), make_field(5, 2), make_field(3, 3), make_field(2, 5)]


@pytest.mark.parametrize("F", BULK_FIELDS, ids=lambda F: f"F{F.order}")
@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_bulk_root_free_matches_evaluation_at_every_point(F, degree):
    rng = random.Random(F.order * 10 + degree)
    root_free = poly._bulk_root_free(F)
    for upper in sample_blocks(F, degree, rng):
        free = root_free(upper)
        assert len(free) == F.order
        assert [c0 for c0 in F.elements() if free[c0]] == reference_root_free(F, upper), upper


@pytest.mark.parametrize("F", BULK_FIELDS + [make_field(2, 7), make_field(127, 1)],
                         ids=lambda F: f"F{F.order}")
def test_binomial_block_matches_a_full_pass(F, monkeypatch):
    # block 0, g = x**l, is read off the logs; every later block needs the
    # index tables of `_log_images`, built once, at the first such block
    built = []
    log_images = poly._log_images

    def counting(F):
        built.append(F)
        return log_images(F)

    monkeypatch.setattr(poly, "_log_images", counting)
    full = log_images(F)
    for degree in range(2, 7):
        root_free = poly._bulk_root_free(F)
        binomial = [0] * (degree - 1) + [1]
        assert root_free(binomial) == full(binomial), degree
        assert built == []
        assert root_free([1] + binomial[1:]) == full([1] + binomial[1:])
        root_free([2] + binomial[1:])
        assert built == [F]
        built.clear()


@pytest.mark.parametrize("F", BULK_FIELDS, ids=lambda F: f"F{F.order}")
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_root_free_candidates_past_the_byte_tables(F, degree):
    # only the first three blocks, never the whole Q**degree enumeration
    root_free = poly._block_images(F)
    got, expected = [], []
    for block in range(3):
        upper = [block] + [0] * (degree - 2) + [1]
        got += [(block, c0) for c0 in itertools.compress(F.elements(), root_free(upper))]
        expected += [(block, c0) for c0 in reference_root_free(F, upper)]
    assert got == expected
    if F.p == 2 and degree == 2:  # x**2 is a bijection: block 0 holds none
        assert got[0][0] == 1


@pytest.mark.parametrize("F", [F4, F9, F16], ids=["F4", "F9", "F16"])
def test_bulk_and_table_root_free_agree_on_every_small_block(F):
    bulk, table = poly._bulk_root_free(F), poly._table_root_free(F)
    for degree in (2, 3):
        for digits in itertools.product(range(F.order), repeat=degree - 1):
            upper = list(digits) + [1]
            assert bulk(upper) == table(upper), upper


# every tower with byte tables, and GF(p) as the modulus search sees it,
# up to p = 251, the largest p of a tower within MAX_ELEMENT_BOUND
TABLE_FIELDS = [make_field(p, e) for p, e in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                                  (5, 1), (7, 1), (11, 1), (13, 1))]
TABLE_FIELDS += [PrimeField(p) for p in (2, 3, 5, 7, 127, 251)]


@pytest.mark.parametrize("F", TABLE_FIELDS, ids=lambda F: f"{type(F).__name__}{F.order}")
def test_table_root_free_matches_evaluation_at_every_point(F):
    rng = random.Random(F.order)
    for degree in range(2, 6):
        root_free = poly._table_root_free(F)
        for upper in sample_blocks(F, degree, rng):
            free = root_free(upper)
            assert len(free) == F.order
            assert [c0 for c0 in F.elements() if free[c0]] == reference_root_free(F, upper), upper


def test_bulk_root_free_on_four_byte_tables():
    # past Q = 2**15 the logs and the zero sentinel need 4-byte entries
    F = make_field(3, 5, element_bound=2 ** 16)
    root_free = poly._bulk_root_free(F)
    for upper in ([0, 1], [5, 1], [F.order - 1, 1]):
        free = root_free(upper)
        assert [c0 for c0 in F.elements() if free[c0]] == reference_root_free(F, upper)


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


def reference_cubic_pair_marks(F, high):
    """The set of (c1, c0) with g + c1 x + c0 a product of two monic cubics,
    by multiplying out every pair whose x**2 coefficients add up to c_5."""
    add = F.op_tables[0]
    by_top = collections.defaultdict(list)
    for s in monic_polys(F, 3):
        by_top[s.coeff(2)].append(s)
    found = set()
    for r in monic_polys(F, 3):
        for s in by_top[add[high[3]][F.neg(r.coeff(2))]]:
            f = (r * s).coeffs
            if f[2:] == tuple(high):
                found.add((f[1], f[0]))
    return found


@pytest.mark.parametrize("F,count", [
    (F4, 6), (F9, 3), (PrimeField(2), 16), (PrimeField(3), 81),
], ids=["F4", "F9", "GF2", "GF3"])
def test_cubic_pair_marks_match_products_of_cubics(F, count):
    # superblock_highs starts with c_2..c_5 all 0, where b_2 == a_2 for
    # every a_2 in characteristic 2 and a_0 is free or absent, and ends
    # with them all Q - 1, where c_5 != 0
    rng = random.Random(F.order + 6)
    highs = superblock_highs(F, 6, count, rng)
    assert highs[0][3] == 0 and highs[-1][3] != 0
    for high in highs:
        marks = _cubic_pair_marks(F, high)
        got = {divmod(i, F.order) for i in range(F.order ** 2) if marks[i >> 3] >> (i & 7) & 1}
        expected = reference_cubic_pair_marks(F, high)
        assert expected and got == expected, high


def test_the_pinned_sextic_is_unmarked_in_its_own_superblock():
    # negative control: the (8, 6) answer is irreducible, so neither sieve
    # marks it, while its superblock holds marked candidates of both kinds
    F = field_for_prime_power(8)
    c0, c1, *high = PINNED_SCALING_POLYS[8, 6]
    i = c1 * F.order + c0
    for marks in (_quadratic_factor_marks(F, high), _cubic_pair_marks(F, high)):
        assert not marks[i >> 3] >> (i & 7) & 1
        assert any(marks)


@pytest.mark.parametrize("F,degree,count", [
    (F4, 4, 16), (F4, 5, 8), (F4, 6, 8),
    (F9, 4, 6), (F9, 5, 4), (F9, 6, 2),
    (F16, 4, 2), (F16, 5, 2), (F16, 6, 3),
], ids=lambda v: f"F{v.order}" if hasattr(v, "order") else str(v))
def test_sieve_leaves_exactly_the_irreducible_candidates(F, degree, count):
    # A superblock as the search reads it once sieved: a block's root-free
    # bits less its marks.  A candidate is left iff no monic linear factor
    # and no monic irreducible quadratic divides it and, at degree 6, it is
    # no product of two monic cubics; up to degree 6 that is iff it is
    # irreducible.  On F16 the products of cubics (about a million pairs
    # to multiply per superblock) are left to the irreducibility test.
    rng = random.Random(F.order * degree + 1)
    Q = F.order
    linear = [Poly(F, (F.neg(a), 1)) for a in F.elements()]
    root_free = poly._block_images(F)
    seen = set()
    for high in superblock_highs(F, degree, count, rng):
        marks = poly._sieve_marks(F, high)
        explicit = degree < 6 or Q < 16
        if explicit:
            quadratic = reference_quadratic_factor_marks(F, high)
            cubic_pairs = reference_cubic_pair_marks(F, high) if degree == 6 else set()
        for c1 in range(Q):
            left = poly._bits(root_free([c1, *high])) & ~(marks >> c1 * Q)
            for c0 in range(Q):
                f = Poly(F, (c0, c1) + high)
                kept = bool(left >> c0 & 1)
                seen.add(kept)
                assert kept == is_irreducible(f), f
                if explicit:
                    assert kept != (any((f % r).is_zero() for r in linear)
                                    or quadratic[c1 * Q + c0] or (c1, c0) in cubic_pairs), f
    assert seen == {False, True}


def sextics(F):
    """Every monic sextic in the search's enumeration order, lazily:
    `monic_polys` would hold all Q**6 of them."""
    for coeffs in itertools.product(range(F.order), repeat=6):
        yield Poly(F, coeffs[::-1] + (1,))


@pytest.mark.parametrize("F", [F16, F64, PrimeField(2), PrimeField(3), PrimeField(5)],
                         ids=["F16", "F64", "GF2", "GF3", "GF5"])
def test_root_free_monic_sextic_is_the_first_irreducible_of_a_full_scan(F):
    first = next(f for f in sextics(F) if is_irreducible(f))
    assert root_free_monic.__wrapped__(F, 6) == first


@functools.lru_cache(maxsize=None)
def factorizations(F, top):
    """{f: its monic irreducible factors, with multiplicity} for every monic
    f of degree 1 to top, sieve-of-Eratosthenes style.  Degree by degree,
    the products of an irreducible g, at most half the degree, and a monic
    h of the rest are the reducible polynomials, each factored as g and h's
    factors; every other one is irreducible."""
    found = {}
    irreducibles = []
    for d in range(1, top + 1):
        for g in irreducibles:
            if 2 * g.degree <= d:
                for h in monic_polys(F, d - g.degree):
                    found.setdefault(g * h, (g,) + found[h])
        for f in monic_polys(F, d):
            if f not in found:
                found[f] = (f,)
                irreducibles.append(f)
    return found


def expected_disc_parity(factors):
    """Stickelberger: disc(f) of a squarefree f of degree d with r
    irreducible factors is a square iff d - r is even, and it is 0 when f
    has a repeated factor.  The parity is 0 for a square, 1 otherwise."""
    if len(set(factors)) < len(factors):
        return None
    return (sum(g.degree for g in factors) - len(factors)) & 1


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_discriminant_parity_on_every_monic_polynomial_over_gf9(degree):
    factored = factorizations(F9, 4)
    parity = _discriminant_parity(F9, degree)
    seen = set()
    for f in monic_polys(F9, degree):
        factors = factored[f]
        assert functools.reduce(Poly.__mul__, factors) == f
        expected = expected_disc_parity(factors)
        assert parity(f.coeffs) == expected, (f, factors)
        seen.add(expected)
    assert seen == ({0, 1, None} if degree > 1 else {0})


def random_irreducible(F, degree, rng):
    while True:
        g = Poly(F, [rng.randrange(F.order) for _ in range(degree)] + [1])
        if is_irreducible(g):
            return g


def partitions(n, most=None):
    """The partitions of n into parts of at most `most`, parts descending."""
    most = n if most is None else most
    if n == 0:
        yield ()
    for part in range(min(n, most), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


# GF(289) is past LOOKUP_TABLE_MAX_ORDER, so the filter runs on the methods there.
@pytest.mark.parametrize("F", [make_field(5, 1), make_field(3, 2), make_field(17, 1)],
                         ids=["F25", "F81", "F289"])
def test_discriminant_parity_on_random_products(F):
    # every factorization shape of degrees 5 to 8, 2+2+2 and 3+3 among them,
    # each once with distinct random irreducible factors and once with its
    # largest factor repeated in place of the next
    rng = random.Random(F.order)
    seen = set()
    for degree in range(5, 9):
        parity = _discriminant_parity(F, degree)
        for shape in partitions(degree):
            factors = tuple(random_irreducible(F, k, rng) for k in shape)
            cases = [factors]
            if len(shape) > 1 and shape[0] == shape[1]:
                cases.append(factors[:1] * 2 + factors[2:])
            for case in cases:
                f = functools.reduce(Poly.__mul__, case)
                expected = expected_disc_parity(case)
                assert parity(f.coeffs) == expected, (f, case)
                seen.add(expected)
    assert seen == {0, 1, None}


# Calls to the irreducibility test per search, (q, degree) -> (before the
# sieve starts, after).  In odd characteristic the search first drops each
# root-free candidate whose discriminant's quadratic character proves it
# reducible (Stickelberger 1897; Swan, Pacific J. Math. 1962: a squarefree
# polynomial of degree d with r irreducible factors has a square
# discriminant iff d - r is even), and a drop counts as no failed test: at
# (9, 6) the filter drops 2,360 of the 2,361 root-free candidates up to
# the answer, and at (13, 5) the first one.  Each superblock sieves after
# Q**2 // 64 failed tests of its own: 1,024 at Q = 256 and 64 at Q = 64.
# The first superblock of (16, 4), (8, 4) and (8, 6) holds no irreducible
# polynomial: it is sieved after its budget, and its marks leave no
# candidate.  The second starts with a full budget.  Its answer is the
# 129th root-free candidate at (16, 4), within the budget, and the 22nd at
# (8, 6); at (8, 4) it is the 81st, so that superblock is sieved too.
# Testing every root-free candidate up to the answer would take 16,449
# calls at (16, 4), 1,089 at (8, 4) and 1,387 at (8, 6).  Up to degree 6
# an unmarked root-free candidate is irreducible, so a sieved superblock
# returns its first one without testing it.
IRREDUCIBILITY_TESTS = {
    (16, 4): (1153, 0),
    (8, 4): (128, 0),
    (13, 5): (1, 0),
    (7, 5): (1, 0),
    (9, 6): (1, 0),
    (8, 6): (86, 0),
}


@pytest.mark.parametrize("q,degree", IRREDUCIBILITY_TESTS)
def test_root_free_monic_sieves_before_testing_irreducibility(q, degree, monkeypatch):
    calls = []
    test = poly._irreducible_from

    def counting(F, f, start):
        calls.append(start)
        return test(F, f, start)

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
    assert g == Poly(F9, (7,))


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


@pytest.mark.parametrize(
    "points, values, message",
    [
        ([0, 1], [5, 999], "value 999 is not an element"),
        ([0, 1], [5, True], "value True is not an element"),
        ([0, 1000], [1, 2], "interpolation point 1000 is not an element"),
        ([0, -3], [1, 2], "interpolation point -3 is not an element"),
        ([0, 1.0], [1, 2], "interpolation point 1.0 is not an element"),
    ],
)
def test_lagrange_rejects_values_that_are_not_field_elements(points, values, message):
    # unchecked, a value past the field can still interpolate, and a point
    # past it indexes outside the field's tables
    with pytest.raises(ValueError, match=re.escape(message)):
        lagrange_interpolate(F9, points, values)
