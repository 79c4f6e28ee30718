import hashlib
import random
import tracemalloc

import pytest

from qmds.field import (
    DEFAULT_ELEMENT_BOUND,
    MAX_ELEMENT_BOUND,
    FieldTower,
    ParameterError,
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


# The packed generator (the primitive element with the smallest packed
# coefficient vector) and the first 16 hex digits of
# sha256(repr((exp, zech, frob))) of every tower in MODULI.  The table was
# generated with the build that took one polynomial product per exp step
# and one digit-wise vector addition per Zech entry, before the
# table-driven step replaced it.
TABLES = {
    (2, 1): (2, "99cb745310cbd99c"),
    (2, 2): (2, "00d09f6775792340"),
    (2, 3): (2, "50dc7924d0d8fe51"),
    (2, 4): (3, "6dcf952848cb1a5b"),
    (2, 5): (2, "90b2d6949c6de026"),
    (2, 6): (3, "6c89029a07f27a63"),
    (2, 7): (7, "adb1d70636bbf8b1"),
    (2, 8): (3, "944e4c0c421e2cb8"),
    (3, 1): (4, "94056c4c660783c3"),
    (3, 2): (3, "87aceae487320e62"),
    (3, 3): (3, "8f478e15a7090b5f"),
    (3, 4): (38, "79d1b4ebe8cdee7c"),
    (3, 5): (34, "0ae8044e2b9743f3"),
    (5, 1): (6, "9ab7fc0f95bca9f5"),
    (5, 2): (6, "8861a5bffed6d85f"),
    (5, 3): (5, "fddf378ba6f1a45b"),
    (7, 1): (9, "406f7c5f97817fb5"),
    (7, 2): (12, "e792883c118186cf"),
    (11, 1): (15, "34ac765c35c88d5f"),
    (11, 2): (11, "93f40d62c8aee2d5"),
    (13, 1): (15, "c42bd22b8ead3932"),
    (13, 2): (17, "196535827782ec24"),
    (17, 1): (19, "3611e040b611794d"),
    (19, 1): (22, "fbcbb382d01ff977"),
    (23, 1): (25, "f13f93dc20cd52cf"),
    (29, 1): (30, "5289325bf53d944f"),
    (31, 1): (35, "ffbe9f3ce340a12f"),
    (37, 1): (41, "4bf1c562eb2fae87"),
    (41, 1): (43, "0b908fee4d4c3c33"),
    (43, 1): (45, "9669819aa7bab2d7"),
    (47, 1): (49, "86b33004cb9cfac8"),
    (53, 1): (54, "fb24e8d6195566de"),
    (59, 1): (62, "2505ba08276fe494"),
    (61, 1): (63, "663e7659a6aa4c56"),
    (67, 1): (74, "97a12a36c3ae01ca"),
    (71, 1): (79, "93118fd8df322c84"),
    (73, 1): (76, "50e76393d47adef2"),
    (79, 1): (85, "820e92a1b4947ec1"),
    (83, 1): (93, "f4e3cd4bd0ccec1b"),
    (89, 1): (91, "123e26cd312a412a"),
    (97, 1): (101, "bf5688d9ccae5de6"),
    (101, 1): (102, "647d5f0d03f49269"),
    (103, 1): (105, "a07cf36bc0eb5a2b"),
    (107, 1): (109, "b7e9793b066e7948"),
    (109, 1): (111, "d9c893ef2f6e6c5c"),
    (113, 1): (117, "97af5aa380f85207"),
    (127, 1): (135, "c7ef57776d6c72c8"),
    (131, 1): (134, "17eddd82c4eaa010"),
    (137, 1): (145, "60f52e7512d5aead"),
    (139, 1): (143, "5fbdc2eaeaed46fb"),
    (149, 1): (152, "e6b8432b7d192049"),
    (151, 1): (160, "98f0cd3c3baf85c0"),
    (157, 1): (159, "c322cd9f4be82578"),
    (163, 1): (170, "2304781ca3195c5b"),
    (167, 1): (169, "46f78deab8541f32"),
    (173, 1): (174, "98e4e59f06fda3d4"),
    (179, 1): (182, "6194f9e8ec46132b"),
    (181, 1): (185, "a781654dff39cf19"),
    (191, 1): (201, "670831851c8d429c"),
    (193, 1): (198, "78734d3704a0e5cf"),
    (197, 1): (200, "e87f9154d789fd8c"),
    (199, 1): (212, "15ed6d1a628bf923"),
    (211, 1): (215, "276736b0b087cbc8"),
    (223, 1): (225, "86e0df341b65bccc"),
    (227, 1): (229, "52ec68d039e90e73"),
    (229, 1): (231, "c4be10d90b6ac39d"),
    (233, 1): (241, "6d93941e2ca63091"),
    (239, 1): (247, "d4925bf61056db42"),
    (241, 1): (248, "a51b36e0d4a65bfa"),
    (251, 1): (256, "3bbc636c0587473c"),
}

# Fields whose every exp step and every add(1, x) is checked against the
# schoolbook reference; the others are sampled.  Their generators are
# x**2 + x + 1 and x + 8.
FULLY_CHECKED = {(2, 7), (127, 1)}


def unpack(v, p, n):
    digits = []
    for _ in range(n):
        v, r = divmod(v, p)
        digits.append(r)
    return digits


def pack(digits, p):
    return sum(d * p ** i for i, d in enumerate(digits))


def schoolbook_times(v, g, p, modulus):
    """v * g mod the monic modulus over GF(p), on packed coefficient
    vectors (base-p digits, constant term lowest)."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, a in enumerate(unpack(v, p, n)):
        if a:
            for j, b in enumerate(unpack(g, p, n)):
                prod[i + j] += a * b
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i] % p  # subtract c * x**(i - n) * modulus
        for j, m in enumerate(modulus):
            prod[i - n + j] -= c * m
    return pack([c % p for c in prod[:n]], p)


def test_every_admissible_tower_has_pinned_tables():
    assert set(TABLES) == set(MODULI)
    assert FULLY_CHECKED <= set(TABLES)


@pytest.mark.parametrize("p,e", sorted(TABLES))
def test_tables_are_pinned_and_match_a_schoolbook_reference(p, e):
    F = FieldTower(p, e)  # not make_field: its cache would keep 70 towers
    gen, log = F._log_table()
    M, n = F.order - 1, 2 * e
    # exp[j] == g**j packed, read off the log table the walk fills
    exp = [0] * M
    for v in range(1, F.order):
        exp[log[v]] = v
    # the pinned digests encode the Zech entry of 1 + x == 0 as None and
    # the Frobenius map as its list of values
    zech = [None if z >= M else z for z in F._zech]
    frob = [F.frobenius(x) for x in F.elements()]
    digest = hashlib.sha256(repr((list(exp), zech, frob)).encode()).hexdigest()
    assert (gen, digest[:16]) == TABLES[p, e]
    assert exp[1] == gen and F.generator == 2
    assert log[0] == 2 * M - 1 and all(log[v] == j for j, v in enumerate(exp))

    if (p, e) in FULLY_CHECKED:
        steps = range(M)
    else:
        # a random sample, the step that closes the cycle, and -1, whose
        # lowest digit wraps to give 1 + (-1) == 0
        rng = random.Random(p * 100 + e)
        steps = rng.sample(range(M), min(M, 64)) + [M - 1, log[p - 1]]
    for j in steps:
        assert schoolbook_times(exp[j], gen, p, F.modulus) == exp[(j + 1) % M], j
        digits = unpack(exp[j], p, n)
        digits[0] = (digits[0] + 1) % p
        s = pack(digits, p)
        assert F.add(1, 1 + j) == (0 if s == 0 else 1 + log[s]), j


@pytest.mark.parametrize("p,e", sorted(FULLY_CHECKED))
def test_table_build_memory_stays_near_its_typed_tables(p, e):
    # GF(2^14) and GF(127^2) have about 16,000 elements.  Their exp, log
    # and Zech tables (and in characteristic 2 the times-generator table)
    # take 2 bytes an entry, about 32 KB each; held as lists of ints, exp,
    # log and Zech peaked near 1.4 MB.
    FieldTower(p, e)  # caches the modulus search, so only the tables are traced
    tracemalloc.start()
    try:
        FieldTower(p, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2 ** 10


def test_gf_2_16_build_keeps_no_exp_table_beside_the_doubling():
    # GF(2^16) has 4-byte entries, 256 KB a table.  With an exp table filled
    # beside log, and log allocated before the times-generator table's
    # XOR-doubling, the build peaked at 1.15 MB; walking only log, allocated
    # after the doubling, it peaks near 0.65 MB.
    FieldTower(2, 8)  # caches the modulus search, so only the tables are traced
    tracemalloc.start()
    try:
        FieldTower(2, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 * 2 ** 10


@pytest.mark.parametrize("p", [2, 3, 251])
def test_prime_field_tables_are_built_once_and_match_arithmetic_mod_p(p):
    # rebuilding them on each access made FieldTower(127, 1) take seconds
    tables = PrimeField(p).op_tables
    assert PrimeField(p).op_tables is tables and PrimeField(p).op_tables is tables
    add, mul = tables
    assert all(type(row) is bytes for row in add + mul)
    assert [list(row) for row in add] == [[(x + y) % p for y in range(p)] for x in range(p)]
    assert [list(row) for row in mul] == [[x * y % p for y in range(p)] for x in range(p)]


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 8)  # 2^16 elements exceeds the default bound
    make_field(2, 8, element_bound=2 ** 16)  # override admits it


def test_fields_past_the_ceiling_are_rejected_where_they_are_built():
    # make_field takes the CLI's 4..2**16 range for its bound, and
    # FieldTower the ceiling itself; both once built these towers
    for bound in (3, 2 ** 18):
        with pytest.raises(ParameterError, match=f"element bound {bound} is outside 4..65536"):
            make_field(2, 9, element_bound=bound)
    with pytest.raises(ParameterError, match=r"GF\(257\^2\) exceeds the ceiling of 65536 elements"):
        FieldTower(257, 1)
    with pytest.raises(ParameterError, match=r"GF\(2\^2000000\) exceeds the ceiling"):
        FieldTower(2, 10 ** 6)  # rejected before 2**(2e) is computed


def test_field_tower_rejects_a_composite_p_and_a_nonpositive_e():
    with pytest.raises(ParameterError, match="p must be prime, got 4"):
        FieldTower(4, 1)
    with pytest.raises(ParameterError, match="extension degree must be positive, got 0"):
        FieldTower(2, 0)


def test_prime_field_rejects_a_composite_p_and_one_past_the_ceiling():
    with pytest.raises(ParameterError, match="p must be prime, got 4"):
        PrimeField(4)
    with pytest.raises(ParameterError, match=r"GF\(257\^2\) exceeds the ceiling of 65536 elements"):
        PrimeField(257)


def test_make_field_leaves_a_nonpositive_e_to_field_tower():
    # 10**400 ** -2 would overflow a float in the bound check
    with pytest.raises(ParameterError, match="extension degree must be positive, got -1"):
        make_field(10 ** 400, -1)


@pytest.mark.parametrize("p, e", UP_TO_16)
def test_add_rows_are_translate_tables(p, e):
    F = make_field(p, e)
    add = F.op_tables[0]
    elements = bytes(F.elements())
    assert len(add) == F.order
    for x, row in enumerate(add):
        assert len(row) == 256
        assert list(elements.translate(row)) == [F.add(x, y) for y in F.elements()]


def test_towers_are_equal_by_p_and_e_and_to_nothing_else():
    assert FieldTower(2, 1) == make_field(2, 1) != make_field(2, 2)
    assert make_field(2, 1).__eq__((2, 1)) is NotImplemented
    assert make_field(2, 1) != (2, 1)


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


def check_frobenius_fixes_exactly_the_subfield(F):
    """frobenius and in_subfield are formulas on the encoding: check them
    against pow, and their fixed points against subfield_elements."""
    fixed = set()
    for x in F.elements():
        assert F.frobenius(F.frobenius(x)) == x
        assert F.frobenius(x) == F.pow(x, F.q)
        assert F.in_subfield(x) == (F.frobenius(x) == x), x
        if F.frobenius(x) == x:
            fixed.add(x)
    assert fixed == set(F.subfield_elements()) and len(fixed) == F.q


@pytest.mark.parametrize("p,e", UP_TO_16)
def test_frobenius_is_an_involutive_automorphism(p, e):
    F = make_field(p, e)
    check_frobenius_fixes_exactly_the_subfield(F)
    for x in F.elements():
        for y in F.elements():
            assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))
            assert F.frobenius(F.add(x, y)) == F.add(F.frobenius(x), F.frobenius(y))


def test_frobenius_automorphism_sampled_beyond_256():
    for p, e in ((5, 2), (17, 1), (2, 7)):  # 625, 289 and 16384 elements
        F = make_field(p, e)
        check_frobenius_fixes_exactly_the_subfield(F)
        rng = random.Random(7)
        pairs = [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(2000)]
        pairs += [(x, F.neg(x)) for x, _ in pairs[:100]]  # sums that are 0
        for x, y in pairs:
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
