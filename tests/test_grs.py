import itertools
import random
import re

import pytest

from qmds.field import field_for_prime_power, make_field
from qmds.grs import (
    CapExceeded,
    GRSCode,
    LinearCode,
    as_linear_code,
    dual_basis,
    encode,
    generator_matrix,
    hermitian_dual_contains,
    in_hermitian_dual,
    is_hermitian_self_orthogonal,
    is_mds_by_rank,
    min_distance_bruteforce,
    w_vector,
)
from qmds.linalg import rank
from qmds.poly import Poly

F4 = make_field(2, 1)
F9 = make_field(3, 1)
TWO = F9.add(1, 1)  # the element 2 of GF(3) inside GF(9)


def random_code(F, rng, extended=False, max_n=7):
    n = rng.randrange(2, min(max_n, F.order) + 1)
    points = tuple(rng.sample(range(F.order), n))
    k = rng.randrange(1, n + 1)
    v = tuple(rng.randrange(1, F.order) for _ in range(n))
    return GRSCode(F, points, v, k, extended=extended)


def method_dot(F, x, y):
    """sum_i x_i y_i on the field's methods, not its lookup tables."""
    acc = 0
    for a, b in zip(x, y):
        acc = F.add(acc, F.mul(a, b))
    return acc


def assert_spans_dual(F, generator, basis):
    """basis spans the Euclidean dual of the row space of generator: each
    row is orthogonal to each generator row, and the rows are independent
    and length - k of them."""
    assert all(method_dot(F, g, d) == 0 for g in generator for d in basis)
    assert len(basis) == rank(F, basis) == len(generator[0]) - rank(F, generator)


def euclidean_dual(code):
    """Closed-form Euclidean dual of a plain GRS_k(a, v): the unit-multiplier
    basis with column i divided by v_i, the rows of GRS_{n-k}(a, w/v)."""
    F = code.field
    return [[F.mul(x, F.inv(vi)) for x, vi in zip(row, code.v)]
            for row in dual_basis(F, code.a, code.k)]


# ----------------------------------------------------------------------
# construction invariants
# ----------------------------------------------------------------------

def test_code_validation():
    with pytest.raises(ValueError):
        GRSCode(F9, (0, 0, 1), (1, 1, 1), 1)  # duplicate point
    with pytest.raises(ValueError):
        GRSCode(F9, (0, 1), (1, 0), 1)  # zero multiplier
    with pytest.raises(ValueError):
        GRSCode(F9, (0, 1), (1, 1), 3)  # k > n, not extended
    GRSCode(F9, (0, 1), (1, 1), 3, extended=True)  # k = n+1 is fine extended
    with pytest.raises(ValueError):
        GRSCode(F9, (0, 99), (1, 1), 1)  # out-of-range element


@pytest.mark.parametrize("k", [True, 1.0], ids=["bool", "float"])
def test_grs_code_rejects_a_dimension_that_is_not_an_int(k):
    with pytest.raises(ValueError, match="dimension"):
        GRSCode(F4, (0, 1), (1, 1), k)


@pytest.mark.parametrize("c", [2.5, 1.0, True, 0.0], ids=["float", "whole-float", "bool", "zero-float"])
def test_poly_rejects_a_coefficient_that_is_not_an_int(c):
    with pytest.raises(ValueError, match="coefficient"):
        Poly(F4, [1, c])  # a trailing 0.0 is rejected, not trimmed away


def test_linear_code_validation():
    with pytest.raises(ValueError):
        LinearCode(F9, ((1, 1), (TWO, TWO)))  # dependent rows
    zero_dim = LinearCode(F9, (), length=4)
    assert zero_dim.k == 0 and zero_dim.length == 4
    with pytest.raises(ValueError):
        LinearCode(F9, ())  # zero-dimensional needs an explicit length


def _rank_must_not_run(*args):
    raise AssertionError("the rank test ran on an entry outside the field")


@pytest.mark.parametrize("entry", [1.5, True], ids=["float", "bool"])
def test_grs_code_rejects_an_entry_that_is_not_an_int(entry):
    with pytest.raises(ValueError, match=re.escape(f"evaluation point {entry!r} is not an element of {F4!r}")):
        GRSCode(F4, (0, entry), (1, 1), 1)
    with pytest.raises(ValueError, match=re.escape(f"column multiplier {entry!r} is not an element of {F4!r}")):
        GRSCode(F4, (0, 2), (1, entry), 1)


@pytest.mark.parametrize("entry", [1.5, True], ids=["float", "bool"])
def test_linear_code_rejects_an_entry_that_is_not_an_int(monkeypatch, entry):
    monkeypatch.setattr("qmds.grs.rank", _rank_must_not_run)
    with pytest.raises(ValueError, match=re.escape(f"generator entry {entry!r} is not an element of {F4!r}")):
        LinearCode(F4, ((1, entry, 2),))


def test_linear_code_rejects_a_negative_entry(monkeypatch):
    # -1 would index the last row of a lookup table: GF(4) element 3
    monkeypatch.setattr("qmds.grs.rank", _rank_must_not_run)
    with pytest.raises(ValueError, match=re.escape(f"generator entry -1 is not an element of {F4!r}")):
        LinearCode(F4, ((1, -1, 2),))


def test_linear_code_rejects_an_entry_past_the_field(monkeypatch):
    # 7 is past GF(4); brute force used to fail on it with an IndexError
    monkeypatch.setattr("qmds.grs.rank", _rank_must_not_run)
    with pytest.raises(ValueError, match=re.escape(f"generator entry 7 is not an element of {F4!r}")):
        LinearCode(F4, ((1, 7, 2),))


# ----------------------------------------------------------------------
# generator matrix and encoding
# ----------------------------------------------------------------------

def test_generator_matrix_k1_all_ones():
    code = GRSCode(F9, (0, 1, TWO), (1, 1, 1), 1)
    assert generator_matrix(code) == [[1, 1, 1]]


def test_generator_matrix_direct_substitution():
    code = GRSCode(F9, (0, 1, TWO), (1, 1, 1), 2)
    assert generator_matrix(code) == [[1, 1, 1], [0, 1, TWO]]


def test_generator_matrix_extended_last_column():
    for k in (1, 2, 3):
        code = GRSCode(F9, (0, 1, TWO, 4), (1, 1, 1, 1), k, extended=True)
        G = generator_matrix(code)
        assert [row[-1] for row in G] == [0] * (k - 1) + [1]


def test_encode_zero_and_top_coefficient():
    code = GRSCode(F9, (0, 1, TWO), (1, 1, 1), 2, extended=True)
    assert encode(code, Poly.zero(F9)) == (0,) * 4
    word = encode(code, Poly(F9, (0, 1)))  # f = x^(k-1) = x
    assert word[-1] == 1
    with pytest.raises(ValueError):
        encode(code, Poly(F9, (0, 0, 1)))  # degree k


def test_encode_is_linear_and_injective():
    rng = random.Random(11)
    code = random_code(F9, rng)
    for _ in range(20):
        f1 = Poly(F9, [rng.randrange(9) for _ in range(code.k)])
        f2 = Poly(F9, [rng.randrange(9) for _ in range(code.k)])
        lhs = encode(code, f1 + f2)
        rhs = tuple(F9.add(x, y) for x, y in zip(encode(code, f1), encode(code, f2)))
        assert lhs == rhs
    # injectivity: the code has exactly q^(2k) distinct words (q^2 = 9 here)
    small = GRSCode(F4, (0, 1, 2), (1, 1, 1), 2)
    words = set()
    for coeffs in itertools.product(range(4), repeat=2):
        words.add(encode(small, Poly(F4, coeffs)))
    assert len(words) == 4 ** 2


# ----------------------------------------------------------------------
# w vector and dual descriptions
# ----------------------------------------------------------------------

def test_w_vector_single_point():
    assert w_vector(F9, [5]) == [1]


def test_w_vector_direct_product_oracle():
    a = (0, 1, TWO)
    expected = []
    for i in range(3):
        acc = 1
        for j in range(3):
            if j != i:
                acc = F9.mul(acc, F9.sub(a[i], a[j]))
        expected.append(F9.inv(acc))
    assert w_vector(F9, a) == expected == [TWO, TWO, TWO]


def test_w_vector_nonzero_and_distinct_required():
    assert all(x != 0 for x in w_vector(F9, list(range(7))))
    with pytest.raises(ValueError):
        w_vector(F9, [1, 1])


@pytest.mark.parametrize("points", [[0, -3], [0, 9], [0, True], [0, 1.0]])
def test_w_vector_rejects_points_that_are_not_field_elements(points):
    # the field's tables would read -3 as an element
    with pytest.raises(ValueError, match=f"point {points[1]!r} is not an element"):
        w_vector(F9, points)


def test_dual_basis_example_rows():
    a = (0, 1, TWO)
    rows = dual_basis(F9, a, 1)
    assert rows == [[TWO, TWO, TWO], [0, TWO, F9.mul(TWO, TWO)]]
    # each row is Euclidean-orthogonal to the all-ones generator
    for row in rows:
        acc = 0
        for x in row:
            acc = F9.add(acc, x)
        assert acc == 0


def test_dual_basis_dimension_and_k_equals_n():
    a = tuple(range(5))
    for k in range(1, 5):
        assert len(dual_basis(F9, a, k)) == 5 - k
        assert rank(F9, dual_basis(F9, a, k)) == 5 - k
    assert dual_basis(F9, a, 5) == []


@pytest.mark.parametrize("F", [F4, F9], ids=["F4", "F9"])
def test_dual_basis_spans_nullspace_dual(F):
    # the Euclidean dual is the nullspace of the generator
    points = tuple(range(min(6, F.order)))
    n = len(points)
    for k in range(1, n):
        code = GRSCode(F, points, (1,) * n, k)
        assert_spans_dual(F, generator_matrix(code), dual_basis(F, points, k))


def test_extended_dual_basis_last_coordinates():
    points = tuple(range(5))
    for k in range(1, 6):
        rows = dual_basis(F9, points, k, extended=True)
        assert len(rows) == 5 - k + 1
        for j, row in enumerate(rows):
            if j < 5 - k:
                assert row[-1] == 0
            else:
                assert row[-1] == F9.neg(1)


@pytest.mark.parametrize("F", [F4, F9], ids=["F4", "F9"])
def test_extended_dual_basis_spans_nullspace_dual(F):
    points = tuple(range(min(6, F.order)))
    n = len(points)
    for k in range(1, n + 2):
        code = GRSCode(F, points, (1,) * n, k, extended=True)
        assert_spans_dual(F, generator_matrix(code), dual_basis(F, points, k, extended=True))


def test_dual_basis_rejects_k_out_of_range():
    for k, extended in ((0, False), (6, False), (0, True), (7, True)):
        with pytest.raises(ValueError, match="out of range"):
            dual_basis(F9, tuple(range(5)), k, extended)


def test_hermitian_dual_is_frobenius_of_euclidean_dual():
    # u is in the Hermitian dual iff u^(q) is in the Euclidean dual, and
    # x -> x^q is an involution on GF(q^2)
    rng = random.Random(13)
    for _ in range(20):
        code = random_code(F9, rng)
        generator = generator_matrix(code)
        eucl = euclidean_dual(code)
        assert_spans_dual(F9, generator, eucl)
        for row in eucl:
            u = [F9.frobenius(x) for x in row]
            assert [F9.pow(x, 3) for x in u] == row
            assert hermitian_dual_contains(code, u)
            # v_0 != 0, so changing u_0 breaks the product with generator row 0
            u[0] = F9.add(u[0], 1)
            assert method_dot(F9, [F9.pow(x, 3) for x in u], generator[0]) != 0
            assert not hermitian_dual_contains(code, u)


@pytest.mark.parametrize("extended", [False, True])
def test_hermitian_dual_contains_rejects_a_word_of_the_wrong_length(extended):
    # the row products zip the word with each row, so a word of another
    # length would be truncated to the code's and could read as a member
    code = GRSCode(F9, (0, 1, TWO, 4), (1, 1, 1, 1), 2, extended=extended)
    assert hermitian_dual_contains(code, (0,) * code.length)
    for word in ((), (0,), (0,) * 7, (0,) * (code.length + 1), (0,) * (code.length - 1)):
        with pytest.raises(ValueError, match=f"word of length {len(word)} "):
            hermitian_dual_contains(code, word)


def test_hermitian_dual_contains_rejects_entries_that_are_no_elements():
    # none of these is an element encoding of GF(9)
    code = GRSCode(F9, (0, 1, TWO), (1, 1, 1), 2)
    assert hermitian_dual_contains(code, [0, 0, 0])
    for bad in (999, 9, -1, True, 1.0, None):
        with pytest.raises(ValueError, match="word entry"):
            hermitian_dual_contains(code, [bad, 0, 0])


@pytest.mark.parametrize("extended", [False, True])
def test_messages_over_another_field_are_refused(extended):
    # Poly(GF(4), x + 2)'s coefficients are GF(9) encodings too, so only the
    # field tells such a message apart
    code = GRSCode(F9, (0, 1, TWO), (1, 1, 1), 2, extended=extended)
    for f in (Poly(F4, [1, 2]), Poly(make_field(2, 2), [1]), Poly.zero(F4)):
        with pytest.raises(ValueError, match="message over"):
            encode(code, f)
        with pytest.raises(ValueError, match="message over"):
            in_hermitian_dual(code, f)
    assert encode(code, Poly(F9, [1, 2]))[:3] == (1, F9.add(1, 2), F9.add(1, F9.mul(2, TWO)))


# ----------------------------------------------------------------------
# Hermitian self-orthogonality
# ----------------------------------------------------------------------

def test_as_linear_code_returns_a_linear_code_itself():
    code = LinearCode(F4, ((1, 1, 1),))
    assert as_linear_code(code) is code


def test_both_distance_kernels_reject_the_zero_code():
    zero = LinearCode(F4, (), length=3)
    with pytest.raises(ValueError, match="the zero code has no nonzero codewords"):
        min_distance_bruteforce(zero)
    with pytest.raises(ValueError, match="the zero code has no distance"):
        is_mds_by_rank(zero)


def test_zero_dimensional_code_is_self_orthogonal():
    ok, witness = is_hermitian_self_orthogonal(LinearCode(F9, (), length=5))
    assert ok and witness is None


def test_all_ones_weight5_generator_over_gf4_is_not_self_orthogonal():
    code = LinearCode(F4, ((1, 1, 1, 1, 1),))
    ok, witness = is_hermitian_self_orthogonal(code)
    assert not ok
    i, j, value = witness
    assert (i, j) == (0, 0)
    # witness value is the Hermitian inner product: sum of five norms = 1
    acc = 0
    for c in (1, 1, 1, 1, 1):
        acc = F4.add(acc, F4.norm(c))
    assert value == acc == 1


def test_witness_row_pair_recomputes_to_nonzero():
    code = GRSCode(F9, tuple(range(5)), (1,) * 5, 2)
    ok, witness = is_hermitian_self_orthogonal(code)
    assert not ok
    i, j, value = witness
    G = generator_matrix(code)
    acc = 0
    for x, y in zip(G[i], G[j]):
        acc = F9.add(acc, F9.mul(F9.frobenius(x), y))
    assert acc == value != 0


# ----------------------------------------------------------------------
# membership criteria vs the direct dual check
# ----------------------------------------------------------------------

@pytest.mark.parametrize("F", [F4, F9], ids=["F4", "F9"])
@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_membership_criterion_agrees_with_direct_membership(F, extended):
    rng = random.Random(F.order + int(extended))
    agreements = 0
    for _ in range(60):
        code = random_code(F, rng, extended=extended)
        f = Poly(F, [rng.randrange(F.order) for _ in range(code.k)])
        got = in_hermitian_dual(code, f)
        want = hermitian_dual_contains(code, encode(code, f))
        assert got == want
        agreements += 1
    assert agreements == 60


def test_membership_zero_message_always_in_dual():
    rng = random.Random(15)
    for extended in (False, True):
        code = random_code(F9, rng, extended=extended)
        assert in_hermitian_dual(code, Poly.zero(F9))


def test_membership_rejects_overlong_message():
    code = GRSCode(F9, (0, 1), (1, 1), 1)
    with pytest.raises(ValueError):
        in_hermitian_dual(code, Poly(F9, (0, 1)))


# ----------------------------------------------------------------------
# distances
# ----------------------------------------------------------------------

def test_k1_unit_code_has_full_distance():
    for n in (2, 4, 6):
        code = GRSCode(F9, tuple(range(n)), (1,) * n, 1)
        assert min_distance_bruteforce(as_linear_code(code)) == n


@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (5, 2), (6, 3), (7, 4)])
def test_grs_codes_are_mds(n, k):
    rng = random.Random(n * 10 + k)
    v = tuple(rng.randrange(1, 9) for _ in range(n))
    code = GRSCode(F9, tuple(range(n)), v, k)
    assert min_distance_bruteforce(as_linear_code(code)) == n - k + 1
    ext = GRSCode(F9, tuple(range(n)), v, k, extended=True)
    assert min_distance_bruteforce(as_linear_code(ext)) == n - k + 2


def test_mds_grid_with_random_multipliers():
    # plain codes hit distance n-k+1 and extended ones n-k+2, across the
    # whole small-parameter grid; brute force within its cap, the k-column
    # rank test beyond it
    rng = random.Random(31)
    cells = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field_for_prime_power(q)
        for n in range(2, min(12, F.order) + 1):
            points = tuple(rng.sample(range(F.order), n))
            for k in range(1, min(4, n) + 1):
                v = tuple(rng.randrange(1, F.order) for _ in range(n))
                for extended in (False, True):
                    code = GRSCode(F, points, v, k, extended=extended)
                    lc = as_linear_code(code)
                    expected = lc.length - lc.k + 1
                    if F.order ** k <= 10 ** 6:
                        got = min_distance_bruteforce(lc)
                        assert got == expected, (q, n, k, extended, got)
                    else:
                        assert is_mds_by_rank(lc), (q, n, k, extended)
                    cells += 1
    assert cells > 300


def test_code_size_is_order_to_the_k():
    rng = random.Random(32)
    for q, n, k in ((2, 3, 2), (2, 4, 1), (3, 3, 2), (3, 4, 1), (4, 3, 2), (3, 4, 2)):
        F = field_for_prime_power(q)
        v = tuple(rng.randrange(1, F.order) for _ in range(n))
        code = GRSCode(F, tuple(range(n)), v, k)
        words = {
            encode(code, Poly(F, coeffs))
            for coeffs in itertools.product(range(F.order), repeat=k)
        }
        assert len(words) == F.order ** k


def _generator_must_not_be_built(code):
    raise AssertionError("the cap check must come before any generator")


def test_bruteforce_cap(monkeypatch):
    # 16**5 = 1,048,576 codewords, past BRUTE_FORCE_CAP = 10**6
    F16 = field_for_prime_power(4)
    code = GRSCode(F16, tuple(range(8)), (1,) * 8, 5)
    monkeypatch.setattr("qmds.grs.generator_matrix", _generator_must_not_be_built)
    with pytest.raises(CapExceeded, match="1048576 codewords"):
        min_distance_bruteforce(code)


def test_rank_test_examples():
    vand = GRSCode(F9, tuple(range(5)), (1,) * 5, 2)
    assert is_mds_by_rank(as_linear_code(vand))
    repeated = LinearCode(F9, ((1, 1, 0), (0, 0, 1)))
    assert not is_mds_by_rank(repeated)


def test_rank_test_cap(monkeypatch):
    # C(30, 5) = 142,506 column subsets, past RANK_TEST_CAP = 10**5
    F64 = field_for_prime_power(8)
    code = GRSCode(F64, tuple(range(30)), (1,) * 30, 5)
    monkeypatch.setattr("qmds.grs.generator_matrix", _generator_must_not_be_built)
    with pytest.raises(CapExceeded, match="142506 column subsets"):
        is_mds_by_rank(code)


def test_rank_test_agrees_with_bruteforce():
    rng = random.Random(16)
    for _ in range(15):
        code = random_code(F9, rng, max_n=5)
        if F9.order ** code.k > 10 ** 4:
            continue
        lc = as_linear_code(code)
        brute_mds = min_distance_bruteforce(lc) == lc.length - lc.k + 1
        assert is_mds_by_rank(lc) == brute_mds


def test_hermitian_dual_of_mds_code_is_mds():
    rng = random.Random(17)
    checked = 0
    for _ in range(10):
        code = random_code(F9, rng, max_n=6)
        rows = [[F9.frobenius(x) for x in row] for row in euclidean_dual(code)]
        if not 1 <= len(rows) <= 3:
            continue
        generator = generator_matrix(code)
        assert all(method_dot(F9, [F9.pow(x, 3) for x in u], g) == 0
                   for u in rows for g in generator)
        dual = LinearCode(F9, rows)
        assert dual.k == code.n - code.k
        assert min_distance_bruteforce(dual) == dual.length - dual.k + 1
        checked += 1
    assert checked


# ----------------------------------------------------------------------
# the interpolation identity behind the extended dual description
# ----------------------------------------------------------------------

def test_weighted_power_sums_of_bounded_degree_polynomials():
    # for deg g <= n-k: sum_i w_i g(a_i) a_i^s == 0 for 0 <= s <= k-2,
    # and == g_{n-k} at s = k-1
    rng = random.Random(18)
    for n in range(3, 9):
        points = tuple(range(n))
        w = w_vector(F9, points)
        for k in range(1, n):
            for _ in range(5):
                g = Poly(F9, [rng.randrange(9) for _ in range(n - k + 1)])
                for s in range(k):
                    acc = 0
                    for ai, wi in zip(points, w):
                        acc = F9.add(
                            acc, F9.mul(F9.mul(wi, g(ai)), F9.pow(ai, s))
                        )
                    if s <= k - 2:
                        assert acc == 0
                    else:
                        assert acc == g.coeff(n - k)
