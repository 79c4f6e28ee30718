import itertools
import random

import pytest

from qmds.field import field_for_prime_power, make_field
from qmds.grs import (
    CapExceeded,
    GRSCode,
    LinearCode,
    as_linear_code,
    dual_basis,
    encode,
    extended_dual_basis,
    generator_matrix,
    hermitian_dual_contains,
    in_hermitian_dual,
    is_hermitian_self_orthogonal,
    is_mds_by_rank,
    min_distance_bruteforce,
    nullspace_dual,
    w_vector,
)
from qmds.linalg import same_row_space
from qmds.poly import Poly
from qmds.linalg import rank

F4 = make_field(2, 1)
F9 = make_field(3, 1)
TWO = F9.add(1, 1)  # the element 2 of GF(3) inside GF(9)


def random_code(F, rng, extended=False, max_n=7):
    n = rng.randrange(2, min(max_n, F.order) + 1)
    points = tuple(rng.sample(range(F.order), n))
    k = rng.randrange(1, n + 1)
    v = tuple(rng.randrange(1, F.order) for _ in range(n))
    return GRSCode(F, points, v, k, extended=extended)


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
    with pytest.raises(ValueError, match="field element"):
        GRSCode(F4, (0, entry), (1, 1), 1)
    with pytest.raises(ValueError, match="field element"):
        GRSCode(F4, (0, 2), (1, entry), 1)


@pytest.mark.parametrize("entry", [1.5, True], ids=["float", "bool"])
def test_linear_code_rejects_an_entry_that_is_not_an_int(monkeypatch, entry):
    monkeypatch.setattr("qmds.grs.rank", _rank_must_not_run)
    with pytest.raises(ValueError, match="field elements"):
        LinearCode(F4, ((1, entry, 2),))


def test_linear_code_rejects_a_negative_entry(monkeypatch):
    # -1 would index the last row of a lookup table: GF(4) element 3
    monkeypatch.setattr("qmds.grs.rank", _rank_must_not_run)
    with pytest.raises(ValueError, match="field elements"):
        LinearCode(F4, ((1, -1, 2),))


def test_linear_code_rejects_an_entry_past_the_field(monkeypatch):
    # 7 is past GF(4); brute force used to fail on it with an IndexError
    monkeypatch.setattr("qmds.grs.rank", _rank_must_not_run)
    with pytest.raises(ValueError, match="field elements"):
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
    word = encode(code, Poly.monomial(F9, 1))  # f = x^(k-1) = x
    assert word[-1] == 1
    with pytest.raises(ValueError):
        encode(code, Poly.monomial(F9, 2))  # degree k


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
    points = tuple(range(min(6, F.order)))
    n = len(points)
    for k in range(1, n):
        code = GRSCode(F, points, (1,) * n, k)
        described = dual_basis(F, points, k)
        computed = nullspace_dual(as_linear_code(code))
        assert same_row_space(F, described, computed.rows)


def test_extended_dual_basis_last_coordinates():
    points = tuple(range(5))
    for k in range(1, 6):
        rows = extended_dual_basis(F9, points, k)
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
    for k in range(1, n + 1):
        code = GRSCode(F, points, (1,) * n, k, extended=True)
        described = extended_dual_basis(F, points, k)
        computed = nullspace_dual(as_linear_code(code))
        assert same_row_space(F, described, computed.rows)


def test_nullspace_dual_dimensions_and_orthogonality():
    rng = random.Random(12)
    for _ in range(20):
        code = random_code(F9, rng)
        lc = as_linear_code(code)
        dual = nullspace_dual(lc)
        assert dual.k == lc.length - lc.k
        for g in lc.rows:  # G times the dual basis transposed is zero
            for h in dual.rows:
                acc = 0
                for x, y in zip(g, h):
                    acc = F9.add(acc, F9.mul(x, y))
                assert acc == 0
    full = as_linear_code(GRSCode(F9, tuple(range(4)), (1,) * 4, 4))
    assert nullspace_dual(full).k == 0


def test_hermitian_dual_is_frobenius_of_euclidean_dual():
    rng = random.Random(13)
    for _ in range(20):
        code = random_code(F9, rng)
        lc = as_linear_code(code)
        herm = nullspace_dual(lc, hermitian=True)
        eucl = nullspace_dual(lc)
        twisted = [[F9.frobenius(x) for x in row] for row in eucl.rows]
        assert same_row_space(F9, herm.rows, twisted)
        # definition check: u^(q) . G^T == 0 for every basis vector
        for u in herm.rows:
            assert hermitian_dual_contains(lc, u)


# ----------------------------------------------------------------------
# Hermitian self-orthogonality
# ----------------------------------------------------------------------

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
        in_hermitian_dual(code, Poly.x(F9))


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


def test_bruteforce_cap():
    code = GRSCode(F9, tuple(range(8)), (1,) * 8, 4)
    with pytest.raises(CapExceeded):
        min_distance_bruteforce(as_linear_code(code), 1000)


def test_rank_test_examples():
    vand = GRSCode(F9, tuple(range(5)), (1,) * 5, 2)
    assert is_mds_by_rank(as_linear_code(vand))
    repeated = LinearCode(F9, ((1, 1, 0), (0, 0, 1)))
    assert not is_mds_by_rank(repeated)
    with pytest.raises(CapExceeded):
        is_mds_by_rank(as_linear_code(vand), 3)


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
    for _ in range(10):
        code = random_code(F9, rng, max_n=6)
        dual = nullspace_dual(as_linear_code(code), hermitian=True)
        if not 1 <= dual.k <= 3:
            continue
        assert min_distance_bruteforce(dual) == dual.length - dual.k + 1


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
