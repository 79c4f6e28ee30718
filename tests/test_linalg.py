"""Differential tests of `linalg` (rref, rank) and of `grs.row_products`,
`grs.hermitian_gram` and `grs.generator_matrix`, which run on the field's
add/mul lookup tables, against references written here with the field's
methods only.  `rank` and `row_products` are the two halves of the
identity suites' dual-span check: a closed-form dual basis is accepted
when it is orthogonal to the generator rows and has full rank
length - k.

GF(4), GF(9), GF(16), GF(81) and GF(256) have lookup tables; GF(289) is
past `LOOKUP_TABLE_MAX_ORDER`, where the same loops run on views that call
the methods.  The matrices hold zero rows, duplicated and rank-deficient
rows, and are wide and tall; the codes are plain and extended GRS codes,
some with 0 among the points.
"""

import functools
import random

import pytest

from qmds.construct import additive_coset_code, multiplicative_coset_code
from qmds.field import LOOKUP_TABLE_MAX_ORDER, make_field
from qmds.grs import (
    GRSCode,
    LinearCode,
    dual_basis,
    generator_matrix,
    hermitian_gram,
    is_hermitian_self_orthogonal,
    row_products,
)
from qmds.linalg import rank, rref

FIELDS = {"GF(4)": (2, 1), "GF(9)": (3, 1), "GF(16)": (2, 2), "GF(81)": (3, 2),
          "GF(256)": (2, 4), "GF(289)": (17, 1)}


def field(name):
    return make_field(*FIELDS[name])


# ----------------------------------------------------------------------
# references on the field's methods
# ----------------------------------------------------------------------

def reference_rref(F, rows):
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        lead = m[r][c]
        m[r] = [F.mul(x, F.inv(lead)) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def dot(F, x, y):
    return functools.reduce(F.add, (F.mul(a, b) for a, b in zip(x, y)), 0)


def reference_products(F, word, rows):
    return [dot(F, word, r) for r in rows]


def reference_gram(F, rows):
    # x**q by powering, not through the Frobenius table
    return [reference_products(F, [F.pow(x, F.q) for x in r], rows) for r in rows]


def reference_generator(code):
    F = code.field
    rows = []
    for r in range(code.k):
        row = [F.mul(vi, F.pow(ai, r)) for ai, vi in zip(code.a, code.v)]
        if code.extended:
            row.append(1 if r == code.k - 1 else 0)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def random_matrix(F, rng):
    """rows x cols, wide or tall, spanned by at most min(rows, cols) random
    rows, with zero rows, duplicated rows and sparse entries mixed in."""
    nrows, ncols = rng.randrange(1, 7), rng.randrange(1, 8)
    sparse = rng.random() < 0.3

    def entry():
        return 0 if sparse and rng.random() < 0.6 else rng.randrange(F.order)

    base = [[entry() for _ in range(ncols)] for _ in range(rng.randrange(min(nrows, ncols) + 1))]
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if not base or pick < 0.15:
            rows.append([0] * ncols)
        elif pick < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            row = [0] * ncols
            for b in base:
                c = rng.randrange(F.order)
                row = [F.add(x, F.mul(c, y)) for x, y in zip(row, b)]
            rows.append(row)
    return rows


def matrices(F, count):
    rng = random.Random(F.order)
    fixed = [[[0, 0, 0]], [[0], [0]], [[1, 2 % F.order, 0]], [[0, 1], [1, 0], [1, 1]],
             [[1, 1], [0, 1]], [[3 % F.order, 0, 1, 0], [3 % F.order, 0, 1, 0], [0, 0, 0, 0]]]
    return fixed + [random_matrix(F, rng) for _ in range(count)]


def count(F):
    return 150 if F.order <= LOOKUP_TABLE_MAX_ORDER else 60


# ----------------------------------------------------------------------
# linalg
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", FIELDS)
def test_rref_and_rank_match_the_method_reference(name):
    F = field(name)
    ranks = set()
    for rows in matrices(F, count(F)):
        expected = reference_rref(F, rows)
        assert rref(F, rows) == expected, rows
        assert rank(F, rows) == len(expected[1])
        ranks.add((len(expected[1]) == len(rows), len(expected[1]) == len(rows[0])))
    # full row rank, full column rank, both and neither all occur
    assert len(ranks) == 4


@pytest.mark.parametrize("name", ["GF(9)", "GF(256)", "GF(289)"])
def test_row_products_match_the_method_reference(name):
    # every matrix row against the other rows, a zero word and a random
    # word, and closed-form dual rows against their generator; zero
    # products of nonzero pairs come from the dual rows and nonzero
    # products from the rest
    F = field(name)
    rng = random.Random(F.order + 4)
    products = set()
    for rows in matrices(F, count(F)):
        width = len(rows[0])
        words = rows + [[0] * width, [rng.randrange(F.order) for _ in range(width)]]
        for word in words:
            expected = reference_products(F, word, rows)
            assert row_products(F, word, rows) == expected, (word, rows)
            products.update(bool(x) for x in expected)
    for _ in range(count(F) // 2):
        code = random_grs(F, rng)
        code = GRSCode(F, code.a, (1,) * code.n, code.k, code.extended)
        generator = reference_generator(code)
        for word in dual_basis(F, code.a, code.k, code.extended):
            assert any(word)
            expected = reference_products(F, word, generator)
            assert row_products(F, word, generator) == expected == [0] * code.k
    assert products == {False, True}
    assert row_products(F, [], [[], []]) == [0, 0] and row_products(F, [1, 2], []) == []


# ----------------------------------------------------------------------
# the generator and the Hermitian Gram matrix
# ----------------------------------------------------------------------

def random_grs(F, rng):
    """Plain or extended, half of them with 0 among the points."""
    n = rng.randrange(1, min(8, F.order) + 1)
    points = rng.sample(range(F.order), n)
    if rng.random() < 0.5 and 0 not in points:
        points[rng.randrange(n)] = 0
    extended = rng.random() < 0.5
    k = rng.randrange(1, n + 2 if extended else n + 1)
    v = [rng.randrange(1, F.order) for _ in range(n)]
    return GRSCode(F, points, v, k, extended=extended)


@pytest.mark.parametrize("name", FIELDS)
def test_generator_matrix_matches_the_method_reference(name):
    F = field(name)
    rng = random.Random(F.order + 2)
    codes = [random_grs(F, rng) for _ in range(count(F))]
    assert any(0 in c.a and c.k >= 2 for c in codes)
    assert any(c.extended for c in codes) and not all(c.extended for c in codes)
    for code in codes:
        assert generator_matrix(code) == reference_generator(code), code


@pytest.mark.parametrize("name", FIELDS)
def test_hermitian_gram_matches_the_method_reference(name):
    F = field(name)
    rng = random.Random(F.order + 3)
    inputs = matrices(F, count(F) // 2) + [
        reference_generator(random_grs(F, rng)) for _ in range(count(F) // 2)]
    for rows in inputs:
        assert hermitian_gram(F, rows) == reference_gram(F, rows), rows


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 17])
def test_hermitian_check_agrees_with_the_reference_on_constructed_codes(q):
    # Self-orthogonal codes of both families have a zero Gram matrix.  With
    # the first generator entry v_0 set to 0, entry (0, 0) changes by
    # -v_0**(q+1) != 0, and the witness is the reference's first nonzero
    # entry.
    results = [additive_coset_code(q, 1, 1), additive_coset_code(q, 2, 1),
               multiplicative_coset_code(q, 1, 2)]
    if q > 2:
        results.append(multiplicative_coset_code(q, 2, 2))
    for result in results:
        code = result.code
        F = code.field
        assert F.order == q * q
        rows = reference_generator(code)
        assert reference_gram(F, rows) == [[0] * code.k] * code.k
        assert is_hermitian_self_orthogonal(code) == (True, None)
        rows[0][0] = 0
        gram = reference_gram(F, rows)
        witness = next((i, j, x) for i, row in enumerate(gram) for j, x in enumerate(row) if x)
        assert witness[:2] == (0, 0)
        assert is_hermitian_self_orthogonal(LinearCode(F, rows)) == (False, witness)
