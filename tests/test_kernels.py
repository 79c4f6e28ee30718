"""Differential tests of the two distance kernels, `is_mds_by_rank` and
`min_distance_bruteforce`, against references written here: `linalg.rank`
on every k-column subset, and the minimum weight over all Q^k messages.

The codes are random over GF(4), GF(9), GF(16) and GF(17^2).  GF(17^2) has
289 elements, past `LOOKUP_TABLE_MAX_ORDER`, so the kernels run on the
field's methods there.  The mix holds GRS codes (MDS), random matrices, and
codes with a duplicated or a scaled duplicate column (not MDS once k >= 2).
"""

import itertools
import random
import tracemalloc

import pytest

from qmds.construct import additive_coset_code
from qmds.field import LOOKUP_TABLE_MAX_ORDER, make_field
from qmds.grs import (
    GRSCode,
    LinearCode,
    as_linear_code,
    is_mds_by_rank,
    min_distance_bruteforce,
)
from qmds.linalg import rank

FIELDS = {"GF(4)": (2, 1), "GF(9)": (3, 1), "GF(16)": (2, 2), "GF(289)": (17, 1)}


def reference_mds(code):
    F, k = code.field, code.dim
    return all(
        rank(F, [[row[c] for c in cols] for row in code.rows]) == k
        for cols in itertools.combinations(range(code.length), k)
    )


def reference_distance(code):
    F = code.field
    scaled = [[[F.mul(c, x) for x in row] for c in range(F.order)] for row in code.rows]
    best = code.length
    for msg in itertools.product(range(F.order), repeat=code.dim):
        if not any(msg):
            continue
        word = [0] * code.length
        for c, table in zip(msg, scaled):
            word = [F.add(x, y) for x, y in zip(word, table[c])]
        best = min(best, code.length - word.count(0))
    return best


def random_code(F, rng, max_k):
    """A full-rank code of one of four kinds, and its kind."""
    order = F.order
    while True:
        k = rng.randrange(1, max_k + 1)
        n = rng.randrange(k + 1, min(k + 4, order) + 1)
        kind = rng.choice(("grs", "random", "duplicate", "scaled"))
        if kind == "random":
            rows = [[rng.randrange(order) for _ in range(n)] for _ in range(k)]
        else:
            points = rng.sample(range(order), n)
            v = [rng.randrange(1, order) for _ in range(n)]
            rows = [list(r) for r in as_linear_code(GRSCode(F, points, v, k)).rows]
        if kind in ("duplicate", "scaled"):
            i, j = rng.sample(range(n), 2)
            c = 1 if kind == "duplicate" else rng.randrange(2, order)
            for row in rows:
                row[j] = F.mul(c, row[i])
        try:
            return LinearCode(F, rows), kind
        except ValueError:  # not of full row rank; draw again
            continue


@pytest.mark.parametrize("name", FIELDS)
def test_kernels_agree_with_the_references(name):
    F = make_field(*FIELDS[name])
    small = F.order <= LOOKUP_TABLE_MAX_ORDER
    rng = random.Random(F.order)
    verdicts = []
    for _ in range(40 if small else 12):
        code, kind = random_code(F, rng, max_k=3 if small else 2)
        mds = reference_mds(code)
        assert is_mds_by_rank(code) == mds, (kind, code.rows)
        if kind == "grs" or (kind in ("duplicate", "scaled") and code.dim >= 2):
            assert mds == (kind == "grs"), (kind, code.rows)
        distance = reference_distance(code)
        assert min_distance_bruteforce(code) == distance, (kind, code.rows)
        assert (distance == code.length - code.dim + 1) == mds
        verdicts.append(mds)
    # the negative control: a kernel that always answered "MDS" fails here
    assert not all(verdicts) and any(verdicts)


# Every field of the default sweep, GF(256) at the table limit, and GF(289)
# past it.
TABLE_FIELDS = {**FIELDS, "GF(25)": (5, 1), "GF(49)": (7, 1), "GF(64)": (2, 3),
                "GF(81)": (3, 2), "GF(256)": (2, 4)}


@pytest.mark.parametrize("name", TABLE_FIELDS)
def test_op_tables_match_the_field_methods(name):
    F = make_field(*TABLE_FIELDS[name])
    add, mul = F.op_tables
    rng = random.Random(1)
    pairs = itertools.product(range(F.order), repeat=2) if F.order <= LOOKUP_TABLE_MAX_ORDER else (
        (rng.randrange(F.order), rng.randrange(F.order)) for _ in range(2000))
    for x, y in pairs:
        assert add[x][y] == F.add(x, y) and mul[x][y] == F.mul(x, y)


def test_bruteforce_memory_does_not_grow_with_the_field():
    # [128, 1] over GF(16384): one word to enumerate.  A table of every
    # scaled generator row would hold 16384 * 128 entries, far past 20 MB.
    code = as_linear_code(additive_coset_code(128, 1, 1).code)
    tracemalloc.start()
    try:
        assert min_distance_bruteforce(code) == 128
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20
