"""Differential tests of the two distance kernels, `is_mds_by_rank` and
`min_distance_bruteforce`, against references written here: the rank of
every k-column subset by an elimination on the field's methods, and the
minimum weight over all Q^k messages.  Neither reference reads the lookup
tables that the kernels and `linalg` share.

The codes are random over GF(4), GF(9), GF(16) and GF(17^2).  GF(17^2) has
289 elements, past `LOOKUP_TABLE_MAX_ORDER`, so the kernels run on the
field's methods there.  The mix holds GRS codes (MDS), random matrices, and
codes with a duplicated or a scaled duplicate column (not MDS once k >= 2).

The targeted tests after them aim at the last level of each kernel, which
closes in one pass: pairs of 2-coordinate residues compared by projective
key (the rank test), and the Q words b + c0 * row_0 of one base word b
read off one histogram (brute force).
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

FIELDS = {"GF(4)": (2, 1), "GF(9)": (3, 1), "GF(16)": (2, 2), "GF(289)": (17, 1)}


def reference_rank(F, rows):
    """Rank by Gaussian elimination with the field's add/mul/inv methods."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F.inv(rows[rank][c])
        for i in range(rank + 1, len(rows)):
            f = F.neg(F.mul(rows[i][c], inv))
            rows[i] = [F.add(x, F.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_mds(code):
    F, k = code.field, code.k
    return all(
        reference_rank(F, [[row[c] for c in cols] for row in code.rows]) == k
        for cols in itertools.combinations(range(code.length), k)
    )


def reference_distance(code):
    F = code.field
    scaled = [[[F.mul(c, x) for x in row] for c in range(F.order)] for row in code.rows]
    best = code.length
    for msg in itertools.product(range(F.order), repeat=code.k):
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
        if kind == "grs" or (kind in ("duplicate", "scaled") and code.k >= 2):
            assert mds == (kind == "grs"), (kind, code.rows)
        distance = reference_distance(code)
        assert min_distance_bruteforce(code) == distance, (kind, code.rows)
        assert (distance == code.length - code.k + 1) == mds
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


# ----------------------------------------------------------------------
# The closed last level of each kernel
# ----------------------------------------------------------------------

F9 = make_field(3, 1)


def dependent_subsets(code, size):
    F = code.field
    return [cols for cols in itertools.combinations(range(code.length), size)
            if reference_rank(F, [[row[c] for c in cols] for row in code.rows]) < size]


def minimum_c0(code):
    """The c0 of every minimum-weight word whose highest nonzero message
    coordinate is 1 and is not c0 itself: the words the kernel reads off
    its histograms."""
    F, distance = code.field, reference_distance(code)
    out = set()
    for msg in itertools.product(range(F.order), repeat=code.k - 1):
        for lead in range(1, code.k):
            if msg[lead - 1] == 1 and not any(msg[lead:]):
                break
        else:
            continue
        for c0 in range(F.order):
            word = [0] * code.length
            for c, row in zip((c0,) + msg, code.rows):
                word = [F.add(x, F.mul(c, y)) for x, y in zip(word, row)]
            if code.length - word.count(0) == distance:
                out.add(c0)
    return out


def test_rank_finds_a_dependent_triple_as_two_proportional_residues():
    # A [6, 3] GRS code over GF(9) with column 5 replaced by col1 + beta*col2.
    # {1, 2, 5} is then dependent while no pair is, so the walk meets it
    # under prefix column 1 as two nonzero, proportional residues.
    F = F9
    grs = as_linear_code(GRSCode(F, range(6), [1, 2, 3, 4, 5, 6], 3)).rows
    assert is_mds_by_rank(LinearCode(F, grs))
    checked = 0
    for beta in range(1, F.order):
        rows = [list(r[:5]) + [F.add(r[1], F.mul(beta, r[2]))] for r in grs]
        code = LinearCode(F, rows)
        if dependent_subsets(code, 3) != [(1, 2, 5)] or dependent_subsets(code, 2):
            continue
        assert not is_mds_by_rank(code), beta
        assert min_distance_bruteforce(code) == reference_distance(code) == 3
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("k", (2, 3))
def test_rank_keys_residues_with_r0_zero_as_one_point(k):
    # The extended column e_k leaves the residue (0, 1) under every prefix
    # of ordinary columns: the infinite key.  One such column keeps the
    # code MDS; a second, scaled copy makes a dependent pair that only the
    # shared infinite key reveals.
    F = F9
    mds = as_linear_code(GRSCode(F, range(5), [1, 2, 3, 4, 5], k, extended=True))
    assert is_mds_by_rank(mds) and reference_mds(mds)
    assert min_distance_bruteforce(mds) == reference_distance(mds) == 6 - k + 1
    scaled = F.generator
    rows = [list(r) + [F.mul(scaled, r[-1])] for r in mds.rows]
    code = LinearCode(F, rows)
    assert not is_mds_by_rank(code) and not reference_mds(code)
    assert min_distance_bruteforce(code) == reference_distance(code)
    # two columns whose r1 agree but whose keys r1 / r0 differ stay independent
    same_r1 = LinearCode(F, [[1, F.generator, 0], [1, 1, 1]])
    assert is_mds_by_rank(same_r1) and reference_mds(same_r1)


def test_bruteforce_counts_zeros_that_hold_for_every_c0():
    # row_0 vanishes at column 0, and so do row_1 and every lead-1 base.
    # The one minimum word row_1 - row_0 = (0, 0, 0, 0, -1, -1) has weight
    # 2 only with that zero counted.  Every lead-2 word has weight >= 3.
    F = F9
    code = LinearCode(F, [[0, 1, 1, 1, 1, 1],
                          [0, 1, 1, 1, 0, 0],
                          [1, 0, 0, 1, 0, 1]])
    assert reference_distance(code) == 2 and minimum_c0(code) == {F.neg(1)}
    assert min_distance_bruteforce(code) == 2


def test_bruteforce_counts_a_nonzero_base_entry_where_row_0_vanishes():
    # row_0 vanishes at column 0, but row_1 does not: that column is
    # nonzero in every lead-1 word.  The minimum word is
    # row_1 - row_0 = (1, -1, 0, 0).
    F = F9
    code = LinearCode(F, [[0, 1, 1, 1], [1, 0, 1, 1]])
    assert reference_distance(code) == 2 and minimum_c0(code) == {F.neg(1)}
    assert min_distance_bruteforce(code) == 2


@pytest.mark.parametrize("lead", (1, 2))
def test_bruteforce_minimum_reached_only_at_c0_zero(lead):
    # The code is spanned by the all-ones word, at lead 2 also by the points
    # X = (0, 1, ..., 5), and by m = (0, 0, 0, 0, 1, x) with x != 0.
    # Any word with a nonzero part from 1 and X has at most one zero among
    # its first four coordinates, so the multiples of m are the only words
    # of weight 2.  m is the lead-`lead` base word itself (c0 = 0); at lead
    # 2 the walk reaches it at c1 = x.
    F = F9
    x = F.generator
    m = [0, 0, 0, 0, 1, x]
    points = list(range(6))
    rows = [[1] * 6, m] if lead == 1 else [
        [1] * 6, points, [F.sub(a, F.mul(x, b)) for a, b in zip(m, points)]]
    code = LinearCode(F, rows)
    assert reference_distance(code) == 2 and minimum_c0(code) == {0}
    assert min_distance_bruteforce(code) == 2


def test_bruteforce_minimum_reached_only_at_c0_nonzero():
    # (1, 1, 1, 1, 1) + c0 * (1, x, 1, x, 1) is lightest at c0 = -1 only,
    # with weight 2; the other nonzero c0 leave at most two zeros.
    F = F9
    x = F.generator
    code = LinearCode(F, [[1, x, 1, x, 1], [1, 1, 1, 1, 1]])
    assert reference_distance(code) == 2 and minimum_c0(code) == {F.neg(1)}
    assert min_distance_bruteforce(code) == 2


def test_closed_levels_on_the_method_views():
    # GF(289) is past LOOKUP_TABLE_MAX_ORDER.  An extended [6, 2] GRS code
    # has the infinite key and a row_0 that vanishes at the extended column.
    F = make_field(17, 1)
    assert F.order > LOOKUP_TABLE_MAX_ORDER
    mds = as_linear_code(GRSCode(F, [3, 50, 120, 200, 288], [7, 1, 99, 250, 3], 2,
                                 extended=True))
    assert mds.rows[0][-1] == 0
    assert is_mds_by_rank(mds)
    assert min_distance_bruteforce(mds) == reference_distance(mds) == 5
    # a scaled copy of column 1 gives two equal finite keys
    rows = [list(r) + [F.mul(40, r[1])] for r in mds.rows]
    code = LinearCode(F, rows)
    assert not is_mds_by_rank(code)
    assert min_distance_bruteforce(code) == reference_distance(code) == 5
