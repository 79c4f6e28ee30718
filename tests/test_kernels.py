"""Differential tests of the two distance kernels, `is_mds_by_rank` and
`min_distance_bruteforce`, against references written here: the rank of
every k-column subset by an elimination on the field's methods, and the
minimum weight over all Q^k messages.  Neither reference reads the lookup
tables that the kernels and `linalg` share.

The codes are random over GF(4), GF(9), GF(16) and GF(17^2) at k <= 3,
over GF(9) and GF(16) at k = 4, and at the sizes the default sweep ranks:
k = 4 and 5 over GF(25) and GF(64), and k = 3 over GF(17^2), where only
the rank test has a reference that finishes.  GF(17^2) has 289 elements, past `LOOKUP_TABLE_MAX_ORDER`, so the
kernels run on the field's methods there.  The mix holds GRS codes (MDS),
random matrices, and codes with a duplicated or a scaled duplicate column
(not MDS once k >= 2).

The targeted tests after them aim at the levels each kernel settles in
bulk: pairs of 2-coordinate residues compared by projective key (the rank
test); the Q words b + c0 * row_0 of one word b read off one histogram,
and from lead 2 on the Q values of c1 of one base laid out by one
translate per column (brute force).  The brute-force ones place the one
minimum word at c0 = 0 or not, at c1 != 0, in each base of the walk over
c2, and on columns where row_0 vanishes, at one c1 or at every c1.  Two
more aim at the rank test's walk: columns whose first coordinate
vanishes, which it moves last, and a single singular subset at the very
end of the walk.
"""

import itertools
import random
import tracemalloc

import pytest

from qmds.construct import additive_coset_code
from qmds.field import LOOKUP_TABLE_MAX_ORDER, make_field
from qmds.grs import (
    BRUTE_FORCE_CAP,
    GRSCode,
    LinearCode,
    as_linear_code,
    is_mds_by_rank,
    min_distance_bruteforce,
)

FIELDS = {"GF(4)": (2, 1), "GF(9)": (3, 1), "GF(16)": (2, 2), "GF(289)": (17, 1)}

# (field, smallest k, largest k, codes) for each differential case: every k
# up to 3 (2 past the byte tables); k = 4 over GF(9) and GF(16), where brute
# force walks c2 in Gray order and settles c1 in bulk; then the k the default
# sweep ranks, where a pivot step runs on the byte tables and, at GF(289),
# on the method views.
KERNEL_CASES = {
    "GF(4)": ((2, 1), 1, 3, 40), "GF(9)": ((3, 1), 1, 3, 40), "GF(16)": ((2, 2), 1, 3, 40),
    "GF(289)": ((17, 1), 1, 2, 12), "GF(9)-k4": ((3, 1), 4, 4, 40),
    "GF(16)-k4": ((2, 2), 4, 4, 12), "GF(25)-k4-5": ((5, 1), 4, 5, 40),
    "GF(64)-k4-5": ((2, 3), 4, 5, 40), "GF(289)-k3": ((17, 1), 3, 3, 12),
}

#: Largest message count reference_distance enumerates in these tests.
REFERENCE_WORDS = 10 ** 5


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
    """The least weight over the words of all Q^k messages, added up on
    the field's methods; messages that share their higher coordinates
    share that partial sum."""
    F = code.field
    words = [[0] * code.length]
    for row in reversed(code.rows):
        scaled = [[F.mul(c, x) for x in row] for c in range(F.order)]
        words = [[F.add(x, y) for x, y in zip(w, s)] for w in words for s in scaled]
    return min(code.length - w.count(0) for w in words[1:])


def random_code(F, rng, max_k, min_k=1):
    """A full-rank code of one of four kinds, and its kind.  k is drawn
    from min_k..max_k, clamped to the k < n <= Q that a GRS code on
    distinct points over the field admits."""
    order = F.order
    if min_k > order - 1:
        raise ValueError(f"no GRS code over {F!r} has k={min_k}: k + 1 <= n <= {order}")
    max_k = min(max_k, order - 1)
    while True:
        k = rng.randrange(min_k, max_k + 1)
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


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernels_agree_with_the_references(name):
    (p, e), min_k, max_k, codes = KERNEL_CASES[name]
    F = make_field(p, e)
    rng = random.Random(F.order)
    verdicts = []
    for _ in range(codes):
        code, kind = random_code(F, rng, max_k, min_k)
        mds = reference_mds(code)
        assert is_mds_by_rank(code) == mds, (kind, code.rows)
        if kind == "grs" or (kind in ("duplicate", "scaled") and code.k >= 2):
            assert mds == (kind == "grs"), (kind, code.rows)
        if F.order ** code.k <= REFERENCE_WORDS:
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


def test_bruteforce_holds_one_base_of_keys_over_c1():
    # [81, 3] over GF(81): the one lead-2 base holds 81 * 81 key bytes,
    # about 7 KB, and each padded add row lives only for its translate;
    # the call peaks near 19 KB.  Keeping the 81 padded rows (43 KB), the
    # 81 translates beside the bytes they are joined into (37 KB), or one
    # histogram of all 81 * 81 keys would pass 32 KB.
    F = make_field(3, 2)
    code = as_linear_code(GRSCode(F, range(81), [1] * 81, 3))
    tracemalloc.start()
    try:
        assert min_distance_bruteforce(code) == 79
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 10


def test_bruteforce_cap_keeps_lead_2_on_the_byte_tables():
    # From lead 2 on, min_distance_bruteforce maps the bytes rows of
    # op_tables with bytes.translate, and lead 2 needs k >= 3.
    assert (LOOKUP_TABLE_MAX_ORDER + 1) ** 3 > BRUTE_FORCE_CAP, (
        "BRUTE_FORCE_CAP now admits k = 3 on fields past LOOKUP_TABLE_MAX_ORDER, "
        "whose op_tables are method views with no bytes rows: give the c1 pass "
        "of min_distance_bruteforce a path for the views, or raise "
        "LOOKUP_TABLE_MAX_ORDER with the cap")


# ----------------------------------------------------------------------
# The closed last level of each kernel
# ----------------------------------------------------------------------

F9 = make_field(3, 1)


def dependent_subsets(code, size):
    F = code.field
    return [cols for cols in itertools.combinations(range(code.length), size)
            if reference_rank(F, [[row[c] for c in cols] for row in code.rows]) < size]


def minimum_messages(code):
    """Every message (c0, c1, ...) whose highest nonzero coordinate is 1
    and whose word has the least weight."""
    F, distance = code.field, reference_distance(code)
    out = set()
    for msg in itertools.product(range(F.order), repeat=code.k):
        nonzero = [c for c in msg if c]
        if not nonzero or nonzero[-1] != 1:
            continue
        word = [0] * code.length
        for c, row in zip(msg, code.rows):
            word = [F.add(x, F.mul(c, y)) for x, y in zip(word, row)]
        if code.length - word.count(0) == distance:
            out.add(msg)
    return out


def minimum_c0(code):
    """The c0 of every minimum-weight word whose highest nonzero message
    coordinate is 1 and is not c0 itself: the words the kernel reads off
    its histograms."""
    return {msg[0] for msg in minimum_messages(code) if any(msg[1:])}


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


@pytest.mark.parametrize("name", ("GF(9)", "GF(289)"))
def test_rank_keeps_the_zero_axes_apart_from_the_unit_keys(name):
    # A unit x is generator**(x-1), so the key of a unit residue (r0, r1)
    # is (r1 - r0) mod (Q-1).  Read the same way, a residue (r0', 0) would
    # key (-r0') mod (Q-1) and a residue (0, r1') r1' mod (Q-1); here each
    # equals the key of the unit residue beside it, and every pair is
    # independent.
    F = make_field(*FIELDS[name])
    d = F.order - 3  # the key of the unit residue (1, 1 + d), and -2 mod (Q-1)
    for rows in ([[2, 1], [0, 1 + d]],          # (2, 0) would key -2
                 [[0, 1], [d, 1 + d]],          # (0, d) would key d
                 [[2, 0, 1], [0, d, 1 + d]]):
        code = LinearCode(F, rows)
        assert reference_mds(code), rows
        assert is_mds_by_rank(code), rows


@pytest.mark.parametrize("name", ("GF(9)", "GF(289)"))
def test_rank_rejects_two_zero_keys_and_a_zero_residue(name):
    F = make_field(*FIELDS[name])
    x = F.generator
    for rows in ([[1, x, 1], [0, 0, 1]],     # two residues with r1 = 0
                 [[0, 0, 1], [1, x, 1]],     # two with r0 = 0
                 [[1, 0, 1], [1, 0, x]],     # a zero residue
                 [[1, 0, 1, x], [1, 0, x, 1], [0, 0, 1, 1]]):  # a zero column at k = 3
        code = LinearCode(F, rows)
        assert not reference_mds(code), rows
        assert not is_mds_by_rank(code), rows


@pytest.mark.parametrize("name", ("GF(9)", "GF(289)"))
def test_rank_walks_the_columns_where_row_0_vanishes(name):
    # Columns 3 and 4 vanish on row 0, so the walk moves them last; column
    # 3 is col1 + beta*col2, the beta that clears row 0, which makes
    # {1, 2, 3} the only dependent triple.  Every subset that holds it
    # starts at column 1, one of the columns kept first.
    F = make_field(*FIELDS[name])
    x = F.generator
    checked = 0
    for y in range(1, 9):
        cols = [(1, 0, 0), (1, 1, x), (x, 1, 1), None, (0, 1, y)]
        beta = F.neg(F.mul(cols[1][0], F.inv(cols[2][0])))
        cols[3] = tuple(F.add(a, F.mul(beta, b)) for a, b in zip(cols[1], cols[2]))
        assert cols[3][0] == 0
        code = LinearCode(F, list(zip(*cols)))
        if dependent_subsets(code, 3) != [(1, 2, 3)] or dependent_subsets(code, 2):
            continue
        assert not reference_mds(code)
        assert not is_mds_by_rank(code), y
        # three columns on the hyperplane where row 0 vanishes are dependent
        cols[0] = (0, 1, 1)
        code = LinearCode(F, list(zip(*cols)))
        assert not reference_mds(code) and not is_mds_by_rank(code)
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize("name", ("GF(25)", "GF(289)"))
def test_rank_finds_one_singular_four_subset_at_the_last_column(name):
    # A [8, 4] GRS code with its last column replaced by
    # col4 + beta*col5 + gamma*col6: {4, 5, 6, 7}, the last 4-subset the
    # walk reaches, is then singular, and for most (beta, gamma) no other
    # subset is.
    F = make_field(*{"GF(25)": (5, 1), "GF(289)": (17, 1)}[name])
    grs = as_linear_code(GRSCode(F, range(8), range(1, 9), 4)).rows
    assert is_mds_by_rank(LinearCode(F, grs))
    checked = 0
    for beta, gamma in itertools.product(range(1, 6), repeat=2):
        rows = [list(r[:7]) + [F.add(r[4], F.add(F.mul(beta, r[5]), F.mul(gamma, r[6])))]
                for r in grs]
        code = LinearCode(F, rows)
        if dependent_subsets(code, 4) != [(4, 5, 6, 7)] or dependent_subsets(code, 3):
            continue
        assert not reference_mds(code)
        assert not is_mds_by_rank(code), (beta, gamma)
        checked += 1
    assert checked >= 10


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


def test_bruteforce_counts_a_fixed_column_at_the_one_c1_where_it_vanishes():
    # row_0 vanishes at column 0 and row_1 does not, so at lead 2 column 0
    # vanishes for every c0 at c1 = -row_2[0] / row_1[0] = x and at no
    # other c1.  The one minimum word, of message (1, x, 1), has weight 3
    # only with that zero counted.
    F = F9
    x = F.generator
    code = LinearCode(F, [[0, 7, 6, 1, 4, 1],
                          [1, 0, 8, 1, 3, 1],
                          [F.neg(x), 3, 4, 4, 2, 1]])
    assert reference_distance(code) == 3 and minimum_messages(code) == {(1, x, 1)}
    assert min_distance_bruteforce(code) == 3


def test_bruteforce_counts_a_fixed_column_that_vanishes_at_every_c1():
    # row_0 and row_1 vanish at column 0, so at lead 3 column 0 is zero at
    # every (c1, c0) of the base c2 = -row_3[0] / row_2[0] = x.  The one
    # minimum word, of message (6, 3, x, 1), has weight 3 only with that
    # zero counted.
    F = F9
    x = F.generator
    code = LinearCode(F, [[0, 2, 8, 6, 4, 4, 1],
                          [0, 4, 1, 3, 5, 2, 5],
                          [1, 6, 0, 1, 2, 3, 0],
                          [F.neg(x), 8, 1, 0, 1, 3, 1]])
    assert reference_distance(code) == 3 and minimum_messages(code) == {(6, 3, x, 1)}
    assert min_distance_bruteforce(code) == 3


def test_bruteforce_minimum_reached_only_at_c1_and_c0_nonzero():
    # At lead 2, in the one base: the one minimum word is of message
    # (2, 2, 1), whose c0 and c1 are both nonzero.
    code = LinearCode(F9, [[2, 4, 1, 1, 5, 7],
                           [8, 1, 5, 6, 5, 3],
                           [8, 7, 7, 8, 4, 0]])
    assert reference_distance(code) == 3 and minimum_messages(code) == {(2, 2, 1)}
    assert min_distance_bruteforce(code) == 3


def test_bruteforce_minimum_reached_in_each_base_of_the_c2_walk():
    # At lead 3 the one minimum word is of message (5, 3, x, 1).  Adding
    # (x - c2) * row_2 to row_3 moves it to the base c2 of the Gray walk
    # and keeps the code, so each base holds it in turn, always at nonzero
    # c1 and c0.
    F = F9
    x = F.generator
    rows = [[1, 0, 3, 5, 2, 3, 3],
            [7, 6, 6, 0, 6, 6, 0],
            [2, 7, 1, 4, 2, 7, 8],
            [7, 8, 0, 0, 7, 5, 4]]
    for c2 in range(F.order):
        shift = F.sub(x, c2)
        code = LinearCode(F, rows[:3] + [[F.add(a, F.mul(shift, b))
                                          for a, b in zip(rows[3], rows[2])]])
        assert reference_distance(code) == 2 and minimum_messages(code) == {(5, 3, c2, 1)}
        assert min_distance_bruteforce(code) == 2, c2


# k = 5 is the least k whose walk, at lead 4, runs over two digits, c2 and
# c3: c2 runs to one end of its range, c3 steps, and c2 turns around.  The
# cap admits k = 5 only over GF(4) and GF(9), where no sweep or construct
# code has it.
TURN_AROUND_ROWS = [[1, 4, 1, 2, 7, 7, 2, 4, 2],
                    [5, 5, 3, 1, 0, 2, 8, 1, 2],
                    [1, 6, 5, 8, 0, 5, 6, 6, 2],
                    [5, 7, 7, 7, 0, 8, 4, 3, 2],
                    [5, 8, 2, 3, 1, 5, 2, 0, 2]]


def test_bruteforce_minimum_reached_in_each_base_of_the_lead_4_walk():
    # Rows 0-3 span a [9, 4] GRS code over GF(9), of distance 6; row 4
    # adds the one word of weight 3, of message (7, 1, 4, 1, 1).  Adding
    # (4 - c2) * row_2 + (1 - c3) * row_3 to row_4 moves it to the base
    # (c2, c3) and keeps the code, so each of the 81 bases holds it in
    # turn, those after a turn-around included.
    F = F9
    code = LinearCode(F, TURN_AROUND_ROWS)
    assert reference_distance(code) == 3 and minimum_messages(code) == {(7, 1, 4, 1, 1)}
    rows = TURN_AROUND_ROWS
    for c2, c3 in itertools.product(range(F.order), repeat=2):
        s2, s3 = F.sub(4, c2), F.sub(1, c3)
        moved = [F.add(a, F.add(F.mul(s2, b), F.mul(s3, c)))
                 for a, b, c in zip(rows[4], rows[2], rows[3])]
        assert min_distance_bruteforce(LinearCode(F, rows[:4] + [moved])) == 3, (c2, c3)


def test_bruteforce_agrees_with_the_reference_at_k_5():
    # random [n, 5] codes over GF(9), MDS and not, and two [8, 5] codes
    # over GF(4)
    rng = random.Random(5)
    verdicts = []
    for _ in range(6):
        code, kind = random_code(F9, rng, 5, 5)
        distance = reference_distance(code)
        assert min_distance_bruteforce(code) == distance, (kind, code.rows)
        verdicts.append(distance == code.length - 4)
    assert any(verdicts) and not all(verdicts)
    F4 = make_field(2, 1)
    checked = 0
    while checked < 2:
        try:
            code = LinearCode(F4, [[rng.randrange(4) for _ in range(8)] for _ in range(5)])
        except ValueError:  # not of full row rank; draw again
            continue
        assert min_distance_bruteforce(code) == reference_distance(code), code.rows
        checked += 1


def test_random_code_clamps_k_to_what_the_field_admits():
    F4 = make_field(2, 1)
    rng = random.Random(4)
    with pytest.raises(ValueError, match=r"no GRS code over FieldTower\(p=2, e=1\) has k=5"):
        random_code(F4, rng, 5, 5)
    ks = set()
    for _ in range(20):
        code, _ = random_code(F4, rng, 5)
        assert code.k < code.length <= F4.order
        ks.add(code.k)
    assert ks == {1, 2, 3}


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
