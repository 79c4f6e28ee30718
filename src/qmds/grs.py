"""Generalized Reed-Solomon codes over GF(q^2), plain and extended, with
their closed-form dual bases (checked by orthogonality and rank),
Hermitian-orthogonality checks, and independent verification primitives
(brute-force minimum distance, k-column rank tests).

A plain GRS code evaluates polynomials of degree < k at n distinct points,
scaling coordinate i by a nonzero multiplier v_i.  The extended variant
appends one coordinate carrying the degree-(k-1) coefficient of the
message polynomial.  Both are MDS by construction.

The two distance kernels are exact and incremental, and each settles its
last levels in bulk.  Brute force leaves the two lowest message
coordinates c0 and c1 free and visits the higher ones in Gray order, one
row operation per base word.  One histogram of N keys gives the lightest
of the Q words b + c0 * row_0 of a word b, and one `bytes.translate` per
column lays out the keys of all Q values of c1, so a lead costs
Q^(lead-2) bases, each N translates and Q byte histograms.  The rank test
holds the residues of a column prefix as one row per coordinate, shares
that elimination with every k-subset that extends the prefix, and
settles the last two columns of every subset with one set of about N
projective keys per (k-2)-column prefix.  Both read a code's `rows`,
hold O(k*N) field elements (brute force also the N*Q key bytes of one
base) and read `FieldTower.op_tables`, whose add rows are translate
tables up to 256 elements.  Their caps still count all Q^k codewords and
all C(N, k) subsets.  `generator_matrix` reads the same tables, and so
does `row_products`, the one loop behind the Hermitian Gram product,
direct Hermitian-dual membership and the dual-basis orthogonality check.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import getitem, sub
from typing import Iterable, List, Optional, Sequence, Tuple

from .field import LOOKUP_TABLE_MAX_ORDER, Element, FieldTower, Frozen
from .linalg import Matrix, rank
from .poly import Poly, check_elements, lagrange_interpolate

#: Cap on the number of codewords enumerated by the brute-force distance
#: check.
BRUTE_FORCE_CAP = 10 ** 6

#: Cap on the number of column subsets examined by the rank test.
RANK_TEST_CAP = 10 ** 5


class CapExceeded(ValueError):
    """An enumeration-based check would exceed its configured cap."""


class GRSCode(Frozen):
    """Evaluation points `a`, column multipliers `v` (both kept as tuples),
    dimension `k`.

    Length is n = len(a) when plain, n + 1 when extended.  `rows` builds
    the generator matrix on each access, as the kernels read a LinearCode's.
    """

    __slots__ = ("field", "a", "v", "k", "extended")

    def __init__(
        self, field: FieldTower, a: Sequence[Element], v: Sequence[Element], k: int,
        extended: bool = False,
    ) -> None:
        self._set(field=field, a=tuple(a), v=tuple(v), k=k, extended=extended)
        n = len(self.a)
        if n == 0:
            raise ValueError("at least one evaluation point is required")
        if len(self.v) != n:
            raise ValueError("multiplier vector length must match the point count")
        check_elements(field, self.a, "evaluation point")
        if len(set(self.a)) != n:
            raise ValueError("evaluation points must be distinct")
        check_elements(field, self.v, "column multiplier")
        if 0 in self.v:
            raise ValueError("column multipliers must be nonzero")
        max_k = n + 1 if self.extended else n
        if type(self.k) is not int or not 1 <= self.k <= max_k:
            raise ValueError(f"dimension k={self.k!r} is not an int from 1 to {max_k}")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def length(self) -> int:
        return self.n + 1 if self.extended else self.n

    @property
    def rows(self) -> Matrix:
        return generator_matrix(self)


class LinearCode(Frozen):
    """A linear code given by a full-row-rank generator matrix, kept as a
    tuple of tuples `rows`; `length` defaults to the width of the rows."""

    __slots__ = ("field", "rows", "length")

    def __init__(self, field: FieldTower, rows: Sequence[Sequence[Element]], length: int = -1):
        rows = tuple(tuple(r) for r in rows)
        self._set(field=field, rows=rows, length=len(rows[0]) if length == -1 and rows else length)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("generator rows must all have the same length")
            if self.length != width:
                raise ValueError("declared length disagrees with the generator rows")
            check_elements(field, (x for r in rows for x in r), "generator entry")
            if rank(self.field, rows) != len(rows):
                raise ValueError("generator matrix must have full row rank")
        elif self.length < 0:
            raise ValueError("length is required for a zero-dimensional code")

    @property
    def k(self) -> int:
        return len(self.rows)


def generator_matrix(code: GRSCode) -> Matrix:
    """k x length matrix: row r is (v_i * a_i**r); the extended variant has
    one extra column equal to the k-th standard basis vector.

    Row 0 is v (0**0 == 1) and row r+1 is row r times a_i, column by
    column, through the rows mul[a_i] of the field's lookup tables."""
    _, mul = code.field.op_tables
    by_point = [mul[ai] for ai in code.a]
    row = list(code.v)
    rows: Matrix = []
    for r in range(code.k):
        if r:
            row = [m[x] for m, x in zip(by_point, row)]
        rows.append(row + [int(r == code.k - 1)] if code.extended else row)
    return rows


def as_linear_code(code) -> LinearCode:
    """The code itself when it is a LinearCode, else its generator matrix."""
    if isinstance(code, LinearCode):
        return code
    return LinearCode(code.field, code.rows, code.length)


def _check_message(code: GRSCode, f: Poly) -> None:
    """Raise ValueError unless f is a message of the code: a polynomial
    over the code's field of degree at most k - 1."""
    if f.field != code.field:
        raise ValueError(f"message over {f.field!r} for a code over {code.field!r}")
    if f.degree > code.k - 1:
        raise ValueError(f"message degree {f.degree} exceeds k-1 = {code.k - 1}")


def encode(code: GRSCode, f: Poly) -> Tuple[Element, ...]:
    """(v_1 f(a_1), ..., v_n f(a_n)) plus, when extended, the coefficient
    of x**(k-1)."""
    _check_message(code, f)
    F = code.field
    word = [F.mul(vi, f(ai)) for ai, vi in zip(code.a, code.v)]
    if code.extended:
        word.append(f.coeff(code.k - 1))
    return tuple(word)


def product_of_differences(field: FieldTower, x: Element, hs: Iterable[Element]) -> Element:
    """prod over h in hs of (x - h), multiplied out one factor at a time:
    the product each closed form for a product of point differences is
    checked against."""
    mul, sub = field.mul, field.sub
    acc: Element = 1
    for h in hs:
        acc = mul(acc, sub(x, h))
    return acc


def w_vector(field: FieldTower, points: Sequence[Element]) -> List[Element]:
    """w_i = inverse of prod_{j != i}(a_i - a_j); the multipliers appearing
    in every dual description of a unit-multiplier GRS code."""
    points = tuple(points)
    check_elements(field, points, "point")
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    return [
        field.inv(product_of_differences(field, a, points[:i] + points[i + 1:]))
        for i, a in enumerate(points)
    ]


def dual_basis(
    field: FieldTower, points: Sequence[Element], k: int, extended: bool = False
) -> Matrix:
    """Basis of the Euclidean dual of the unit-multiplier GRS code of
    dimension k: rows (w_1 g(a_1), ..., w_n g(a_n)) for g = x**j,
    j = 0..n-k-1, the generator rows of GRS_{n-k}(a, w).

    The extended code's dual takes j = 0..n-k and appends -g_{n-k}, which
    is -1 exactly for j = n-k and 0 otherwise.  Empty when k is the full
    length."""
    length = len(points) + extended
    if not 1 <= k <= length:
        raise ValueError(f"k={k} out of range for length {length}")
    if k == length:
        return []
    rows = generator_matrix(GRSCode(field, points, w_vector(field, points), length - k))
    if extended:
        for row in rows:
            row.append(0)
        rows[-1][-1] = field.neg(1)
    return rows


def row_products(
    field: FieldTower, word: Sequence[Element], rows: Sequence[Sequence[Element]]
) -> List[Element]:
    """The products sum_i word_i * row_i of one word with each of the rows,
    through the rows mul[word_i] of the field's lookup tables."""
    add, mul = field.op_tables
    by_entry = [mul[x] for x in word]
    out: List[Element] = []
    for row in rows:
        acc: Element = 0
        for m, y in zip(by_entry, row):
            acc = add[acc][m[y]]
        out.append(acc)
    return out


def hermitian_gram(field: FieldTower, rows: Sequence[Sequence[Element]]) -> Matrix:
    """G^(q) * G^T for the given generator rows.

    Row i's Frobenius image, one pass of `frobenius_map`, meets the rows
    from i on in one row_products pass.  Entry (j, i) is the Frobenius
    image of entry (i, j), because x**(q^2) == x, so only the entries with
    j >= i are summed."""
    frobenius = field.frobenius_map
    out: Matrix = [[0] * len(rows) for _ in rows]
    for i, r in enumerate(rows):
        products = row_products(field, list(map(frobenius, r)), rows[i:])
        for j, (acc, conjugate) in enumerate(zip(products, map(frobenius, products)), i):
            out[i][j] = acc
            out[j][i] = conjugate
    return out


def is_hermitian_self_orthogonal(code) -> Tuple[bool, Optional[Tuple[int, int, Element]]]:
    """Whether the code is contained in its Hermitian dual, i.e. whether
    G^(q) * G^T is the zero matrix.  On failure the witness is a violating
    (row, row, value) triple."""
    F = code.field
    gram = hermitian_gram(F, code.rows)
    for i, row in enumerate(gram):
        for j, val in enumerate(row):
            if val != 0:
                return False, (i, j, val)
    return True, None


def hermitian_dual_contains(code, word: Sequence[Element]) -> bool:
    """Direct membership of a word in the Hermitian dual: word^(q) G^T == 0."""
    if len(word) != code.length:
        raise ValueError(f"word of length {len(word)} for a code of length {code.length}")
    F = code.field
    check_elements(F, word, "word entry")
    wq = [F.frobenius(x) for x in word]
    return not any(row_products(F, wq, code.rows))


def in_hermitian_dual(code: GRSCode, f: Poly) -> bool:
    """Whether the codeword of message f lies in the code's Hermitian dual,
    decided by interpolation.

    The word is in the dual iff some g matches w_i g(a_i) = v_i**(q+1)
    f(a_i)**q at every point with deg(g) <= n-k-1 (plain), respectively
    deg(g) <= n-k and g_{n-k} = -(f_{k-1})**q (extended).  The degree-(n-1)
    interpolant through those values is the only candidate, which makes the
    existential condition a deterministic check.
    """
    _check_message(code, f)
    F = code.field
    n = code.n
    w = w_vector(F, code.a)
    values = [
        F.mul(F.inv(wi), F.mul(F.norm(vi), F.frobenius(f(ai))))
        for ai, vi, wi in zip(code.a, code.v, w)
    ]
    g = lagrange_interpolate(F, code.a, values)
    if not code.extended:
        return g.degree <= n - code.k - 1
    if g.degree > n - code.k:
        return False
    return g.coeff(n - code.k) == F.neg(F.frobenius(f.coeff(code.k - 1)))


def min_distance_bruteforce(code) -> int:
    """Minimum Hamming weight over all nonzero codewords.

    Enumerates one representative per scalar class: the highest nonzero
    message coordinate (the lead) is 1 and the coordinates below it range
    over GF(Q)^lead.  Scaling preserves weights, so every weight is seen.

    The lowest coordinate c0 is left free.  Coordinate j of b + c0 * row_0
    vanishes for every c0 when row_0[j] and b[j] are both 0, and for
    exactly the one c0 = -b[j] / row_0[j] when row_0[j] != 0.  So the
    largest count of equal keys -b[j] / row_0[j] is the most zeros that
    any of the Q words of b has.  The rows are kept with those columns
    scaled by -1 / row_0[j], so their entries are the keys.

    Lead 1 has one such word b = row_1 and one histogram.  At lead >= 2,
    c1 is settled in bulk too.  The coordinates c2..c_(lead-1) are visited
    in Q-ary reflected Gray order, in which one coordinate c_i changes per
    step, so each base word P is the previous one plus delta * row_i: a
    lead costs Q^(lead-2) bases, each one pass over the N columns.  Over
    c1, the keys of keyed column j are P_j + c1 * K1_j with K1_j its
    row-1 key: the `mul` row of K1_j mapped through the `add` row of P_j,
    one `bytes.translate`.  The N translates fill one buffer of N*Q
    bytes, and a byte histogram of the N keys at each c1 gives its most
    zeros.  A column with row_0[j] == 0 vanishes at every c1 when P_j and
    row_1[j] are both 0, and at exactly the one c1 = -P_j / row_1[j] when
    row_1[j] != 0; those columns are kept scaled by -1 / row_1[j], so they
    add 1 at the c1 their entry names.  The cap admits k >= 3 only on
    fields of at most 100 elements, so the byte rows of op_tables exist
    whenever lead >= 2 does, and each `add` row is a translate table as
    the tower stores it.  The buffer is the call's only N*Q bytes, and the
    rows hold O(k*N) field elements; the cap still counts all Q^k codewords.
    """
    F = code.field
    k = code.k
    length = code.length
    order = F.order
    if k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    if order ** k > BRUTE_FORCE_CAP:
        raise CapExceeded(
            f"{order ** k} codewords exceed the enumeration cap {BRUTE_FORCE_CAP}"
        )
    rows = code.rows
    row0 = rows[0]
    best = length - row0.count(0)
    if k == 1:
        return best
    add, mul = F.op_tables
    row1 = rows[1]
    # keyed columns: row_0[j] != 0, scaled by -1 / row_0[j].  Fixed ones,
    # row_0[j] == 0: first the pinned, row_1[j] != 0, scaled by -1 / row_1[j]
    keyed = [(j, F.neg(F.inv(x))) for j, x in enumerate(row0) if x]
    pinned = [(j, F.neg(F.inv(row1[j]))) for j, x in enumerate(row0) if not x and row1[j]]
    fixed = pinned + [(j, 1) for j, x in enumerate(row0) if not x and not row1[j]]
    keys_of = [[mul[row[j]][m] for j, m in keyed] for row in rows]
    fixed_of = [[mul[row[j]][m] for j, m in fixed] for row in rows]
    n_pinned = len(pinned)
    best = min(best, length - fixed_of[1].count(0) - max(Counter(keys_of[1]).values()))
    if k == 2:
        return best
    by_c1 = [mul[x] for x in keys_of[1]]
    over_c1 = bytearray(len(by_c1) * order)  # entry j * Q + c1: column j's key at c1
    for lead in range(2, k):
        keys, rest = keys_of[lead], fixed_of[lead]
        digits = [0] * lead
        steps = [1] * lead
        for base in range(order ** (lead - 2)):
            if base:
                # the lowest digit above c1 that can still move in its
                # direction moves; the digits below it are at an end and
                # turn around
                i = 2
                while not 0 <= digits[i] + steps[i] < order:
                    steps[i] = -steps[i]
                    i += 1
                old = digits[i]
                digits[i] = old + steps[i]
                scaled = mul[F.sub(digits[i], old)]
                keys = [add[x][scaled[y]] for x, y in zip(keys, keys_of[i])]
                rest = [add[x][scaled[y]] for x, y in zip(rest, fixed_of[i])]
            start = 0
            for m, x in zip(by_c1, keys):
                over_c1[start:start + order] = m.translate(add[x])
                start += order
            most = [max(Counter(over_c1[c1::order]).values()) for c1 in range(order)]
            for c1 in rest[:n_pinned]:
                most[c1] += 1
            weight = length - rest[n_pinned:].count(0) - max(most)
            if weight < best:
                best = weight
    return best


def is_mds_by_rank(code) -> bool:
    """MDS test via the standard equivalence: distance N-k+1 iff every
    k-column submatrix of the generator is nonsingular.

    Walks increasing column tuples depth first, sharing each prefix's
    elimination with every tuple that extends it.  A prefix of d
    independent columns holds the residues of all later columns modulo its
    span coordinate-major: m = k-d rows, row j holding coordinate j of
    every later column, as `bytes` up to LOOKUP_TABLE_MAX_ORDER elements
    and as lists read through the method views past it.

    Scaling a column by a unit changes no subset's rank.  So each prefix
    first divides every column whose row-0 entry is nonzero by that entry,
    with one `map` through the `mul` rows per row, and row 0 becomes all
    ones.  Taking such a column a as the next one then clears it from row
    j by subtracting the constant U_j[a] from the row: one C-level pass,
    `bytes.translate` through the `add` row of -U_j[a] (a `map` through
    the method views past 256 elements).  The columns whose row-0 entry is
    zero are moved last and keep their entries under every such step; m of
    them would be dependent outright, so none starts a subset.  A zero
    residue means some at most k columns are dependent, so some k-column
    submatrix is singular and the walk stops.

    The last two rows close in one set of keys: residues (r0, r1) are
    pairwise independent iff none is zero and their projective keys r1 / r0
    are pairwise distinct.  At most one column may have r0 == 0 (the
    infinite key) and at most one r1 == 0 (the key 0); every other key is
    read off the log encoding, where a unit x is generator**(x-1), as
    (r1 - r0) mod (Q-1).  So each (k-2)-column prefix costs a few passes
    over N entries, and a k = 2 test is linear in N and builds no table.
    The cap still counts all C(N, k) subsets.
    """
    F = code.field
    k = code.k
    if k == 0:
        raise ValueError("the zero code has no distance")
    n_subsets = math.comb(code.length, k)
    if n_subsets > RANK_TEST_CAP:
        raise CapExceeded(f"{n_subsets} column subsets exceed the cap {RANK_TEST_CAP}")
    add, mul = F.op_tables
    pack = bytes if F.order <= LOOKUP_TABLE_MAX_ORDER else list
    inv = None
    if k >= 3:  # 1/x of every element x (1/0 read as 0): O(Q)
        inv = [0] + [F.inv(x) for x in F.nonzero_elements()]
    neg = mul[F.neg(1)]  # neg[x] == -x
    return _independent([pack(r) for r in code.rows], (add, mul, neg, inv, F.order - 1))


def _independent(rows, tables) -> bool:
    """Whether every len(rows) of the columns are linearly independent,
    where row j holds coordinate j of each column.  `tables` is
    (add, mul, neg, inv, Q-1), as is_mds_by_rank builds it."""
    add, mul, neg, inv, units = tables
    m = len(rows)
    zeros = rows[0].count(0)
    if zeros >= m:  # m columns in the hyperplane where coordinate 0 vanishes
        return False
    if m == 1:
        return True
    if m == 2:
        # a zero r0 is the infinite key and a zero r1 the key 0: each may
        # hold one column, which then leaves the unit keys
        for axis in (0, 1):
            if 0 in rows[axis]:
                c = rows[axis].index(0)
                if rows[axis].count(0) > 1 or not rows[1 - axis][c]:
                    return False
                rows = [r[:c] + r[c + 1:] for r in rows]
        r0, r1 = rows
        return len(set(map(units.__rmod__, map(sub, r1, r0)))) == len(r0)
    for _ in range(zeros):
        c = rows[0].index(0)
        rows = [r[:c] + r[c + 1:] + r[c:c + 1] for r in rows]
    width = len(rows[0])
    affine = width - zeros
    pack = type(rows[0])
    inverses = pack(map(inv.__getitem__, rows[0][:affine]))
    scaled = [pack(map(getitem, map(mul.__getitem__, r[:affine]), inverses)) + r[affine:]
              for r in rows[1:]]
    for a in range(min(affine, width - m + 1)):
        reduced = []
        for r in scaled:
            shift = add[neg[r[a]]]
            if pack is bytes:
                tail = r[a + 1:affine].translate(shift)
            else:
                tail = list(map(shift.__getitem__, r[a + 1:affine]))
            reduced.append(tail + r[affine:])
        if not _independent(reduced, tables):
            return False
    return True
