"""Generalized Reed-Solomon codes over GF(q^2), plain and extended, with
their dual descriptions, Hermitian-orthogonality checks, and independent
verification primitives (nullspace duals, brute-force minimum distance,
k-column rank tests).

A plain GRS code evaluates polynomials of degree < k at n distinct points,
scaling coordinate i by a nonzero multiplier v_i.  The extended variant
appends one coordinate carrying the degree-(k-1) coefficient of the
message polynomial.  Both are MDS by construction.

The two distance kernels are exact and incremental, and each closes its
last level in one pass over the N columns.  Brute force leaves the lowest
message coordinate c0 free and visits the higher ones in Gray order, one
row operation per base word; one histogram of N keys gives the lightest of
the Q words b + c0 * row_0 of a base b, so a lead costs Q^(lead-1) base
words.  The rank test shares each column prefix's elimination with every
k-subset that extends it, and settles the last two columns of every subset
with about N projective-key insertions per (k-2)-column prefix.  Both hold
O(k*N) field elements and read the field's add/mul lookup tables
(`FieldTower.op_tables`).  Their caps still count all Q^k codewords and
all C(N, k) subsets.  The generator rows and the Hermitian Gram product
read the same tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .field import Element, FieldTower
from .linalg import Matrix, nullspace, rank
from .poly import Poly, lagrange_interpolate

#: Default cap on the number of codewords enumerated by the brute-force
#: distance check.
BRUTE_FORCE_CAP = 10 ** 6

#: Default cap on the number of column subsets examined by the rank test.
RANK_TEST_CAP = 10 ** 5


class CapExceeded(ValueError):
    """An enumeration-based check would exceed its configured cap."""


@dataclass(frozen=True)
class GRSCode:
    """Evaluation points `a`, column multipliers `v`, dimension `k`.

    Length is n = len(a) when plain, n + 1 when extended.
    """

    field: FieldTower
    a: Tuple[Element, ...]
    v: Tuple[Element, ...]
    k: int
    extended: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "v", tuple(self.v))
        n = len(self.a)
        if n == 0:
            raise ValueError("at least one evaluation point is required")
        if len(self.v) != n:
            raise ValueError("multiplier vector length must match the point count")
        order = self.field.order
        # type(x) is int, not isinstance: a bool is an int subclass, and
        # neither a bool nor a float is an element encoding
        for x in self.a:
            if type(x) is not int or not 0 <= x < order:
                raise ValueError(f"evaluation point {x!r} is not a field element")
        if len(set(self.a)) != n:
            raise ValueError("evaluation points must be distinct")
        for x in self.v:
            if type(x) is not int or not 1 <= x < order:
                raise ValueError("column multipliers must be nonzero field elements")
        max_k = n + 1 if self.extended else n
        if not 1 <= self.k <= max_k:
            raise ValueError(f"dimension k={self.k} out of range for length {max_k}")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def length(self) -> int:
        return self.n + 1 if self.extended else self.n


@dataclass(frozen=True)
class LinearCode:
    """A linear code given by a full-row-rank generator matrix."""

    field: FieldTower
    rows: Tuple[Tuple[Element, ...], ...]
    length: int = -1

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("generator rows must all have the same length")
            if self.length == -1:
                object.__setattr__(self, "length", width)
            elif self.length != width:
                raise ValueError("declared length disagrees with the generator rows")
            order = self.field.order
            if not all(type(x) is int and 0 <= x < order for r in rows for x in r):
                raise ValueError("generator entries must be field elements")
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


def generator_rows(code) -> Tuple[Tuple[Element, ...], ...]:
    """Generator rows of a GRSCode or LinearCode, as tuples."""
    if isinstance(code, GRSCode):
        return tuple(tuple(r) for r in generator_matrix(code))
    return code.rows


def as_linear_code(code) -> LinearCode:
    """The code itself when it is a LinearCode, else its generator matrix."""
    if isinstance(code, LinearCode):
        return code
    return LinearCode(code.field, generator_rows(code), code.length)


def encode(code: GRSCode, f: Poly) -> Tuple[Element, ...]:
    """(v_1 f(a_1), ..., v_n f(a_n)) plus, when extended, the coefficient
    of x**(k-1)."""
    if f.degree > code.k - 1:
        raise ValueError(f"message degree {f.degree} exceeds k-1 = {code.k - 1}")
    F = code.field
    word = [F.mul(vi, f(ai)) for ai, vi in zip(code.a, code.v)]
    if code.extended:
        word.append(f.coeff(code.k - 1))
    return tuple(word)


def w_vector(field: FieldTower, points: Sequence[Element]) -> List[Element]:
    """w_i = inverse of prod_{j != i}(a_i - a_j); the multipliers appearing
    in every dual description of a unit-multiplier GRS code."""
    n = len(points)
    if len(set(points)) != n:
        raise ValueError("points must be distinct")
    out = []
    for i in range(n):
        acc: Element = 1
        for j in range(n):
            if j != i:
                acc = field.mul(acc, field.sub(points[i], points[j]))
        out.append(field.inv(acc))
    return out


def dual_basis(field: FieldTower, points: Sequence[Element], k: int) -> Matrix:
    """Basis of the Euclidean dual of the unit-multiplier GRS code of
    dimension k: rows (w_1 g(a_1), ..., w_n g(a_n)) for g = x**j,
    j = 0..n-k-1.  Empty for k == n."""
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} points")
    w = w_vector(field, points)
    rows: Matrix = []
    for j in range(n - k):
        rows.append([field.mul(wi, field.pow(ai, j)) for ai, wi in zip(points, w)])
    return rows


def extended_dual_basis(field: FieldTower, points: Sequence[Element], k: int) -> Matrix:
    """Basis of the Euclidean dual of the extended unit-multiplier GRS code:
    rows (w_1 g(a_1), ..., w_n g(a_n), -g_{n-k}) for g = x**j, j = 0..n-k.
    The last coordinate is -1 exactly for j = n-k and 0 otherwise."""
    n = len(points)
    if not 1 <= k <= n + 1:
        raise ValueError(f"k={k} out of range for extended length {n + 1}")
    w = w_vector(field, points)
    rows: Matrix = []
    for j in range(n - k + 1):
        row = [field.mul(wi, field.pow(ai, j)) for ai, wi in zip(points, w)]
        row.append(field.neg(1) if j == n - k else 0)
        rows.append(row)
    return rows


def nullspace_dual(code: LinearCode, hermitian: bool = False) -> LinearCode:
    """Dual code computed from the generator's nullspace.

    Euclidean: basis of {u : G u^T = 0}.  Hermitian: basis of
    {u : u^(q) G^T = 0} where u^(q) is the coordinatewise q-th power;
    since Frobenius is an involutive automorphism this is the entrywise
    Frobenius image of the Euclidean dual.
    """
    F = code.field
    basis = nullspace(F, code.rows, width=code.length)
    if hermitian:
        basis = [[F.frobenius(x) for x in row] for row in basis]
    return LinearCode(F, tuple(tuple(r) for r in basis), code.length)


def hermitian_gram(field: FieldTower, rows: Sequence[Sequence[Element]]) -> Matrix:
    """G^(q) * G^T for the given generator rows.

    Each row's Frobenius image is taken once and kept as rows mul[x^q] of
    the field's lookup tables; the sums accumulate through add.  Entry
    (j, i) is the Frobenius image of entry (i, j), because x**(q^2) == x,
    so only the entries with j >= i are summed."""
    add, mul = field.op_tables
    out: Matrix = [[0] * len(rows) for _ in rows]
    for i, r in enumerate(rows):
        rq = [mul[x] for x in map(field.frobenius, r)]
        for j in range(i, len(rows)):
            acc: Element = 0
            for m, y in zip(rq, rows[j]):
                acc = add[acc][m[y]]
            out[i][j] = acc
            out[j][i] = field.frobenius(acc)
    return out


def is_hermitian_self_orthogonal(code) -> Tuple[bool, Optional[Tuple[int, int, Element]]]:
    """Whether the code is contained in its Hermitian dual, i.e. whether
    G^(q) * G^T is the zero matrix.  On failure the witness is a violating
    (row, row, value) triple."""
    F = code.field
    rows = generator_rows(code)
    gram = hermitian_gram(F, rows)
    for i, row in enumerate(gram):
        for j, val in enumerate(row):
            if val != 0:
                return False, (i, j, val)
    return True, None


def hermitian_dual_contains(code, word: Sequence[Element]) -> bool:
    """Direct membership of a word in the Hermitian dual: word^(q) G^T == 0."""
    F = code.field
    rows = generator_rows(code)
    wq = [F.frobenius(x) for x in word]
    for row in rows:
        acc: Element = 0
        for x, y in zip(wq, row):
            if x and y:
                acc = F.add(acc, F.mul(x, y))
        if acc != 0:
            return False
    return True


def in_hermitian_dual(code: GRSCode, f: Poly) -> bool:
    """Whether the codeword of message f lies in the code's Hermitian dual,
    decided by interpolation.

    The word is in the dual iff some g matches w_i g(a_i) = v_i**(q+1)
    f(a_i)**q at every point with deg(g) <= n-k-1 (plain), respectively
    deg(g) <= n-k and g_{n-k} = -(f_{k-1})**q (extended).  The degree-(n-1)
    interpolant through those values is the only candidate, which makes the
    existential condition a deterministic check.
    """
    if f.degree > code.k - 1:
        raise ValueError(f"message degree {f.degree} exceeds k-1 = {code.k - 1}")
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


def min_distance_bruteforce(code, cap: int = BRUTE_FORCE_CAP) -> int:
    """Minimum Hamming weight over all nonzero codewords.

    Enumerates one representative per scalar class: the highest nonzero
    message coordinate (the lead) is 1 and the coordinates below it range
    over GF(Q)^lead.  Scaling preserves weights, so every weight is seen.

    The lowest coordinate c0 is left free.  The higher ones are visited in
    Q-ary reflected Gray order, in which one coordinate c_i changes per
    step, so each base word b is the previous one plus delta * row_i: a lead
    costs Q^(lead-1) base words, each one pass over the N columns.  For one
    base, coordinate j of b + c0 * row_0 vanishes for every c0 when row_0[j]
    and b[j] are both 0, and for exactly the one c0 = -b[j] / row_0[j] when
    row_0[j] != 0.  So the largest count of equal keys -b[j] / row_0[j] is
    the most zeros that any of the Q words of the base has.  The base is
    kept with those columns already scaled by -1 / row_0[j], so its entries
    are the keys; memory stays O(k*N).  The cap still counts all Q^k
    codewords.
    """
    F = code.field
    k = code.k
    length = code.length
    order = F.order
    if k == 0:
        raise ValueError("the zero code has no nonzero codewords")
    if order ** k > cap:
        raise CapExceeded(
            f"{order ** k} codewords exceed the enumeration cap {cap}"
        )
    rows = generator_rows(code)
    add, mul = F.op_tables
    row0 = rows[0]
    best = length - row0.count(0)
    # keyed columns: row_0[j] != 0, scaled by -1 / row_0[j]; fixed: row_0[j] == 0
    keyed = [(j, F.neg(F.inv(x))) for j, x in enumerate(row0) if x]
    fixed = [j for j, x in enumerate(row0) if not x]
    keys_of = [[mul[row[j]][m] for j, m in keyed] for row in rows]
    fixed_of = [[row[j] for j in fixed] for row in rows]
    for lead in range(1, k):
        keys, rest = keys_of[lead], fixed_of[lead]
        best = min(best, length - rest.count(0) - max(Counter(keys).values()))
        digits = [0] * lead
        steps = [1] * lead
        for _ in range(order ** (lead - 1) - 1):
            # the lowest digit above c0 that can still move in its direction
            # moves; the digits below it are at an end and turn around
            i = 1
            while not 0 <= digits[i] + steps[i] < order:
                steps[i] = -steps[i]
                i += 1
            old = digits[i]
            digits[i] = old + steps[i]
            scaled = mul[F.sub(digits[i], old)]
            keys = [add[x][scaled[y]] for x, y in zip(keys, keys_of[i])]
            rest = [add[x][scaled[y]] for x, y in zip(rest, fixed_of[i])]
            weight = length - rest.count(0) - max(Counter(keys).values())
            if weight < best:
                best = weight
    return best


def is_mds_by_rank(code, cap: int = RANK_TEST_CAP) -> bool:
    """MDS test via the standard equivalence: distance N-k+1 iff every
    k-column submatrix of the generator is nonsingular.

    Walks increasing column tuples depth first, sharing each prefix's
    elimination with every tuple that extends it: a prefix of d independent
    columns carries the residues of the later columns modulo its span, as
    vectors of k-d coordinates.  Taking the next column pivots on its
    residue and reduces each later residue by one O(k-d) row operation.  A
    zero residue means some at most k columns are dependent, so some
    k-column submatrix is singular and the walk stops.

    The last two columns of a tuple close in one pass: residues (r0, r1)
    are pairwise independent iff none is zero and their projective keys,
    r1 / r0 or one infinite key when r0 == 0, are pairwise distinct.  So
    each (k-2)-column prefix costs about N key insertions, and a k = 2 test
    is linear in N.  The cap still counts all C(N, k) subsets.
    """
    F = code.field
    k = code.k
    if k == 0:
        raise ValueError("the zero code has no distance")
    n_subsets = math.comb(code.length, k)
    if n_subsets > cap:
        raise CapExceeded(f"{n_subsets} column subsets exceed the cap {cap}")
    rows = generator_rows(code)
    add, mul = F.op_tables

    def independent(residues: List[List[Element]], needed: int) -> bool:
        """Whether every choice of `needed` of these residues, each a vector
        of `needed` coordinates, is linearly independent."""
        if needed == 1:
            return all(r[0] for r in residues)
        if needed == 2:
            keys = set()
            for r0, r1 in residues:
                if r0:
                    key = mul[r1][F.inv(r0)]
                elif r1:
                    key = None  # the point at infinity
                else:
                    return False
                if key in keys:
                    return False
                keys.add(key)
            return True
        for a in range(len(residues) - needed + 1):
            r = residues[a]
            p = next((i for i, x in enumerate(r) if x), None)
            if p is None:
                return False
            # -r / r[p]: adding f * pivot clears coordinate p of a residue
            # whose coordinate p is f
            normalise = mul[F.neg(F.inv(r[p]))]
            pivot = [normalise[x] for x in r]
            reduced = []
            for s in residues[a + 1:]:
                f = s[p]
                if f:
                    scaled = mul[f]
                    s = [add[x][scaled[y]] for x, y in zip(s, pivot)]
                else:
                    s = list(s)
                del s[p]
                reduced.append(s)
            if not independent(reduced, needed - 1):
                return False
        return True

    return independent([list(col) for col in zip(*rows)], k)
