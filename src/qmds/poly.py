"""Polynomials over a FieldTower.

Coefficients are canonical element ints, ascending degree, stored trimmed;
the zero polynomial has degree -1.  Provides the pieces the code machinery
needs: evaluation, Frobenius twisting, division/gcd, Lagrange
interpolation, an irreducibility test and a deterministic search for the
first monic irreducible polynomial of a degree.  That one search serves
twice: over GF(q^2) it picks the scaling polynomial of the extended
family, and over `field.PrimeField(p)` the modulus of GF(q^2) itself, so
its enumeration order fixes every element encoding.

The last two read the field's `op_tables` instead of calling its methods.
The search evaluates each block of Q candidates, which differ only in the
constant term, once at every field element and reads the root-free
candidates off the block's image.  The irreducibility test steps
x**(Q**i) mod f by one matrix-vector product each, through the matrix of
the GF(Q)-linear map h -> h**Q mod f.  Once its failed tests have cost
about as much as sieving, the search sieves out the candidates with an
irreducible quadratic factor, one superblock of Q**2 candidates at a
time.  At degree 4 and 5 a root-free candidate the sieve leaves is
irreducible; above, its test starts at factor degree 3.  The sieve skips
only reducible candidates, so the search returns the same polynomial as
a test of every candidate.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable, Iterator, List, Sequence, Tuple

if TYPE_CHECKING:
    from .field import Element, FieldTower, PrimeField


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldTower, coeffs: Iterable[Element] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < field.order:
                raise ValueError(f"coefficient {c} out of range for {field!r}")
        self.field = field
        self.coeffs: Tuple[Element, ...] = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: FieldTower) -> "Poly":
        return cls(field)

    @classmethod
    def one(cls, field: FieldTower) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldTower) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: FieldTower, c: Element) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field: FieldTower, degree: int, c: Element = 1) -> "Poly":
        return cls(field, (0,) * degree + (c,))

    # -- structure --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Largest exponent with a nonzero coefficient; -1 for the zero poly."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Element:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, (F.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(F)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = F.add(out[i + j], F.mul(x, y))
        return Poly(F, out)

    def scaled(self, c: Element) -> "Poly":
        F = self.field
        return Poly(F, (F.mul(c, x) for x in self.coeffs))

    def __divmod__(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        lc_inv = F.inv(other.coeffs[-1])
        quot = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            c = F.mul(rem[-1], lc_inv)
            shift = len(rem) - 1 - db
            quot[shift] = c
            for j, y in enumerate(other.coeffs):
                rem[shift + j] = F.sub(rem[shift + j], F.mul(c, y))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __call__(self, point: Element) -> Element:
        F = self.field
        acc: Element = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, point), c)
        return acc

    def frobenius(self) -> "Poly":
        """The polynomial equal to f(x)**q: coefficient f_i**q at exponent i*q,
        so evaluating it at any point a gives f(a)**q."""
        F = self.field
        if self.is_zero():
            return Poly(F)
        out = [0] * (self.degree * F.q + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * F.q] = F.frobenius(c)
        return Poly(F, out)

    def __repr__(self) -> str:
        return f"Poly({self.field!r}, {self.coeffs})"


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over the big field GF(q^2), of order Q.

    A reducible polynomial of degree d has an irreducible factor of degree
    at most d/2, and x**(Q**i) - x is the product of all irreducibles whose
    degree divides i, so f is irreducible iff gcd(x**(Q**i) - x, f) is
    trivial for every i up to d/2.

    The powers are taken modulo f on flat coefficient lists.  x**Q is found
    once, by square-and-multiply.  Because c**Q == c for every c in the
    field, h -> h**Q is linear on the residues: (sum h_j x**j)**Q is
    sum h_j x**(jQ).  So with the d rows x**(jQ) mod f (Berlekamp's
    Q-matrix), each next x**(Q**(i+1)) is one matrix-vector product.
    """
    return _irreducible_from(f, 1)


def _irreducible_from(f: Poly, start: int) -> bool:
    """`is_irreducible` for an f already known to have no irreducible
    factor of degree below `start`: only the gcds for i >= start are taken.
    The search calls this directly, so its calls count the search's
    irreducibility tests."""
    d = f.degree
    if d < 1:
        return False
    if d == 1:
        return True
    F = f.field
    add, mul = F.op_tables
    # x**d == tail[0] + tail[1] x + ... + tail[d-1] x**(d-1)  (mod f)
    lc_inv = mul[F.inv(f.coeffs[-1])]
    tail = [F.neg(lc_inv[c]) for c in f.coeffs[:-1]]

    def mulmod(a: List[Element], b: List[Element]) -> List[Element]:
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                row = mul[x]
                for j, y in enumerate(b, i):
                    prod[j] = add[prod[j]][row[y]]
        for top in range(2 * d - 2, d - 1, -1):
            c = prod[top]
            if c:
                row = mul[c]
                for j, y in enumerate(tail, top - d):
                    prod[j] = add[prod[j]][row[y]]
        return prod[:d]

    x = [0, 1] + [0] * (d - 2)
    h = x
    for bit in bin(F.order)[3:]:
        h = mulmod(h, h)
        if bit == "1":
            h = mulmod(h, x)
    rows = [[1] + [0] * (d - 1), h]
    while len(rows) < d:
        rows.append(mulmod(rows[-1], h))

    monic = [lc_inv[c] for c in f.coeffs]
    minus_one = F.neg(1)
    for i in range(1, d // 2 + 1):
        if i > 1:
            nxt = [0] * d
            for c, row in zip(h, rows):
                if c:
                    scale = mul[c]
                    nxt = [add[s][scale[r]] for s, r in zip(nxt, row)]
            h = nxt
        if i >= start:
            diff = list(h)
            diff[1] = add[diff[1]][minus_one]
            if _gcd_degree(F, monic, diff) > 0:
                return False
    return True


def _gcd_degree(F: FieldTower | PrimeField, a: List[Element], b: List[Element]) -> int:
    """Degree of gcd(a, b) for coefficient lists with a trimmed and nonzero.
    Every remainder is kept trimmed, so its leading coefficient is a unit."""
    add, mul = F.op_tables
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    while b:
        # a, b = b, a mod b
        rem = list(a)
        db = len(b) - 1
        lc_inv = F.inv(b[-1])
        minus_b = [F.neg(y) for y in b]
        while len(rem) > db:
            row = mul[mul[rem[-1]][lc_inv]]
            for j, y in enumerate(minus_b, len(rem) - 1 - db):
                rem[j] = add[rem[j]][row[y]]
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        a, b = b, rem
    return len(a) - 1


def _root_free_candidates(
    F: FieldTower | PrimeField, degree: int
) -> Iterator[Tuple[Element, List[Element]]]:
    """Yield (c_0, [c_1, ..., c_(l-1), 1]) for every monic root-free
    polynomial of the degree, with the constant term fastest-varying.  One
    list is shared by the candidates of a block; callers must not change it.

    Each block of Q consecutive candidates shares c_1..c_(l-1), so g =
    x**l + ... + c_1 x is evaluated once at every element, per block.  The
    candidate g + c_0 is root-free iff -c_0 is not in the image of g, and a
    block whose image is the whole field holds no root-free candidate.
    """
    Q = F.order
    add, mul = F.op_tables
    elems = F.elements()
    for block in range(Q ** (degree - 1)):
        upper = []  # c_1, ..., c_(l-1): the digits of the block index
        m = block
        for _ in range(degree - 1):
            m, c = divmod(m, Q)
            upper.append(c)
        horner = upper[::-1]
        upper.append(1)
        # in_image[y] is 1 iff y == g(x) for some x
        in_image = bytearray(Q)
        for x in elems:
            acc = 1
            for c in horner:
                acc = add[mul[acc][x]][c]
            in_image[mul[acc][x]] = 1
        if 0 not in in_image:
            continue
        for c0 in elems:
            if not in_image[F.neg(c0)]:
                yield c0, upper


def _quadratic_factor_marks(
    F: FieldTower | PrimeField, high: Sequence[Element]
) -> bytearray:
    """Bit i = c_1 * Q + c_0 of the result, marks[i >> 3] >> (i & 7) & 1,
    is set iff the monic g + c_1 x + c_0, where g = sum high[j - 2] x**j
    over j >= 2, has a monic irreducible quadratic factor.  `high` is c_2,
    ..., c_(l-1), 1.  Packing eight marks to a byte keeps a superblock at
    Q = 256 to 8 KB, so the search's peak memory stays level.

    Each monic irreducible quadratic r = x**2 + b x + a divides exactly one
    candidate: g == A x + B (mod r) marks (c_1, c_0) = (-A, -B).  The
    quadratics are the root-free candidates of degree 2, and x**j mod r
    == U_j x + V_j follows U_(j+1) = V_j - b U_j, V_(j+1) = -a U_j from
    U_1 = 1, V_1 = 0.  Negating the coefficients of g up front gives -A and
    -B directly.
    """
    Q = F.order
    add, mul = F.op_tables
    neg = [F.neg(c) for c in F.elements()]
    minus_g = [mul[neg[c]] if c else None for c in high]
    marks = bytearray((Q * Q + 7) // 8)
    for a, (b, _) in _root_free_candidates(F, 2):
        step_b, step_a = mul[neg[b]], mul[neg[a]]
        U, V = 1, 0
        A = B = 0
        for row in minus_g:
            U, V = add[V][step_b[U]], step_a[U]
            if row is not None:
                A = add[A][row[U]]
                B = add[B][row[V]]
        i = A * Q + B
        marks[i >> 3] |= 1 << (i & 7)
    return marks


#: Largest field order the search sieves over: a superblock's marks take
#: Q**2 / 8 bytes, 2 MB at Q = 4096 and 32 MB at Q = 16384.
SIEVE_MAX_ORDER = 4096


def _tests_before_sieve(Q: int) -> float:
    """Failed irreducibility tests after which the search starts sieving:
    about as many as the marks of one superblock cost.  Q**2 / 64 is within
    a factor of 2 of the measured ratio (one set of marks took the time of
    40-80 tests at Q = 64, 660-1,240 at Q = 256 and 13,000-33,000 at Q =
    1024).  A search that ends within this many failures never sieves,
    and one that sieves has first spent about one round of marks on
    failed tests, so it costs at most about twice what testing alone
    would.  Above SIEVE_MAX_ORDER the search never sieves."""
    return Q * Q // 64 if Q <= SIEVE_MAX_ORDER else float("inf")


@functools.lru_cache(maxsize=None)
def root_free_monic(field: FieldTower | PrimeField, degree: int) -> Poly:
    """First monic irreducible polynomial of the given degree >= 2,
    enumerating coefficients in ascending order with the constant term
    fastest-varying.  An irreducible polynomial of degree >= 2 has no root
    in the field, so only the root-free candidates of
    `_root_free_candidates` are tried; at degree 2 or 3 the first of them
    is the answer.

    The same search finds the scaling polynomial over a FieldTower and the
    tower's own modulus over its PrimeField, so this enumeration order
    fixes every element encoding.

    Above degree 3 the root-free candidates go to the irreducibility test
    in order, from factor degree 2 on, and most searches end within a few
    tests.  Once `_tests_before_sieve` of them have failed, the search
    sieves: each superblock of Q**2 candidates that share c_2..c_(l-1)
    gets `_quadratic_factor_marks`, recomputed per superblock rather than
    kept, so memory stays level, and a marked candidate is skipped.  At
    degree 4 or 5 an unmarked root-free candidate is irreducible; above,
    it still goes to the test, from factor degree 3 on.  The sieve only
    skips reducible candidates, so the answer is the same first
    irreducible polynomial.
    """
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    F = field
    Q = F.order
    failures_left = _tests_before_sieve(Q)
    high = marks = None
    for c0, upper in _root_free_candidates(F, degree):
        if degree <= 3:
            return Poly(F, [c0] + upper)
        # the least degree an irreducible factor of the candidate can have
        least = 2
        if failures_left <= 0:
            if upper[1:] != high:
                high = upper[1:]
                marks = _quadratic_factor_marks(F, high)
            i = upper[0] * Q + c0
            if marks[i >> 3] >> (i & 7) & 1:
                continue
            if degree <= 5:
                return Poly(F, [c0] + upper)
            least = 3
        cand = Poly(F, [c0] + upper)
        if _irreducible_from(cand, least):
            return cand
        failures_left -= 1
    raise RuntimeError("no irreducible polynomial found")  # cannot happen


def lagrange_interpolate(
    field: FieldTower, points: Sequence[Element], values: Sequence[Element]
) -> Poly:
    """Unique polynomial of degree <= n-1 through the n given pairs."""
    if len(points) != len(values):
        raise ValueError("points and values must have equal length")
    n = len(points)
    if n == 0:
        raise ValueError("at least one interpolation point is required")
    if len(set(points)) != n:
        raise ValueError("interpolation points must be distinct")
    F = field
    full = Poly.one(F)
    for a in points:
        full = full * Poly(F, (F.neg(a), 1))
    acc = Poly.zero(F)
    for a, y in zip(points, values):
        if y == 0:
            continue
        cofactor = full // Poly(F, (F.neg(a), 1))
        acc = acc + cofactor.scaled(F.mul(y, F.inv(cofactor(a))))
    return acc
