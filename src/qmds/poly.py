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
the GF(Q)-linear map h -> h**Q mod f.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd."""
    while not b.is_zero():
        a, b = b, a % b
    if not a.is_zero():
        a = a.scaled(a.field.inv(a.coeffs[-1]))
    return a


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


@functools.lru_cache(maxsize=None)
def root_free_monic(field: FieldTower | PrimeField, degree: int) -> Poly:
    """First monic irreducible polynomial of the given degree >= 2,
    enumerating coefficients in ascending order with the constant term
    fastest-varying.  An irreducible polynomial of degree >= 2 has no root
    in the field, and at degree 2 or 3 a polynomial without a root is
    irreducible.

    The same search finds the scaling polynomial over a FieldTower and the
    tower's own modulus over its PrimeField, so this enumeration order
    fixes every element encoding.

    Each block of Q consecutive candidates shares c_1..c_(l-1), so the
    search evaluates g = x**l + ... + c_1 x once at every element, per
    block.  The candidate g + c_0 is root-free iff -c_0 is not in the image
    of g, and a block whose image is the whole field holds no root-free
    candidate.  At degree <= 3 the first root-free candidate is the answer;
    above, the root-free candidates go to `is_irreducible` in order.
    """
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    F = field
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
                cand = Poly(F, [c0] + upper)
                if degree <= 3 or is_irreducible(cand):
                    return cand
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
