"""Polynomials over a FieldTower.

Coefficients are canonical element ints, ascending degree, stored trimmed;
the zero polynomial has degree -1.  Provides the pieces the code machinery
needs: evaluation, Frobenius twisting, division/gcd, Lagrange
interpolation, an irreducibility test and a deterministic search for the
first monic irreducible polynomial of a degree.  That one search serves
twice: over GF(q^2) it picks the scaling polynomial of the extended
family, and over `field.PrimeField(p)` the modulus of GF(q^2) itself, so
its enumeration order fixes every element encoding.

Polynomials are multiplied, reduced and powered only by the kernels
`_product`, `_remainder` and `_power`, on coefficient lists: `Poly`, the
search and the field build (over `field.PrimeField`) all call them.  The
search hands its candidates to the irreducibility kernel as coefficient
lists as well, and builds a `Poly` only for the one it returns.  The
kernels, evaluation and the search read the field's `op_tables`.
The search evaluates each block of Q candidates, which differ only in the
constant term, once at every field element and reads the root-free
candidates off the block's image.  Up to 256 elements a block takes a
few C-level passes over the byte tables; on a larger tower the image is
computed in bulk, with C-level passes over all the units in the log
domain, and the first block, g = x**l, is read off the logs.  The
irreducibility test steps x**(Q**i) mod f by one matrix-vector product
each, through the matrix of the GF(Q)-linear map h -> h**Q mod f.  Once
the failed tests of one superblock of Q**2 candidates have cost about as
much as sieving it, the search marks the candidates of that superblock
with an irreducible quadratic factor, and at degree 6 also the products
of two cubics.  Up to degree 6 a root-free candidate the sieve leaves is
irreducible, so the superblock's answer is read off its marks a block at
a time; above, its test starts at factor degree 3.  Over a tower of
odd order the search also drops a candidate whose discriminant's
quadratic character proves it reducible, by Stickelberger's parity
theorem (Stickelberger 1897; Swan, "Factorization of polynomials over
finite fields", Pacific J. Math. 1962): a squarefree f of degree d with
r irreducible factors has a square discriminant iff d - r is even.  The
sieve and this filter skip only reducible candidates, so the search
returns the same polynomial as a test of every candidate.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

if TYPE_CHECKING:
    from .field import Element, FieldTower, PrimeField


def check_elements(field: FieldTower | PrimeField, xs: Iterable[Element], what: str) -> None:
    """Raise ValueError unless every x is an element encoding of the field."""
    # type(x) is int, not isinstance: a bool is an int subclass, and
    # neither a bool nor a float is an element encoding
    for x in xs:
        if type(x) is not int or not 0 <= x < field.order:
            raise ValueError(f"{what} {x!r} is not an element of {field!r}")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldTower, coeffs: Iterable[Element] = ()):
        cs = list(coeffs)
        check_elements(field, cs, "coefficient")
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs: Tuple[Element, ...] = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: FieldTower) -> "Poly":
        return cls(field)

    @classmethod
    def one(cls, field: FieldTower) -> "Poly":
        return cls(field, (1,))

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
        return Poly(self.field, _product(self.field, self.coeffs, other.coeffs))

    def scaled(self, c: Element) -> "Poly":
        F = self.field
        return Poly(F, (F.mul(c, x) for x in self.coeffs))

    def __divmod__(self, other: "Poly") -> Tuple["Poly", "Poly"]:
        F = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _remainder(F, self.coeffs, other.coeffs, quotient=True)
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
        add, mul = self.field.op_tables
        times = mul[point]
        acc: Element = 0
        for c in reversed(self.coeffs):  # Horner: acc -> acc*point + c
            acc = add[times[acc]][c]
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


def _product(
    F: FieldTower | PrimeField, a: Sequence[Element], b: Sequence[Element],
    tail: Optional[Sequence[Element]] = None,
) -> List[Element]:
    """The coefficient list of a * b, empty if a or b is.

    Given a tail, a * b mod f instead, where f has degree d = len(tail) and
    x**d == tail[0] + tail[1] x + ... + tail[d-1] x**(d-1) (mod f): a and b
    are then residues padded to length d, and so is the result.  A square
    (b is a) in characteristic 2 is the squares of a's coefficients at
    doubled exponents, since the cross terms 2 a_i a_j vanish."""
    if not a or not b:
        return []
    add, mul = F.op_tables
    out = [0] * (len(a) + len(b) - 1)
    if b is a and F.p == 2:
        out[::2] = [mul[x][x] for x in a]
    else:
        for i, x in enumerate(a):
            if x:
                row = mul[x]
                for j, y in enumerate(b, i):
                    out[j] = add[out[j]][row[y]]
    if tail is None:
        return out
    d = len(tail)
    for top in range(len(out) - 1, d - 1, -1):
        c = out[top]
        if c:
            row = mul[c]
            for j, y in enumerate(tail, top - d):
                out[j] = add[out[j]][row[y]]
    return out[:d]


def _remainder(
    F: FieldTower | PrimeField, a: Sequence[Element], b: Sequence[Element],
    quotient: bool = False,
):
    """a mod b, trimmed, for trimmed coefficient lists with b nonzero; with
    quotient=True, the pair (a // b, a mod b).  Every remainder Euclid's
    algorithm meets is then trimmed too, so its leading coefficient is a
    unit."""
    add, mul = F.op_tables
    rem = list(a)
    db = len(b) - 1
    minus_lc_inv = F.neg(F.inv(b[-1]))
    minus_quot = [0] * max(len(rem) - db, 0)
    while len(rem) > db:
        shift = len(rem) - 1 - db
        minus_quot[shift] = c = mul[rem[-1]][minus_lc_inv]
        row = mul[c]
        for j, y in enumerate(b, shift):
            rem[j] = add[rem[j]][row[y]]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    if quotient:
        neg = mul[F.neg(1)]
        return [neg[c] for c in minus_quot], rem
    return rem


def _power(
    F: FieldTower | PrimeField, a: Sequence[Element], m: int, tail: Sequence[Element]
) -> List[Element]:
    """a**m mod f for m >= 1, by square-and-multiply; a, f and the result
    as in `_product` with a tail."""
    h = a
    for bit in bin(m)[3:]:
        h = _product(F, h, h, tail)
        if bit == "1":
            h = _product(F, h, a, tail)
    return h


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
    return _irreducible_from(f.field, f.coeffs, 1)


def _irreducible_from(F: FieldTower | PrimeField, f: Sequence[Element], start: int) -> bool:
    """`is_irreducible` for the trimmed coefficient list f, already known
    to have no irreducible factor of degree below `start`: only the gcds
    for i >= start are taken.  The search calls this directly, so its calls
    count the search's irreducibility tests."""
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    add, mul = F.op_tables
    # x**d == tail[0] + tail[1] x + ... + tail[d-1] x**(d-1)  (mod f)
    minus_lc_inv = mul[F.neg(F.inv(f[-1]))]
    tail = [minus_lc_inv[c] for c in f[:-1]]
    h = _power(F, [0, 1] + [0] * (d - 2), F.order, tail)
    rows = [[1] + [0] * (d - 1), h]
    while len(rows) < d:
        rows.append(_product(F, rows[-1], h, tail))

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
            if _gcd_degree(F, f, diff) > 0:
                return False
    return True


def _gcd_degree(F: FieldTower | PrimeField, a: Sequence[Element], b: Sequence[Element]) -> int:
    """Degree of gcd(a, b) for coefficient lists with a trimmed and nonzero."""
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _remainder(F, a, b)
    return len(a) - 1


def _discriminant_parity(
    F: FieldTower, degree: int
) -> Callable[[Sequence[Element]], Optional[int]]:
    """The quadratic character of the discriminant of a monic polynomial of
    the degree over a tower of odd order, as a function of its coefficient
    list: None when disc(f) == 0, that is when f has a repeated factor;
    else 0 when disc(f) is a square and 1 when it is not.

    disc(f) == +-Res(f, f') for a monic f, and -1 is a square in GF(q^2)
    for odd q, so the character is that of Res(f, f').  Euclid's algorithm
    finds it: Res(a, b) == +-lc(b)**(deg a - deg r) * Res(b, r) for
    r = a mod b != 0, Res(a, c) == c**(deg a) for a nonzero constant c,
    and Res(a, b) == 0 when b divides a and is not constant.  A unit x
    encodes generator**(x - 1), and the generator is not a square, so x is
    a square iff x - 1 is even, and only the parity of the exponents
    counts.
    """
    mul = F.op_tables[1]
    # times[i - 1][c] == i * c, the derivative's coefficients
    times = [mul[F.from_int(i)] for i in range(1, degree + 1)]

    def parity(f: Sequence[Element]) -> Optional[int]:
        a = f
        b = [row[c] for row, c in zip(times, f[1:])]
        while b and b[-1] == 0:
            b.pop()
        odd = 0
        while len(b) > 1:
            r = _remainder(F, a, b)
            if (len(a) - len(r)) & 1:
                odd ^= (b[-1] - 1) & 1
            a, b = b, r
        if not b:
            return None
        return odd ^ ((len(a) - 1) & (b[0] - 1) & 1)

    return parity


def _superblocks(Q: int, degree: int) -> Iterator[List[Element]]:
    """[c_2, ..., c_(l-1), 1] for each superblock of the monic candidates of
    the degree, the Q**2 of them that share these coefficients, in
    enumeration order (c_2 fastest-varying)."""
    for digits in itertools.product(range(Q), repeat=degree - 2):
        yield list(digits[::-1]) + [1]


def _block_images(F: FieldTower | PrimeField) -> Callable[[List[Element]], bytes]:
    """The function that marks a block's root-free candidates: for upper =
    [c_1, ..., c_(l-1), 1] it returns free, where free[c_0] == 1 iff g +
    c_0 is root-free, g = x**l + ... + c_1 x.  A tower of more than
    LOOKUP_TABLE_MAX_ORDER elements computes each image in bulk in the log
    domain (`_bulk_root_free`); smaller towers and GF(p), where p is at
    most 251, read their byte tables (`_table_root_free`), which measured
    faster there."""
    from .field import LOOKUP_TABLE_MAX_ORDER  # see root_free_monic

    if F.order > LOOKUP_TABLE_MAX_ORDER:
        return _bulk_root_free(F)
    return _table_root_free(F)


#: The `bytes.translate` table that keeps 0 and sends every other byte to 1.
_NONZERO = bytes(1) + b"\1" * 255


def _table_root_free(
    F: FieldTower | PrimeField,
) -> Callable[[List[Element]], bytes]:
    """`_block_images` on the `op_tables` of GF(p) or of a tower of at most
    LOOKUP_TABLE_MAX_ORDER elements.

    -g(x) == -x**2 h(x) - c_1 x, where h = x**(l-2) + c_(l-1) x**(l-3) +
    ... + c_2 is Horner's value before "+ c_1", so it is the same for
    every block of a superblock.  Once per superblock, `Poly`'s table
    Horner gives h(x) at every point, and the add row of -x**2 h(x) is
    kept.  A block is then one C-level pass over the points, in which the
    mul row of -c_1 gives -c_1 x and each point's kept row adds
    -x**2 h(x).  Two byte translations turn these values into the marks:
    the elements go through a table that sends each value to 0, then
    through `_NONZERO`.  Every other element is sent to itself first, and
    is nonzero, since c_0 = 0 is the value at x = 0."""
    add, mul = F.op_tables
    neg = mul[F.neg(1)]  # neg[c] == -c
    elems = F.elements()
    codes = bytes(elems)
    zeros = bytes(F.order)
    high: Optional[List[Element]] = None
    shifts: List[Sequence[Element]] = []  # shifts[x] == add[-x**2 h(x)]

    def root_free(upper: List[Element]) -> bytes:
        nonlocal high, shifts
        if upper[1:] != high:
            high = upper[1:]
            h = Poly(F, high)  # x**(l-2) + c_(l-1) x**(l-3) + ... + c_2
            shifts = [add[mul[mul[h(x)][x]][neg[x]]] for x in elems]
        values = map(operator.getitem, shifts, mul[neg[upper[0]]])
        return codes.translate(bytes.maketrans(bytes(values), zeros)).translate(_NONZERO)

    return root_free


def _bulk_root_free(F: FieldTower) -> Callable[[List[Element]], bytes]:
    """`_block_images` in bulk, for a tower of any order.

    A unit is held as its discrete log i (generator**i, whose code is
    i + 1).  Block 0 of every search is g = x**l, whose values at the
    units are the logs divisible by gcd(l, Q - 1), so its marks are a
    pattern of that period, read off the logs with no evaluation.  Every
    other block goes to `_log_images`, whose index tables are built at the
    first such block, so a search that ends in block 0 never builds them.
    """
    M = F.order - 1
    shift = F.neg(1) - 1  # -generator**i == generator**(i + shift)
    images: Optional[Callable[[List[Element]], bytes]] = None

    def root_free(upper: List[Element]) -> bytes:
        nonlocal images
        if any(upper[:-1]):
            if images is None:
                images = _log_images(F)
            return images(upper)
        # -c_0 == generator**(i + shift) for c_0 == generator**i is a value
        # of g iff gcd(l, M) divides i + shift
        d = math.gcd(len(upper), M)
        period = b"\0" + b"\1" * (d - 1)
        turn = shift % d
        return bytes(1) + (period[turn:] + period[:turn]) * (M // d)

    return root_free


def _log_images(F: FieldTower) -> Callable[[List[Element]], bytes]:
    """`_block_images` for any block of a tower of any order: each Horner
    step maps all Q - 1 units at once through an index table, a few C-level
    passes per block instead of a Python loop over the points.

    A unit is held as its discrete log i and zero as Z = 2Q - 3, which no
    sum of two logs reaches.  A product is then one lookup, prod[a + b],
    and adding c == generator**j one lookup in a row read off the tower's
    Zech table rotated by j, since generator**i + c == c * (1 +
    generator**(i - j)).  Horner's rule runs (...((x + c_(l-1)) x +
    c_(l-2)) x ... + c_1) x, and the part before "+ c_1" is kept while
    c_2..c_(l-1) stay the same; a run of r zero coefficients among them is
    one multiplication by x**r, one pass.  x = 0 is a root of every g, so
    it is left out, and c_0 = 0 is never root-free.  The tables have the
    Zech table's entries, 2 bytes up to Q = 2**15, and the Zech table is
    read in place, so a search at Q = 2**14 peaks at about 0.26 MB.
    """
    from array import array  # here: no other path needs the module at start-up

    M = F.order - 1
    Z = 2 * M - 1
    zech = F._zech  # the Zech logs, which hold Z at the one i where 1 + generator**i == 0
    typecode = zech.format
    logs = range(M)
    # prod[a + b] == (a + b) % M for logs a and b, and Z when either is Z
    prod = array(typecode, logs)
    prod += prod[:M - 1]
    prod += array(typecode, (Z,)) * M
    unused = array(typecode, (Z,)) * (M - 1)
    shift = F.neg(1) - 1  # -generator**i == generator**(i + shift)

    def plus(c: Element, values: Iterable[int]) -> Iterator[int]:
        """The log of generator**a + c for each a in values, a log or Z; c != 0."""
        j = c - 1
        shifted = memoryview(prod)[j:]  # shifted[z] == (j + z) % M, and Z at z == Z
        turned = itertools.chain(zech[M - j:], zech[:M - j])  # zech[(a - j) % M]
        if values is logs:  # a runs over the logs in order: no row to look up
            return map(shifted.__getitem__, turned)
        row = array(typecode, map(shifted.__getitem__, turned))
        row += unused  # no log or Z falls in row[M:Z]
        row.append(j)
        return map(row.__getitem__, values)

    def times_x(values: Iterable[int], r: int = 1) -> Iterable[int]:
        """Each of values, a log or Z, times x**r at its unit x."""
        if not r:
            return values
        powers = logs if r == 1 else map(operator.mod, range(0, r * M, r), itertools.repeat(M))
        return map(prod.__getitem__, map(operator.add, values, powers))

    high: List[Element] = []
    head: Sequence[int] = logs  # Horner's value at each unit x before "+ c_1"

    def root_free(upper: List[Element]) -> bytes:
        nonlocal high, head
        if upper[1:] != high:
            high = upper[1:]
            head, r = logs, 0  # Horner's value is head * x**r
            for c in high[-2::-1]:  # c_(l-1), ..., c_2
                if c:
                    head, r = array(typecode, times_x(plus(c, times_x(head, r)))), 0
                else:
                    r += 1
            if r:
                head = array(typecode, times_x(head, r))
        c1 = upper[0]
        missed = bytearray(b"\1") * (Z + 1)  # missed[i] == 0 iff generator**i == g(x)
        # deque(..., 0) drains the marking map in C; it yields only Nones
        collections.deque(map(missed.__setitem__, times_x(plus(c1, head) if c1 else head),
                              itertools.repeat(0)), 0)
        return bytearray(1) + missed[shift:M] + missed[:shift]

    return root_free


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
    neg = mul[F.neg(1)]  # neg[c] == -c
    minus_g = [mul[neg[c]] if c else None for c in high]
    marks = bytearray((Q * Q + 7) // 8)
    root_free = _block_images(F)
    elems = F.elements()
    for b in elems:
        step_b = mul[neg[b]]
        for a in itertools.compress(elems, root_free([b, 1])):
            step_a = mul[neg[a]]
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


def _cubic_pair_marks(F: FieldTower | PrimeField, high: Sequence[Element]) -> bytearray:
    """`_quadratic_factor_marks` for the sextics that are a product of two
    monic cubics x**3 + a_2 x**2 + a_1 x + a_0 and x**3 + b_2 x**2 + b_1 x
    + b_0; `high` is c_2, ..., c_5, 1.

    Matching coefficients from the top, each (a_2, a_1) fixes b_2 = c_5 -
    a_2, b_1 = c_4 - a_1 - a_2 b_2 and a_0 + b_0 = K = c_3 - a_2 b_1 - a_1
    b_2.  The x**2 coefficient then reads a_0 (b_2 - a_2) == R = c_2 - a_2 K
    - a_1 b_1: a_0 is unique when b_2 != a_2, and when b_2 == a_2 it is any
    element if R == 0 and none otherwise.  Each solution marks (c_1, c_0) =
    (a_1 b_0 + a_0 b_1, a_0 b_0), O(Q**2) steps per superblock in all."""
    Q = F.order
    add, mul = F.op_tables
    neg = mul[F.neg(1)]  # neg[c] == -c
    c2, c3, c4, c5 = high[:4]
    elems = F.elements()
    marks = bytearray((Q * Q + 7) // 8)
    for a2 in elems:
        b2 = add[c5][neg[a2]]
        minus_a2, minus_b2 = mul[neg[a2]], mul[neg[b2]]
        e4 = add[c4][minus_a2[b2]]  # b_1 == e4 - a_1
        gap = add[b2][neg[a2]]
        over_gap = mul[F.inv(gap)] if gap else None
        for a1 in elems:
            b1 = add[e4][neg[a1]]
            K = add[add[c3][minus_a2[b1]]][minus_b2[a1]]
            times_a1 = mul[a1]
            R = add[add[c2][minus_a2[K]]][neg[times_a1[b1]]]
            if over_gap is None and R:
                continue  # a_0 * 0 == R has no solution
            for a0 in elems if over_gap is None else (over_gap[R],):
                b0 = add[K][neg[a0]]
                i = add[times_a1[b0]][mul[a0][b1]] * Q + mul[a0][b0]
                marks[i >> 3] |= 1 << (i & 7)
    return marks


def _sieve_marks(F: FieldTower | PrimeField, high: Sequence[Element]) -> int:
    """A superblock's sieve marks as one int: bit c_1 * Q + c_0 is set iff
    the candidate has a monic irreducible quadratic factor
    (`_quadratic_factor_marks`) or, at degree 6, is a product of two monic
    cubics (`_cubic_pair_marks`).  Bit c_0 of marks >> c_1 * Q is then the
    mark of c_0 in block c_1."""
    marks = int.from_bytes(_quadratic_factor_marks(F, high), "little")
    if len(high) == 5:
        marks |= int.from_bytes(_cubic_pair_marks(F, high), "little")
    return marks


_ASCII_BITS = bytes.maketrans(b"\0\1", b"01")


def _bits(flags: bytes) -> int:
    """The int whose bit i is flags[i], for nonempty flags of 0s and 1s."""
    return int(flags.translate(_ASCII_BITS)[::-1], 2)


#: Largest field order the search sieves over: a superblock's marks take
#: Q**2 / 8 bytes, 2 MB at Q = 4096 and 32 MB at Q = 16384.
SIEVE_MAX_ORDER = 4096


def _tests_before_sieve(Q: int) -> float:
    """Failed irreducibility tests after which the search sieves a
    superblock: about as many as sieving it costs, its marks and the
    read-off of all Q of its blocks.  That cost, in failed tests of the
    same superblocks, measured about Q**2 / 64 at degree 4, Q**2 / 122 at
    degree 5 and Q**2 / 38 at degree 6 (geometric means over Q = 64, 81,
    121 and 256; 92-96 tests at (Q, l) = (64, 4), 1,200-1,220 at
    (256, 4)), so Q**2 / 64 is within a factor of 2 at each degree.  A superblock whose answer comes within
    this many failures is never sieved, and one that is sieved has first
    spent about one sieve on failed tests, so it costs at most about twice
    what the cheaper of testing alone and sieving at once would.  Above
    SIEVE_MAX_ORDER the search never sieves."""
    return Q * Q // 64 if Q <= SIEVE_MAX_ORDER else float("inf")


@functools.lru_cache(maxsize=None)
def root_free_monic(field: FieldTower | PrimeField, degree: int) -> Poly:
    """First monic irreducible polynomial of the given degree >= 2,
    enumerating coefficients in ascending order with the constant term
    fastest-varying.  An irreducible polynomial of degree >= 2 has no root
    in the field, so only the root-free candidates are tried, read off
    each block's image (`_block_images`); at degree 2 or 3 the first of
    them is the answer.

    The same search finds the scaling polynomial over a FieldTower and the
    tower's own modulus over its PrimeField, so this enumeration order
    fixes every element encoding.

    The search runs superblock by superblock, the Q**2 candidates that
    share c_2..c_(l-1).  Above degree 3 its root-free candidates go to
    the irreducibility test in order, from factor degree 2 on, and most
    searches end within a few tests.  Once `_tests_before_sieve` of them
    have failed in one superblock, the search sieves that superblock: it
    marks the candidates with a quadratic factor, and at degree 6 the
    products of two cubics as well (`_sieve_marks`), recomputed per
    superblock rather than kept, so memory stays level.  A root-free
    sextic has no linear factor, so it splits as 2+2+2, 2+4 or 3+3, and
    the two sets of marks see all three.  Up to degree 6 an unmarked
    root-free candidate is therefore irreducible: the answer is the first
    one from the current candidate on, found a block at a time as the
    block's root-free bits less its marks, and the superblock's
    candidates are not walked one by one.  Above degree 6 an unmarked
    root-free candidate still goes to the test, from factor degree 3 on.
    The next superblock starts again with a full budget of tests.

    Over a tower of odd order, a candidate goes to the test only if its
    discriminant is nonzero with the quadratic character
    (-1)**(degree - 1) that Stickelberger's parity theorem gives an irreducible polynomial
    (`_discriminant_parity`); one with a repeated factor or the wrong
    character is reducible and skipped.  These skips are no failed tests,
    so they do not bring the sieve closer.  At (q, l) = (9, 6) the filter
    drops 2,360 of the 2,361 root-free candidates up to the answer.  Over
    GF(p) the sign of the discriminant would count as well, and in
    characteristic 2 the character needs Berlekamp's discriminant, so
    neither search filters.  The sieve and the filter skip only reducible
    candidates, and every other one is tested, so the answer is the same
    first irreducible polynomial.
    """
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    from .field import FieldTower  # here: the field module imports this one

    F = field
    Q = F.order
    root_free = _block_images(F)
    disc_parity = None
    if Q % 2 and isinstance(F, FieldTower):
        disc_parity = _discriminant_parity(F, degree)
    budget = _tests_before_sieve(Q)
    for high in _superblocks(Q, degree):
        failures_left = budget
        marks = None
        for c1 in range(Q):
            upper = [c1] + high
            left = _bits(root_free(upper))  # bit c_0: a candidate still to try
            if marks is not None:
                left &= ~(marks >> c1 * Q)
            while left:
                # a root-free quadratic or cubic is irreducible; answered
                # before the sieve, which at Q = 2 runs at once and marks them
                if degree <= 3:
                    return Poly(F, [(left & -left).bit_length() - 1] + upper)
                if marks is None and failures_left <= 0:
                    marks = _sieve_marks(F, high)
                    left &= ~(marks >> c1 * Q)
                    continue
                coeffs = [(left & -left).bit_length() - 1] + upper
                left &= left - 1
                if marks is not None and degree <= 6:
                    return Poly(F, coeffs)
                if disc_parity is not None and disc_parity(coeffs) != (degree - 1) & 1:
                    continue
                # a root-free candidate has no factor of degree 1, and one
                # the sieve leaves none of degree 2
                if _irreducible_from(F, coeffs, 2 if marks is None else 3):
                    return Poly(F, coeffs)
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
    check_elements(field, points, "interpolation point")
    check_elements(field, values, "value")
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
