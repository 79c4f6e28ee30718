"""Exact arithmetic in GF(q^2) together with its subfield GF(q), q = p^e.

A tower is built once from (p, e).  The modulus is the first monic
irreducible polynomial of degree 2e over GF(p), constant term
fastest-varying, found by `poly.root_free_monic` over `PrimeField(p)`: the
same search that picks the extended family's scaling polynomial over
GF(q^2), so its enumeration order fixes every element encoding.  The
generator is the primitive element with the smallest packed coefficient
vector.  Both choices are deterministic, so element encodings are stable
across runs and machines.

Elements are plain ints in canonical encoding:

    0      -> the zero element
    1 + j  -> generator**j   for 0 <= j <= q**2 - 2

Equality of elements is equality of ints.  Multiplication, inversion and
powering are index arithmetic on discrete logs; addition uses Zech
logarithms.  All operations are exact, and a tower is immutable after
construction (its add/mul lookup tables are built once, on first use), so
it is safe to share freely.

The tables come from one walk over the powers of the generator in packed
form: the coefficient vector of a polynomial of degree < 2e over GF(p),
read as base-p digits, constant term lowest.  Multiplying by the generator
is GF(p)-linear, so a step looks up the images of the two base-q halves of
the packed vector, adds them without carries (the images are stored in
base 2p - 1) and reduces each half of the sum mod p with one more lookup.
1 + x changes only the lowest digit of a packed x, so each Zech logarithm
is a single lookup too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .poly import root_free_monic

#: Elements are canonical integer encodings (see module docstring).
Element = int

#: Largest allowed number of elements of GF(q^2); full log/exp/Zech tables
#: are materialised, so this caps table memory and construction time.
DEFAULT_ELEMENT_BOUND = 2 ** 14

#: Ceiling on a user-set element bound: building GF(2^16) takes about 0.09 s
#: and 9 MB, and each further factor of 4 costs about 4.5x the time and 4x
#: the memory.
MAX_ELEMENT_BOUND = 2 ** 16

#: Largest field whose add/mul tables `FieldTower.op_tables` stores as byte
#: rows: every element then fits in one byte, and a table is at most 64 KB.
LOOKUP_TABLE_MAX_ORDER = 256


class ParameterError(ValueError):
    """Parameters outside the admissible range."""


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    return prime_factors(n) == [n]


def prime_factors(n: int) -> List[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(q: int) -> Tuple[int, int]:
    """Split q into (p, e) with q == p**e, p prime; ParameterError
    otherwise."""
    if q < 2:
        raise ParameterError(f"q must be at least 2, got {q}")
    ps = prime_factors(q)
    if len(ps) != 1:
        raise ParameterError(f"{q} is not a prime power")
    p = ps[0]
    e = 0
    m = q
    while m > 1:
        m //= p
        e += 1
    return p, e


@dataclass(frozen=True)
class PrimeField:
    """GF(p) on the ints 0..p-1, with just what `root_free_monic` reads to
    find a tower's modulus.  Equal and hashed by p, so the search's cache
    keeps one entry per (p, degree)."""

    p: int

    @property
    def order(self) -> int:
        return self.p

    @property
    def op_tables(self) -> Tuple["_MethodTable", "_MethodTable"]:
        p = self.p
        return (_MethodTable(lambda x, y: (x + y) % p),
                _MethodTable(lambda x, y: x * y % p))

    def neg(self, x: int) -> int:
        return -x % self.p

    def inv(self, x: int) -> int:
        return pow(x, -1, self.p)

    def elements(self) -> range:
        return range(self.p)


class FieldTower:
    """GF(q^2) with its index-2 subfield GF(q), q = p**e.

    Attributes:
        p, e: prime and extension degree, q = p**e.
        q: subfield size.
        order: q**2, the number of elements.
        modulus: monic irreducible of degree 2e over GF(p), ascending coeffs.
        generator: canonical encoding of the primitive element (always 2).
    """

    zero: Element = 0
    one: Element = 1

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if e < 1:
            raise ValueError(f"extension degree must be positive, got {e}")
        self.p = p
        self.e = e
        self.q = p ** e
        self.order = self.q ** 2
        self.modulus: Tuple[int, ...] = root_free_monic(PrimeField(p), 2 * e).coeffs
        # Declared here and filled on first use: adding the attribute after
        # __init__ instead made the field methods about a third slower on
        # CPython 3.11, which then drops its compact instance layout.
        self._op_tables: Optional[Tuple[Sequence[Sequence[Element]], ...]] = None
        self._build_tables()

    # -- construction ---------------------------------------------------

    def _unpack(self, packed: int) -> List[int]:
        digits = []
        for _ in range(2 * self.e):
            packed, r = divmod(packed, self.p)
            digits.append(r)
        return digits

    def _pack(self, digits: List[int]) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def _vmul(self, a: int, b: int) -> int:
        p, n = self.p, 2 * self.e
        da, db = self._unpack(a), self._unpack(b)
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(len(prod) - 1, n - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(n):
                    prod[i - n + j] = (prod[i - n + j] - c * self.modulus[j]) % p
        return self._pack(prod[:n])

    def _vpow(self, a: int, m: int) -> int:
        result = 1
        while m:
            if m & 1:
                result = self._vmul(result, a)
            a = self._vmul(a, a)
            m >>= 1
        return result

    def _exp_log(self) -> Tuple[int, List[int], List[Optional[int]]]:
        """(g, exp, log): g is the packed generator, the primitive element
        with the smallest packed vector; exp[j] is g**j packed, for
        0 <= j <= q**2 - 2; log[v] is the j with exp[j] == v, and None at
        v == 0.

        Multiplying by g is GF(p)-linear, so one step splits the packed
        vector into its base-q halves, hi and lo, and adds the images of
        lo*g and hi*x**e*g from two tables of q entries each (2q `_vmul`
        calls, made once).  The images are stored in base B = 2p - 1, so
        each digit of the sum is at most 2p - 2 and the sum has no carries;
        one table of B**e entries maps each half of the sum back to base-p
        digits reduced mod p.
        """
        p, e, q = self.p, self.e, self.q
        M = self.order - 1
        factors = prime_factors(M)
        gen_packed = 0
        for cand in range(2, self.order):
            if all(self._vpow(cand, M // r) != 1 for r in factors):
                gen_packed = cand
                break
        if not gen_packed:
            raise RuntimeError("no primitive element found")  # cannot happen

        B = 2 * p - 1
        Be = B ** e

        def rebase(v: int) -> int:  # base-p digits read in base B
            return sum(d * B ** i for i, d in enumerate(self._unpack(v)))

        low = [rebase(self._vmul(lo, gen_packed)) for lo in range(q)]
        high = [rebase(self._vmul(hi * q, gen_packed)) for hi in range(q)]
        # reduce[n] for n = d_0 + d_1*B + ...: the digits d_i mod p in base p
        reduce = [0]
        for _ in range(e):
            reduce = [d % p + p * r for r in reduce for d in range(B)]

        exp = [0] * M
        log: List[Optional[int]] = [None] * self.order
        cur = 1
        for j in range(M):
            if log[cur] is not None:
                raise RuntimeError("generator order is too small")
            exp[j] = cur
            log[cur] = j
            hi, lo = divmod(cur, q)
            hw, lw = divmod(low[lo] + high[hi], Be)
            cur = reduce[hw] * q + reduce[lw]
        if cur != 1:
            raise RuntimeError("generator order check failed")
        return gen_packed, exp, log

    def _build_tables(self) -> None:
        """Fill the Zech, Frobenius and subfield tables from the powers of
        the generator, which `_exp_log` walks at a few integer operations
        per step (two table lookups, one addition, two reductions); exp and
        log are not kept.

        1 + x changes only the lowest base-p digit of a packed x, so the
        Zech entry of x needs no arithmetic beyond that digit: x + 1, or
        x - (p - 1) when the digit wraps (for p = 2 this is x ^ 1).
        """
        gen_packed, exp, log = self._exp_log()
        self.generator: Element = 1 + log[gen_packed]  # always 2 by construction

        # Zech logarithms: zech[d] = log(1 + generator**d), None when the
        # sum is 0 (log[0] is None: the walk never reaches 0)
        p = self.p
        self._zech: List[Optional[int]] = [
            log[x - p + 1 if x % p == p - 1 else x + 1] for x in exp]
        M = self.order - 1
        self._neg_shift = 0 if p == 2 else M // 2

        frob = [0] + [1 + (j * self.q) % M for j in range(M)]
        self._frob = frob

        # subfield enumeration: 0 first, then ascending powers of
        # norm(generator) == generator**(q+1), whose encodings step by q + 1
        self._subfield = (0,) + tuple(range(1, self.order, self.q + 1))

        fixed = sum(1 for y in range(self.order) if frob[y] == y)
        if fixed != self.q or any(frob[y] != y for y in self._subfield):
            raise RuntimeError("subfield verification failed")

    # -- element arithmetic ----------------------------------------------

    def add(self, x: Element, y: Element) -> Element:
        if x == 0:
            return y
        if y == 0:
            return x
        M = self.order - 1
        i, j = x - 1, y - 1
        t = self._zech[(j - i) % M]
        if t is None:
            return 0
        return 1 + (i + t) % M

    def neg(self, x: Element) -> Element:
        if x == 0 or self.p == 2:
            return x
        return 1 + (x - 1 + self._neg_shift) % (self.order - 1)

    def sub(self, x: Element, y: Element) -> Element:
        return self.add(x, self.neg(y))

    def mul(self, x: Element, y: Element) -> Element:
        if x == 0 or y == 0:
            return 0
        return 1 + (x + y - 2) % (self.order - 1)

    def inv(self, x: Element) -> Element:
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return 1 + (1 - x) % (self.order - 1)

    def div(self, x: Element, y: Element) -> Element:
        return self.mul(x, self.inv(y))

    def pow(self, x: Element, m: int) -> Element:
        """x**m with the evaluation convention 0**0 == 1."""
        if x == 0:
            if m > 0:
                return 0
            if m == 0:
                return 1
            raise ZeroDivisionError("zero to a negative power")
        return 1 + ((x - 1) * m) % (self.order - 1)

    @property
    def op_tables(self) -> Tuple[Sequence[Sequence[Element]], ...]:
        """(add, mul) indexed as add[x][y] == self.add(x, y) and
        mul[x][y] == self.mul(x, y), for the inner loops of the distance
        kernels.

        Up to LOOKUP_TABLE_MAX_ORDER elements every row is a `bytes` object
        of `order` entries (64 KB per table at order 256), built on first
        use.  Larger fields get views that call the methods, so the same
        loop runs on every field without materialising order**2 entries.

        The rows are slices of two base rows.  Multiplication adds discrete
        logs, so row x is 0 followed by the units 1..order-1 rotated by
        x - 1.  Addition row x is x followed by x * (1 + y/x) over the units
        y: the Zech row 1 + y rotated by x - 1, mapped through mul[x].
        """
        if self._op_tables is None:
            if self.order > LOOKUP_TABLE_MAX_ORDER:
                self._op_tables = (_MethodTable(self.add), _MethodTable(self.mul))
            else:
                M = self.order - 1
                units = bytes(range(1, self.order))
                mul = (bytes(self.order),) + tuple(
                    b"\0" + units[r:] + units[:r] for r in range(M))
                one_plus = bytes(0 if z is None else 1 + z for z in self._zech)
                pad = bytes(256 - self.order)
                add = (bytes(range(self.order)),) + tuple(
                    bytes((1 + r,))
                    + (one_plus[M - r:] + one_plus[:M - r]).translate(mul[1 + r] + pad)
                    for r in range(M))
                self._op_tables = (add, mul)
        return self._op_tables

    # -- tower structure ---------------------------------------------------

    def frobenius(self, x: Element) -> Element:
        """The automorphism x -> x**q; fixes exactly the subfield."""
        return self._frob[x]

    def norm(self, x: Element) -> Element:
        """x -> x**(q+1), a surjection of GF(q^2)* onto GF(q)*."""
        return self.pow(x, self.q + 1)

    def solve_norm(self, w: Element) -> Element:
        """Smallest-discrete-log v with v**(q+1) == w, for w in GF(q)*.

        norm(generator) generates GF(q)*, so w == norm(generator)**j for a
        unique 0 <= j <= q-2, that is w == 1 + j*(q+1); the returned v is
        generator**j.
        """
        if w == 0:
            raise ValueError("norm equation has no nonzero solution for 0")
        if not self.in_subfield(w):
            raise ValueError(f"element {w} is not in the subfield GF({self.q})")
        return 1 + (w - 1) // (self.q + 1)

    def root_of_unity(self, order: int) -> Element:
        """Primitive root of unity of the given order (must divide q^2 - 1)."""
        M = self.order - 1
        if order < 1 or M % order:
            raise ValueError(f"order {order} does not divide {M}")
        return self.pow(self.generator, M // order)

    def in_subfield(self, x: Element) -> bool:
        return self._frob[x] == x

    def subfield_elements(self) -> Tuple[Element, ...]:
        """GF(q) in canonical enumeration order: 0, then ascending powers
        of norm(generator)."""
        return self._subfield

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    def from_int(self, c: int) -> Element:
        """Embed the prime-field integer c (mod p)."""
        c %= self.p
        x: Element = 0
        for _ in range(c):
            x = self.add(x, 1)
        return x

    # -- misc -------------------------------------------------------------

    def as_dict(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldTower):
            return NotImplemented
        return (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, e={self.e})"


class _MethodRow:
    """Row x of a binary field operation, computed on demand: row[y] == op(x, y)."""

    __slots__ = ("_op", "_x")

    def __init__(self, op, x: Element):
        self._op = op
        self._x = x

    def __getitem__(self, y: Element) -> Element:
        return self._op(self._x, y)


class _MethodTable:
    """A binary field operation indexed like a table: table[x][y] == op(x, y)."""

    __slots__ = ("_op",)

    def __init__(self, op):
        self._op = op

    def __getitem__(self, x: Element) -> _MethodRow:
        return _MethodRow(self._op, x)


@functools.lru_cache(maxsize=None)
def _build_field(p: int, e: int) -> FieldTower:
    return FieldTower(p, e)


def make_field(p: int, e: int, element_bound: int = DEFAULT_ELEMENT_BOUND) -> FieldTower:
    """GF(p^(2e)) with subfield GF(p^e), enforcing the element-count bound.

    The bound is checked before p is tested for primality, so a huge p is
    rejected without trial division."""
    if e < 1:
        raise ParameterError(f"extension degree must be positive, got {e}")
    if p >= 2 and (e > element_bound.bit_length() or p ** (2 * e) > element_bound):
        raise ParameterError(f"GF({p}^{2 * e}) exceeds the bound of {element_bound} elements")
    if not is_prime(p):
        raise ParameterError(f"p must be prime, got {p}")
    return _build_field(p, e)


def field_for_prime_power(q: int, element_bound: int = DEFAULT_ELEMENT_BOUND) -> FieldTower:
    """The tower whose subfield has exactly q elements.  The bound is
    checked before q is factored."""
    if q * q > element_bound:
        raise ParameterError(f"GF({q}^2) exceeds the bound of {element_bound} elements")
    p, e = factor_prime_power(q)
    return make_field(p, e, element_bound)
