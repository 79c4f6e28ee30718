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
powering are index arithmetic on discrete logs, and so are the Frobenius
map x -> x**q (generator**j -> generator**(j*q)) and the subfield test
(GF(q)* is the powers of generator**(q+1)); addition uses Zech
logarithms.  All operations are exact, and a tower is immutable after
construction (its Zech table and add/mul lookup tables are built with it),
so it is safe to share freely.

The tables come from one walk over the powers of the generator in packed
form: the coefficient vector of a polynomial of degree < 2e over GF(p),
read as base-p digits, constant term lowest.  Multiplying by the generator
is GF(p)-linear.  In characteristic 2 a step is one lookup in a table of
the product with every packed vector; for odd p a step looks up the
images of the two base-q halves of the packed vector, adds them without
carries (the images are stored in base 2p - 1) and reduces each half of
the sum mod p with one more lookup.  1 + x changes only the lowest digit
of a packed x, so the Zech logarithms are read off the log table a digit
class at a time.  The log and Zech tables are typed buffers of 2 or 4
bytes an entry, so no list of q**2 ints is made: GF(2^14) builds in
about 0.16 MB.  The build's products mod the modulus run on the
polynomial kernels in `poly`, over `PrimeField(p)`.
"""

from __future__ import annotations

import functools
import sys
from typing import List, Sequence, Tuple

from .poly import _power, _product, root_free_monic

#: Elements are canonical integer encodings (see module docstring).
Element = int

#: Largest allowed number of elements of GF(q^2); full log and Zech tables
#: are materialised, so this caps table memory and construction time.
DEFAULT_ELEMENT_BOUND = 2 ** 14

#: Ceiling on a user-set element bound, and on the order of any tower:
#: building GF(2^16) takes about 0.015 s and 1.1 MB on a 2-core Intel Xeon
#: with Python 3.11, and each further factor of 4 costs about 4x the time
#: and 4x the memory.
MAX_ELEMENT_BOUND = 2 ** 16

#: Largest field whose add/mul tables `FieldTower.op_tables` stores as byte
#: rows, and whose unary maps (`FieldTower.norm_map` and the like) are byte
#: tables: every element fits in one byte, an add row is a 256-byte
#: translate table, and a table is at most 64 KB.  Above it op_tables are
#: views that call the methods, and the unary maps are the methods.  Up to
#: it the root-free search (`poly._block_images`)
#: takes each block image in one C-level pass over the byte rows; above it
#: the search computes its block images in bulk in the log domain, but its
#: sieve marks, its irreducibility test and its discriminant filter still
#: read the views, one method call per lookup.
LOOKUP_TABLE_MAX_ORDER = 256


class ParameterError(ValueError):
    """Parameters outside the admissible range."""


def check_element_bound(bound: int) -> None:
    """Raise ParameterError unless 4 <= bound <= MAX_ELEMENT_BOUND; GF(4)
    is the smallest tower."""
    if not 4 <= bound <= MAX_ELEMENT_BOUND:
        raise ParameterError(f"element bound {bound} is outside 4..{MAX_ELEMENT_BOUND}")


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


class Frozen:
    """Base of the validated value types: __init__ checks its arguments and
    stores them with _set, after which the instance is read-only, and equal
    to and hashed with the instances of its class that hold equal values.
    (Dataclasses would cost every command-line call about 20 ms of import.)"""

    __slots__ = ()

    def _set(self, **values: object) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self) -> tuple:  # for copy and pickle, which would assign the slots
        return type(self), self._values()

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({values})"


class PrimeField(Frozen):
    """GF(p) on the ints 0..p-1, with just what `root_free_monic` and the
    polynomial kernels in `poly` read to find a tower's modulus and build
    its tables.  Equal and hashed by p, so the search's cache keeps one
    entry per (p, degree).  p is a prime with p**2 <= MAX_ELEMENT_BOUND."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if p >= 2 and p * p > MAX_ELEMENT_BOUND:
            raise ParameterError(f"GF({p}^2) exceeds the ceiling of {MAX_ELEMENT_BOUND} elements")
        if not is_prime(p):
            raise ParameterError(f"p must be prime, got {p}")
        self._set(p=p)

    @property
    def order(self) -> int:
        return self.p

    @property
    def op_tables(self) -> Tuple[Tuple[Sequence[int], ...], Tuple[Sequence[int], ...]]:
        """(add, mul) with add[x][y] == (x + y) % p and mul[x][y] == x * y
        % p, built once per p and shared by every instance.  The rows are
        `bytes`, since p is at most 251."""
        return _prime_tables(self.p)

    def neg(self, x: int) -> int:
        return -x % self.p

    def inv(self, x: int) -> int:
        return pow(x, -1, self.p)

    def elements(self) -> range:
        return range(self.p)


@functools.lru_cache(maxsize=None)
def _prime_tables(p: int) -> Tuple[Tuple[Sequence[int], ...], Tuple[Sequence[int], ...]]:
    elems = range(p)
    return (tuple(bytes((x + y) % p for y in elems) for x in elems),
            tuple(bytes(x * y % p for y in elems) for x in elems))


class FieldTower:
    """GF(q^2) with its index-2 subfield GF(q), q = p**e.

    Attributes:
        p, e: prime and extension degree, q = p**e.
        q: subfield size.
        order: q**2, the number of elements.
        modulus: monic irreducible of degree 2e over GF(p), ascending coeffs.
        generator: canonical encoding of the primitive element (always 2).
        op_tables: (add, mul) with add[x][y] == self.add(x, y) and
            mul[x][y] == self.mul(x, y), for the kernels' inner loops.  Up
            to LOOKUP_TABLE_MAX_ORDER elements the rows are `bytes` (64 KB
            per table at order 256), each add row zero-padded to a 256-byte
            `bytes.translate` table; larger towers get views that call the
            methods, so no order**2 entries are materialised.
        frobenius_map, norm_map, neg_map, norm_root_map: the unary maps
            x -> frobenius(x), norm(x), neg(x) and norm_root(x), for the
            per-point passes, which run them as map(F.norm_map, xs).  Up to
            LOOKUP_TABLE_MAX_ORDER elements each is the C-level __getitem__
            of a `bytes` table of its values; past it each is the method
            itself, so no pass gets slower there.
    """

    def __init__(self, p: int, e: int):
        if e < 1:
            raise ParameterError(f"extension degree must be positive, got {e}")
        if p >= 2 and (e > MAX_ELEMENT_BOUND.bit_length() or p ** (2 * e) > MAX_ELEMENT_BOUND):
            raise ParameterError(f"GF({p}^{2 * e}) exceeds the ceiling of {MAX_ELEMENT_BOUND} elements")
        Fp = PrimeField(p)  # checks that p is prime
        self.p = p
        self.e = e
        self.q = p ** e
        self.order = self.q ** 2
        self.modulus: Tuple[int, ...] = root_free_monic(Fp, 2 * e).coeffs
        self._build_tables()

    # -- construction ---------------------------------------------------

    def _unpack(self, packed: int) -> List[int]:
        digits = []
        for _ in range(2 * self.e):
            packed, r = divmod(packed, self.p)
            digits.append(r)
        return digits

    def _log_table(self) -> Tuple[int, Sequence[int]]:
        """(g, log): g is the packed generator, the primitive element with
        the smallest packed vector; log[v] is the j with g**j == v packed,
        for 0 <= j <= q**2 - 2, and the sentinel 2(q**2 - 1) - 1, which is
        no log, at v == 0.  log is a `_table`, so no list of q**2 ints is
        made; the walk keeps no exp table, which no caller reads.

        Multiplying by g is GF(p)-linear.  In characteristic 2 a step is one
        lookup in the table of v*g over every packed v, which the images of
        the 2e basis vectors x**i fill by doubling: v*g for v below 2**(i+1)
        is v*g for v below 2**i, XORed with x**i*g, one XOR of the table's
        first half read as a single int.  For odd p the walk holds the
        packed vector as its base-q halves, hi and lo, and adds the images
        of lo*g and hi*x**e*g from tables of q entries (2q products mod the
        modulus, made once), half by half.  The images are stored in base
        B = 2p - 1, so each digit of a sum is at most 2p - 2 and the sum
        has no carries; one table of B**e entries maps each half of the sum
        back to base-p digits reduced mod p.
        """
        p, e, q = self.p, self.e, self.q
        M = self.order - 1
        factors = prime_factors(M)
        # residues mod the modulus as digit lists, multiplied over GF(p)
        Fp = PrimeField(p)
        tail = [-c % p for c in self.modulus[:-1]]
        one = self._unpack(1)
        for gen_packed in range(2, self.order):  # the checks after the walk cover a miss
            gen = self._unpack(gen_packed)
            if all(_power(Fp, gen, M // r, tail) != one for r in factors):
                break

        def image(v: int) -> List[int]:  # v*g as its 2e base-p digits
            return _product(Fp, self._unpack(v), gen, tail)

        if p == 2:
            times_g = _table(self.order, M)  # times_g[v] == v*g
            raw, width, endian = times_g.cast("B"), times_g.itemsize, sys.byteorder
            for i in range(2 * e):
                n = width << i  # the bytes of v*g for v below 2**i
                basis = sum(d << k for k, d in enumerate(image(1 << i)))  # x**i*g
                raw[n:2 * n] = (int.from_bytes(raw[:n], endian) ^ int.from_bytes(
                    basis.to_bytes(width, endian) * (1 << i), endian)).to_bytes(n, endian)
            log = _table(self.order, M)  # after the doubling's transients are gone
            cur = 1
            for j in range(M):
                log[cur] = j
                cur = times_g[cur]
        else:
            B = 2 * p - 1

            def halves(v: int) -> Tuple[int, int]:  # v*g's base-q halves, in base B
                digits = image(v)
                return (sum(d * B ** k for k, d in enumerate(digits[:e])),
                        sum(d * B ** k for k, d in enumerate(digits[e:])))

            # the low and high halves of lo*g, and of hi*x**e*g
            lo_lo, lo_hi = zip(*map(halves, range(q)))
            hi_lo, hi_hi = zip(*(halves(hi * q) for hi in range(q)))
            # reduce[n] for n = d_0 + d_1*B + ...: the digits d_i mod p in base p
            reduce = [0]
            for _ in range(e):
                reduce = [d % p + p * r for r in reduce for d in range(B)]
            log = _table(self.order, M)
            hi, lo = 0, 1
            for j in range(M):
                cur = hi * q + lo
                log[cur] = j
                hi, lo = reduce[lo_hi[lo] + hi_hi[hi]], reduce[lo_lo[lo] + hi_lo[hi]]
            cur = hi * q + lo
        # The walk starts at 1, so a walk that ends at 1 repeats a value
        # within M steps iff it comes back to 1 early, and log[1] then holds
        # that later step instead of 0.
        if log[1]:
            raise RuntimeError("generator order is too small")
        if cur != 1:
            raise RuntimeError("generator order check failed")
        log[0] = 2 * M - 1
        return gen_packed, log

    def _build_tables(self) -> None:
        """Fill the Zech table, the subfield enumeration and `op_tables` from
        the powers of the generator, which `_log_table` walks at a few integer
        operations per step; log is not kept.

        1 + x changes only the lowest base-p digit of a packed x, so the
        logs of the packed x with lowest digit d and of their successors
        1 + x are the slices log[d::p] and log[d + 1::p] (log[0::p] at
        d == p - 1): zech[log[x]] is log[1 + x], one scatter per digit.
        """
        gen_packed, log = self._log_table()
        self.generator: Element = 1 + log[gen_packed]  # always 2 by construction

        # Zech logarithms: zech[d] = log(1 + generator**d), and 2M - 1, which
        # is no log, at the one d where the sum is 0 (log[0] holds it)
        p = self.p
        M = self.order - 1
        zech = _table(M, M)
        for d in range(p):
            start = d or p  # 0 has no log
            for i, z in zip(log[start::p], log[start + 1 if d < p - 1 else 0::p]):
                zech[i] = z
        self._zech: Sequence[int] = zech
        self._neg_shift = 0 if p == 2 else M // 2

        # subfield enumeration: 0 first, then ascending powers of
        # norm(generator) == generator**(q+1), whose encodings step by q + 1
        self._subfield = (0,) + tuple(range(1, self.order, self.q + 1))

        # the unary maps: a byte table's lookup each, or past 256 the method
        maps = (self.frobenius, self.norm, self.neg, self.norm_root)
        if self.order <= LOOKUP_TABLE_MAX_ORDER:
            maps = tuple(bytes(map(f, range(self.order))).__getitem__ for f in maps)
        self.frobenius_map, self.norm_map, self.neg_map, self.norm_root_map = maps

        if self.order > LOOKUP_TABLE_MAX_ORDER:
            self.op_tables = (_MethodTable(self.add), _MethodTable(self.mul))
            return
        # Multiplication adds discrete logs, so mul row x is 0 followed by
        # the units 1..order-1 rotated by x - 1.  Addition row x is x
        # followed by x * (1 + y/x) over the units y: the Zech row 1 + y
        # rotated by x - 1, mapped through mul[x].
        units = bytes(range(1, self.order))
        mul = (bytes(self.order),) + tuple(b"\0" + units[r:] + units[:r] for r in range(M))
        one_plus = bytes(0 if z >= M else 1 + z for z in zech)
        pad = bytes(256 - self.order)  # so each add row is a translate table
        add = (bytes(range(self.order)) + pad,) + tuple(
            bytes((1 + r,)) + (one_plus[M - r:] + one_plus[:M - r]).translate(mul[1 + r] + pad) + pad
            for r in range(M))
        self.op_tables: Tuple[Sequence[Sequence[Element]], ...] = (add, mul)

    # -- element arithmetic ----------------------------------------------

    def add(self, x: Element, y: Element) -> Element:
        if x == 0:
            return y
        if y == 0:
            return x
        M = self.order - 1
        i, j = x - 1, y - 1
        t = self._zech[(j - i) % M]
        if t >= M:
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

    def pow(self, x: Element, m: int) -> Element:
        """x**m with the evaluation convention 0**0 == 1."""
        if x == 0:
            if m > 0:
                return 0
            if m == 0:
                return 1
            raise ZeroDivisionError("zero to a negative power")
        return 1 + ((x - 1) * m) % (self.order - 1)

    # -- tower structure ---------------------------------------------------

    def frobenius(self, x: Element) -> Element:
        """The automorphism x -> x**q, which fixes exactly the subfield: 0
        at 0, and generator**(j*q) at generator**j (`pow` at m = q)."""
        if x == 0:
            return 0
        return 1 + (x - 1) * self.q % (self.order - 1)

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
        return self.norm_root(w)

    def norm_root(self, w: Element) -> Element:
        """solve_norm(w), or 0, which is no unit's norm, where solve_norm
        raises: at w == 0 and outside GF(q)."""
        if w == 0 or not self.in_subfield(w):
            return 0
        return 1 + (w - 1) // (self.q + 1)

    def root_of_unity(self, order: int) -> Element:
        """Primitive root of unity of the given order (must divide q^2 - 1)."""
        M = self.order - 1
        if order < 1 or M % order:
            raise ValueError(f"order {order} does not divide {M}")
        return self.pow(self.generator, M // order)

    def in_subfield(self, x: Element) -> bool:
        """Whether x is in GF(q): 0, or a power of norm(generator) ==
        generator**(q+1)."""
        return x == 0 or (x - 1) % (self.q + 1) == 0

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

    def __reduce__(self) -> tuple:  # for copy and pickle, which cannot copy a memoryview
        return _build_field, (self.p, self.e)


def _table(size: int, M: int) -> memoryview:
    """size zeros, typed: 2-byte entries while the sentinel 2M - 1 of a
    tower with M units fits in 16 bits, 4-byte entries past that.  A cast
    memoryview needs no import, so a small tower's build loads no module."""
    wide = 2 * M - 1 >= 1 << 16
    return memoryview(bytearray(size * (4 if wide else 2))).cast("I" if wide else "H")


class _MethodRow:
    """Row x of a binary field operation, computed on demand: row[y] == op(x, y)."""

    __slots__ = ("_op", "_x")

    def __init__(self, op, x: Element):
        self._op = op
        self._x = x

    def __getitem__(self, y: Element) -> Element:
        return self._op(self._x, y)


class _MethodTable:
    """A binary field operation indexed like a table: table[x][y] == op(x, y),
    for the towers past LOOKUP_TABLE_MAX_ORDER only."""

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

    The bound is checked before FieldTower tests e and p, so a huge p is
    rejected without trial division, and p**(2e) is not taken at e < 1."""
    check_element_bound(element_bound)
    if p >= 2 and 1 <= e and (e > element_bound.bit_length() or p ** (2 * e) > element_bound):
        raise ParameterError(f"GF({p}^{2 * e}) exceeds the bound of {element_bound} elements")
    return _build_field(p, e)


def field_for_prime_power(q: int, element_bound: int = DEFAULT_ELEMENT_BOUND) -> FieldTower:
    """The tower whose subfield has exactly q elements.  The bound is
    checked before q is factored."""
    if q * q > element_bound:
        raise ParameterError(f"GF({q}^2) exceeds the bound of {element_bound} elements")
    p, e = factor_prime_power(q)
    return make_field(p, e, element_bound)
