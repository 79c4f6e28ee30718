"""The two Hermitian self-orthogonal code families and their quantum
parameters.

Family one evaluates on a union of t additive cosets of GF(q) inside
GF(q^2) (length tq) and picks multipliers by solving norm equations so
that the resulting GRS code sits inside its Hermitian dual.  Family two
evaluates on t multiplicative cosets of the order-(q+1) subgroup plus the
zero point, extends the code by one coordinate (length t(q+1)+2), and
scales by a root-free polynomial times norm-equation solutions.

Each point design keeps its weights w_i in `weights`, the inverses of its
`difference_product` closed forms; family one builds those from
`within_coset_product` and `cross_coset_product`.  `qmds check-lemmas`
checks these same methods against brute-force products.  The constructors
build each design once per (field, t) and share it, with its gamma, among
the codes of every k.  Each constructor records the witnesses (w, and for
family two m and gamma) and builds the multipliers from them with
reconstruct_multipliers, the one place the multiplier formulas are
written.  witness_error is the one place the rules for valid witnesses
are written: verify_construction reads its verdict in process, and
load_code on the witnesses a code file carries, so `qmds construct` and
`qmds verify` apply the same rules.  scaling_degree is the one place the
degree of m is written.
A ConstructionResult keeps only the code and its witnesses: the
provenance tag and t come from the code through design_of, the quantum
parameters through QuantumParams.from_classical, and provenance_of is the
one place the special corner (t, k) = (q-1, q-1) is named.
"""

from __future__ import annotations

import functools
import itertools
from operator import getitem, ne
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .field import (
    DEFAULT_ELEMENT_BOUND,
    Element,
    FieldTower,
    Frozen,
    ParameterError,
    field_for_prime_power,
)
from .grs import GRSCode
from .poly import Poly, check_elements, root_free_monic

#: Provenance tokens carried by serialized results.
PROVENANCE_ADDITIVE = "theorem1"
PROVENANCE_EXTENDED = "prop1-general"
PROVENANCE_EXTENDED_SPECIAL = "prop1-special"

#: The witness keys each provenance records.  reconstruct_multipliers reads
#: "w" under theorem 1, "m_coeffs" and "gamma" under Proposition 1.
WITNESS_KEYS = {
    PROVENANCE_ADDITIVE: ("w",),
    PROVENANCE_EXTENDED: ("w", "m_coeffs", "gamma"),
    PROVENANCE_EXTENDED_SPECIAL: ("w", "m_coeffs", "gamma"),
}

#: The two families, named after the theorems that give them.
FAMILY_ADDITIVE = "theorem1"
FAMILY_EXTENDED = "theorem2"


class ExcludedParameters(ParameterError):
    """Parameters on the corner that grid() marks excluded, where the
    special-case multiplier argument degenerates."""


class QuantumParams(Frozen):
    """[[n, k, d]]_q parameters; always saturate k = n - 2d + 2."""

    __slots__ = ("n", "k", "d", "q")

    def __init__(self, n: int, k: int, d: int, q: int) -> None:
        if k != n - 2 * d + 2:
            raise ValueError(f"[[{n},{k},{d}]] violates k = n - 2d + 2")
        self._set(n=n, k=k, d=d, q=q)

    @property
    def degenerate(self) -> bool:
        """Distance 1: the [[N, N, 1]] of a zero-dimensional classical code."""
        return self.d == 1

    @classmethod
    def from_classical(cls, N: int, k: int, q: int) -> "QuantumParams":
        """[[N, N-2k, k+1]]_q from a Hermitian self-orthogonal classical
        [N, k] MDS code over GF(q^2); k = 0 gives the degenerate [[N, N, 1]]."""
        return cls(n=N, k=N - 2 * k, d=k + 1, q=q)

    def as_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "d": self.d, "q": self.q}


class ConstructionResult(NamedTuple):
    """A constructed code plus the intermediate values (witnesses) that
    determine its multipliers."""

    code: GRSCode
    witnesses: Dict[str, List[Element]]

    @property
    def quantum(self) -> QuantumParams:
        return QuantumParams.from_classical(self.code.length, self.code.k, self.code.field.q)


def dimension_bound(q: int, t: int) -> int:
    """Largest admissible classical dimension for the additive family."""
    return (t * q + q - 1) // (q + 1)


def grid(q: int, family: str) -> Iterator[Tuple[int, int, bool]]:
    """Every (t, k, excluded) of one family for a prime power q, in sweep
    order.  Additive: 1 <= t <= q, 1 <= k <= dimension_bound(q, t).
    Extended: 1 <= t <= q-1, 1 <= k <= t+1, where the corner
    (p, t, k) = (2, q-1, q-1) is excluded: its special-case multiplier
    needs odd characteristic."""
    if family == FAMILY_ADDITIVE:
        for t in range(1, q + 1):
            for k in range(1, dimension_bound(q, t) + 1):
                yield t, k, False
    elif family == FAMILY_EXTENDED:
        for t in range(1, q):
            for k in range(1, t + 2):
                special = provenance_of(q, t, k, extended=True) == PROVENANCE_EXTENDED_SPECIAL
                yield t, k, q % 2 == 0 and special
    else:
        raise ParameterError(f"unknown family {family!r}")


def check_admissible(
    q: int, family: str, t: int, k: Optional[int] = None
) -> Dict[int, bool]:
    """Raise ParameterError unless t (and k, when given) lie on the
    family's grid, and ExcludedParameters on its excluded corner.  Returns
    the admissible k of t, each mapped to whether it is excluded, in a
    dict of the caller's own."""
    ks = dict(_admissible_ks(q, family, t))
    if not ks:
        raise ParameterError(f"t={t} out of range for {family} with q={q}")
    if k is None:
        return ks
    if k not in ks:
        raise ParameterError(f"k={k} out of range 1..{max(ks)} for {family} with q={q}, t={t}")
    if ks[k]:
        raise ExcludedParameters(
            f"{family} with q={q}, t={t}, k={k} is excluded: no construction "
            "in even characteristic with t = k = q-1 (quantum distance q)"
        )
    return ks


@functools.lru_cache(maxsize=1)
def _admissible_ks(q: int, family: str, t: int) -> Dict[int, bool]:
    """k -> excluded over row t of grid(q, family).  A sweep checks the
    codes of one (q, family, t) in a row, so one map is kept.  grid runs in
    ascending t, so the scan stops at the first row past t: one construct
    call never walks the rest of the grid."""
    rows = itertools.takewhile(lambda row: row[0] <= t, grid(q, family))
    return {k: excluded for t2, k, excluded in rows if t2 == t}


def provenance_of(q: int, t: int, k: int, extended: bool) -> str:
    """The provenance token of the construction with these parameters: the
    extended family's corner (t, k) = (q-1, q-1) has its own multiplier."""
    if not extended:
        return PROVENANCE_ADDITIVE
    return PROVENANCE_EXTENDED_SPECIAL if (t, k) == (q - 1, q - 1) else PROVENANCE_EXTENDED


def coset_count(q: int, n: int, extended: bool) -> int:
    """t for n evaluation points: t additive cosets of q points, or t
    multiplicative cosets of q+1 points and the zero point.  A remainder
    is dropped."""
    return (n - 1) // (q + 1) if extended else n // q


def design_of(code: GRSCode) -> Tuple[int, str]:
    """(t, provenance) of a code: theorem 1 for a plain code, Proposition 1
    for an extended one.  An extended length N with N-2 no multiple of q+1
    rounds t down below q-1, as N <= q^2 + 1, so it gets the general case."""
    q = code.field.q
    t = coset_count(q, code.n, code.extended)
    return t, provenance_of(q, t, code.k, code.extended)


# ----------------------------------------------------------------------
# Additive-coset point design (length tq)
# ----------------------------------------------------------------------

class AdditiveCosetDesign:
    """Evaluation points: the union of cosets GF(q) + beta_i * alpha for the
    first t entries of the canonical GF(q) enumeration, with alpha the field
    generator (never in GF(q)).  Points are ordered coset by coset, within
    each coset by the canonical GF(q) order."""

    def __init__(self, field: FieldTower, t: int):
        check_admissible(field.q, FAMILY_ADDITIVE, t)
        self.field = field
        self.t = t
        self.alpha: Element = field.generator
        sub = field.subfield_elements()
        self.betas: Tuple[Element, ...] = sub[:t]
        add, mul = field.op_tables
        # coset s is GF(q) shifted by beta_s * alpha: one pass through an add row
        shifts = map(mul[self.alpha].__getitem__, self.betas)
        self.points: Tuple[Element, ...] = tuple(itertools.chain.from_iterable(
            map(add[shift].__getitem__, sub) for shift in shifts))
        # alpha**q - alpha: every product across two cosets carries it
        self.span: Element = field.sub(field.frobenius(self.alpha), self.alpha)
        # prod_{j != i}(a_i - a_j), and so w_i, depends only on the coset
        # of a_i: one product and one inversion per coset, O(t^2 + n) in all
        self._coset_products: Tuple[Element, ...] = tuple(
            functools.reduce(
                field.mul,
                (self.cross_coset_product(s, j) for j in range(t) if j != s),
                self.within_coset_product(),
            )
            for s in range(t)
        )
        #: (w_1, ..., w_n): w_i is the inverse of difference_product(i)
        self.weights: Tuple[Element, ...] = tuple(
            w for prod in self._coset_products for w in (field.inv(prod),) * field.q
        )

    @property
    def n(self) -> int:
        return self.t * self.field.q

    def coset_elements(self, s: int) -> Tuple[Element, ...]:
        q = self.field.q
        return self.points[s * q : (s + 1) * q]

    # -- closed forms for products of point differences -------------------

    def full_span_product(self, tau: Element) -> Element:
        """prod over h in GF(q) of (tau*alpha - h), in closed form
        tau * (alpha**q - alpha)."""
        F = self.field
        if not F.in_subfield(tau):
            raise ValueError("tau must lie in the subfield")
        return F.mul(tau, self.span)

    def within_coset_product(self) -> Element:
        """prod over the q-1 differences between a point and its coset
        mates, in closed form (-1)**q (independent of the point)."""
        F = self.field
        return F.pow(F.neg(1), F.q)

    def cross_coset_product(self, s: int, j: int) -> Element:
        """prod over h in coset j of (b - h) for any b in coset s, in closed
        form (beta_s - beta_j) * (alpha**q - alpha)."""
        if s == j:
            raise ValueError("cosets must differ")
        F = self.field
        return F.mul(F.sub(self.betas[s], self.betas[j]), self.span)

    def difference_product(self, i: int) -> Element:
        """Closed form of prod_{j != i}(a_i - a_j); its inverse is w_i.
        For a_i in coset s it is the within-coset product times the t-1
        cross-coset products: (-1)**q * (alpha**q - alpha)**(t-1) *
        prod_{j != s}(beta_s - beta_j)."""
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range")
        return self._coset_products[i // self.field.q]


def additive_coset_code(
    q: int, t: int, k: int, element_bound: int = DEFAULT_ELEMENT_BOUND
) -> ConstructionResult:
    """Hermitian self-orthogonal [tq, k, tq-k+1] GRS code and the derived
    [[tq, tq-2k, k+1]]_q parameters, for (t, k) on the additive family's
    grid."""
    field = field_for_prime_power(q, element_bound)
    check_admissible(q, FAMILY_ADDITIVE, t, k)
    design = _coset_design(AdditiveCosetDesign, field, t)
    witnesses = {"w": list(design.weights)}
    v = reconstruct_multipliers(field, design.points, PROVENANCE_ADDITIVE, witnesses)
    if v is None:
        raise RuntimeError("scaled multiplier is not a subfield unit")
    return ConstructionResult(code=GRSCode(field, design.points, v, k), witnesses=witnesses)


# ----------------------------------------------------------------------
# Multiplicative-coset point design (length t(q+1)+1, then extended)
# ----------------------------------------------------------------------

class MultiplicativeCosetDesign:
    """Evaluation points: t cosets beta_s * <theta> of the order-(q+1)
    subgroup of GF(q^2)*, followed by the zero point.  The representatives
    are generator**0 .. generator**(t-1), which hit t distinct cosets since
    the subgroup has index q-1.  Within a coset, points are ordered by
    ascending power of theta."""

    def __init__(self, field: FieldTower, t: int):
        q = field.q
        check_admissible(q, FAMILY_EXTENDED, t)
        self.field = field
        self.t = t
        self.theta: Element = field.root_of_unity(q + 1)
        self.betas: Tuple[Element, ...] = tuple(
            field.pow(field.generator, s) for s in range(t)
        )
        norms = [field.norm(b) for b in self.betas]
        pts: List[Element] = []
        for beta in self.betas:
            pts.extend(field.mul(beta, field.pow(self.theta, l)) for l in range(q + 1))
        pts.append(0)
        self.points: Tuple[Element, ...] = tuple(pts)
        # prod_{s != r}(beta_r**(q+1) - beta_s**(q+1)) once per coset r,
        # O(t^2); then w_i once per point, O(n)
        self._coset_products: Tuple[Element, ...] = tuple(
            functools.reduce(field.mul, (field.sub(nr, ns) for ns in norms if ns != nr), 1)
            for nr in norms
        )
        #: (w_1, ..., w_n): w_i is the inverse of difference_product(i)
        self.weights: Tuple[Element, ...] = tuple(
            field.inv(self.difference_product(i)) for i in range(self.n)
        )
        self._gamma: Optional[Tuple[Element, ...]] = None

    @property
    def n(self) -> int:
        return self.t * (self.field.q + 1) + 1

    def difference_product(self, i: int) -> Element:
        """Closed form of prod_{j != i}(a_i - a_j), always in GF(q).  At
        the zero point (i = n-1) it is (-1)**(n-1+qt) * prod_s beta_s**(q+1);
        at a_i in coset r it is
        a_i**(q+1) * prod_{s != r}(beta_r**(q+1) - beta_s**(q+1))."""
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range")
        F = self.field
        if i == self.n - 1:
            sign = F.pow(F.neg(1), self.n - 1 + F.q * self.t)
            return functools.reduce(F.mul, map(F.norm, self.betas), sign)
        return F.mul(F.norm(self.points[i]), self._coset_products[i // (F.q + 1)])

    def gamma(self) -> Tuple[Element, ...]:
        """Norm-equation solutions gamma_i with gamma_i**(q+1) == -w_i,
        solved on the first call and kept.  Raises solve_norm's ValueError
        at the first -w_i that has no root."""
        if self._gamma is None:
            F = self.field
            gamma = tuple(map(F.norm_root_map, map(F.neg_map, self.weights)))
            if 0 in gamma:
                F.solve_norm(F.neg(self.weights[gamma.index(0)]))  # raises
            self._gamma = gamma
        return self._gamma


@functools.lru_cache(maxsize=1)
def _coset_design(design_cls, field: FieldTower, t: int):
    """The point design of one family for (field, t), shared by the codes
    of every k: a sweep builds the codes of one (q, t) in a row, so one
    design is kept and none outlives the next (q, t)."""
    return design_cls(field, t)


def special_scaling_poly(field: FieldTower) -> Poly:
    """x**q + x - pi with pi = generator outside GF(q): a**q + a lies in
    GF(q) for every a, so the polynomial vanishes nowhere on the field."""
    q = field.q
    return Poly(field, [field.neg(field.generator), 1] + [0] * (q - 2) + [1])


def scaling_degree(q: int, t: int, k: int) -> int:
    """Degree of the extended family's scaling polynomial: t+1-k, or q for
    special_scaling_poly on the corner (t, k) = (q-1, q-1).  t+1-k is at
    most q-1, so only the corner reaches degree q."""
    if provenance_of(q, t, k, extended=True) == PROVENANCE_EXTENDED_SPECIAL:
        return q
    return t + 1 - k


def select_scaling_poly(design: MultiplicativeCosetDesign, k: int) -> Poly:
    """Monic polynomial of degree scaling_degree that vanishes at no
    evaluation point.

    Degree >= 2: the first root-free monic polynomial.  Degree 1: x minus
    the first unused field element (one exists since the points do not
    exhaust the field when t < q-1).  Degree 0: the constant 1.  The corner
    (t, k) = (q-1, q-1) uses special_scaling_poly; it needs odd
    characteristic.
    """
    F = design.field
    q, t = F.q, design.t
    check_admissible(q, FAMILY_EXTENDED, t, k)
    ell = scaling_degree(q, t, k)
    if ell == q:
        return special_scaling_poly(F)
    if ell == 0:
        return Poly.one(F)
    if ell == 1:
        used = set(design.points)
        spare = next(x for x in F.elements() if x not in used)
        return Poly(F, (F.neg(spare), 1))
    return root_free_monic(F, ell)


def multiplicative_coset_code(
    q: int, t: int, k: int, element_bound: int = DEFAULT_ELEMENT_BOUND
) -> ConstructionResult:
    """Hermitian self-orthogonal extended GRS code with parameters
    [t(q+1)+2, k, t(q+1)+3-k] and the derived
    [[t(q+1)+2, t(q+1)-2k+2, k+1]]_q parameters, for (t, k) on the
    extended family's grid."""
    field = field_for_prime_power(q, element_bound)
    design = _coset_design(MultiplicativeCosetDesign, field, t)
    m = select_scaling_poly(design, k)
    provenance = provenance_of(q, t, k, extended=True)
    witnesses = {
        "w": list(design.weights),
        "m_coeffs": list(m.coeffs),
        "gamma": list(design.gamma()),
    }
    v = reconstruct_multipliers(field, design.points, provenance, witnesses)
    code = GRSCode(field, design.points, v, k, extended=True)
    return ConstructionResult(code=code, witnesses=witnesses)


def quantum_params_for_distance(
    q: int, t: int, d: int, element_bound: int = DEFAULT_ELEMENT_BOUND
) -> ConstructionResult:
    """The extended-family construction parameterized by quantum distance d:
    [[t(q+1)+2, t(q+1)-2d+4, d]]_q via classical dimension k = d-1.
    Excluded: even characteristic with (t, d) = (q-1, q).  A d off the
    grid is reported in d, the parameter the caller passed."""
    field_for_prime_power(q, element_bound)  # the field's errors come first
    ks = check_admissible(q, FAMILY_EXTENDED, t)
    if d - 1 not in ks:
        raise ParameterError(
            f"d={d} out of range 2..{max(ks) + 1} for {FAMILY_EXTENDED} with q={q}, t={t}")
    return multiplicative_coset_code(q, t, d - 1, element_bound)


def reconstruct_multipliers(
    field: FieldTower,
    points: Sequence[Element],
    provenance: str,
    witnesses: Dict[str, List[Element]],
) -> Optional[Tuple[Element, ...]]:
    """The multipliers v that the witnesses fix on these points: the
    constructors build v with this function, and witness_error compares its
    output with code.v.

    Additive family: v_i solves the norm equation
    v_i**(q+1) = w_i * (alpha**q - alpha)**(t-1), or None when some right
    side is zero or outside GF(q), so no multipliers exist.  Extended
    family: v_i = m(a_i) * gamma_i, times a unit of norm 1/2 on the
    special corner (t, k) = (q-1, q-1)."""
    F = field
    mul = F.op_tables[1]
    if provenance == PROVENANCE_ADDITIVE:
        t = coset_count(F.q, len(points), extended=False)
        span = F.sub(F.frobenius(F.generator), F.generator)
        scale = mul[F.pow(span, t - 1)]
        # norm_root is 0 at a zero norm and outside GF(q), and nowhere else
        v = tuple(map(F.norm_root_map, map(scale.__getitem__, witnesses["w"])))
        return None if 0 in v else v
    m = Poly(F, witnesses["m_coeffs"])  # rejects a coefficient outside the field
    v = map(getitem, map(mul.__getitem__, witnesses["gamma"]), map(m, points))
    if provenance == PROVENANCE_EXTENDED_SPECIAL:
        v = map(mul[F.solve_norm(F.inv(F.from_int(2)))].__getitem__, v)
    return tuple(v)


def witness_error(code: GRSCode, witnesses: object) -> Optional[str]:
    """None when the witnesses certify the code's multipliers, else a
    message naming the fault and the key.  verify_construction and
    load_code both read their witness verdict from here.

    The witnesses must be a dict holding exactly the keys the code's
    provenance records, each a list of field elements, and must give the
    code's v through reconstruct_multipliers.  An extended code's gamma
    and w must hold one entry per point and its m_coeffs must be monic of
    scaling_degree, its leading 1 last, because reconstruct_multipliers
    zips gamma with the points, trims m and ignores w; w must then give
    gamma_i**(q+1) == -w_i at every point.  The corner grid() marks
    excluded, (t, k) = (q-1, q-1) in even characteristic, has no
    witnesses: its unit of norm 1/2 does not exist."""
    if type(witnesses) is not dict:
        return "'witnesses' must be a dict"
    F = code.field
    t, provenance = design_of(code)
    if code.extended and _admissible_ks(F.q, FAMILY_EXTENDED, t).get(code.k):
        return ("'witnesses' give no multipliers: t = k = q-1 is excluded "
                "in even characteristic")
    keys = WITNESS_KEYS[provenance]
    for key in [*keys, *(key for key in witnesses if key not in keys)]:
        if key not in keys:
            return f"'witnesses' key {key!r} is not one {provenance!r} records"
        if key not in witnesses:
            return f"'witnesses' key {key!r} is missing"
        try:
            if type(witnesses[key]) is not list:
                raise ValueError
            check_elements(F, witnesses[key], key)
        except ValueError:
            return f"'witnesses' key {key!r} must be a list of field elements"
    if code.extended:
        for key in ("gamma", "w"):
            if len(witnesses[key]) != code.n:
                return f"'witnesses' key {key!r} must hold {code.n} entries, one per point"
        degree = scaling_degree(F.q, t, code.k)
        m = witnesses["m_coeffs"]
        if m[-1:] != [1] or len(m) != degree + 1:
            return f"'witnesses' key 'm_coeffs' must be monic of degree {degree}, its last entry 1"
    if reconstruct_multipliers(F, code.a, provenance, witnesses) != code.v:
        named = ", ".join(map(repr, keys))
        return f"'witnesses' ({named}) do not give the multipliers 'v'"
    if code.extended and any(map(
            ne, map(F.norm_map, witnesses["gamma"]), map(F.neg_map, witnesses["w"]))):
        return "'witnesses' key 'w' does not satisfy gamma_i^(q+1) = -w_i"
    return None
