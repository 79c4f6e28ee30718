"""The two Hermitian self-orthogonal code families and their quantum
parameters.

Family one evaluates on a union of t additive cosets of GF(q) inside
GF(q^2) (length tq) and picks multipliers by solving norm equations so
that the resulting GRS code sits inside its Hermitian dual.  Family two
evaluates on t multiplicative cosets of the order-(q+1) subgroup plus the
zero point, extends the code by one coordinate (length t(q+1)+2), and
scales by a root-free polynomial times norm-equation solutions.

Every closed-form product here has a brute-force counterpart in the test
suite.  Each constructor records the witnesses (w, and for family two m
and gamma) and builds the multipliers from them with
reconstruct_multipliers, the one place the multiplier formulas are
written; the verifier runs the same function and compares its output with
the code's multipliers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .field import (
    DEFAULT_ELEMENT_BOUND,
    Element,
    FieldTower,
    ParameterError,
    field_for_prime_power,
)
from .grs import GRSCode
from .poly import Poly, root_free_monic

#: Provenance tokens carried by serialized results.
PROVENANCE_ADDITIVE = "theorem1"
PROVENANCE_EXTENDED = "prop1-general"
PROVENANCE_EXTENDED_SPECIAL = "prop1-special"

#: The two families, named after the theorems that give them.
FAMILY_ADDITIVE = "theorem1"
FAMILY_EXTENDED = "theorem2"


class ExcludedParameters(ParameterError):
    """Parameters on the corner that grid() marks excluded, where the
    special-case multiplier argument degenerates."""


@dataclass(frozen=True)
class QuantumParams:
    """[[n, k, d]]_q parameters; always saturate k = n - 2d + 2."""

    n: int
    k: int
    d: int
    q: int
    provenance: str
    degenerate: bool = False

    def __post_init__(self) -> None:
        if self.k != self.n - 2 * self.d + 2:
            raise ValueError(
                f"[[{self.n},{self.k},{self.d}]] violates k = n - 2d + 2"
            )

    @classmethod
    def from_classical(cls, N: int, k: int, q: int, provenance: str) -> "QuantumParams":
        """[[N, N-2k, k+1]]_q from a Hermitian self-orthogonal classical
        [N, k] MDS code over GF(q^2); k = 0 gives the degenerate [[N, N, 1]]."""
        return cls(n=N, k=N - 2 * k, d=k + 1, q=q, provenance=provenance, degenerate=(k == 0))

    def as_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "d": self.d, "q": self.q}


@dataclass(frozen=True)
class ConstructionResult:
    """A constructed code plus its quantum parameters and the intermediate
    values (witnesses) that determine the multipliers."""

    code: GRSCode
    quantum: QuantumParams
    witnesses: Dict[str, List[Element]]


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
                yield t, k, q % 2 == 0 and (t, k) == (q - 1, q - 1)
    else:
        raise ParameterError(f"unknown family {family!r}")


def check_admissible(q: int, family: str, t: int, k: Optional[int] = None) -> None:
    """Raise ParameterError unless t (and k, when given) lie on the
    family's grid, and ExcludedParameters on its excluded corner."""
    ks = {k2: excluded for t2, k2, excluded in grid(q, family) if t2 == t}
    if not ks:
        raise ParameterError(f"t={t} out of range for {family} with q={q}")
    if k is None:
        return
    if k not in ks:
        raise ParameterError(f"k={k} out of range 1..{max(ks)} for {family} with q={q}, t={t}")
    if ks[k]:
        raise ExcludedParameters(
            f"{family} with q={q}, t={t}, k={k} is excluded: no construction "
            "in even characteristic with t = k = q-1 (quantum distance q)"
        )


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
        if field.in_subfield(self.alpha):
            raise RuntimeError("generator unexpectedly lies in the subfield")
        sub = field.subfield_elements()
        self.betas: Tuple[Element, ...] = sub[:t]
        pts: List[Element] = []
        for beta in self.betas:
            shift = field.mul(beta, self.alpha)
            pts.extend(field.add(x, shift) for x in sub)
        self.points: Tuple[Element, ...] = tuple(pts)
        if len(set(self.points)) != t * field.q:
            raise RuntimeError("coset points are not distinct")
        # alpha**q - alpha: every product across two cosets carries it
        self.span: Element = field.sub(field.frobenius(self.alpha), self.alpha)
        self._span_power = field.pow(self.span, t - 1)
        # prod_{j != i}(a_i - a_j), and so w_i, depends only on the coset
        # of a_i: one product and one inversion per coset, O(t^2 + n) in all
        scale = field.mul(self.within_coset_product(), self._span_power)
        self._coset_products: Tuple[Element, ...] = tuple(
            functools.reduce(field.mul, (field.sub(bs, bj) for bj in self.betas if bj != bs), scale)
            for bs in self.betas
        )
        #: (w_1, ..., w_n): w_i is the inverse of difference_product(i)
        self.weights: Tuple[Element, ...] = tuple(
            w for prod in self._coset_products for w in (field.inv(prod),) * field.q
        )

    @property
    def n(self) -> int:
        return self.t * self.field.q

    def coset_of(self, i: int) -> int:
        return i // self.field.q

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
        return self._coset_products[self.coset_of(i)]

    def w(self, i: int) -> Element:
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range")
        return self.weights[i]

    def subfield_unit(self, i: int) -> Element:
        """w_i * (alpha**q - alpha)**(t-1), which always lands in GF(q)*."""
        F = self.field
        u = F.mul(self.w(i), self._span_power)
        if u == 0 or not F.in_subfield(u):
            raise RuntimeError("scaled multiplier is not a subfield unit")
        return u


def additive_coset_code(
    q: int, t: int, k: int, element_bound: int = DEFAULT_ELEMENT_BOUND
) -> ConstructionResult:
    """Hermitian self-orthogonal [tq, k, tq-k+1] GRS code and the derived
    [[tq, tq-2k, k+1]]_q parameters, for (t, k) on the additive family's
    grid."""
    field = field_for_prime_power(q, element_bound)
    check_admissible(q, FAMILY_ADDITIVE, t, k)
    design = AdditiveCosetDesign(field, t)
    witnesses = {"w": list(design.weights)}
    v = reconstruct_multipliers(field, design.points, PROVENANCE_ADDITIVE, witnesses)
    if v is None:
        raise RuntimeError("scaled multiplier is not a subfield unit")
    code = GRSCode(field, design.points, v, k)
    quantum = QuantumParams.from_classical(code.length, k, q, PROVENANCE_ADDITIVE)
    return ConstructionResult(code=code, quantum=quantum, witnesses=witnesses)


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
        if len(set(norms)) != t:
            raise RuntimeError("coset representatives are not in distinct cosets")
        pts: List[Element] = []
        for beta in self.betas:
            pts.extend(field.mul(beta, field.pow(self.theta, l)) for l in range(q + 1))
        pts.append(0)
        self.points: Tuple[Element, ...] = tuple(pts)
        if len(set(self.points)) != t * (q + 1) + 1:
            raise RuntimeError("coset points are not distinct")
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

    @property
    def n(self) -> int:
        return self.t * (self.field.q + 1) + 1

    def coset_of(self, i: int) -> int:
        if i == self.n - 1:
            raise ValueError("the zero point belongs to no coset")
        return i // (self.field.q + 1)

    # -- closed forms ------------------------------------------------------

    def zero_difference_product(self) -> Element:
        """Closed form of prod_{i < n-1}(0 - a_i):
        (-1)**(n-1+qt) * prod_s beta_s**(q+1); always in GF(q)."""
        F = self.field
        q = self.field.q
        acc = F.pow(F.neg(1), self.n - 1 + q * self.t)
        for beta in self.betas:
            acc = F.mul(acc, F.norm(beta))
        return acc

    def nonzero_difference_product(self, i: int) -> Element:
        """Closed form of prod_{j != i}(a_i - a_j) for a nonzero point:
        a_i**(q+1) * prod_{s != r}(beta_r**(q+1) - beta_s**(q+1)); in GF(q)."""
        if not 0 <= i < self.n - 1:
            raise ValueError(f"index {i} is not a nonzero point")
        F = self.field
        return F.mul(F.norm(self.points[i]), self._coset_products[self.coset_of(i)])

    def difference_product(self, i: int) -> Element:
        if i == self.n - 1:
            return self.zero_difference_product()
        return self.nonzero_difference_product(i)

    def w(self, i: int) -> Element:
        if not 0 <= i < self.n:
            raise ValueError(f"index {i} out of range")
        return self.weights[i]

    def gamma(self) -> Tuple[Element, ...]:
        """Norm-equation solutions gamma_i with gamma_i**(q+1) == -w_i."""
        F = self.field
        return tuple(F.solve_norm(F.neg(w)) for w in self.weights)


def special_scaling_poly(field: FieldTower) -> Poly:
    """x**q + x - pi with pi = generator outside GF(q): a**q + a lies in
    GF(q) for every a, so the polynomial vanishes nowhere on the field."""
    q = field.q
    return Poly(field, [field.neg(field.generator), 1] + [0] * (q - 2) + [1])


def select_scaling_poly(design: MultiplicativeCosetDesign, k: int) -> Poly:
    """Monic polynomial of degree t+1-k that vanishes at no evaluation point.

    Degree >= 2: the first root-free monic polynomial.  Degree 1: x minus
    the first unused field element (one exists since the points do not
    exhaust the field when t < q-1).  Degree 0: the constant 1.  The corner
    (t, k) = (q-1, q-1) uses special_scaling_poly; it needs odd
    characteristic.
    """
    F = design.field
    q, t = F.q, design.t
    check_admissible(q, FAMILY_EXTENDED, t, k)
    ell = t + 1 - k
    if (t, k) == (q - 1, q - 1):
        m = special_scaling_poly(F)
    elif ell == 0:
        m = Poly.one(F)
    elif ell == 1:
        used = set(design.points)
        spare = next(x for x in F.elements() if x not in used)
        m = Poly(F, (F.neg(spare), 1))
    else:
        m = root_free_monic(F, ell)
    return m


def multiplicative_coset_code(
    q: int, t: int, k: int, element_bound: int = DEFAULT_ELEMENT_BOUND
) -> ConstructionResult:
    """Hermitian self-orthogonal extended GRS code with parameters
    [t(q+1)+2, k, t(q+1)+3-k] and the derived
    [[t(q+1)+2, t(q+1)-2k+2, k+1]]_q parameters, for (t, k) on the
    extended family's grid."""
    field = field_for_prime_power(q, element_bound)
    check_admissible(q, FAMILY_EXTENDED, t, k)
    design = MultiplicativeCosetDesign(field, t)
    m = select_scaling_poly(design, k)
    special = (t, k) == (q - 1, q - 1)
    provenance = PROVENANCE_EXTENDED_SPECIAL if special else PROVENANCE_EXTENDED
    witnesses = {
        "w": list(design.weights),
        "m_coeffs": list(m.coeffs),
        "gamma": list(design.gamma()),
    }
    v = reconstruct_multipliers(field, design.points, provenance, witnesses)
    if not all(v):
        raise RuntimeError("scaling polynomial vanishes at an evaluation point")
    code = GRSCode(field, design.points, v, k, extended=True)
    quantum = QuantumParams.from_classical(code.length, k, q, provenance)
    return ConstructionResult(code=code, quantum=quantum, witnesses=witnesses)


def quantum_params_for_distance(
    q: int, t: int, d: int, element_bound: int = DEFAULT_ELEMENT_BOUND
) -> ConstructionResult:
    """The extended-family construction parameterized by quantum distance d:
    [[t(q+1)+2, t(q+1)-2d+4, d]]_q via classical dimension k = d-1.
    Excluded: even characteristic with (t, d) = (q-1, q)."""
    return multiplicative_coset_code(q, t, d - 1, element_bound)


def reconstruct_multipliers(
    field: FieldTower,
    points: Sequence[Element],
    provenance: str,
    witnesses: Dict[str, List[Element]],
) -> Optional[Tuple[Element, ...]]:
    """The multipliers v that the witnesses fix on these points: the
    constructors build v with this function, and the verifier compares its
    output with code.v.

    Additive family: v_i solves the norm equation
    v_i**(q+1) = w_i * (alpha**q - alpha)**(t-1), or None when some right
    side is zero or outside GF(q), so no multipliers exist.  Extended
    family: v_i = m(a_i) * gamma_i, times a unit of norm 1/2 on the
    special corner (t, k) = (q-1, q-1)."""
    F = field
    if provenance == PROVENANCE_ADDITIVE:
        t = len(points) // F.q
        span = F.sub(F.frobenius(F.generator), F.generator)
        scale = F.pow(span, t - 1)
        norms = [F.mul(wi, scale) for wi in witnesses["w"]]
        if not all(x and F.in_subfield(x) for x in norms):
            return None
        return tuple(F.solve_norm(x) for x in norms)
    m = Poly(F, witnesses["m_coeffs"])
    v = [F.mul(m(a), g) for a, g in zip(points, witnesses["gamma"])]
    if provenance == PROVENANCE_EXTENDED_SPECIAL:
        unit = F.solve_norm(F.inv(F.from_int(2)))
        v = [F.mul(unit, x) for x in v]
    return tuple(v)
