"""Re-verification of constructed codes, the quantum parameters of a
classical code, parameter sweeps over both families, property suites for
every closed-form identity the constructions rely on, and the exhaustive
search showing no Hermitian self-orthogonal [5,1,5] code exists over GF(4).
The dual-span suites check each closed-form dual basis by orthogonality
and rank.

Verification policy: the Hermitian check is always exact; minimum distance
runs a strategy ladder on the code it is given (brute force while the code
has at most BRUTE_FORCE_CAP codewords, then the k-column rank test while
the subset count fits RANK_TEST_CAP, otherwise the MDS status certified by
the GRS construction is recorded as such).  A construction's witnesses
must reproduce its multipliers through construct.reconstruct_multipliers,
the function the constructors build them with.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from typing import IO, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .construct import (
    FAMILY_ADDITIVE,
    FAMILY_EXTENDED,
    ConstructionResult,
    PROVENANCE_ADDITIVE,
    AdditiveCosetDesign,
    MultiplicativeCosetDesign,
    ParameterError,
    QuantumParams,
    additive_coset_code,
    grid,
    multiplicative_coset_code,
    reconstruct_multipliers,
    special_scaling_poly,
)
from .field import DEFAULT_ELEMENT_BOUND, FieldTower, field_for_prime_power, make_field
from .grs import (
    CapExceeded,
    GRSCode,
    LinearCode,
    as_linear_code,
    dual_basis,
    encode,
    hermitian_dual_contains,
    in_hermitian_dual,
    is_hermitian_self_orthogonal,
    is_mds_by_rank,
    min_distance_bruteforce,
    row_products,
    w_vector,
)
from .linalg import rank
from .poly import Poly, root_free_monic
from .serialize import write_payload

#: Default q values covered by a sweep.
DEFAULT_SWEEP_Q = (2, 3, 4, 5, 7, 8, 9)

FAMILIES = (FAMILY_ADDITIVE, FAMILY_EXTENDED, "both")

STATUS_OK = "ok"
STATUS_FAIL = "fail"
STATUS_EXCLUDED = "excluded-by-paper"

CSV_COLUMNS = ("q", "t", "k", "family", "N", "K", "D", "n", "kq", "d", "status")

#: Random codewords per field in each Hermitian-membership suite.
MEMBERSHIP_TRIALS = 200

#: Largest point count in the dual-span suites, and the seeded subsets drawn
#: per point count on fields too large for every subset.
DUAL_SPAN_MAX_N = 10
DUAL_SPAN_SAMPLES = 20


class VerificationReport(NamedTuple):
    identity: str
    hermitian_self_orthogonal: bool
    hermitian_witness: Optional[Tuple[int, int, int]]
    distance_method: str  # "brute" | "rank" | "by-construction"
    measured_distance: Optional[int]
    mds: bool
    singleton_equality: bool
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.hermitian_self_orthogonal and self.mds and self.singleton_equality

    def as_dict(self) -> dict:
        # elapsed is deliberately left out: serialized reports must be
        # byte-stable across runs
        return {
            "identity": self.identity,
            "hermitian_self_orthogonal": self.hermitian_self_orthogonal,
            "hermitian_witness": list(self.hermitian_witness)
            if self.hermitian_witness
            else None,
            "distance_method": self.distance_method,
            "measured_distance": self.measured_distance,
            "mds": self.mds,
            "singleton_equality": self.singleton_equality,
            "passed": self.passed,
        }


def distance_ladder(code: Union[GRSCode, LinearCode]) -> Tuple[str, Optional[int], bool]:
    """(method, measured_distance, mds) for a GRS code or a LinearCode, per
    the kernels' caps.  Past both caps the method is "by-construction" with
    mds True, which only a GRS code's construction can back; callers
    holding a bare LinearCode must treat that rung as uncertified."""
    expected = code.length - code.k + 1
    try:
        measured = min_distance_bruteforce(code)
        return "brute", measured, measured == expected
    except CapExceeded:
        pass
    try:
        return "rank", None, is_mds_by_rank(code)
    except CapExceeded:
        # GRS / extended GRS codes are MDS by construction; record that no
        # independent method ran.
        return "by-construction", None, True


def derive_quantum(code: Union[GRSCode, LinearCode], provenance: str) -> QuantumParams:
    """[[N, N-2k, k+1]]_q from a Hermitian self-orthogonal classical [N, k]
    MDS code over GF(q^2); raises if either premise fails.

    GRS codes are MDS by construction; a bare LinearCode gets a distance
    check through distance_ladder, and is refused when neither brute force
    nor the rank test fits its cap.  The k = 0 edge yields the degenerate
    [[N, N, 1]] parameters, flagged.
    """
    ok, witness = is_hermitian_self_orthogonal(code)
    if not ok:
        raise ValueError(f"code is not Hermitian self-orthogonal: witness {witness}")
    if isinstance(code, LinearCode) and code.k:
        method, _, mds = distance_ladder(code)
        if method == "by-construction":
            raise ValueError("cannot certify the MDS premise")
        if not mds:
            raise ValueError("code is not MDS")
    return QuantumParams.from_classical(code.length, code.k, code.field.q, provenance)


def construction_identity(result: ConstructionResult) -> str:
    q = result.quantum.q
    code = result.code
    if result.quantum.provenance == PROVENANCE_ADDITIVE:
        t = code.n // q
    else:
        t = (code.length - 2) // (q + 1)
    return f"{result.quantum.provenance} q={q} t={t} k={code.k}"


def verify_code(code: GRSCode, identity: str = "code") -> VerificationReport:
    """Exact Hermitian self-orthogonality and the MDS distance via the
    ladder, for a bare GRS code (e.g. parsed from a file).  Its quantum
    parameters are derived from the code, so the Singleton bound is met
    with equality by definition."""
    start = time.perf_counter()
    ok, witness = is_hermitian_self_orthogonal(code)
    method, measured, mds = distance_ladder(code)
    return VerificationReport(
        identity=identity,
        hermitian_self_orthogonal=ok,
        hermitian_witness=witness,
        distance_method=method,
        measured_distance=measured,
        mds=mds,
        singleton_equality=True,
        elapsed=time.perf_counter() - start,
    )


def verify_construction(result: ConstructionResult) -> VerificationReport:
    """verify_code plus the bookkeeping a construction claims: its quantum
    parameters are the ones the classical code gives, and its witnesses
    reproduce the multipliers."""
    code, qp = result.code, result.quantum
    report = verify_code(code, construction_identity(result))
    derived = QuantumParams.from_classical(code.length, code.k, code.field.q, qp.provenance)
    v = reconstruct_multipliers(code.field, code.a, qp.provenance, result.witnesses)
    bookkeeping = qp == derived and v == code.v
    return report._replace(singleton_equality=bookkeeping)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------

class SweepRow(NamedTuple):
    """One construction instance: classical [N, K, D] over GF(q^2) and the
    derived quantum [[n, kq, d]]_q, with its verification status."""

    q: int
    t: int
    k: int
    family: str
    N: int
    K: int
    D: int
    n: int
    kq: int
    d: int
    status: str

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in CSV_COLUMNS}


def sweep(
    q_list: Sequence[int] = DEFAULT_SWEEP_Q,
    family: str = "both",
    element_bound: int = DEFAULT_ELEMENT_BOUND,
) -> List[SweepRow]:
    """One verified row per admissible (q, t, k); excluded parameter triples
    appear as explicit rows rather than silent gaps.  Output is a pure
    function of the arguments."""
    if family not in FAMILIES:
        raise ParameterError(f"family must be one of {FAMILIES}, got {family!r}")
    repeated = [q for q in q_list if q_list.count(q) > 1]
    if repeated:
        raise ParameterError(f"q={repeated[0]} is listed more than once")
    families = (FAMILY_ADDITIVE, FAMILY_EXTENDED) if family == "both" else (family,)
    rows: List[SweepRow] = []
    for q in q_list:
        field_for_prime_power(q, element_bound)  # rejects q before any row
        for fam in families:
            build = additive_coset_code if fam == FAMILY_ADDITIVE else multiplicative_coset_code
            for t, k, excluded in grid(q, fam):
                if excluded:
                    length, status = t * (q + 1) + 2, STATUS_EXCLUDED
                else:
                    res = build(q, t, k, element_bound)
                    passed = verify_construction(res).passed
                    length, status = res.code.length, STATUS_OK if passed else STATUS_FAIL
                qp = QuantumParams.from_classical(length, k, q, fam)
                rows.append(SweepRow(
                    q=q, t=t, k=k, family=fam, N=length, K=k, D=length - k + 1,
                    n=qp.n, kq=qp.k, d=qp.d, status=status,
                ))
    return rows


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(getattr(row, c)) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Iterable[SweepRow]) -> str:
    return json.dumps([row.as_dict() for row in rows], indent=2) + "\n"


def emit(rows: Sequence[SweepRow], fmt: str, destination: Union[str, IO[str]]) -> None:
    """Write rows in the given format ("csv" or "json"); bit-stable output."""
    formats = {"csv": rows_to_csv, "json": rows_to_json}
    if fmt not in formats:
        raise ValueError(f"unknown format {fmt!r}")
    write_payload(formats[fmt](rows), destination)


# ----------------------------------------------------------------------
# Nonexistence of a Hermitian self-orthogonal [5,1,5] code over GF(4)
# ----------------------------------------------------------------------

class NonexistenceRecord(NamedTuple):
    confirmed: bool
    candidates_examined: int


def five_one_five_search() -> NonexistenceRecord:
    """Exhaustive check that no Hermitian self-orthogonal [5,1,5] MDS code
    exists over GF(4).

    Distance 5 forces every generator coordinate nonzero, and a
    one-dimensional code is self-orthogonal iff the generator's Hermitian
    inner product with itself vanishes.  Scaling the generator scales that
    sum by a norm, so normalizing the first coordinate to 1 leaves 3**4 = 81
    candidate classes; each is examined.
    """
    F = make_field(2, 1)
    examined = 0
    for tail in itertools.product(F.nonzero_elements(), repeat=4):
        examined += 1
        total = F.norm(1)
        for c in tail:
            total = F.add(total, F.norm(c))
        if total == 0:
            return NonexistenceRecord(confirmed=False, candidates_examined=examined)
    return NonexistenceRecord(confirmed=True, candidates_examined=examined)


# ----------------------------------------------------------------------
# Property suites behind the check-lemmas subcommand
# ----------------------------------------------------------------------

class SuiteResult(NamedTuple):
    name: str
    cases: int
    passed: bool


def _point_sets(field: FieldTower):
    """Point sets for the dual-span suites: exhaustive subsets when the
    field is small enough, otherwise canonical prefixes plus a seeded
    sample of subsets."""
    order = field.order
    sizes = range(2, min(DUAL_SPAN_MAX_N, order) + 1)
    if order <= 9:
        for n in sizes:
            yield from itertools.combinations(range(order), n)
    else:
        rng = random.Random(order)
        for n in sizes:
            seen = {tuple(range(n))}
            yield tuple(range(n))
            for _ in range(DUAL_SPAN_SAMPLES):
                cand = tuple(sorted(rng.sample(range(order), n)))
                if cand not in seen:
                    seen.add(cand)
                    yield cand


def _suite_dual_spans(field: FieldTower, extended: bool) -> SuiteResult:
    """The closed-form dual basis D of each unit-multiplier code spans its
    Euclidean dual: every row of D is orthogonal to every generator row,
    rank(D) == len(D), and len(D) == length - k.  The generator's rank is
    k because the LinearCode it builds checks full row rank."""
    cases = 0
    passed = True
    for points in _point_sets(field):
        n = len(points)
        for k in range(1, n + 1 if extended else n):
            code = as_linear_code(GRSCode(field, points, (1,) * n, k, extended=extended))
            described = dual_basis(field, points, k, extended)
            cases += 1
            spans = (
                not any(any(row_products(field, d, code.rows)) for d in described)
                and len(described) == code.length - code.k == rank(field, described)
            )
            if not spans:
                passed = False
    name = "extended-dual-span" if extended else "dual-span"
    return SuiteResult(name, cases, passed)


def _suite_membership(field: FieldTower, extended: bool) -> SuiteResult:
    rng = random.Random(field.order * 2 + int(extended))
    passed = True
    for _ in range(MEMBERSHIP_TRIALS):
        n = rng.randrange(2, min(8, field.order) + 1)
        points = tuple(rng.sample(range(field.order), n))
        k = rng.randrange(1, n + 1)
        v = tuple(rng.randrange(1, field.order) for _ in range(n))
        code = GRSCode(field, points, v, k, extended=extended)
        f = Poly(field, [rng.randrange(field.order) for _ in range(k)])
        criterion = in_hermitian_dual(code, f)
        direct = hermitian_dual_contains(code, encode(code, f))
        if criterion != direct:
            passed = False
    name = "extended-hermitian-membership" if extended else "hermitian-membership"
    return SuiteResult(name, MEMBERSHIP_TRIALS, passed)


def _suite_additive_products(field: FieldTower) -> SuiteResult:
    q = field.q
    sub = field.subfield_elements()
    cases = 0
    passed = True
    for t in sorted({t for t, _, _ in grid(q, FAMILY_ADDITIVE)}):
        design = AdditiveCosetDesign(field, t)
        brute_w = w_vector(field, design.points)
        for tau in sub:
            acc = 1
            for h in sub:
                acc = field.mul(acc, field.sub(field.mul(tau, design.alpha), h))
            cases += 1
            if acc != design.full_span_product(tau):
                passed = False
        for s in range(t):
            coset = design.coset_elements(s)
            for b in coset:
                acc = 1
                for h in coset:
                    if h != b:
                        acc = field.mul(acc, field.sub(b, h))
                cases += 1
                if acc != design.within_coset_product():
                    passed = False
            for j in range(t):
                if j == s:
                    continue
                other = design.coset_elements(j)
                for b in coset:
                    acc = 1
                    for h in other:
                        acc = field.mul(acc, field.sub(b, h))
                    cases += 1
                    if acc != design.cross_coset_product(s, j):
                        passed = False
        for i in range(design.n):
            cases += 1
            unit = design.subfield_unit(i)
            if brute_w[i] != design.w(i) or unit == 0 or not field.in_subfield(unit):
                passed = False
    return SuiteResult("additive-coset-products", cases, passed)


def _suite_multiplicative_products(field: FieldTower) -> SuiteResult:
    q = field.q
    cases = 0
    passed = True
    for t in sorted({t for t, _, _ in grid(q, FAMILY_EXTENDED)}):
        design = MultiplicativeCosetDesign(field, t)
        gamma = design.gamma()
        brute_w = w_vector(field, design.points)
        for i in range(design.n):
            closed = design.difference_product(i)
            cases += 1
            if brute_w[i] != field.inv(closed) or not field.in_subfield(closed):
                passed = False
            cases += 1
            if gamma[i] == 0 or field.norm(gamma[i]) != field.neg(design.w(i)):
                passed = False
    return SuiteResult("multiplicative-coset-products", cases, passed)


def _suite_unity_root_factorization(field: FieldTower) -> SuiteResult:
    q = field.q
    theta = field.root_of_unity(q + 1)
    prod = Poly.one(field)
    for l in range(q + 1):
        prod = prod * Poly(field, (field.neg(field.pow(theta, l)), 1))
    target_coeffs = [field.neg(1)] + [0] * q + [1]
    target = Poly(field, target_coeffs)
    return SuiteResult("unity-root-factorization", 1, prod == target)


def _suite_unity_root_cofactors(field: FieldTower) -> SuiteResult:
    q = field.q
    theta = field.root_of_unity(q + 1)
    cases = 0
    passed = True
    for m in range(q + 1):
        acc = 1
        for l in range(q + 1):
            if l != m:
                acc = field.mul(
                    acc, field.sub(field.pow(theta, m), field.pow(theta, l))
                )
        cases += 1
        if acc != field.pow(theta, q * m):
            passed = False
    return SuiteResult("unity-root-cofactors", cases, passed)


def _suite_root_free(field: FieldTower) -> SuiteResult:
    cases = 0
    passed = True
    for degree in (2, 3):
        m = root_free_monic(field, degree)
        cases += 1
        if not (
            m.is_monic()
            and m.degree == degree
            and all(m(x) != 0 for x in field.elements())
        ):
            passed = False
    return SuiteResult("root-free-polynomials", cases, passed)


def _suite_special_multiplier(field: FieldTower) -> SuiteResult:
    """Expansion of the norm of m(x) = x**q + x - pi: with s = a**q + a,
    m(a)**(q+1) = (s - pi**q)(s - pi)
                = a**2 + a**2q + 2a**(q+1) - (pi + pi**q)(a**q + a) + pi**(q+1)
    at every point a.  Odd characteristic only (the 2a**(q+1) term, which
    the special-case multiplier relies on, vanishes mod 2)."""
    q = field.q
    pi = field.generator
    m = special_scaling_poly(field)
    two = field.from_int(2)
    pi_trace = field.add(pi, field.frobenius(pi))
    cases = 0
    passed = True
    for a in field.elements():
        lhs = field.norm(m(a))
        rhs = field.add(field.mul(a, a), field.pow(a, 2 * q))
        rhs = field.add(rhs, field.mul(two, field.norm(a)))
        rhs = field.sub(rhs, field.mul(pi_trace, field.add(field.frobenius(a), a)))
        rhs = field.add(rhs, field.norm(pi))
        cases += 1
        if lhs != rhs:
            passed = False
    return SuiteResult("special-multiplier-expansion", cases, passed)


def identity_suites(q: int, element_bound: int = DEFAULT_ELEMENT_BOUND) -> List[SuiteResult]:
    """All property suites for one q: dual spans, membership criteria,
    coset product closed forms, root-of-unity identities, norm-equation
    multipliers, root-free polynomials, and (odd q) the special-case
    multiplier expansion."""
    field = field_for_prime_power(q, element_bound)
    suites = [
        _suite_dual_spans(field, extended=False),
        _suite_dual_spans(field, extended=True),
        _suite_membership(field, extended=False),
        _suite_membership(field, extended=True),
        _suite_additive_products(field),
        _suite_multiplicative_products(field),
        _suite_unity_root_factorization(field),
        _suite_unity_root_cofactors(field),
        _suite_root_free(field),
    ]
    if field.p != 2:
        suites.append(_suite_special_multiplier(field))
    return suites
